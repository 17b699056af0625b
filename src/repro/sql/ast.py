"""SQL AST node definitions."""

from __future__ import annotations

from dataclasses import dataclass, field


# -- expressions --------------------------------------------------------------

# A literal parsed through the statement cache carries a ``slot``: its
# index among the statement's lifted literals.  A compiled plan reads a
# slotted literal from the execution's parameters (so one plan serves
# every binding of the statement's shape) and EXPLAIN renders the bound
# value.  Slots take no part in equality: rules compare literals by value.


@dataclass(frozen=True)
class Literal:
    value: object  # str, int, float, None
    slot: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DateLiteral:
    days: int
    slot: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class ColumnRef:
    table: str | None  # alias, or None when unqualified
    column: str


@dataclass(frozen=True)
class Star:
    table: str | None = None  # for COUNT(*) and SELECT *


@dataclass(frozen=True)
class BinaryOp:
    op: str  # = <> < <= > >= + - * / || and or
    left: object
    right: object


@dataclass(frozen=True)
class UnaryOp:
    op: str  # not, -
    operand: object


@dataclass(frozen=True)
class InList:
    operand: object
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: object
    low: object
    high: object
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    operand: object
    negated: bool = False


@dataclass(frozen=True)
class LikeOp:
    operand: object
    pattern: object
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr:
    whens: tuple  # of (condition, result)
    else_result: object | None


@dataclass(frozen=True)
class FunctionCall:
    name: str  # lower-cased
    args: tuple
    distinct: bool = False


@dataclass(frozen=True)
class Subquery:
    """A parenthesized SELECT used as a value or IN-list source.

    As a value it must produce a single column; scalar usage additionally
    requires at most one row (NULL when empty).
    """

    select: object  # ast.Select


@dataclass(frozen=True)
class InSubquery:
    operand: object
    subquery: "Subquery"
    negated: bool = False


@dataclass(frozen=True)
class ExistsSubquery:
    subquery: "Subquery"
    negated: bool = False


@dataclass(frozen=True)
class XmlAttribute:
    value: object
    name: str


@dataclass(frozen=True)
class XmlElementExpr:
    """``XMLElement(Name "tag", [XMLAttributes(...)], content...)``."""

    tag: str
    attributes: tuple  # of XmlAttribute
    content: tuple  # of expressions


@dataclass(frozen=True)
class XmlAggExpr:
    """``XMLAgg(expr [ORDER BY ...])`` — an aggregate over group rows."""

    operand: object
    order_by: tuple = ()  # of OrderItem


# -- statements ------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: object
    alias: str | None = None


@dataclass(frozen=True)
class TemporalClause:
    """``FOR SYSTEM_TIME ...`` suffix on a table source.

    ``kind`` is ``"as_of"`` (``high`` is None), ``"from_to"``
    (closed-open window ``[low, high)``) or ``"between"`` (closed-closed
    window ``[low, high]``).  Bounds are expressions: DateLiteral,
    integer Literal (days since epoch) or Param.
    """

    kind: str  # as_of | from_to | between
    low: object
    high: object | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str
    temporal: TemporalClause | None = None


@dataclass(frozen=True)
class TableFunctionRef:
    """``TABLE(fn(args)) AS alias(col, ...)``."""

    function: str
    args: tuple
    alias: str
    columns: tuple
    temporal: TemporalClause | None = None


@dataclass(frozen=True)
class TemporalJoinRef:
    """``left TEMPORAL JOIN right ON condition`` — a sequenced join source.

    Both sides must expose ``tstart``/``tend``; matched rows carry the
    intersection of the two validity intervals.
    """

    left: object  # TableRef | TableFunctionRef | TemporalJoinRef
    right: object
    on: object  # join condition expression


@dataclass(frozen=True)
class OrderItem:
    expr: object
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple
    sources: tuple  # of TableRef | TableFunctionRef | TemporalJoinRef
    where: object | None = None
    group_by: tuple = ()
    order_by: tuple = ()
    limit: int | None = None
    distinct: bool = False
    normalize: bool = False  # SELECT NORMALIZE: coalesce adjacent periods


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple
    rows: tuple  # of tuples of expressions


@dataclass(frozen=True)
class InsertSelect:
    table: str
    columns: tuple
    select: Select


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple  # of (column, expr)
    where: object | None


@dataclass(frozen=True)
class Delete:
    table: str
    where: object | None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple  # of ColumnDef
    primary_key: tuple = ()


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: tuple
    unique: bool = False


@dataclass(frozen=True)
class DropTable:
    name: str


# -- traversal ----------------------------------------------------------------


def child_exprs(node: object):
    """Yield the direct sub-expressions of an expression node.

    Subquery bodies are *not* descended into: they are planned separately
    and (being uncorrelated) cannot reference the enclosing scope.
    """
    if isinstance(node, BinaryOp):
        yield node.left
        yield node.right
    elif isinstance(node, UnaryOp):
        yield node.operand
    elif isinstance(node, InList):
        yield node.operand
        yield from node.items
    elif isinstance(node, Between):
        yield node.operand
        yield node.low
        yield node.high
    elif isinstance(node, (IsNull,)):
        yield node.operand
    elif isinstance(node, LikeOp):
        yield node.operand
        yield node.pattern
    elif isinstance(node, FunctionCall):
        yield from node.args
    elif isinstance(node, XmlElementExpr):
        for attr in node.attributes:
            yield attr.value
        yield from node.content
    elif isinstance(node, XmlAggExpr):
        yield node.operand
        for item in node.order_by:
            yield item.expr
    elif isinstance(node, CaseExpr):
        for condition, result in node.whens:
            yield condition
            yield result
        if node.else_result is not None:
            yield node.else_result
    elif isinstance(node, InSubquery):
        yield node.operand


def walk_exprs(node: object):
    """Yield ``node`` and every expression nested below it (pre-order)."""
    yield node
    for child in child_exprs(node):
        yield from walk_exprs(child)


def flat_source_refs(sources):
    """Yield every TableRef/TableFunctionRef in ``sources``, flattening
    TemporalJoinRef trees into their leaf references."""
    for source in sources:
        if isinstance(source, TemporalJoinRef):
            yield from flat_source_refs((source.left, source.right))
        else:
            yield source

