"""XQuery AST node definitions.

The parser produces these dataclasses; the native evaluator walks them and
the ArchIS translator pattern-matches on them (paper Algorithm 1 consumes
the query's for/let/where/return structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Expr = Union[
    "Literal",
    "VarRef",
    "ContextItem",
    "SequenceExpr",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "PathExpr",
    "Flwor",
    "Quantified",
    "IfExpr",
    "DirectElement",
    "ComputedElement",
]


@dataclass(frozen=True)
class Literal:
    """A string or numeric literal.  ``pos`` is its offset in the query
    text (the translator ties its slot to a lifted value); it takes no
    part in equality."""

    value: object
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class VarRef:
    """A ``$name`` variable reference."""

    name: str


@dataclass(frozen=True)
class ContextItem:
    """The ``.`` context item."""


@dataclass(frozen=True)
class SequenceExpr:
    """Comma sequence construction: ``expr, expr, ...``."""

    items: tuple


@dataclass(frozen=True)
class BinaryOp:
    """``and``/``or``, general comparisons, arithmetic."""

    op: str
    left: object
    right: object


@dataclass(frozen=True)
class UnaryOp:
    """Unary minus / plus."""

    op: str
    operand: object


@dataclass(frozen=True)
class FunctionCall:
    """``name(arg, ...)`` — built-in, temporal or ``xs:`` constructor."""

    name: str
    args: tuple


@dataclass(frozen=True)
class Step:
    """One path step.

    ``axis`` is ``child`` or ``descendant``; ``test`` is an element name,
    ``*``, ``@attr`` or ``text()``.  ``predicates`` are full expressions
    evaluated with the candidate node as context item.
    """

    axis: str
    test: str
    predicates: tuple = ()


@dataclass(frozen=True)
class PathExpr:
    """``start/step/step...``.

    ``start`` is None for absolute paths (resolved against the context
    document) or an expression (``doc(...)``, ``$v``, ``.``, parenthesized).
    The first step may also carry predicates when the path begins with a
    name test.
    """

    start: object | None
    steps: tuple


@dataclass(frozen=True)
class ForClause:
    var: str
    source: object
    position_var: str | None = None


@dataclass(frozen=True)
class LetClause:
    var: str
    source: object


@dataclass(frozen=True)
class WhereClause:
    condition: object


@dataclass(frozen=True)
class OrderSpec:
    key: object
    descending: bool = False


@dataclass(frozen=True)
class OrderByClause:
    specs: tuple


@dataclass(frozen=True)
class Flwor:
    """A FLWOR expression: interleaved for/let/where clauses + return."""

    clauses: tuple
    return_expr: object


@dataclass(frozen=True)
class QuantifiedBinding:
    var: str
    source: object


@dataclass(frozen=True)
class Quantified:
    """``some|every $v in expr (, ...) satisfies expr``."""

    kind: str  # "some" | "every"
    bindings: tuple
    condition: object


@dataclass(frozen=True)
class IfExpr:
    condition: object
    then_branch: object
    else_branch: object


@dataclass(frozen=True)
class AttrTemplate:
    """A direct-constructor attribute: literal text and embedded exprs."""

    name: str
    parts: tuple  # of str (literal) or Expr


@dataclass(frozen=True)
class DirectElement:
    """``<name attr="...">content</name>`` with ``{expr}`` holes."""

    name: str
    attrs: tuple  # of AttrTemplate
    content: tuple  # of str (literal text) or Expr


@dataclass(frozen=True)
class ComputedElement:
    """``element name { content }``."""

    name: str
    content: object | None
