"""XQuery → SQL/XML translation (paper Section 5.3, Algorithm 1).

The five steps of the paper's algorithm map onto this module as follows:

1. *Identification of variable range* — :class:`Analyzer` classifies every
   ``for``/``let`` variable as an **entity variable** (ranging over
   ``doc(...)/root/entity``, backed by the relation's key table) or an
   **attribute variable** (``$e/attr`` or a full path to an attribute,
   backed by that attribute's history table) and assigns each used
   variable a tuple alias in the FROM clause.
2. *Generation of join conditions* — aliases belonging to the same entity
   chain are joined on their ``id`` columns.
3. *Generation of the where conditions* — predicates from path steps and
   the ``where`` clause become SQL conditions via the expression mapper.
4. *Translation of built-in functions* — ``tstart``/``tend`` map to the
   timestamp columns (``tend`` equality uses the ``tendval`` UDF for *now*
   substitution), interval predicates map to the SQL temporal UDFs, and
   ``telement`` literals fold into constant intervals.
5. *Output generation* — the return clause becomes ``XMLElement`` /
   ``XMLAttributes`` / ``XMLAgg`` expressions.

Each XQuery literal becomes a slot of the SQL (``$n``, ``DATE $n``)
whose value is bound per query, never SQL text (:class:`Translation`).
Storage access is not the translator's job: it names each H-table
plainly, the planner reads one whose heap is not its history (more than
one segment, or compressed) through ``history_<table>``
(:mod:`repro.plan.build`), and the optimizer's segment restriction of
Sections 6.3/6.4 narrows that read when predicates bound the alias to a
window (:mod:`repro.plan.rules`).

Anything outside this subset raises :class:`UnsupportedQueryError`; the
ArchIS facade can then fall back to native evaluation on published views.

One deliberate deviation from the paper's QUERY 1 example: when a FLWOR is
wrapped in a constructor, we aggregate all rows into a single element
(matching the XQuery semantics the native engine implements) instead of
producing one element per key as the paper's GROUP BY N.id translation
does; see DESIGN.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, TYPE_CHECKING

from repro.errors import TranslationError, UnsupportedQueryError, XQueryTypeError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.rdb.types import ColumnType
from repro.util.timeutil import parse_date
from repro.xquery import ast, parse_xquery

_TRANSLATE_SECONDS = get_registry().histogram("xquery.translate.seconds")
_TRANSLATIONS = get_registry().counter("xquery.translations")

if TYPE_CHECKING:
    from repro.archis.system import ArchIS
    from repro.archis.htables import TrackedRelation


@dataclass(frozen=True)
class Translation:
    """A translated query shape: SQL plus an optional post-processing
    step (used for temporal aggregates that SQL computes as ordered row
    streams, paper Section 5.4's OLAP-function mapping).

    The SQL names each literal the translator lifted by slot: ``$n``, or
    ``DATE $n`` for a date.  ``slots`` gives, per slot, its kind and the
    index of its literal in the shape's literals (as
    :func:`~repro.xquery.parser.query_shape` lists them); :meth:`bind`
    converts a binding's literals to the slot values.  A shape whose
    text and literals the translator did not match one to one (a number
    in a direct constructor's content, say) is ``pinned``: it holds its
    text and its own literal values, and answers for that text only.
    """

    sql: str
    post: Callable | None = None
    slots: tuple[tuple[str, int], ...] = ()
    pinned: tuple[str, tuple] | None = None

    def answers(self, query: str) -> bool:
        return self.pinned is None or self.pinned[0] == query

    def bind(self, literals: list) -> tuple:
        """The slot values of one binding: ``literals`` as
        ``query_shape`` lists them."""
        if self.pinned is not None:
            values = self.pinned[1]
        else:
            values = [value for _, value in literals]
        return tuple(_CONVERT[kind](values[i]) for kind, i in self.slots)


#: a column reference through a translator alias (``t3.salary``)
_ALIAS_REF = re.compile(r"\b(t\d+)\.")


@dataclass
class VarInfo:
    """One bound variable resolved to an H-table alias."""

    name: str
    kind: str  # "entity" | "attribute"
    relation: "TrackedRelation"
    alias: str
    attribute: str | None = None  # attribute vars only
    parent: "VarInfo | None" = None  # attribute vars: their entity var
    used: bool = False  # becomes a FROM source only when used

    @property
    def table(self) -> str:
        if self.kind == "entity":
            return self.relation.key_table
        return self.relation.attribute_table(self.attribute)

    @property
    def value_column(self) -> str:
        if self.kind == "entity":
            raise TranslationError(f"${self.name}: entity vars have no value")
        return self.attribute

    def value_type(self) -> ColumnType | None:
        if self.kind == "entity":
            return None
        if self.attribute == "id":
            return ColumnType.INT
        return self.relation.attributes[self.attribute]


def _unsupported(reason: str) -> UnsupportedQueryError:
    return UnsupportedQueryError(f"not translatable: {reason}")


class Analyzer:
    """Implements Algorithm 1 over the XQuery AST."""

    def __init__(self, archis: "ArchIS") -> None:
        self.archis = archis
        self.vars: dict[str, VarInfo] = {}
        self.all_vars: list[VarInfo] = []
        #: WHERE conditions: SQL text, or a callable that writes it when
        #: the SQL is built (a step test naming its entity's anchor)
        self.conditions: list = []
        self.joins: list[str] = []
        #: while an entity's step predicate is translated: the entity and
        #: the attribute aliases of it read (its subquery's sources)
        self._tested: tuple[VarInfo, list] | None = None
        self._alias_count = 0
        # mapped `order by` keys: (sql, descending)
        self.order_specs: list[tuple[str, bool]] = []
        # every literal the SQL names by slot: (kind, Literal node)
        self._slots: list[tuple[str, ast.Literal]] = []

    # -- entry --------------------------------------------------------------

    def translate(self, query: str, literals: list) -> Translation:
        """Translate ``query``, whose shape lifted ``literals`` (``(pos,
        value)`` pairs, as :func:`~repro.xquery.parser.query_shape` lists
        them).

        Each slot is tied to the lifted literal at its node's offset (the
        scanner and ``query_shape`` match a literal with the same
        pattern, so a literal at the same offset is the same token).
        When some slot has no lifted literal, or some lifted literal no
        slot, the translation is pinned to this text.
        """
        started = perf_counter()
        tracer = get_tracer()
        try:
            with tracer.span("xquery.parse"):
                node = parse_xquery(query)
            with tracer.span("sql.generate"):
                translation = self._translate_node(node)
        finally:
            _TRANSLATE_SECONDS.observe(perf_counter() - started)
        _TRANSLATIONS.inc()
        index_of = {pos: i for i, (pos, _) in enumerate(literals)}
        lifted = [index_of.get(node.pos) for _, node in self._slots]
        if None not in lifted and len(set(lifted)) == len(literals):
            slots = tuple(
                (kind, i) for (kind, _), i in zip(self._slots, lifted)
            )
            return replace(translation, slots=slots)
        return replace(
            translation,
            slots=tuple((kind, i) for i, (kind, _) in enumerate(self._slots)),
            pinned=(query, tuple(node.value for _, node in self._slots)),
        )

    def _slot(self, kind: str, node: ast.Literal) -> str:
        """Name ``node``'s value in the SQL by a slot of ``kind``: bound
        as a ``value`` (a number or string), a ``numeric`` (tested
        for equality with a numeric column, see :func:`_numeric`) or a
        ``date`` (a day number)."""
        self._slots.append((kind, node))
        slot = f"${len(self._slots) - 1}"
        return f"DATE {slot}" if kind == "date" else slot

    def _translate_node(self, node: object) -> Translation:
        wrapper = None
        if isinstance(node, ast.ComputedElement):
            wrapper = node.name
            node = node.content
        if isinstance(node, ast.FunctionCall):
            return self._translate_aggregate_call(node, wrapper)
        if isinstance(node, ast.PathExpr):
            # bare path query: treat as `for $x in path return $x`
            node = ast.Flwor(
                (ast.ForClause("__x", node),), ast.VarRef("__x")
            )
        if not isinstance(node, ast.Flwor):
            raise _unsupported(f"top-level {type(node).__name__}")
        return self._translate_flwor(node, wrapper)

    # -- aggregate wrappers: count(path), avg(path), max(flwor), tavg($s) ----------

    def _translate_aggregate_call(
        self, call: ast.FunctionCall, wrapper: str | None
    ) -> Translation:
        name = call.name.lower()
        if name in ("tavg", "tsum", "tcount", "tmin", "tmax"):
            return self._translate_temporal_aggregate(call, name)
        if name not in ("count", "avg", "max", "min", "sum"):
            raise _unsupported(f"top-level function {name}()")
        if len(call.args) != 1:
            raise _unsupported(f"{name}() with {len(call.args)} arguments")
        arg = call.args[0]
        if (
            name == "count"
            and isinstance(arg, ast.FunctionCall)
            and arg.name.lower() == "distinct-values"
            and len(arg.args) == 1
        ):
            # count(distinct-values(path)) -> COUNT(DISTINCT col):
            # the paper's Q5 counts distinct *employees*, not versions
            inner = arg.args[0]
            if not isinstance(inner, ast.PathExpr):
                raise _unsupported("distinct-values over a non-path")
            var = self._path_to_var(inner, None)
            var.used = True
            select = f"count(DISTINCT {self._value_sql(var)})"
            return self._finish_scalar(select)
        if isinstance(arg, ast.PathExpr):
            var = self._bind_path("__agg", arg)
            var.used = True
            sql_arg = "*" if name == "count" else self._value_sql(var)
            if name == "count" and var.kind == "entity":
                # one element per key, however many lifetimes it had
                sql_arg = f"DISTINCT {self._value_sql(var)}"
            return self._finish_scalar(f"{name}({sql_arg})")
        if isinstance(arg, ast.Flwor):
            self._analyze_clauses(arg.clauses)
            value_sql, var = self._operand(arg.return_expr, None)
            fors = [c for c in arg.clauses if isinstance(c, ast.ForClause)]
            if (
                name == "count"
                and var is not None
                and var.kind == "entity"
                and len(fors) == 1
                and self.vars.get(fors[0].var) is var
            ):
                # one for over the entities returns each once; the
                # attribute versions its where clause joins repeat its key
                value_sql = f"DISTINCT {value_sql}"
            return self._finish_scalar(f"{name}({value_sql})")
        raise _unsupported(f"{name}() over {type(arg).__name__}")

    def _translate_temporal_aggregate(
        self, call: ast.FunctionCall, name: str
    ) -> Translation:
        if len(call.args) != 1:
            raise _unsupported(f"{name}() needs a single argument")
        arg = call.args[0]
        if isinstance(arg, ast.VarRef):
            var = self._require_var(arg.name)
        elif isinstance(arg, ast.PathExpr):
            var = self._path_to_var(arg, None)
        else:
            raise _unsupported(f"{name}() over {type(arg).__name__}")
        var.used = True
        if var.kind != "attribute":
            raise _unsupported(f"{name}() over a non-attribute path")
        # emit the aggregate itself: the planner lowers tavg/tcount/...
        # into a SequencedAggregate plan node whose output rows are
        # (value, tstart, tend) — one per constant-value period — so the
        # sweep runs inside the engine, not in a Python post-pass
        sql = self._build_sql(
            select=f"{name}({self._alias_col(var, var.value_column)})"
        )

        def post(result):
            from repro.util.intervals import Interval
            from repro.xquery.temporal import interval_element
            from repro.xmlkit.dom import Text

            out = []
            for value, tstart, tend in result.rows:
                element = interval_element(Interval(int(tstart), int(tend)))
                element.name = name
                rendered = (
                    str(int(value)) if float(value).is_integer() else str(value)
                )
                element.append(Text(rendered))
                out.append(element)
            return out

        return Translation(sql, post)

    def _finish_scalar(self, select: str) -> Translation:
        sql = self._build_sql(select=select)

        def post(result):
            return [result.scalar()]

        return Translation(sql, post)

    # -- FLWOR ------------------------------------------------------------------------

    def _translate_flwor(
        self, flwor: ast.Flwor, wrapper: str | None
    ) -> Translation:
        self._analyze_clauses(flwor.clauses)
        if isinstance(flwor.return_expr, ast.FunctionCall):
            name = flwor.return_expr.name.lower()
            if name in ("tavg", "tsum", "tcount", "tmin", "tmax"):
                return self._translate_temporal_aggregate(
                    flwor.return_expr, name
                )
            if name in ("count", "avg", "max", "min", "sum"):
                arg = flwor.return_expr.args[0]
                value_sql, _ = self._operand(arg, None)
                if name == "count" and isinstance(arg, (ast.VarRef, ast.PathExpr)):
                    value_sql = "*"
                return self._finish_scalar(f"{name}({value_sql})")
        content = self._return_sql(flwor.return_expr)
        order_sql = ", ".join(
            f"{sql} DESC" if desc else sql for sql, desc in self.order_specs
        )
        if wrapper is not None:
            # ordering applies to the aggregated forest (SQL/XML's
            # XMLAgg ... ORDER BY)
            agg = (
                f"XMLAgg({content} ORDER BY {order_sql})"
                if order_sql
                else f"XMLAgg({content})"
            )
            select = f"XMLElement(Name \"{wrapper}\", {agg})"
            sql = self._build_sql(select=select)
        else:
            select = content
            sql = self._build_sql(select=select, order_by=order_sql or None)

        def post(result):
            return result.xml()

        return Translation(sql, post)

    def _analyze_clauses(self, clauses: tuple) -> None:
        for clause in clauses:
            if isinstance(clause, ast.ForClause):
                if clause.position_var:
                    raise _unsupported("positional for-variables")
                var = self._bind_source(clause.var, clause.source)
            elif isinstance(clause, ast.LetClause):
                self._bind_source(clause.var, clause.source)
            elif isinstance(clause, ast.WhereClause):
                self._add_condition(clause.condition)
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    sql, _ = self._operand(
                        self._strip_string_call(spec.key), None
                    )
                    self.order_specs.append((sql, spec.descending))
            else:
                raise _unsupported(f"{type(clause).__name__}")

    @staticmethod
    def _is_tend_call(node: object) -> bool:
        return (
            isinstance(node, ast.FunctionCall)
            and node.name.lower() == "tend"
        )

    @staticmethod
    def _strip_string_call(node: object) -> object:
        """Unwrap ``string(expr)`` in order-by keys (typed columns sort)."""
        if (
            isinstance(node, ast.FunctionCall)
            and node.name.lower() == "string"
            and len(node.args) == 1
        ):
            return node.args[0]
        return node

    # -- variable binding (Algorithm 1 step 1) -------------------------------------------

    def _bind_source(self, name: str, source: object) -> VarInfo:
        if isinstance(source, ast.PathExpr):
            var = self._bind_path(name, source)
            self.vars[name] = var
            return var
        if isinstance(source, ast.FunctionCall):
            raise _unsupported(f"for/let over {source.name}()")
        raise _unsupported(f"for/let over {type(source).__name__}")

    def _new_alias(self) -> str:
        self._alias_count += 1
        return f"t{self._alias_count}"

    def _bind_path(self, name: str, path: ast.PathExpr) -> VarInfo:
        steps = list(path.steps)
        if isinstance(path.start, ast.FunctionCall) and path.start.name in (
            "doc",
            "document",
        ):
            return self._bind_doc_path(name, path.start, steps)
        if isinstance(path.start, ast.VarRef):
            return self._bind_relative_path(name, path.start.name, steps)
        raise _unsupported("path must start at doc() or a bound variable")

    def _bind_doc_path(
        self, name: str, doc_call: ast.FunctionCall, steps: list
    ) -> VarInfo:
        if len(doc_call.args) != 1 or not isinstance(
            doc_call.args[0], ast.Literal
        ):
            raise _unsupported("doc() with a non-literal URI")
        uri = str(doc_call.args[0].value)
        relation = self.archis.relation_for_document(uri)
        if len(steps) < 2:
            raise _unsupported("path must reach the entity element")
        root_step, entity_step, *rest = steps
        if root_step.predicates:
            raise _unsupported("predicates on the document root")
        if entity_step.test != relation.name:
            raise _unsupported(
                f"step {entity_step.test!r} does not match relation "
                f"{relation.name!r}"
            )
        entity = VarInfo(
            name=f"{name}__entity" if rest else name,
            kind="entity",
            relation=relation,
            alias=self._new_alias(),
        )
        self.all_vars.append(entity)
        self._apply_predicates(entity, entity_step.predicates)
        if not rest:
            self.vars[name] = entity
            return entity
        if len(rest) > 1:
            raise _unsupported("paths deeper than entity/attribute")
        var = self._attribute_var(name, entity, rest[0])
        self.vars[name] = var
        return var

    def _bind_relative_path(
        self, name: str, parent_name: str, steps: list
    ) -> VarInfo:
        parent = self.vars.get(parent_name)
        if parent is None:
            raise _unsupported(f"${parent_name} is not a translatable binding")
        if parent.kind != "entity":
            raise _unsupported(
                f"${parent_name}: navigation below attributes"
            )
        if len(steps) != 1:
            raise _unsupported("relative paths must be a single step")
        var = self._attribute_var(name, parent, steps[0])
        self.vars[name] = var
        return var

    def _attribute_var(
        self, name: str, entity: VarInfo, step: ast.Step
    ) -> VarInfo:
        if step.axis not in ("child",):
            raise _unsupported(f"axis {step.axis!r}")
        attribute = step.test
        relation = entity.relation
        if attribute == "id" or attribute == relation.key:
            # the key's history lives in the key table: alias the entity
            var = VarInfo(
                name=name,
                kind="attribute",
                relation=relation,
                alias=entity.alias,
                attribute="id",
                parent=entity,
            )
            anchor = getattr(entity, "_anchor", None)
            if not entity.used:
                entity.used = True
                if anchor is not None and anchor is not entity:
                    self._join_key_versions(entity, anchor)
                else:
                    entity._anchor = entity  # type: ignore[attr-defined]
            self.all_vars.append(var)
            self._apply_predicates(var, step.predicates)
            return var
        if attribute not in relation.attributes:
            raise _unsupported(
                f"{relation.name} has no attribute {attribute!r}"
            )
        var = VarInfo(
            name=name,
            kind="attribute",
            relation=relation,
            alias=self._new_alias(),
            attribute=attribute,
            parent=entity,
        )
        var.used = True
        if self._tested is not None and self._tested[0] is entity:
            self._tested[1].append(var)
        else:
            self.all_vars.append(var)
            self._join_to_parent(var)
        self._apply_predicates(var, step.predicates)
        return var

    def _join_to_parent(self, var: VarInfo) -> None:
        """Algorithm 1 step 2: id-join an attribute alias to its entity.

        The entity's first alias is its anchor.  When the anchor is the
        key table, the first attribute alias joined to it is paired with
        it by lifetime (:meth:`_join_key_versions`); later ones join on
        ``id``, which then repeats no attribute version.
        """
        entity = var.parent
        anchor = getattr(entity, "_anchor", None)
        if anchor is None:
            anchor = entity if entity.used else var
        entity._anchor = anchor  # type: ignore[attr-defined]
        if anchor is var:
            return
        if anchor is entity and not getattr(entity, "_paired", False):
            self._join_key_versions(entity, var)
        else:
            self.joins.append(f"{anchor.alias}.id = {var.alias}.id")

    def _join_key_versions(self, entity: VarInfo, var: VarInfo) -> None:
        """Join the key table to an attribute alias, pairing each
        attribute version with the one key version whose lifetime holds
        its start: a key deleted and inserted again has one key-table row
        per lifetime, and a join on ``id`` alone would repeat every
        attribute version once per lifetime."""
        key, attr = entity.alias, var.alias
        self.joins.append(
            f"{key}.id = {attr}.id AND {key}.tstart <= {attr}.tstart "
            f"AND {attr}.tstart <= {key}.tend"
        )
        entity._paired = True  # type: ignore[attr-defined]

    def _entity_anchor(self, entity: VarInfo) -> VarInfo:
        """The alias representing an entity in SQL (its key table when
        used directly, else the first attribute alias joined to it)."""
        anchor = getattr(entity, "_anchor", None)
        if anchor is not None:
            return anchor
        entity.used = True
        entity._anchor = entity  # type: ignore[attr-defined]
        return entity

    # -- predicates & conditions (Algorithm 1 steps 3-4) --------------------------------------

    def _apply_predicates(self, var: VarInfo, predicates: tuple) -> None:
        for predicate in predicates:
            if var.kind == "entity":
                self._add_entity_test(predicate, var)
            else:
                self._add_condition(predicate, context=var)

    def _add_entity_test(self, node: object, entity: VarInfo) -> None:
        """A step predicate of an entity, ``employee[salary > 5]``: it
        asks whether *some* version qualifies, so the attributes it reads
        form an ``IN`` subquery rather than join the outer FROM, where
        each qualifying version would repeat the entity's rows.  A test
        of the key or the entity's interval stays a plain condition."""
        if isinstance(node, ast.BinaryOp) and node.op == "and":
            self._add_entity_test(node.left, entity)
            self._add_entity_test(node.right, entity)
            return
        outer_tested, outer_conditions = self._tested, self.conditions
        tested: list[VarInfo] = []
        self._tested, self.conditions = (entity, tested), []
        try:
            sql = self._condition_sql(node, entity)
            conditions = self.conditions
        finally:
            self._tested, self.conditions = outer_tested, outer_conditions
        if sql is not None:
            conditions.append(sql)
        if not tested:
            self.conditions.extend(conditions)
            return
        own = {var.alias for var in tested}
        if not all(
            isinstance(c, str) and set(_ALIAS_REF.findall(c)) <= own
            for c in conditions
        ):
            # the subquery is uncorrelated: it cannot read the key or
            # another variable of the enclosing query
            raise _unsupported("a step predicate reading other sources")
        first = tested[0]
        where = [f"{first.alias}.id = {var.alias}.id" for var in tested[1:]]
        where += conditions
        subquery = (
            f"SELECT {first.alias}.id FROM "
            + ", ".join(self._source_sql(var) for var in tested)
            + (" WHERE " + " AND ".join(where) if where else "")
        )
        self.conditions.append(
            lambda: f"{self._entity_anchor(entity).alias}.id IN ({subquery})"
        )

    def _add_condition(self, node: object, context: VarInfo | None = None) -> None:
        if isinstance(node, ast.BinaryOp) and node.op == "and":
            self._add_condition(node.left, context)
            self._add_condition(node.right, context)
            return
        sql = self._condition_sql(node, context)
        if sql is not None:
            self.conditions.append(sql)

    def _condition_sql(self, node: object, context: VarInfo | None) -> str | None:
        if isinstance(node, ast.BinaryOp):
            if node.op == "or":
                left = self._condition_sql(node.left, context)
                right = self._condition_sql(node.right, context)
                return f"({left} OR {right})"
            if node.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison_sql(node, context)
            raise _unsupported(f"operator {node.op} in conditions")
        if isinstance(node, ast.FunctionCall):
            return self._function_condition(node, context)
        if isinstance(node, (ast.PathExpr, ast.VarRef)):
            # bare path predicate = existence; the inner join to the
            # attribute table (with the path's own predicates) is the test
            self._var_of(node, context).used = True
            return None
        raise _unsupported(f"condition {type(node).__name__}")

    def _comparison_sql(self, node: ast.BinaryOp, context: VarInfo | None) -> str:
        op = {"!=": "<>"}.get(node.op, node.op)
        left_var = right_var = None
        if not isinstance(node.left, ast.Literal):
            left_sql, left_var = self._operand(node.left, context)
        if not isinstance(node.right, ast.Literal):
            right_sql, right_var = self._operand(node.right, context)
        if isinstance(node.left, ast.Literal):
            left_sql = self._compared_literal(node.left, right_var, op)
        if isinstance(node.right, ast.Literal):
            right_sql = self._compared_literal(node.right, left_var, op)
        # 'now' substitution for tend equality (paper 4.3): range
        # predicates work on the raw end-of-time marker, equality needs
        # the current date substituted via the tendval UDF
        if op in ("=", "<>"):
            if self._is_tend_call(node.left):
                left_sql = f"tendval({left_sql})"
            if self._is_tend_call(node.right):
                right_sql = f"tendval({right_sql})"
        return f"{left_sql} {op} {right_sql}"

    def _compared_literal(
        self, node: ast.Literal, var: VarInfo | None, op: str
    ) -> str:
        """A literal compared with ``var``'s value (if any), coerced to
        the column's type."""
        if var is None or var.value_type() not in (
            ColumnType.INT, ColumnType.FLOAT
        ):
            return self._slot("value", node)
        if isinstance(node.value, str) and op not in ("=", "<>"):
            # the native evaluator orders a string and a value's text
            # as strings, which a numeric column cannot
            raise _unsupported("a string ordered against a numeric column")
        return self._slot("numeric", node)

    def _operand(
        self, node: object, context: VarInfo | None
    ) -> tuple[str, VarInfo | None]:
        """Map an operand expression to SQL; returns (sql, var_if_value)."""
        if isinstance(node, ast.Literal):
            return self._slot("value", node), None
        var = self._var_of(node, context)
        if var is not None:
            return self._value_sql(var), var
        if isinstance(node, ast.FunctionCall):
            return self._function_value(node, context), None
        if isinstance(node, ast.BinaryOp) and node.op in ("+", "-", "*"):
            left_sql, _ = self._operand(node.left, context)
            right_sql, _ = self._operand(node.right, context)
            return f"({left_sql} {node.op} {right_sql})", None
        raise _unsupported(f"operand {type(node).__name__}")

    def _var_of(self, node: object, context: VarInfo | None) -> VarInfo | None:
        """The variable ``.``, ``$x`` or a path names (``None`` for
        another expression)."""
        if isinstance(node, ast.ContextItem):
            if context is None:
                raise _unsupported("'.' outside a predicate")
            return context
        if isinstance(node, ast.VarRef):
            return self._require_var(node.name)
        if isinstance(node, ast.PathExpr):
            return self._path_to_var(node, context)
        return None

    def _path_to_var(self, path: ast.PathExpr, context: VarInfo | None) -> VarInfo:
        if isinstance(path.start, ast.VarRef) and not path.steps:
            return self._require_var(path.start.name)
        if isinstance(path.start, ast.ContextItem) and context is not None:
            if len(path.steps) == 1:
                return self._attribute_var(
                    f"__p{self._alias_count}", self._context_entity(context),
                    path.steps[0],
                )
            raise _unsupported("deep relative path in predicate")
        return self._bind_path(f"__p{self._alias_count}", path)

    def _context_entity(self, context: VarInfo) -> VarInfo:
        if context.kind == "entity":
            return context
        return context.parent

    def _require_var(self, name: str) -> VarInfo:
        var = self.vars.get(name)
        if var is None:
            raise _unsupported(f"${name} is unbound or untranslatable")
        return var

    def _value_sql(self, var: VarInfo) -> str:
        var.used = True
        if var.kind == "entity":
            anchor = self._entity_anchor(var)
            return f"{anchor.alias}.id"
        return f"{var.alias}.{var.value_column}"

    def _alias_col(self, var: VarInfo, column: str) -> str:
        var.used = True
        return f"{var.alias}.{column}"

    # -- function translation (Algorithm 1 step 4) ----------------------------------------------

    def _function_value(self, call: ast.FunctionCall, context: VarInfo | None) -> str:
        name = call.name.lower()
        if name in ("xs:date",):
            literal = call.args[0]
            if not isinstance(literal, ast.Literal):
                raise _unsupported("xs:date of a non-literal")
            return self._slot("date", literal)
        if name == "current-date":
            return "current_date()"
        if name in ("tstart", "tend"):
            # the raw end-of-time marker: a tend equality substitutes
            # 'now' around it (_comparison_sql, paper 4.3)
            var = self._var_of(call.args[0], context)
            if var is None:
                raise _unsupported("tstart/tend over a complex expression")
            return self._alias_col(var, name)
        if name == "string":
            sql, _ = self._operand(call.args[0], context)
            return sql
        raise _unsupported(f"function {name}() in value position")

    def _function_condition(
        self, call: ast.FunctionCall, context: VarInfo | None
    ) -> str | None:
        name = call.name.lower()
        if name == "not":
            inner = call.args[0]
            if (
                isinstance(inner, ast.FunctionCall)
                and inner.name.lower() == "empty"
            ):
                return self._nonempty_condition(inner.args[0], context)
            inner_sql = self._condition_sql(inner, context)
            return f"NOT ({inner_sql})"
        if name in ("toverlaps", "tcontains", "tequals", "tmeets", "tprecedes"):
            left = self._interval_args(call.args[0], context)
            right = self._interval_args(call.args[1], context)
            return f"{name}({left}, {right})"
        if name == "empty":
            raise _unsupported("bare empty() condition (use not(empty(..)))")
        raise _unsupported(f"function {name}() as a condition")

    def _nonempty_condition(self, arg: object, context: VarInfo | None) -> str | None:
        """``not(empty(X))`` — existence via inner join.

        When X is an attribute var/path already joined, the inner-join
        semantics make the condition vacuous; when X is
        ``overlapinterval($a,$b)``, existence means the intervals overlap.
        """
        if isinstance(arg, ast.FunctionCall) and arg.name.lower() == "overlapinterval":
            left = self._interval_args(arg.args[0], context)
            right = self._interval_args(arg.args[1], context)
            return f"toverlaps({left}, {right})"
        if isinstance(arg, (ast.VarRef, ast.PathExpr)):
            self._var_of(arg, context).used = True  # the join is the test
            return None
        raise _unsupported("not(empty(...)) over a complex expression")

    def _interval_args(self, node: object, context: VarInfo | None) -> str:
        """Map a node to ``tstart_sql, tend_sql`` argument pairs."""
        var = self._var_of(node, context)
        if var is not None:
            return (
                f"{self._alias_col(var, 'tstart')}, "
                f"{self._alias_col(var, 'tend')}"
            )
        if isinstance(node, ast.FunctionCall) and node.name.lower() == "telement":
            dates = [self._date_sql(a, context) for a in node.args]
            if len(dates) != 2:
                raise _unsupported("telement() needs two arguments")
            return f"{dates[0]}, {dates[1]}"
        raise _unsupported(f"interval argument {type(node).__name__}")

    def _date_sql(self, node: object, context: VarInfo | None) -> str:
        if isinstance(node, ast.FunctionCall):
            return self._function_value(node, context)
        if isinstance(node, ast.Literal):
            return self._slot("date", node)
        raise _unsupported("expected a date literal")

    # -- return clause (Algorithm 1 step 5) ------------------------------------------------------------

    def _return_sql(self, node: object) -> str:
        parts = self._content_sql(node)
        if len(parts) == 1:
            return parts[0]
        raise _unsupported("multi-item return without an element wrapper")

    def _content_sql(self, node: object) -> list[str]:
        if isinstance(node, ast.SequenceExpr):
            out: list[str] = []
            for item in node.items:
                out.extend(self._content_sql(item))
            return out
        if isinstance(node, (ast.VarRef, ast.PathExpr)):
            return [self._element_sql(self._var_of(node, None))]
        if isinstance(node, ast.ComputedElement):
            inner = (
                self._content_sql(node.content)
                if node.content is not None
                else []
            )
            return [_xml_element(node.name, inner)]
        if isinstance(node, ast.DirectElement):
            if node.attrs:
                raise _unsupported("direct constructor attributes")
            inner = []
            for part in node.content:
                if isinstance(part, str):
                    inner.append(_sql_string(part))
                else:
                    inner.extend(self._content_sql(part))
            return [_xml_element(node.name, inner)]
        if isinstance(node, ast.FunctionCall):
            name = node.name.lower()
            if name == "overlapinterval":
                left = self._interval_args(node.args[0], None)
                right = self._interval_args(node.args[1], None)
                return [
                    "XMLElement(Name \"interval\", XMLAttributes("
                    f"datestr(overlap_start({left}, {right})) AS \"tstart\", "
                    f"datestr(overlap_end({left}, {right})) AS \"tend\"))"
                ]
            raise _unsupported(f"function {name}() in return")
        if isinstance(node, ast.BinaryOp):
            sql, _ = self._operand(node, None)
            return [sql]
        if isinstance(node, ast.Literal):
            return [self._slot("value", node)]
        raise _unsupported(f"return of {type(node).__name__}")

    def _element_sql(self, var: VarInfo) -> str:
        """An attribute/entity variable rendered as a timestamped element."""
        if var.kind == "entity":
            anchor = self._entity_anchor(var)
            return (
                f"XMLElement(Name \"{var.relation.name}\", XMLAttributes("
                f"datestr({anchor.alias}.tstart) AS \"tstart\", "
                f"datestr({anchor.alias}.tend) AS \"tend\"), "
                f"{anchor.alias}.id)"
            )
        return (
            f"XMLElement(Name \"{var.attribute}\", XMLAttributes("
            f"datestr({var.alias}.tstart) AS \"tstart\", "
            f"datestr({var.alias}.tend) AS \"tend\"), "
            f"{var.alias}.{var.attribute})"
        )

    # -- FROM/WHERE assembly --------------------------------------------------------------------------------

    def _build_sql(self, select: str, order_by: str | None = None) -> str:
        sources: list[str] = []
        # a deferred condition may anchor its entity: write them first
        conditions = list(self.joins) + [
            c if isinstance(c, str) else c() for c in self.conditions
        ]
        seen_aliases: set[str] = set()
        for var in self.all_vars:
            self._collect_source(var, sources, seen_aliases)
        if not sources:
            raise _unsupported("no H-table sources identified")
        sql = f"SELECT {select} FROM {', '.join(sources)}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        if order_by:
            sql += f" ORDER BY {order_by}"
        return sql

    def _collect_source(
        self, var: VarInfo, sources: list[str], seen: set[str]
    ) -> None:
        if not var.used or var.alias in seen:
            return
        if var.kind == "attribute" and var.attribute == "id":
            # shares the entity's key-table alias
            var = var.parent
            if var.alias in seen:
                return
        seen.add(var.alias)
        sources.append(self._source_sql(var))

    def _source_sql(self, var: VarInfo) -> str:
        """The FROM entry reading ``var``'s H-table (the planner reads it
        through ``history_<table>`` when its heap can hold copies)."""
        return f"{var.table} AS {var.alias}"


#: a number's text as the SQL lexer reads it, with an optional sign
_NUMBER_TEXT = re.compile(r"-?\d+(?:\.\d+)?")


def _value(value: object) -> object:
    """A literal's value as the SQL parser reads a number or string: a
    whole float is an integer (7.0 is 7)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _numeric(value: object) -> object:
    """A literal tested for equality with a numeric column, as a number.
    The native evaluator compares a string with the value's text; the
    SQL compares numbers.  The two agree exactly when the string is its
    number's own text (``"17"``, ``"-1"``, ``"4.5"``, not ``"007"``,
    ``" 5"`` or ``"3.0"``), so any other string is not translated and
    the query falls back to the native evaluator."""
    if not isinstance(value, str):
        return _value(value)
    if _NUMBER_TEXT.fullmatch(value):
        number = _value(float(value) if "." in value else int(value))
        if str(number) == value:
            return number
    raise _unsupported(f"string {value!r} compared with a number")


def _day(value: object) -> int:
    """An ``xs:date`` literal as a day number."""
    try:
        return parse_date(str(value))
    except ValueError:
        raise XQueryTypeError(f"invalid xs:date literal {value!r}") from None


_CONVERT = {"value": _value, "numeric": _numeric, "date": _day}


def _xml_element(name: str, content: list[str]) -> str:
    if content:
        return f"XMLElement(Name \"{name}\", {', '.join(content)})"
    return f"XMLElement(Name \"{name}\")"


def _sql_string(text: str) -> str:
    """Direct-constructor content as a SQL string (part of the shape)."""
    escaped = text.replace("'", "''")
    return f"'{escaped}'"
