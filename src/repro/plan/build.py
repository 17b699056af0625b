"""Build the naive logical plan from a parsed SELECT.

The builder does no optimization: every FROM source becomes a leaf scan
joined left-deep as a nested-loop cross product, and the entire WHERE
clause sits in one ``Filter`` above the join tree.  The optimizer rules
(:mod:`repro.plan.rules`) then push predicates down, restrict segments,
pick indexes and upgrade equi-joins — so a plan executed with the
optimizer disabled must return exactly the same rows, just slower.

Under a pinned day (a snapshot read) a tracked current table is read
through the paper's snapshot query over its H-tables (Section 6.3).
"""

from __future__ import annotations

from repro.errors import SqlPlanError
from repro.obs import get_registry
from repro.plan import nodes
from repro.plan.optimizer import active_guards
from repro.rdb import txcontext
from repro.sql import ast
from repro.sql.expr import Scope, contains_aggregate

#: SQL-level sequenced aggregate names -> sweep kinds
#: (:func:`repro.util.intervals.sweep_aggregate`).
TEMPORAL_AGGREGATES = {
    "tavg": "avg",
    "tsum": "sum",
    "tcount": "count",
    "tmin": "min",
    "tmax": "max",
}

_TEMPORAL_CLAUSES = get_registry().labeled_counter("temporal.clauses")


def split_conjuncts(node: object) -> list:
    """Flatten a WHERE tree into its AND-ed conjuncts."""
    if isinstance(node, ast.BinaryOp) and node.op == "and":
        return split_conjuncts(node.left) + split_conjuncts(node.right)
    return [node] if node is not None else []


def select_is_temporal(select: ast.Select) -> bool:
    """True when the statement uses any temporal SQL surface: a FOR
    SYSTEM_TIME clause, TEMPORAL JOIN, NORMALIZE or a sequenced aggregate."""
    if select.normalize:
        return True
    for source in select.sources:
        if isinstance(source, ast.TemporalJoinRef):
            return True
        if getattr(source, "temporal", None) is not None:
            return True
    return any(
        isinstance(item.expr, ast.FunctionCall)
        and item.expr.name in TEMPORAL_AGGREGATES
        for item in select.items
    )


def referenced_aliases(node: object, scope: Scope) -> set[str]:
    """Source aliases an expression references (resolved through scope)."""
    out: set[str] = set()
    for sub in ast.walk_exprs(node):
        if isinstance(sub, ast.ColumnRef):
            out.add(scope.resolve(sub)[0])
    return out


def build_logical(select: ast.Select, scope: Scope):
    plan = None
    extra_conjuncts: list = []
    # in a temporal statement, archived tables are read through their
    # deduplicated history_<t>() function (raw H-table heaps can hold
    # per-segment duplicate copies of a version)
    temporal = select_is_temporal(select)
    snapshot = _snapshot_reads(select, scope)
    for ref in select.sources:
        lowered = snapshot.get(getattr(ref, "alias", None))
        leaf, residual = lowered or _source_plan(ref, scope, temporal)
        extra_conjuncts.extend(residual)
        plan = leaf if plan is None else nodes.Join(plan, leaf)
    if plan is None:
        raise SqlPlanError("SELECT needs at least one FROM source")
    conjuncts = tuple(split_conjuncts(select.where)) + tuple(extra_conjuncts)
    if conjuncts:
        plan = nodes.Filter(plan, conjuncts)
    sequenced = _sequenced_aggregate_item(select)
    is_aggregate = bool(select.group_by) or any(
        contains_aggregate(item.expr) for item in select.items
    )
    if sequenced is not None:
        plan = _build_sequenced_aggregate(
            select, scope, plan, sequenced, is_aggregate
        )
    elif is_aggregate:
        items = _output_items(select, scope, True)
        plan = nodes.Aggregate(
            plan,
            tuple(select.group_by),
            items,
            tuple((spec.expr, spec.descending) for spec in select.order_by),
        )
    else:
        items = _output_items(select, scope, False)
        if select.order_by:
            plan = nodes.Sort(
                plan,
                tuple((spec.expr, spec.descending) for spec in select.order_by),
            )
        plan = nodes.Project(plan, items)
    if select.normalize:
        plan = _wrap_coalesce(plan)
    if select.distinct:
        plan = nodes.Distinct(plan)
    if select.limit is not None:
        plan = nodes.Limit(plan, select.limit)
    return plan


def _snapshot_reads(select: ast.Select, scope: Scope) -> dict:
    """Lower each tracked current table among the FROM sources to the
    paper's snapshot query (Section 6.3) at the pinned day: a current
    table is updated in place, so its state on day T is its key table's
    history AS OF T equi-joined on ``id`` to the history AS OF T of each
    attribute table the statement uses, under sub-aliases
    ``<alias>#<column>``.  The scope reads the table's columns from
    theirs (the key from the key table's ``id``), so the rules plan them
    like any ``FOR SYSTEM_TIME`` read.  Returns ``alias -> (plan, join
    conjuncts)``."""
    day = txcontext.as_of_day()
    tracked = getattr(scope.db, "tracked_relations", None)
    if day is None or not tracked:
        return {}
    relations = {
        ref.alias: tracked[ref.name]
        for ref in select.sources
        if isinstance(ref, ast.TableRef)
        and ref.temporal is None
        and ref.name in tracked
    }
    if not relations:
        return {}
    used = _used_columns(select, scope, relations)
    at = ast.DateLiteral(day, active_guards().day_slot)
    clause = ast.TemporalClause("as_of", at)
    lowered = {}
    for alias, relation in relations.items():
        key = ast.ColumnRef(f"{alias}#{relation.key}", "id")
        plan, conjuncts = None, []
        for column in [relation.key] + [
            c for c in scope.columns_by_alias[alias]
            if c in used[alias] and c != relation.key
        ]:
            sub = f"{alias}#{column}"
            table, held = relation.key_table, "id"
            if column != relation.key:
                table, held = relation.attribute_table(column), column
                conjuncts.append(ast.BinaryOp("=", key, ast.ColumnRef(sub, "id")))
            scope.columns_by_alias[sub] = scope.db.table(table).schema.column_names
            scope.lowered[(alias, column)] = (sub, held)
            leaf = _temporal_table_leaf(ast.TableRef(table, sub, clause), scope)
            plan = leaf if plan is None else nodes.Join(plan, leaf)
        lowered[alias] = (plan, conjuncts)
    return lowered


def _used_columns(select: ast.Select, scope: Scope, aliases) -> dict:
    """``alias -> columns`` the statement reads, for each of ``aliases``
    (all of them under ``SELECT *`` or ``SELECT alias.*``)."""
    used: dict[str, set] = {alias: set() for alias in aliases}
    exprs = [item.expr for item in select.items] + [select.where]
    exprs += [*select.group_by, *(item.expr for item in select.order_by)]
    sources = list(select.sources)
    while sources:
        source = sources.pop()
        if isinstance(source, ast.TemporalJoinRef):
            exprs.append(source.on)
            sources += [source.left, source.right]
    for expr in exprs:
        if isinstance(expr, ast.Star):
            for alias in used:
                if expr.table in (None, alias):
                    used[alias].update(scope.columns_by_alias[alias])
            continue
        for node in ast.walk_exprs(expr):
            if isinstance(node, ast.ColumnRef):
                alias, column = scope.resolve(node)
                if alias in used:
                    used[alias].add(column)
    return used


def _source_plan(ref, scope, temporal=False):
    """Plan one FROM-list entry -> (plan node, residual conjuncts).

    TEMPORAL JOIN consumes the equi-key conjuncts of its ON condition;
    any non-equi residue is returned to join the WHERE filter above.
    """
    if isinstance(ref, ast.TemporalJoinRef):
        return _temporal_join(ref, scope)
    return _leaf(ref, scope, temporal), []


def _temporal_join(ref: ast.TemporalJoinRef, scope: Scope):
    left, residual = _source_plan(ref.left, scope, True)
    right, right_residual = _source_plan(ref.right, scope, True)
    residual = list(residual) + list(right_residual)
    left_aliases = nodes.node_aliases(left)
    right_aliases = nodes.node_aliases(right)
    for alias in sorted(left_aliases | right_aliases):
        columns = scope.columns_by_alias.get(alias, ())
        if "tstart" not in columns or "tend" not in columns:
            raise SqlPlanError(
                f"TEMPORAL JOIN source {alias!r} has no tstart/tend columns"
            )
    pairs: list = []
    for conjunct in split_conjuncts(ref.on):
        pair = _equi_pair(conjunct, scope, left_aliases, right_aliases)
        if pair is not None:
            pairs.append(pair)
        else:
            residual.append(conjunct)
    if not pairs:
        raise SqlPlanError(
            "TEMPORAL JOIN needs at least one equality key in ON"
        )
    return nodes.TemporalJoin(left, right, tuple(pairs)), residual


def _equi_pair(conjunct, scope, left_aliases, right_aliases):
    """``a.x = b.y`` with sides in opposite join inputs, or None."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    sides = []
    for node in (conjunct.left, conjunct.right):
        if not isinstance(node, ast.ColumnRef):
            return None
        sides.append(scope.resolve(node))
    (lalias, _), (ralias, _) = sides
    if lalias in left_aliases and ralias in right_aliases:
        return (tuple(sides[0]), tuple(sides[1]))
    if lalias in right_aliases and ralias in left_aliases:
        return (tuple(sides[1]), tuple(sides[0]))
    return None


def _leaf(ref, scope, temporal_statement=False):
    clause = getattr(ref, "temporal", None)
    if isinstance(ref, ast.TableRef):
        if clause is not None:
            return _temporal_table_leaf(ref, scope)
        if _history_function(scope, ref.name) and (
            temporal_statement or _holds_copies(scope, ref.name)
        ):
            columns = scope.columns_by_alias.get(ref.alias, ())
            return nodes.FunctionScan(
                f"history_{ref.name}", (), ref.alias, tuple(columns)
            )
        return nodes.Scan(ref.name, ref.alias)
    if isinstance(ref, ast.TableFunctionRef):
        predicates = ()
        if clause is not None:
            predicates = _temporal_predicates(ref.alias, clause)
        return nodes.FunctionScan(
            ref.function, tuple(ref.args), ref.alias, tuple(ref.columns),
            predicates,
        )
    raise SqlPlanError(f"cannot plan FROM source {type(ref).__name__}")


def _history_function(scope: Scope, table_name: str) -> bool:
    db = scope.db
    return (
        db is not None
        and db.table_function(f"history_{table_name}") is not None
    )


def _holds_copies(scope: Scope, table_name: str) -> bool:
    """Whether an H-table's heap is not its history (see
    :class:`~repro.plan.optimizer.SegmentHints`): a plain read of it
    then goes through ``history_<table>()``, which the segment
    restriction rule narrows again when a window bounds it."""
    provider = getattr(scope.db, "segment_provider", None)
    hints = provider(table_name) if provider is not None else None
    return hints is not None and hints.holds_copies


def _temporal_table_leaf(ref: ast.TableRef, scope: Scope):
    """Lower ``table FOR SYSTEM_TIME ...`` onto the H-table history.

    When a ``history_<table>()`` function is registered (the table is an
    archived H-table) the source becomes a FunctionScan of the full
    history with the window as pushed-down predicates — exactly the
    shape the Section 6.4 segment-restriction rule rewrites.  A plain table with its own tstart/tend
    columns is scanned directly with the same predicates.
    """
    predicates = _temporal_predicates(ref.alias, ref.temporal)
    columns = scope.columns_by_alias.get(ref.alias, ())
    if _history_function(scope, ref.name):
        return nodes.FunctionScan(
            f"history_{ref.name}", (), ref.alias, tuple(columns), predicates
        )
    if "tstart" not in columns or "tend" not in columns:
        raise SqlPlanError(
            f"table {ref.name!r} has no history function and no "
            "tstart/tend columns; FOR SYSTEM_TIME needs a temporal table"
        )
    return nodes.Scan(ref.name, ref.alias, predicates)


def _temporal_predicates(alias: str, clause: ast.TemporalClause) -> tuple:
    """Lower a FOR SYSTEM_TIME clause to window predicates over the
    closed ``[tstart, tend]`` interval columns.

    ``AS OF t`` keeps versions live at ``t``; ``FROM t1 TO t2`` is the
    closed-open window ``[t1, t2)``; ``BETWEEN t1 AND t2`` is closed at
    both ends.  The comparison shapes (``tstart <= D`` / ``tend >= D``)
    are exactly what the segment-restriction rule recognizes.
    """
    tstart = ast.ColumnRef(alias, "tstart")
    tend = ast.ColumnRef(alias, "tend")
    _TEMPORAL_CLAUSES.inc(clause.kind)
    if clause.kind == "as_of":
        return (
            ast.BinaryOp("<=", tstart, clause.low),
            ast.BinaryOp(">=", tend, clause.low),
        )
    if clause.kind == "from_to":
        return (
            ast.BinaryOp("<", tstart, clause.high),
            ast.BinaryOp(">=", tend, clause.low),
        )
    if clause.kind == "between":
        return (
            ast.BinaryOp("<=", tstart, clause.high),
            ast.BinaryOp(">=", tend, clause.low),
        )
    raise SqlPlanError(f"unknown temporal clause kind {clause.kind!r}")


def _sequenced_aggregate_item(select: ast.Select):
    """The single sequenced-aggregate select item, as ``(index, call,
    sweep_kind)``, or None.  Nested uses are rejected: the sweep defines
    the output periods, so the call must be a top-level item."""
    found = None
    for index, item in enumerate(select.items):
        expr = item.expr
        if (
            isinstance(expr, ast.FunctionCall)
            and expr.name in TEMPORAL_AGGREGATES
        ):
            if found is not None:
                raise SqlPlanError("only one sequenced aggregate per SELECT")
            found = (index, expr, TEMPORAL_AGGREGATES[expr.name])
            continue
        if isinstance(expr, ast.Star):
            continue
        for sub in ast.walk_exprs(expr):
            if (
                isinstance(sub, ast.FunctionCall)
                and sub.name in TEMPORAL_AGGREGATES
            ):
                raise SqlPlanError(
                    "sequenced aggregates must be top-level select items"
                )
    return found


def _build_sequenced_aggregate(select, scope, plan, found, is_aggregate):
    index, call, kind = found
    if any(contains_aggregate(item.expr) for item in select.items):
        raise SqlPlanError(
            "sequenced aggregates cannot be mixed with row aggregates"
        )
    if select.order_by:
        raise SqlPlanError(
            "ORDER BY is not supported with sequenced aggregates "
            "(output is ordered by group, then period start)"
        )
    if len(call.args) != 1:
        raise SqlPlanError(f"{call.name}() takes exactly one argument")
    arg = call.args[0]
    operand = None if isinstance(arg, ast.Star) else arg
    if operand is None and kind != "count":
        raise SqlPlanError(f"{call.name}(*) is only valid for tcount")
    alias = _interval_alias(select, scope, operand)
    items: list[nodes.Output] = []
    for position, item in enumerate(select.items):
        if isinstance(item.expr, ast.Star):
            raise SqlPlanError(
                "SELECT * cannot be mixed with sequenced aggregation"
            )
        if item.alias:
            name = item.alias
        elif position == index:
            name = call.name
        elif isinstance(item.expr, ast.ColumnRef):
            name = item.expr.column
        else:
            name = f"col{position + 1}"
        items.append(nodes.Output(item.expr, name, aliased=bool(item.alias)))
    items.append(nodes.Output(ast.ColumnRef(alias, "tstart"), "tstart"))
    items.append(nodes.Output(ast.ColumnRef(alias, "tend"), "tend"))
    return nodes.SequencedAggregate(
        plan,
        kind,
        operand,
        ast.ColumnRef(alias, "tstart"),
        ast.ColumnRef(alias, "tend"),
        index,
        tuple(select.group_by),
        tuple(items),
    )


def _interval_alias(select, scope, operand) -> str:
    """The source alias whose ``[tstart, tend]`` weights the aggregate:
    the operand's own source when it has interval columns, else the
    first FROM source that does."""
    candidates: list[str] = []
    if operand is not None:
        candidates.extend(sorted(referenced_aliases(operand, scope)))
    for ref in ast.flat_source_refs(select.sources):
        if ref.alias not in candidates:
            candidates.append(ref.alias)
    for alias in candidates:
        columns = scope.columns_by_alias.get(alias, ())
        if "tstart" in columns and "tend" in columns:
            return alias
    raise SqlPlanError(
        "sequenced aggregates need a source with tstart/tend columns"
    )


def _wrap_coalesce(plan):
    items = nodes.output_node(plan).items
    names = [output.name for output in items]
    if "tstart" not in names or "tend" not in names:
        raise SqlPlanError(
            "SELECT NORMALIZE needs tstart and tend in the select list"
        )
    return nodes.Coalesce(plan, names.index("tstart"), names.index("tend"))


def _output_items(
    select: ast.Select, scope: Scope, is_aggregate: bool
) -> tuple:
    items: list[nodes.Output] = []
    for index, item in enumerate(select.items):
        if isinstance(item.expr, ast.Star):
            if is_aggregate:
                raise SqlPlanError("SELECT * cannot be mixed with aggregation")
            aliases = (
                [item.expr.table]
                if item.expr.table
                else [ref.alias for ref in ast.flat_source_refs(select.sources)]
            )
            for alias in aliases:
                columns = scope.columns_by_alias.get(alias)
                if columns is None:
                    raise SqlPlanError(f"unknown table alias {alias!r}")
                items.extend(
                    nodes.Output(ast.ColumnRef(alias, column), column)
                    for column in columns
                )
            continue
        if item.alias:
            name = item.alias
        elif isinstance(item.expr, ast.ColumnRef):
            name = item.expr.column
        else:
            name = f"col{index + 1}"
        items.append(nodes.Output(item.expr, name, aliased=bool(item.alias)))
    return tuple(items)
