"""The optimizer rules.

Each rule is a pure function ``(plan, ctx) -> (plan, [detail, ...])``
returning the rewritten plan and one human-readable detail per firing.
Rules never change result semantics: a plan executed without them
returns identical rows.

Every decision a rule takes on a literal's value is recorded in
``ctx.guards`` (see :class:`repro.plan.optimizer.Guards`): the exact
value where constants fold, the type where the key or a window date is
read, and the segment range a window maps to.
"""

from __future__ import annotations

from dataclasses import replace

from repro.plan import nodes
from repro.plan.build import referenced_aliases
from repro.plan.optimizer import LazyDetail, bound_value
from repro.plan.render import expr_to_sql
from repro.sql import ast

#: end-of-window default when a snapshot predicate bounds only one side
_MAX_DATE = 2**31

_FALSE = ast.BinaryOp("=", ast.Literal(1), ast.Literal(0))


# -- constant folding ---------------------------------------------------------


def fold_constants(plan, ctx):
    """Evaluate constant sub-expressions inside predicates.

    Arithmetic and concatenation over literals fold anywhere in a
    conjunct; comparisons between two constants fold at the conjunct
    level — a true conjunct is dropped, a false one becomes ``1 = 0``
    (kept so the plan still shows the contradiction).
    """
    folded = 0
    guards = ctx.guards

    def fold_conjuncts(predicates):
        nonlocal folded
        out = []
        for conjunct in predicates:
            node = _fold_expr(conjunct, guards)
            verdict = _const_comparison(node, guards)
            if verdict is True:
                folded += 1
                continue
            if verdict is False:
                folded += 1
                node = _FALSE
            elif node is not conjunct:
                folded += 1
            out.append(node)
        return tuple(out)

    def walk(node):
        node = nodes.map_children(node, walk)
        if isinstance(node, (nodes.Scan, nodes.FunctionScan, nodes.Filter)):
            predicates = fold_conjuncts(node.predicates)
            if predicates != node.predicates:
                if isinstance(node, nodes.Filter) and not predicates:
                    return node.child
                return replace(node, predicates=predicates)
        return node

    plan = walk(plan)
    details = [f"folded {folded} constant expression(s)"] if folded else []
    return plan, details


def _const_value(node):
    """``(value, True)`` when the node is a literal constant."""
    if isinstance(node, ast.Literal):
        return node.value, True
    if isinstance(node, ast.DateLiteral):
        return node.days, True
    return None, False


def _fold_expr(node, guards):
    """Fold constant arithmetic/concat/negation bottom-up."""
    if isinstance(node, ast.BinaryOp) and node.op in ("+", "-", "*", "/", "||"):
        left = _fold_expr(node.left, guards)
        right = _fold_expr(node.right, guards)
        lv, lok = _const_value(left)
        rv, rok = _const_value(right)
        if lok and rok:
            guards.exact(left)
            guards.exact(right)
            if node.op == "||":
                return ast.Literal(_text(lv) + _text(rv))
            if lv is None or rv is None:
                return ast.Literal(None)
            if node.op == "+":
                return ast.Literal(lv + rv)
            if node.op == "-":
                return ast.Literal(lv - rv)
            if node.op == "*":
                return ast.Literal(lv * rv)
            if rv != 0:
                return ast.Literal(lv / rv)
        if left is not node.left or right is not node.right:
            return ast.BinaryOp(node.op, left, right)
        return node
    if isinstance(node, ast.UnaryOp) and node.op == "-":
        operand = _fold_expr(node.operand, guards)
        value, ok = _const_value(operand)
        if ok:
            guards.exact(operand)
        if ok and value is not None:
            return ast.Literal(-value)
        if operand is not node.operand:
            return ast.UnaryOp(node.op, operand)
        return node
    if isinstance(node, ast.BinaryOp) and node.op in (
        "=", "<>", "<", "<=", ">", ">=",
    ):
        left = _fold_expr(node.left, guards)
        right = _fold_expr(node.right, guards)
        if left is not node.left or right is not node.right:
            return ast.BinaryOp(node.op, left, right)
        return node
    return node


def _const_comparison(node, guards):
    """True/False for a constant comparison conjunct, else None."""
    if not isinstance(node, ast.BinaryOp):
        return None
    if node.op not in ("=", "<>", "<", "<=", ">", ">="):
        return None
    lv, lok = _const_value(node.left)
    rv, rok = _const_value(node.right)
    if not (lok and rok):
        return None
    guards.exact(node.left)
    guards.exact(node.right)
    if lv is None or rv is None:
        return False  # SQL comparisons with NULL never hold
    ops = {
        "=": lv == rv,
        "<>": lv != rv,
        "<": lv < rv,
        "<=": lv <= rv,
        ">": lv > rv,
        ">=": lv >= rv,
    }
    return ops[node.op]


def _text(value):
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# -- predicate pushdown -------------------------------------------------------


def push_down_predicates(plan, ctx):
    """Move single-alias conjuncts from a Filter into their leaf scan.

    Equalities cross joins: from ``a.x = b.y`` and ``a.x = c`` — ``c`` a
    literal, a date or a ``:param`` — the rule derives ``b.y = c`` and
    pushes it into ``b``'s leaf as well, so the far side of a keyed join
    reads only its key (the join conjunct itself stays for the join).
    A derived conjunct is added only when it lands in a leaf and is not
    already stated, so running the rule again derives nothing new.
    """
    details = []

    def walk(node):
        node = nodes.map_children(node, walk)
        if not isinstance(node, nodes.Filter):
            return node
        leaf_aliases = nodes.node_aliases(node.child)
        pushed: dict[str, list] = {}
        remaining = []
        derived = _implied_equalities(
            node.predicates, leaf_aliases, ctx.scope, ctx.guards
        )
        for conjunct in node.predicates + derived:
            aliases = referenced_aliases(conjunct, ctx.scope)
            if len(aliases) == 1 and (alias := next(iter(aliases))) in leaf_aliases:
                pushed.setdefault(alias, []).append(conjunct)
            else:
                remaining.append(conjunct)
        if not pushed:
            return node
        for alias in sorted(pushed):
            details.append(
                f"{len(pushed[alias])} predicate(s) into {alias}"
            )
        child = _attach(node.child, pushed)
        return nodes.Filter(child, tuple(remaining)) if remaining else child

    return walk(plan), details


def _implied_equalities(conjuncts, leaf_aliases, scope, guards) -> tuple:
    """``column = constant`` conjuncts implied through column equalities.

    Columns joined by ``a.x = b.y`` conjuncts form classes; every
    constant one member equals is derived for the other members.  Sound
    under SQL's NULL rule: a NULL on either side fails the stated
    conjuncts, so the extra filter removes no row the Filter keeps.
    Equal constants derive one conjunct, so the plan depends on which
    constants are equal (``guards.equal_pattern``).
    """
    if len(leaf_aliases) < 2:
        return ()  # no equality between two sources
    parent: dict[tuple, tuple] = {}

    def find(column):
        while parent.setdefault(column, column) != column:
            column = parent[column]
        return column

    constants = []
    for conjunct in conjuncts:
        sides = _equi_join_sides(conjunct, scope)
        if sides is not None:
            parent[find(sides[0])] = find(sides[1])
            continue
        bound = _equals_constant(conjunct)
        if bound is not None:
            constants.append((scope.resolve(bound[0]), bound[1]))
    if parent and len(constants) > 1:
        guards.equal_pattern(value for _, value in constants)
    stated = set(constants)
    derived = []
    for column, value in constants:
        root = find(column)
        for member in list(parent):
            if (
                member[0] in leaf_aliases
                and (member, value) not in stated
                and find(member) == root
            ):
                stated.add((member, value))
                derived.append(
                    ast.BinaryOp("=", ast.ColumnRef(*member), value)
                )
    return tuple(derived)


def _equals_constant(node):
    """``(column_ref, value)`` for ``col = constant`` (either side)."""
    if not (isinstance(node, ast.BinaryOp) and node.op == "="):
        return None
    for column, value in ((node.left, node.right), (node.right, node.left)):
        if isinstance(column, ast.ColumnRef) and _is_constant(value):
            return column, value
    return None


def _attach(node, pushed):
    if isinstance(node, nodes.LEAVES):
        extra = pushed.get(node.alias)
        if extra:
            return replace(node, predicates=node.predicates + tuple(extra))
        return node
    return nodes.map_children(node, lambda child: _attach(child, pushed))


# -- segment restriction (paper Section 6.4) ----------------------------------


def restrict_segments(plan, ctx):
    """Restrict clustered-archive reads to the segments and the key a
    query needs.

    The translator and temporal SQL read segmented/compressed H-tables
    through the deduplicating ``history_<t>()`` function — always
    correct, never fast.  This rule rewrites that full read from the
    leaf's pushed-down predicates:

    - a snapshot or slicing window picks the segments:
      one uncompressed segment  -> heap/index scan with ``segno = k``;
      one compressed segment    -> ``seg_<t>(k, k)`` (BLOB decompression);
      several segments          -> ``slice_<t>(lo, hi)`` (deduplicates
      freeze-forwarded copies across the span);
    - a key pin ``id = c`` (an int literal or a ``:param``) appends
      ``(c, c)`` as the function's ``id_lo, id_hi`` arguments —
      ``history_<t>(c, c)``, ``seg_<t>(lo, hi, c, c)`` or
      ``slice_<t>(lo, hi, c, c)`` — so the read probes the ``(segno,
      id)`` index per heap segment and inflates only the BlockZIP blocks
      that can hold the key.  (The ``segno = k`` scan needs no argument:
      index selection picks ``(segno, id)`` from the same conjunct.)

    The ``id`` conjunct stays on the leaf as a residual filter.  Only an
    argument-less ``history_<t>()`` is rewritten, so the rule is
    idempotent.
    """
    details = []

    def walk(node):
        node = nodes.map_children(node, walk)
        if not (
            isinstance(node, nodes.FunctionScan)
            and node.function.startswith("history_")
            and not node.args
        ):
            return node
        table = node.function[len("history_"):]
        hints = ctx.segment_hints(table)
        if hints is None:
            return node
        function, args = node.function, ()
        window = _window_from_predicates(
            node.alias, node.predicates, ctx.guards
        )
        if window is not None:
            lo, hi = _segment_range(window, hints.segments_overlapping, None)
            ctx.guards.check(
                lambda values, window=window, hints=hints, lo=lo, hi=hi:
                _segment_range(window, hints.segments_overlapping, values)
                == (lo, hi)
            )
            if lo == hi and not hints.compressed:
                predicate = ast.BinaryOp(
                    "=", ast.ColumnRef(node.alias, "segno"), ast.Literal(lo)
                )
                details.append(
                    f"{node.alias}: history_{table}() -> {table} WHERE segno = {lo}"
                )
                return nodes.Scan(
                    table, node.alias, node.predicates + (predicate,)
                )
            function = f"{'seg' if lo == hi else 'slice'}_{table}"
            args = (ast.Literal(lo), ast.Literal(hi))
        key = _key_from_predicates(node.alias, node.predicates, ctx.guards)
        if key is not None:
            args += (key, key)
        elif window is None:
            return node
        details.append(LazyDetail(
            lambda alias=node.alias, table=table, function=function,
            args=args, key=key: (
                f"{alias}: history_{table}() -> {_call_sql(function, args)}"
                + (f" for id = {expr_to_sql(key)}" if key is not None else "")
            )
        ))
        return nodes.FunctionScan(
            function, args, node.alias, node.columns, node.predicates
        )

    return walk(plan), details


def _call_sql(function, args) -> str:
    return f"{function}({', '.join(expr_to_sql(a) for a in args)})"


def _key_from_predicates(alias, predicates, guards):
    """The value node of an ``id = <int literal | :param>`` conjunct."""
    for predicate in predicates:
        bound = _equals_constant(predicate)
        if bound is None or not _is_column(bound[0], alias, "id"):
            continue
        value = bound[1]
        guards.typed(value)
        if isinstance(value, ast.Param) or (
            isinstance(value, ast.Literal)
            and isinstance(value.value, int)
            and not isinstance(value.value, bool)
        ):
            return value
    return None


def _window_from_predicates(alias, predicates, guards):
    """Extract a ``[lo, hi]`` window from snapshot/slicing conjuncts.

    Recognizes ``tstart <= D`` / ``tend >= D`` bounds (either side of the
    comparison) and ``toverlaps(tstart, tend, D1, D2)`` slicing calls with
    literal dates.  Returns the ``(lo, hi)`` pair of date *nodes* (``None``
    for an open side), or ``None`` when no bound was found.
    """
    lo = hi = None
    found = False
    for predicate in predicates:
        if isinstance(predicate, ast.BinaryOp) and predicate.op in (
            "<", "<=", ">", ">=",
        ):
            bound = _column_bound(predicate, alias)
            if bound is None:
                continue
            column, op, node = bound
            if column not in ("tstart", "tend"):
                continue
            guards.typed(node)
            if _const_date(node) is None:
                continue
            if column == "tstart" and op in ("<", "<="):
                hi = node
                found = True
            elif column == "tend" and op in (">", ">="):
                lo = node
                found = True
        elif (
            isinstance(predicate, ast.FunctionCall)
            and predicate.name == "toverlaps"
            and len(predicate.args) == 4
        ):
            start_col, end_col, d1, d2 = predicate.args
            if not (
                _is_column(start_col, alias, "tstart")
                and _is_column(end_col, alias, "tend")
            ):
                continue
            guards.typed(d1)
            guards.typed(d2)
            if _const_date(d1) is not None and _const_date(d2) is not None:
                lo, hi = d1, d2
                found = True
    return (lo, hi) if found else None


def _segment_range(window, segments_overlapping, values) -> tuple:
    """The ``(lo, hi)`` segment numbers a window overlaps under
    ``values`` (``(0, -1)`` when none)."""
    lo_node, hi_node = window
    lo_date = 0 if lo_node is None else bound_value(lo_node, values)
    hi_date = _MAX_DATE if hi_node is None else bound_value(hi_node, values)
    segnos = segments_overlapping(lo_date, hi_date)
    return (min(segnos), max(segnos)) if segnos else (0, -1)


def _column_bound(node, alias):
    """Normalize ``col OP const`` / ``const OP col`` to
    ``(col, op, constant node)``."""
    if isinstance(node.left, ast.ColumnRef) and _is_owned(node.left, alias):
        if _is_constant(node.right):
            return node.left.column, node.op, node.right
    if isinstance(node.right, ast.ColumnRef) and _is_owned(node.right, alias):
        if _is_constant(node.left):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[node.op]
            return node.right.column, flipped, node.left
    return None


def _is_owned(ref, alias):
    return ref.table in (None, alias)


def _is_column(node, alias, column):
    return (
        isinstance(node, ast.ColumnRef)
        and node.column == column
        and _is_owned(node, alias)
    )


def _const_date(node):
    if isinstance(node, ast.DateLiteral):
        return node.days
    if isinstance(node, ast.Literal) and isinstance(node.value, int):
        return node.value
    return None


# -- index selection ----------------------------------------------------------


def select_indexes(plan, ctx):
    """Turn Scans with indexable predicates into B+ tree range scans.

    Scoring matches the historical ``SelectPlan._choose_index``: two
    points per equality column matched against an index prefix, one for a
    range column immediately after it.  Equality conjuncts are consumed;
    range conjuncts stay as residual filters (see ``IndexScan``).
    """
    details = []

    def walk(node):
        node = nodes.map_children(node, walk)
        if isinstance(node, nodes.Scan):
            access = _choose_index(node, ctx)
            if access is not None:
                details.append(
                    f"{node.alias}: {node.table} via index {access.index_name}"
                )
                return access
        return node

    return walk(plan), details


def _is_constant(node) -> bool:
    return isinstance(node, (ast.Literal, ast.DateLiteral, ast.Param))


def _indexable(scan, conjunct, scope):
    """Match ``alias.col OP constant`` (either side)."""
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    op = conjunct.op
    if op not in ("=", "<", "<=", ">", ">="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ast.ColumnRef) and _is_constant(right):
        owner, column = scope.resolve(left)
        if owner == scan.alias:
            return column, op, right
    if isinstance(right, ast.ColumnRef) and _is_constant(left):
        owner, column = scope.resolve(right)
        if owner == scan.alias:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            return column, flipped, left
    return None


def _choose_index(scan: nodes.Scan, ctx) -> nodes.IndexScan | None:
    table = ctx.db.table(scan.table)
    if not table.indexes:
        return None
    eq: dict[str, tuple] = {}
    ranges: dict[str, dict] = {}
    for conjunct in scan.predicates:
        bound = _indexable(scan, conjunct, ctx.scope)
        if bound is None:
            continue
        column, op, value_node = bound
        if op == "=":
            eq.setdefault(column, (conjunct, value_node))
        else:
            ranges.setdefault(column, {}).setdefault(op, (conjunct, value_node))
    best = None
    for info in table.indexes.values():
        eq_cols: list[str] = []
        position = 0
        while position < len(info.columns) and info.columns[position] in eq:
            eq_cols.append(info.columns[position])
            position += 1
        range_col = None
        if position < len(info.columns) and info.columns[position] in ranges:
            range_col = info.columns[position]
        score = len(eq_cols) * 2 + (1 if range_col else 0)
        if score == 0:
            continue
        if best is None or score > best[0]:
            best = (score, info, eq_cols, range_col)
    if best is None:
        return None
    _, info, eq_cols, range_col = best
    consumed = set()
    eq_pairs = []
    for column in eq_cols:
        conjunct, value_node = eq[column]
        consumed.add(id(conjunct))
        eq_pairs.append((column, value_node))
    access = nodes.IndexScan(
        scan.table,
        scan.alias,
        info.name,
        tuple(eq_pairs),
        predicates=tuple(
            c for c in scan.predicates if id(c) not in consumed
        ),
    )
    if range_col is not None:
        slot = ranges[range_col]
        updates = {"range_column": range_col}
        low_done = high_done = False
        for op, (conjunct, value_node) in slot.items():
            # at most one bound per direction drives the scan; every range
            # conjunct stays a residual filter (NULL keys sort below all
            # values, so an unbounded-from-below scan would admit NULLs)
            if op in (">", ">=") and not low_done:
                updates["low"] = value_node
                updates["low_inclusive"] = op == ">="
                low_done = True
            elif op in ("<", "<=") and not high_done:
                updates["high"] = value_node
                updates["high_inclusive"] = op == "<="
                high_done = True
        access = replace(access, **updates)
    return access


# -- join selection -----------------------------------------------------------


def select_joins(plan, ctx):
    """Consume equi-join conjuncts from the Filter as hash-join keys.

    Joins are processed bottom-up in the left-deep tree, so a conjunct
    becomes a key at the lowest join where both sides are bound — the
    same pairing the FROM-order executor historically produced.  Equi
    conjuncts that cannot key any join (three-way cycles) stay in the
    Filter as ordinary predicates.
    """
    details = []

    def walk(node):
        if isinstance(node, nodes.Filter) and nodes.contains_join(node.child):
            remaining = list(node.predicates)
            child = _assign_keys(node.child, remaining, ctx, details)
            if remaining:
                return nodes.Filter(child, tuple(remaining))
            return child
        return nodes.map_children(node, walk)

    return walk(plan), details


def _equi_join_sides(node, scope):
    """For ``a.x = b.y`` return ``((alias_a, col), (alias_b, col))``."""
    if (
        isinstance(node, ast.BinaryOp)
        and node.op == "="
        and isinstance(node.left, ast.ColumnRef)
        and isinstance(node.right, ast.ColumnRef)
    ):
        left = scope.resolve(node.left)
        right = scope.resolve(node.right)
        if left[0] != right[0]:
            return left, right
    return None


def _assign_keys(node, remaining, ctx, details):
    if not isinstance(node, nodes.Join):
        return node
    left = _assign_keys(node.left, remaining, ctx, details)
    right = _assign_keys(node.right, remaining, ctx, details)
    left_aliases = nodes.node_aliases(left)
    right_aliases = nodes.node_aliases(right)
    pairs = []
    for conjunct in list(remaining):
        sides = _equi_join_sides(conjunct, ctx.scope)
        if sides is None:
            continue
        first, second = sides
        if first[0] in left_aliases and second[0] in right_aliases:
            pairs.append((first, second))
        elif second[0] in left_aliases and first[0] in right_aliases:
            pairs.append((second, first))
        else:
            continue
        remaining.remove(conjunct)
    if pairs:
        keys = ", ".join(
            f"{l[0]}.{l[1]} = {r[0]}.{r[1]}" for l, r in pairs
        )
        details.append(f"hash join on {keys}")
        return nodes.Join(left, right, tuple(pairs), "hash")
    if left is not node.left or right is not node.right:
        return nodes.Join(left, right)
    return node
