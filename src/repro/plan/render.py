"""Plan rendering: indented trees for EXPLAIN, SQL text for translate().

``render_plan`` / ``render_physical`` produce the stable tree format the
golden-plan tests snapshot.  ``to_sql`` turns an (optimized) logical plan
back into executable SQL text — this is what ``ArchIS.translate`` returns,
so the segment-restricted access paths the optimizer picked are visible
in the query text itself.
"""

from __future__ import annotations

from repro.plan import nodes
from repro.sql import ast
from repro.util.timeutil import format_date

# -- expressions --------------------------------------------------------------

#: binding strength per binary operator; higher binds tighter
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 3, "<>": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "||": 4,
    "*": 5, "/": 5,
}


def expr_to_sql(node) -> str:
    return _expr(node, 0)


def _expr(node, parent_precedence: int) -> str:
    if isinstance(node, ast.Literal):
        return _literal(node.value)
    if isinstance(node, ast.DateLiteral):
        return f"DATE '{format_date(node.days)}'"
    if isinstance(node, ast.Param):
        return f":{node.name}"
    if isinstance(node, ast.ColumnRef):
        return f"{node.table}.{node.column}" if node.table else node.column
    if isinstance(node, ast.Star):
        return f"{node.table}.*" if node.table else "*"
    if isinstance(node, ast.BinaryOp):
        precedence = _PRECEDENCE[node.op]
        op = node.op.upper() if node.op in ("and", "or") else node.op
        text = (
            f"{_expr(node.left, precedence)} {op} "
            f"{_expr(node.right, precedence + 1)}"
        )
        if precedence < parent_precedence:
            return f"({text})"
        return text
    if isinstance(node, ast.UnaryOp):
        if node.op == "not":
            text = f"NOT {_expr(node.operand, 3)}"
            return f"({text})" if parent_precedence > 2 else text
        return f"-{_expr(node.operand, 6)}"
    if isinstance(node, ast.FunctionCall):
        args = ", ".join(_expr(a, 0) for a in node.args)
        if node.distinct:
            return f"{node.name}(DISTINCT {args})"
        return f"{node.name}({args})"
    if isinstance(node, ast.InList):
        items = ", ".join(_expr(i, 0) for i in node.items)
        keyword = "NOT IN" if node.negated else "IN"
        return f"{_expr(node.operand, 4)} {keyword} ({items})"
    if isinstance(node, ast.Between):
        keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
        return (
            f"{_expr(node.operand, 4)} {keyword} "
            f"{_expr(node.low, 4)} AND {_expr(node.high, 4)}"
        )
    if isinstance(node, ast.IsNull):
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{_expr(node.operand, 4)} {keyword}"
    if isinstance(node, ast.LikeOp):
        keyword = "NOT LIKE" if node.negated else "LIKE"
        return f"{_expr(node.operand, 4)} {keyword} {_expr(node.pattern, 4)}"
    if isinstance(node, ast.CaseExpr):
        parts = ["CASE"]
        for condition, result in node.whens:
            parts.append(f"WHEN {_expr(condition, 0)} THEN {_expr(result, 0)}")
        if node.else_result is not None:
            parts.append(f"ELSE {_expr(node.else_result, 0)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, ast.XmlElementExpr):
        parts = [f'Name "{node.tag}"']
        if node.attributes:
            attrs = ", ".join(
                f'{_expr(a.value, 0)} AS "{a.name}"' for a in node.attributes
            )
            parts.append(f"XMLAttributes({attrs})")
        parts.extend(_expr(c, 0) for c in node.content)
        return f"XMLElement({', '.join(parts)})"
    if isinstance(node, ast.XmlAggExpr):
        text = _expr(node.operand, 0)
        if node.order_by:
            keys = ", ".join(
                _expr(item.expr, 0) + (" DESC" if item.descending else "")
                for item in node.order_by
            )
            text += f" ORDER BY {keys}"
        return f"XMLAgg({text})"
    if isinstance(node, ast.Subquery):
        return f"({select_ast_to_sql(node.select)})"
    if isinstance(node, ast.InSubquery):
        keyword = "NOT IN" if node.negated else "IN"
        return (
            f"{_expr(node.operand, 4)} {keyword} "
            f"({select_ast_to_sql(node.subquery.select)})"
        )
    if isinstance(node, ast.ExistsSubquery):
        keyword = "NOT EXISTS" if node.negated else "EXISTS"
        return f"{keyword} ({select_ast_to_sql(node.subquery.select)})"
    raise TypeError(f"cannot render expression {type(node).__name__}")


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def select_ast_to_sql(select: ast.Select) -> str:
    """Render a raw SELECT AST (used for subqueries inside expressions)."""
    items = []
    for item in select.items:
        text = _expr(item.expr, 0)
        if item.alias:
            text += f" AS {item.alias}"
        items.append(text)
    sources = [_source_sql(ref) for ref in select.sources]
    distinct = "DISTINCT " if select.distinct else ""
    sql = f"SELECT {distinct}{', '.join(items)} FROM {', '.join(sources)}"
    if select.where is not None:
        sql += f" WHERE {_expr(select.where, 0)}"
    if select.group_by:
        sql += " GROUP BY " + ", ".join(_expr(g, 0) for g in select.group_by)
    if select.order_by:
        sql += " ORDER BY " + ", ".join(
            _expr(spec.expr, 0) + (" DESC" if spec.descending else "")
            for spec in select.order_by
        )
    if select.limit is not None:
        sql += f" LIMIT {select.limit}"
    return sql


def _source_sql(ref) -> str:
    if isinstance(ref, ast.TableRef):
        return f"{ref.name} AS {ref.alias}"
    args = ", ".join(_expr(a, 0) for a in ref.args)
    columns = ", ".join(ref.columns)
    return f"TABLE({ref.function}({args})) AS {ref.alias}({columns})"


# -- logical plan -> SQL ------------------------------------------------------


def to_sql(plan) -> str:
    """Render an (optimized) logical plan back to SQL text.

    The plan trees this renders are the shapes ``build_logical`` + the
    rule pipeline produce: joins collapse back into a FROM list, pushed
    predicates and join keys back into one WHERE conjunction, so the
    output re-parses and re-plans to an equivalent query.
    """
    limit = None
    distinct = False
    normalize = False
    node = plan
    if isinstance(node, nodes.Limit):
        limit = node.count
        node = node.child
    if isinstance(node, nodes.Distinct):
        distinct = True
        node = node.child
    if isinstance(node, nodes.Coalesce):
        normalize = True
        node = node.child

    order_by: tuple = ()
    group_by: tuple = ()
    if isinstance(node, nodes.Aggregate):
        items = node.items
        group_by = node.group_by
        order_by = node.order_by
        body = node.child
    elif isinstance(node, nodes.SequencedAggregate):
        # the trailing tstart/tend outputs are synthesized; the parser
        # re-creates them when the rendered text is planned again
        items = node.items[:-2]
        group_by = node.group_by
        body = node.child
    elif isinstance(node, nodes.Project):
        items = node.items
        body = node.child
        if isinstance(body, nodes.Sort):
            order_by = body.keys
            body = body.child
    else:
        raise TypeError(f"plan has no output node: {type(node).__name__}")

    sources: list[str] = []
    conditions: list[str] = []
    _flatten(body, sources, conditions)

    rendered_items = []
    for item in items:
        text = _expr(item.expr, 0)
        if item.aliased:
            text += f" AS {item.name}"
        rendered_items.append(text)
    head = "SELECT DISTINCT" if distinct else "SELECT"
    if normalize:
        head += " NORMALIZE"
    sql = f"{head} {', '.join(rendered_items)} FROM {', '.join(sources)}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    if group_by:
        sql += " GROUP BY " + ", ".join(_expr(g, 0) for g in group_by)
    if order_by:
        sql += " ORDER BY " + ", ".join(
            _expr(expr, 0) + (" DESC" if descending else "")
            for expr, descending in order_by
        )
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


def _flatten(node, sources: list, conditions: list) -> None:
    """Collapse a join/filter/scan tree into FROM sources + WHERE conjuncts."""
    if isinstance(node, nodes.Scan):
        sources.append(f"{node.table} AS {node.alias}")
        conditions.extend(_qualified(p, node.alias) for p in node.predicates)
        return
    if isinstance(node, nodes.IndexScan):
        sources.append(f"{node.table} AS {node.alias}")
        # equality conjuncts were consumed into the access path; re-emit
        # them so the SQL text stays equivalent (range conjuncts are still
        # present in node.predicates)
        for column, value_node in node.eq:
            conditions.append(
                f"{node.alias}.{column} = {_expr(value_node, 0)}"
            )
        conditions.extend(_qualified(p, node.alias) for p in node.predicates)
        return
    if isinstance(node, nodes.FunctionScan):
        args = ", ".join(_expr(a, 0) for a in node.args)
        columns = ", ".join(node.columns)
        sources.append(
            f"TABLE({node.function}({args})) AS {node.alias}({columns})"
        )
        conditions.extend(_qualified(p, node.alias) for p in node.predicates)
        return
    if isinstance(node, nodes.Join):
        _flatten(node.left, sources, conditions)
        _flatten(node.right, sources, conditions)
        for (lalias, lcol), (ralias, rcol) in node.pairs:
            conditions.append(f"{lalias}.{lcol} = {ralias}.{rcol}")
        return
    if isinstance(node, nodes.TemporalJoin):
        left_sources: list = []
        right_sources: list = []
        _flatten(node.left, left_sources, conditions)
        _flatten(node.right, right_sources, conditions)
        on = " AND ".join(
            f"{l[0]}.{l[1]} = {r[0]}.{r[1]}" for l, r in node.pairs
        )
        sources.append(
            f"{left_sources[0]} TEMPORAL JOIN {right_sources[0]} ON {on}"
        )
        return
    if isinstance(node, nodes.Filter):
        _flatten(node.child, sources, conditions)
        conditions.extend(_expr(p, 3) for p in node.predicates)
        return
    raise TypeError(f"cannot render plan node {type(node).__name__} as SQL")


def _qualified(predicate, alias: str) -> str:
    """Render a pushed-down predicate with unqualified columns re-owned."""
    return _expr(_qualify(predicate, alias), 3)


def _qualify(node, alias: str):
    if isinstance(node, ast.ColumnRef) and node.table is None:
        return ast.ColumnRef(alias, node.column)
    rebuilt = node
    for child in ast.child_exprs(node):
        new_child = _qualify(child, alias)
        if new_child is not child:
            rebuilt = _replace_child(rebuilt, child, new_child)
    return rebuilt


def _replace_child(node, old, new):
    from dataclasses import fields, replace

    for field in fields(node):
        value = getattr(node, field.name)
        if value is old:
            return replace(node, **{field.name: new})
        if isinstance(value, tuple) and any(v is old for v in value):
            return replace(
                node,
                **{
                    field.name: tuple(
                        new if v is old else v for v in value
                    )
                },
            )
    return node


# -- plan trees ---------------------------------------------------------------


def render_plan(plan) -> str:
    """Render a logical plan as an indented tree (stable, for goldens)."""
    lines: list[str] = []
    _render_node(plan, lines, 0)
    return "\n".join(lines)


def _render_node(node, lines: list, depth: int) -> None:
    indent = "  " * depth
    if isinstance(node, nodes.Scan):
        lines.append(f"{indent}Scan {node.table} AS {node.alias}"
                     + _predicate_suffix(node.predicates))
        return
    if isinstance(node, nodes.IndexScan):
        parts = [f"{indent}IndexScan {node.table} AS {node.alias}",
                 f"using {node.index_name}"]
        if node.eq:
            eq = ", ".join(
                f"{column} = {_expr(value, 0)}" for column, value in node.eq
            )
            parts.append(f"eq [{eq}]")
        if node.range_column is not None:
            low = (
                ("[" if node.low_inclusive else "(")
                + (_expr(node.low, 0) if node.low is not None else "-inf")
            )
            high = (
                (_expr(node.high, 0) if node.high is not None else "+inf")
                + ("]" if node.high_inclusive else ")")
            )
            parts.append(f"range {node.range_column} in {low}, {high}")
        lines.append(" ".join(parts) + _predicate_suffix(node.predicates))
        return
    if isinstance(node, nodes.FunctionScan):
        args = ", ".join(_expr(a, 0) for a in node.args)
        lines.append(
            f"{indent}FunctionScan {node.function}({args}) AS {node.alias}"
            + _predicate_suffix(node.predicates)
        )
        return
    if isinstance(node, nodes.Join):
        if node.pairs:
            keys = ", ".join(
                f"{l[0]}.{l[1]} = {r[0]}.{r[1]}" for l, r in node.pairs
            )
            lines.append(f"{indent}Join [{node.strategy}] on {keys}")
        else:
            lines.append(f"{indent}Join [{node.strategy}]")
        _render_node(node.left, lines, depth + 1)
        _render_node(node.right, lines, depth + 1)
        return
    if isinstance(node, nodes.TemporalJoin):
        keys = ", ".join(
            f"{l[0]}.{l[1]} = {r[0]}.{r[1]}" for l, r in node.pairs
        )
        lines.append(
            f"{indent}TemporalJoin on {keys} intersect [tstart, tend]"
        )
        _render_node(node.left, lines, depth + 1)
        _render_node(node.right, lines, depth + 1)
        return
    if isinstance(node, nodes.Filter):
        lines.append(f"{indent}Filter" + _predicate_suffix(node.predicates))
    elif isinstance(node, nodes.Project):
        items = ", ".join(_output_sql(item) for item in node.items)
        lines.append(f"{indent}Project [{items}]")
    elif isinstance(node, nodes.Aggregate):
        items = ", ".join(_output_sql(item) for item in node.items)
        text = f"{indent}Aggregate [{items}]"
        if node.group_by:
            text += " group by [" + ", ".join(
                _expr(g, 0) for g in node.group_by
            ) + "]"
        if node.order_by:
            text += " order by [" + _order_sql(node.order_by) + "]"
        lines.append(text)
    elif isinstance(node, nodes.SequencedAggregate):
        items = ", ".join(_output_sql(item) for item in node.items)
        text = f"{indent}SequencedAggregate [{node.kind}] [{items}]"
        if node.group_by:
            text += " group by [" + ", ".join(
                _expr(g, 0) for g in node.group_by
            ) + "]"
        lines.append(text)
    elif isinstance(node, nodes.Sort):
        lines.append(f"{indent}Sort [{_order_sql(node.keys)}]")
    elif isinstance(node, nodes.Distinct):
        lines.append(f"{indent}Distinct")
    elif isinstance(node, nodes.Coalesce):
        lines.append(
            f"{indent}Coalesce periods at "
            f"[{node.start_index}, {node.end_index}]"
        )
    elif isinstance(node, nodes.Limit):
        lines.append(f"{indent}Limit {node.count}")
    else:
        raise TypeError(f"cannot render plan node {type(node).__name__}")
    for child in nodes.children(node):
        _render_node(child, lines, depth + 1)


def _predicate_suffix(predicates: tuple) -> str:
    if not predicates:
        return ""
    return " [" + " AND ".join(_expr(p, 3) for p in predicates) + "]"


def _output_sql(item: nodes.Output) -> str:
    text = _expr(item.expr, 0)
    if item.aliased:
        text += f" AS {item.name}"
    return text


def _order_sql(keys: tuple) -> str:
    return ", ".join(
        _expr(expr, 0) + (" DESC" if descending else "")
        for expr, descending in keys
    )


# -- physical plan ------------------------------------------------------------


def render_physical(op) -> str:
    """Render a physical operator tree as an indented list of op names."""
    lines: list[str] = []
    _render_op(op, lines, 0)
    return "\n".join(lines)


def _render_op(op, lines: list, depth: int) -> None:
    indent = "  " * depth
    detail = ""
    plan = getattr(op, "plan", None)
    if plan is not None:
        if hasattr(plan, "table"):
            detail = f" {plan.table} AS {plan.alias}"
        elif hasattr(plan, "function"):
            detail = f" {plan.function} AS {plan.alias}"
    if getattr(op, "pairs", None):
        keys = ", ".join(
            f"{l[0]}.{l[1]} = {r[0]}.{r[1]}" for l, r in op.pairs
        )
        detail = f" on {keys}"
    index_name = getattr(getattr(op, "plan", None), "index_name", None)
    if index_name:
        detail += f" using {index_name}"
    # operators carrying their own description (a sequenced
    # aggregate's kind) override the generic plan-derived detail
    own = getattr(op, "render_detail", None)
    if own:
        detail = own
    lines.append(f"{indent}{op.name}{detail}")
    for child_name in ("left", "right", "child"):
        child = getattr(op, child_name, None)
        if child is not None:
            _render_op(child, lines, depth + 1)
