"""SQL planning: the pipeline from parsed SELECT to physical operators.

A ``SelectPlan`` runs three explicit stages (see :mod:`repro.plan`):

1. build — :func:`repro.plan.build.build_logical` turns the AST into a
   naive logical plan (left-deep cross product under one Filter);
2. optimize — :func:`repro.plan.optimizer.run_rules` applies constant
   folding, predicate pushdown, the paper's Section 6.4 segment
   restriction, index selection and hash-join selection, recording every
   firing for EXPLAIN;
3. compile — :func:`repro.plan.physical.compile_plan` builds the
   volcano-style operator tree that ``execute`` pulls.

The H-table queries ArchIS emits are id-equi-joins over co-sorted tables
plus indexable interval predicates, so the optimized plans execute them
the way the paper describes (Section 5.3: "These joins execute very fast
... since every table is already sorted on its id attribute").

Setting ``db.optimizer_enabled = False`` skips stage 2: the naive plan
still returns identical rows, just without the restricted access paths —
which is exactly what the equivalence tests exercise.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import SqlPlanError
from repro.plan import build_logical, run_rules
from repro.plan.optimizer import PlanContext, RuleFiring
from repro.plan.physical import ExecContext, compile_plan
from repro.plan.render import render_physical, render_plan
from repro.rdb.database import Database
from repro.sql import ast
from repro.sql.expr import Scope
from repro.sql.result import ResultSet


def function_registry(db: Database) -> dict:
    """Scalar functions visible to queries: builtins + UDFs + current_date."""
    from repro.sql.functions import BUILTIN_FUNCTIONS

    registry = dict(BUILTIN_FUNCTIONS)
    registry["current_date"] = lambda: db.current_date
    registry.update(db._functions)
    return registry


def source_scope(db: Database, sources) -> Scope:
    columns_by_alias: dict[str, list[str]] = {}
    for ref in ast.flat_source_refs(sources):
        if ref.alias in columns_by_alias:
            raise SqlPlanError(f"duplicate alias {ref.alias!r}")
        if isinstance(ref, ast.TableRef):
            table = db.table(ref.name)
            columns_by_alias[ref.alias] = list(table.schema.column_names)
        else:
            if not ref.columns:
                raise SqlPlanError(
                    "table functions need an AS alias(col, ...) clause"
                )
            columns_by_alias[ref.alias] = list(ref.columns)
    return Scope(columns_by_alias, db)


class SelectPlan:
    """One planned SELECT: logical plan, optimized plan, physical tree."""

    def __init__(self, db: Database, select: ast.Select) -> None:
        self.db = db
        self.select = select
        self.functions = function_registry(db)
        self.scope = source_scope(db, select.sources)
        self.logical = build_logical(select, self.scope)
        self.rule_firings: tuple[RuleFiring, ...] = ()
        if getattr(db, "optimizer_enabled", True):
            ctx = PlanContext(db, self.scope, self.functions)
            self.optimized, self.rule_firings = run_rules(self.logical, ctx)
        else:
            self.optimized = self.logical
        self.physical = compile_plan(
            self.optimized, ExecContext(db, self.scope, self.functions)
        )
        from repro.plan.nodes import output_node

        self.item_names = [
            item.name for item in output_node(self.optimized).items
        ]

    def execute(self, params: Mapping | None = None) -> ResultSet:
        params = dict(params or {})
        return ResultSet(list(self.item_names), list(self.physical.rows(params)))

    def report(self):
        """Plan stages rendered for EXPLAIN / the ``plan`` CLI command."""
        from repro.obs.explain import PlanReport
        from repro.rdb import txcontext

        return PlanReport(
            logical=render_plan(self.logical),
            optimized=render_plan(self.optimized),
            physical=render_physical(self.physical),
            rules=[f"{f.rule}: {f.detail}" for f in self.rule_firings],
            as_of=txcontext.as_of_day(),
        )


class DmlMatchPlan:
    """Plans the row-matching half of UPDATE/DELETE over one table.

    Reuses the same build/optimize/compile pipeline as SELECT (so a keyed
    UPDATE hits an index instead of scanning the heap) but pulls
    ``(rid, row)`` pairs, which only leaf scans and Filters can produce —
    guaranteed here because the statement has exactly one source and no
    output stage is compiled.  ``layout`` is the table's columns: a
    matched row is the stored tuple.
    """

    def __init__(self, db: Database, table_name: str, where) -> None:
        self.db = db
        self.table_name = table_name
        self.functions = function_registry(db)
        ref = ast.TableRef(table_name, table_name)
        self.scope = source_scope(db, (ref,))
        from repro.plan import nodes, split_conjuncts

        plan = nodes.Scan(table_name, table_name)
        conjuncts = tuple(split_conjuncts(where))
        if conjuncts:
            plan = nodes.Filter(plan, conjuncts)
        if getattr(db, "optimizer_enabled", True):
            ctx = PlanContext(db, self.scope, self.functions)
            plan, _ = run_rules(plan, ctx)
        self._physical = compile_plan(
            plan, ExecContext(db, self.scope, self.functions)
        )
        self.layout = self._physical.layout

    def matches(self, params: Mapping):
        """Yield ``(rid, row)`` for every row the WHERE clause selects."""
        yield from self._physical.rid_rows(params)
