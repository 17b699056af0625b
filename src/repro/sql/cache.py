"""The statement cache: plan each statement shape once, bind its values.

An RDBMS plans a statement shape once and then only binds values; so
does this one.  The cache key is the statement's *shape* — its text
with literal values blanked (:func:`repro.sql.lexer.shape`), which
fixes its token stream — plus everything planning reads besides the
values:

- the database's plan generation: catalog, index and function
  registrations, and (through ``Database.segment_generation``) ArchIS's
  segment generation and compressed-table set;
- ``db.optimizer_enabled``;
- whether a snapshot overlay (``txcontext.providing_tables``) is active,
  since an overlay serves index-less copies of the tables it covers.

A miss parses with each literal lifted into a numbered slot, then
builds, optimizes and compiles as always: the rules see the real values
and record every decision they take on one as a guard
(:class:`repro.plan.optimizer.Guards`).  A hit converts the new
literals as the parser would and takes the first plan of the shape
whose guards admit them — a binding that would plan differently misses
the guards, plans anew (a *replan*) and both plans stay.  The compiled
operators read slotted literals from the execution's parameters, so
one plan serves concurrent executions with different values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.metrics import get_registry
from repro.plan.optimizer import Guards, collecting_guards
from repro.plan.render import bound_literals
from repro.rdb import txcontext
from repro.sql import ast
from repro.sql.lexer import shape, statement_keyword
from repro.sql.parser import CONVERTERS, SqlParser, parse_sql
from repro.sql.planner import DmlMatchPlan, SelectPlan

#: plans the cache holds at most, over all shapes (least recently used
#: shapes go first), and per shape (its oldest plan goes first)
CAPACITY = 256
PLANS_PER_SHAPE = 8

_HITS = get_registry().counter("plan.cache.hits")
_MISSES = get_registry().counter("plan.cache.misses")
_REPLANS = get_registry().counter("plan.cache.replans")

_DDL = ("create", "drop")


class Prepared:
    """One statement shape, parsed with its literals lifted and (for
    SELECT, INSERT ... SELECT, UPDATE and DELETE) planned.

    ``converters`` names, per slot, how a token value becomes the slot's
    value (``None`` when the statement cannot be shared: DDL, or a
    literal the grammar took as structure).  ``guards`` decide whether
    the plan serves another binding.
    """

    __slots__ = ("statement", "plan", "converters", "guards")

    def __init__(self, statement, plan, converters, guards: Guards) -> None:
        self.statement = statement
        self.plan = plan
        self.converters = converters
        self.guards = guards


class Bound:
    """A prepared statement together with one statement's literals."""

    __slots__ = ("prepared", "values")

    def __init__(self, prepared: Prepared, values: tuple) -> None:
        self.prepared = prepared
        self.values = values

    @property
    def statement(self):
        return self.prepared.statement

    @property
    def plan(self):
        return self.prepared.plan

    def params(self, params) -> dict:
        """The execution's parameters: the caller's ``:name`` values plus
        the literal values, keyed by slot number."""
        merged = dict(params) if params else {}
        merged.update(enumerate(self.values))
        return merged

    def report(self):
        """The plan's EXPLAIN report, rendered with these literals."""
        with bound_literals(self.values):
            return self.prepared.plan.report()


def _plan_statement(db, statement):
    """The plan a statement executes with (``None``: nothing to plan)."""
    if isinstance(statement, ast.Select):
        return SelectPlan(db, statement)
    if isinstance(statement, ast.InsertSelect):
        return SelectPlan(db, statement.select)
    if isinstance(statement, (ast.Update, ast.Delete)):
        return DmlMatchPlan(db, statement.table, statement.where)
    return None


class StatementCache:
    """LRU map from statement key to the plans of that shape."""

    def __init__(self, db) -> None:
        self.db = db
        self._entries: OrderedDict[tuple, list[Prepared]] = OrderedDict()
        self._size = 0
        self._lock = threading.Lock()

    def prepare(self, text: str) -> Bound:
        """Parse and plan ``text``, or bind it to a cached plan."""
        if statement_keyword(text) in _DDL:
            statement = parse_sql(text)
            return Bound(Prepared(statement, None, None, Guards()), ())
        text_shape, literals = shape(text)
        db = self.db
        key = (
            text_shape,
            db.plan_generation(),
            db.optimizer_enabled,
            txcontext.table_provider() is not None,
        )
        with self._lock:
            variants = self._entries.get(key)
            if variants is not None:
                self._entries.move_to_end(key)
        if variants:
            values = _bind(variants[0].converters, literals)
            if values is None:
                parse_sql(text)  # raises the error the parser reports
            else:
                for prepared in variants:
                    if prepared.guards.admits(values):
                        _HITS.inc()
                        return Bound(prepared, values)
            _REPLANS.inc()
        else:
            _MISSES.inc()
        prepared, values = self._plan(text, literals)
        if prepared.converters is not None:
            self._store(key, prepared)
        return Bound(prepared, values)

    def _plan(self, text: str, literals: list) -> tuple[Prepared, tuple]:
        lifted = {pos: slot for slot, (pos, _) in enumerate(literals)}
        parser = SqlParser(text, lifted)
        statement = parser.parse_statement()
        with collecting_guards() as guards:
            plan = _plan_statement(self.db, statement)
        converters = tuple(parser.converters)
        if None in converters:
            converters = None
        return (
            Prepared(statement, plan, converters, guards),
            tuple(parser.values),
        )

    def _store(self, key: tuple, prepared: Prepared) -> None:
        with self._lock:
            # copy-on-write: a reader may be walking the old list
            old = self._entries.get(key, [])
            variants = (old + [prepared])[-PLANS_PER_SHAPE:]
            self._size += len(variants) - len(old)
            self._entries[key] = variants
            self._entries.move_to_end(key)
            while self._size > CAPACITY:
                _, dropped = self._entries.popitem(last=False)
                self._size -= len(dropped)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size = 0

    def stats(self) -> dict:
        """Plans held and the process-wide hit/miss/replan counters."""
        return {
            "size": self._size,
            "capacity": CAPACITY,
            "hits": _HITS.value,
            "misses": _MISSES.value,
            "replans": _REPLANS.value,
        }


def _bind(converters, literals):
    """The slot values of ``literals`` as the parser would make them, or
    ``None`` when one does not convert (the parser reports why)."""
    try:
        return tuple(
            CONVERTERS[converter](value)
            for converter, (_, value) in zip(converters, literals)
        )
    except ValueError:
        return None
