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
- whether a day is pinned (a snapshot read), since a pinned day plans
  tracked current tables over their H-tables.  The day itself is not
  part of the key: it is bound after the statement's literals, in the
  last slot, like one more lifted literal.

A miss parses with each literal lifted into a numbered slot, then
builds, optimizes and compiles as always: the rules see the real values
and record every decision they take on one as a guard
(:class:`repro.plan.optimizer.Guards`).  A hit converts the new
literals as the parser would and takes the first plan of the shape
whose guards admit them — a binding that would plan differently misses
the guards, plans anew (a *replan*) and both plans stay.  The compiled
operators read slotted literals from the execution's parameters, so
one plan serves concurrent executions with different values.

XQuery shapes share the cache (:meth:`StatementCache.prepare_xquery`).
Their key is the XQuery's shape (:func:`repro.xquery.parser.query_shape`)
plus the same components.  A miss runs the translator once for the
shape; its SQL names each lifted literal by slot (``$n``), so the entry
keeps that SQL, the post step and the slot kinds beside its plans.  A
hit converts the new literals and checks the guards: no translation, and
no SQL text written, lexed or parsed.  A replan parses the stored SQL
with the new values.
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
from repro.xquery.parser import query_shape

#: plans the cache holds at most, over all shapes (least recently used
#: shapes go first; an XQuery shape without a plan counts as one), and
#: per shape (its oldest plan goes first)
CAPACITY = 256
PLANS_PER_SHAPE = 8

_HITS = get_registry().counter("plan.cache.hits")
_MISSES = get_registry().counter("plan.cache.misses")
_REPLANS = get_registry().counter("plan.cache.replans")
_XQUERY_HITS = get_registry().counter("translator.cache_hits")
_XQUERY_MISSES = get_registry().counter("translator.cache_misses")

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
    """A prepared statement together with one statement's literals (and,
    for an XQuery, its shape's translation)."""

    __slots__ = ("prepared", "values", "translation")

    def __init__(
        self, prepared: Prepared, values: tuple, translation=None
    ) -> None:
        self.prepared = prepared
        self.values = values
        self.translation = translation

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
    """LRU map from statement key to ``(translation, plans)``: the plans
    of that shape, and for an XQuery shape its translation."""

    def __init__(self, db) -> None:
        self.db = db
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._size = 0
        self._lock = threading.Lock()

    def _key(self, text_shape: tuple) -> tuple:
        """The cache key of a shape, and the pinned day's slot value."""
        db = self.db
        day = txcontext.as_of_day()
        key = (
            text_shape,
            db.plan_generation(),
            db.optimizer_enabled,
            day is not None,
        )
        return key, () if day is None else (day,)

    def _lookup(self, key: tuple) -> tuple:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None, ()
            self._entries.move_to_end(key)
            return entry

    def prepare(self, text: str) -> Bound:
        """Parse and plan ``text``, or bind it to a cached plan."""
        if statement_keyword(text) in _DDL:
            statement = parse_sql(text)
            return Bound(Prepared(statement, None, None, Guards()), ())
        text_shape, literals = shape(text)
        key, pinned = self._key(text_shape)
        _, variants = self._lookup(key)
        if variants:
            values = _bind(variants[0].converters, literals)
            if values is None:
                parse_sql(text)  # raises the error the parser reports
            else:
                values += pinned
                for prepared in variants:
                    if prepared.guards.admits(values):
                        _HITS.inc()
                        return Bound(prepared, values)
            _REPLANS.inc()
        else:
            _MISSES.inc()
        prepared, values = self._plan(text, literals, pinned)
        if prepared.converters is not None:
            self._store(key, None, prepared)
        return Bound(prepared, values)

    def prepare_xquery(self, query: str, translate) -> Bound:
        """Bind an XQuery to a cached plan of its shape.

        ``translate(query, literals)`` runs Algorithm 1 on a shape the
        cache does not hold and returns its translation: the SQL, its
        ``post`` step, ``bind(literals)``, which converts a binding's
        literals to the slot values or raises
        :class:`~repro.errors.UnsupportedQueryError`, and
        ``answers(query)``, false when the translation is pinned to
        another text.  The bound statement's ``translation`` is it.
        """
        xquery_shape, literals = query_shape(query)
        key, pinned = self._key(("xquery",) + xquery_shape)
        translation, plans = self._lookup(key)
        if translation is not None and translation.answers(query):
            _XQUERY_HITS.inc()
        else:
            _XQUERY_MISSES.inc()
            translation, plans = translate(query, literals), ()
            # kept even if this binding is refused: the next one may not be
            self._store(key, translation, None)
        values = translation.bind(literals)
        bound_values = values + pinned
        for prepared in plans:
            if prepared.guards.admits(bound_values):
                _HITS.inc()
                return Bound(prepared, bound_values, translation)
        (_REPLANS if plans else _MISSES).inc()
        statement = SqlParser(translation.sql, slots=values).parse_statement()
        with collecting_guards(day_slot=len(values)) as guards:
            plan = _plan_statement(self.db, statement)
        prepared = Prepared(statement, plan, (), guards)
        self._store(key, translation, prepared)
        return Bound(prepared, bound_values, translation)

    def _plan(
        self, text: str, literals: list, pinned: tuple
    ) -> tuple[Prepared, tuple]:
        lifted = {pos: slot for slot, (pos, _) in enumerate(literals)}
        parser = SqlParser(text, lifted)
        statement = parser.parse_statement()
        with collecting_guards(day_slot=len(literals)) as guards:
            plan = _plan_statement(self.db, statement)
        converters = tuple(parser.converters)
        if None in converters:
            converters = None
        return (
            Prepared(statement, plan, converters, guards),
            tuple(parser.values) + pinned,
        )

    def _store(self, key: tuple, translation, prepared) -> None:
        """Add ``prepared`` (if any) to the plans of ``key``; a new
        ``translation`` starts the shape's plans afresh."""
        with self._lock:
            # copy-on-write: a reader may be walking the old tuple
            entry = self._entries.get(key)
            old_translation, old = entry if entry is not None else (None, ())
            plans = old if translation is old_translation else ()
            if prepared is not None:
                plans = (plans + (prepared,))[-PLANS_PER_SHAPE:]
            self._size += _weight(plans)
            if entry is not None:
                self._size -= _weight(old)
            self._entries[key] = (translation, plans)
            self._entries.move_to_end(key)
            while self._size > CAPACITY:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._size -= _weight(dropped)

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


def _weight(plans: tuple) -> int:
    return len(plans) or 1


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
