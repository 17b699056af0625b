"""Built-in SQL scalar functions, including the temporal UDFs.

The temporal functions mirror the XQuery library but take unpacked
``(tstart, tend)`` day-count pairs, which is exactly how the ArchIS
translator passes them (paper Section 5.4: "The translation of UDF
toverlaps takes in the tstart and tend values, and returns true or
false").  They delegate to :mod:`repro.util.intervals` so both query paths
share one implementation of interval semantics.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SqlPlanError
from repro.util.intervals import Interval
from repro.util.timeutil import FOREVER, format_date, parse_date


def _interval(tstart: object, tend: object) -> Interval:
    return Interval(_days(tstart), _days(tend))


def _days(value: object) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return parse_date(value)
    raise SqlPlanError(f"expected a date value, got {value!r}")


# -- temporal predicates ------------------------------------------------------


def sql_toverlaps(s1, e1, s2, e2) -> bool:
    if type(s1) is type(e1) is type(s2) is type(e2) is int and s1 <= e1 and s2 <= e2:
        # day counts forming valid intervals: Interval.overlaps, unboxed
        return s1 <= e2 and s2 <= e1
    return _interval(s1, e1).overlaps(_interval(s2, e2))


def sql_tcontains(s1, e1, s2, e2) -> bool:
    return _interval(s1, e1).contains(_interval(s2, e2))


def sql_tequals(s1, e1, s2, e2) -> bool:
    return _interval(s1, e1).equals(_interval(s2, e2))


def sql_tmeets(s1, e1, s2, e2) -> bool:
    return _interval(s1, e1).meets(_interval(s2, e2))


def sql_tprecedes(s1, e1, s2, e2) -> bool:
    return _interval(s1, e1).precedes(_interval(s2, e2))


def sql_overlap_start(s1, e1, s2, e2):
    """Start of the overlapped interval, NULL when disjoint."""
    shared = _interval(s1, e1).intersect(_interval(s2, e2))
    return None if shared is None else shared.start


def sql_overlap_end(s1, e1, s2, e2):
    shared = _interval(s1, e1).intersect(_interval(s2, e2))
    return None if shared is None else shared.end


def sql_timespan(s, e) -> int:
    return _interval(s, e).timespan()


# -- date rendering -----------------------------------------------------------------


def sql_datestr(days) -> str | None:
    """Render a DATE day-count as ``YYYY-MM-DD`` (the H-document form)."""
    if days is None:
        return None
    return format_date(_days(days))


def sql_dateval(text) -> int | None:
    if text is None:
        return None
    return parse_date(str(text))


def sql_is_now(days) -> bool:
    return _days(days) == FOREVER


# -- generic scalars -------------------------------------------------------------------


def sql_coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def sql_nullif(a, b):
    return None if a == b else a


def sql_greatest(*args):
    values = [a for a in args if a is not None]
    return max(values) if values else None


def sql_least(*args):
    values = [a for a in args if a is not None]
    return min(values) if values else None


def sql_abs(value):
    return None if value is None else abs(value)


def sql_length(value):
    return None if value is None else len(str(value))


def sql_lower(value):
    return None if value is None else str(value).lower()


def sql_upper(value):
    return None if value is None else str(value).upper()


def sql_substr(value, start, count=None):
    if value is None:
        return None
    text = str(value)
    begin = int(start) - 1
    if count is None:
        return text[begin:]
    return text[begin : begin + int(count)]


def sql_cast_int(value):
    return None if value is None else int(value)


def sql_cast_float(value):
    return None if value is None else float(value)


BUILTIN_FUNCTIONS: dict[str, Callable] = {
    "toverlaps": sql_toverlaps,
    "tcontains": sql_tcontains,
    "tequals": sql_tequals,
    "tmeets": sql_tmeets,
    "tprecedes": sql_tprecedes,
    "overlap_start": sql_overlap_start,
    "overlap_end": sql_overlap_end,
    "timespan": sql_timespan,
    "datestr": sql_datestr,
    "dateval": sql_dateval,
    "is_now": sql_is_now,
    "coalesce": sql_coalesce,
    "nullif": sql_nullif,
    "greatest": sql_greatest,
    "least": sql_least,
    "abs": sql_abs,
    "length": sql_length,
    "lower": sql_lower,
    "upper": sql_upper,
    "substr": sql_substr,
    "int": sql_cast_int,
    "float": sql_cast_float,
}
