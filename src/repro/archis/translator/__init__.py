"""XQuery → SQL/XML translation (paper Algorithm 1)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.archis.translator.core import Analyzer, Translation
from repro.xquery.parser import query_shape

if TYPE_CHECKING:
    from repro.archis.system import ArchIS


def translate(archis: "ArchIS", query: str) -> Translation:
    """Full translation: SQL text plus post-processing step, translated
    cold (no cache)."""
    _, literals = query_shape(query)
    return Analyzer(archis).template(query, literals).bind(literals)


def translate_xquery(archis: "ArchIS", query: str) -> str:
    """Translate XQuery on H-views to a SQL/XML statement on H-tables."""
    return translate(archis, query).sql


def run_translated(archis: "ArchIS", sql_or_query: str) -> list:
    """Execute a translated query and shape its result like XQuery output.

    Accepts either the SQL text from :func:`translate_xquery` or the
    original XQuery (retranslated to recover the post-processing step).
    """
    text = sql_or_query.lstrip()
    if text[:6].upper() == "SELECT":
        result = archis.db.sql(sql_or_query)
        return result.xml() or list(result.rows)
    translation = translate(archis, sql_or_query)
    result = archis.db.sql(translation.sql)
    if translation.post is not None:
        return translation.post(result)
    return result.xml()


__all__ = ["Translation", "translate", "translate_xquery", "run_translated"]
