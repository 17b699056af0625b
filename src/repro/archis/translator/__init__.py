"""XQuery → SQL/XML translation (paper Algorithm 1)."""

from repro.archis.translator.core import Analyzer, Translation

__all__ = ["Analyzer", "Translation"]
