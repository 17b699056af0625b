"""The exception hierarchy: every library error is a ReproError."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.StorageError,
    errors.PageFullError,
    errors.IndexError_,
    errors.CatalogError,
    errors.IntegrityError,
    errors.SqlError,
    errors.SqlSyntaxError,
    errors.SqlPlanError,
    errors.XmlError,
    errors.XQueryError,
    errors.XQuerySyntaxError,
    errors.XQueryTypeError,
    errors.TranslationError,
    errors.UnsupportedQueryError,
    errors.ArchisError,
    errors.CompressionError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_specific_hierarchies():
    assert issubclass(errors.PageFullError, errors.StorageError)
    assert issubclass(errors.SqlSyntaxError, errors.SqlError)
    assert issubclass(errors.SqlPlanError, errors.SqlError)
    assert issubclass(errors.XQuerySyntaxError, errors.XQueryError)
    assert issubclass(errors.XQueryTypeError, errors.XQueryError)
    assert issubclass(errors.UnsupportedQueryError, errors.TranslationError)
    assert issubclass(errors.CompressionError, errors.ArchisError)


def test_catch_all_from_public_api():
    """A caller can guard any library call with one except clause."""
    from repro.rdb import Database

    db = Database()
    with pytest.raises(errors.ReproError):
        db.table("missing")
    with pytest.raises(errors.ReproError):
        db.sql("SELEKT")
    from repro.xquery import parse_xquery

    with pytest.raises(errors.ReproError):
        parse_xquery("for $x")
