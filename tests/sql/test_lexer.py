"""Tests for the SQL lexer."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]  # drop EOF


def test_keywords_lowercased():
    assert kinds("SELECT FROM") == [("KEYWORD", "select"), ("KEYWORD", "from")]


def test_identifiers_folded_to_lowercase():
    assert kinds("Employee") == [("NAME", "employee")]


def test_quoted_identifiers_preserve_case():
    assert kinds('"MixedCase"') == [("QNAME", "MixedCase")]


def test_numbers():
    assert kinds("42 3.14") == [("NUMBER", "42"), ("NUMBER", "3.14")]


def test_string_literal_with_escape():
    assert kinds("'it''s'") == [("STRING", "it's")]


def test_param():
    assert kinds(":who") == [("PARAM", "who")]


def test_slot():
    assert kinds("$0 = DATE $12") == [
        ("SLOT", "0"), ("OP", "="), ("KEYWORD", "date"), ("SLOT", "12"),
    ]


def test_a_slot_outside_a_translated_query_is_a_syntax_error():
    from repro.rdb import Database

    db = Database()
    db.sql("CREATE TABLE t (id INT)")
    for text in ("SELECT $0 FROM t", "SELECT id FROM t WHERE id = $1"):
        with pytest.raises(SqlSyntaxError, match="slot reference"):
            db.sql(text)


def test_operators():
    ops = [v for k, v in kinds("<> <= >= != || ( ) , . * = < > + - /")]
    assert "<>" in ops and "||" in ops and "<=" in ops


def test_comment_stripped():
    assert kinds("a -- comment here\nb") == [("NAME", "a"), ("NAME", "b")]


def test_eof_token_present():
    tokens = tokenize("a")
    assert tokens[-1].kind == "EOF"


def test_positions_recorded():
    tokens = tokenize("ab  cd")
    assert tokens[0].pos == 0
    assert tokens[1].pos == 4


def test_unexpected_character_raises():
    with pytest.raises(SqlSyntaxError):
        tokenize("a ? b")


def test_dollar_in_identifier():
    assert kinds("tab$le") == [("NAME", "tab$le")]


def test_sqlxml_keywords_recognized():
    got = kinds("XMLElement XMLAttributes XMLAgg Name")
    assert all(k == "KEYWORD" for k, _ in got)
