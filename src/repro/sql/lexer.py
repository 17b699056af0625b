"""SQL lexer.

Tokenizes the dialect the ArchIS translator emits: SELECT with SQL/XML
constructs, DML, DDL, ``DATE '...'`` literals and ``:name`` parameters.

:func:`shape` is the statement cache's cheap pass over the same grammar:
it yields the statement with literal values blanked (the cache key) and
the blanked values, without building a :class:`Token` per token.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from repro.errors import SqlSyntaxError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<qname>"[^"]+")
  | (?P<name>[A-Za-z_][A-Za-z_0-9$]*)
  | (?P<param>:[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|!=|\|\||[(),.*=<>+\-/;])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "offset",
    "as", "and", "or", "not", "in", "between", "is", "null", "like",
    "insert", "into", "values", "update", "set", "delete",
    "create", "table", "index", "unique", "on", "drop", "primary", "key",
    "asc", "desc", "distinct", "date", "case", "when", "then", "else", "end",
    "int", "integer", "float", "double", "varchar", "blob", "char",
    "xmlelement", "xmlattributes", "xmlagg", "name",
    "for", "system_time", "of", "temporal", "normalize",
}
# NOTE: ``to`` (FOR SYSTEM_TIME FROM .. TO ..) and ``join`` (TEMPORAL
# JOIN) stay plain NAMEs matched contextually by the parser, so columns
# with those names keep working.


class Token:
    """One token.  ``line``/``column`` are computed from ``pos`` when
    read (one shared line-start table per text), not per token."""

    __slots__ = ("kind", "value", "pos", "_lines")

    def __init__(self, kind: str, value: str, pos: int, lines: list) -> None:
        self.kind = kind  # NUMBER STRING QNAME NAME KEYWORD PARAM OP EOF
        self.value = value
        self.pos = pos
        self._lines = lines

    @property
    def line(self) -> int:
        return bisect_right(self._lines, self.pos)

    @property
    def column(self) -> int:
        return self.pos - self._lines[self.line - 1] + 1

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, pos={self.pos})"


def _line_starts(text: str) -> list[int]:
    starts = [0]
    if "\n" in text:
        starts.extend(m.end() for m in re.finditer("\n", text))
    return starts


def _unexpected(text: str, pos: int, lines: list) -> SqlSyntaxError:
    token = Token("OP", text[pos], pos, lines)
    return SqlSyntaxError(
        f"SQL lexer: unexpected character {text[pos]!r}"
        f" at line {token.line}:{token.column}",
        line=token.line,
        column=token.column,
        token=text[pos],
    )


def tokenize(text: str) -> list[Token]:
    lines = _line_starts(text)
    tokens: list[Token] = []
    pos = 0
    match = _TOKEN_RE.match
    while pos < len(text):
        m = match(text, pos)
        if not m:
            raise _unexpected(text, pos, lines)
        pos = m.end()
        group = m.lastgroup
        if group == "ws" or group == "comment":
            continue
        value = m.group()
        kind = group.upper()
        if kind == "NAME":
            # unquoted identifiers fold to lower case (SQL folds unquoted
            # identifiers; this engine's convention is lower)
            value = value.lower()
            if value in KEYWORDS:
                kind = "KEYWORD"
        elif kind == "STRING":
            value = value[1:-1].replace("''", "'")
        elif kind == "QNAME":
            value = value[1:-1]
        elif kind == "PARAM":
            value = value[1:]
        tokens.append(Token(kind, value, m.start(), lines))
    tokens.append(Token("EOF", "", len(text), lines))
    return tokens


# one match = a run of non-literal tokens (kept verbatim: it is part of
# the key) and the literal that ends it, if any.  The alternatives are
# the lexer's own, so a run splits into the tokens ``tokenize`` makes.
_SHAPE_RE = re.compile(
    r"""
    (?P<run>(?:
        \s+
      | --[^\n]*
      | "[^"]+"
      | [A-Za-z_][A-Za-z_0-9$]*
      | :[A-Za-z_][A-Za-z_0-9]*
      | <>|<=|>=|!=|\|\||[(),.*=<>+\-/;]
    )*)
    (?:(?P<number>\d+(?:\.\d+)?)|(?P<string>'(?:[^']|'')*'))?
    """,
    re.VERBOSE,
)

#: a run ending in one of these keywords makes the literal after it
#: part of the statement's structure, not a value: ``LIMIT n``, an
#: XMLElement's ``NAME 'tag'``, an XMLAttributes ``AS 'name'``.  Only
#: a run's tail is searched; a keyword further back (behind a long
#: comment) leaves the literal lifted, and the parser, taking it as
#: structure, marks the statement as not shareable.
_STRUCTURAL_END = re.compile(
    r"(?<![A-Za-z_0-9$:])(?:limit|name|as)(?:\s+|--[^\n]*)*\Z",
    re.IGNORECASE,
)
_TAIL = 48


def shape(text: str) -> tuple[tuple, list]:
    """``(key, literals)``: the statement's text with every value literal
    replaced by its kind, and the replaced literals in order as
    ``(pos, value)`` — ``pos`` and ``value`` as :func:`tokenize` would
    give them.

    The key keeps the text between literals verbatim, so two statements
    with equal keys tokenize alike except for those values (a key is
    finer than the token stream: it also tells case and spacing apart).
    A literal in a structural position stays in the key.  One regex
    match per literal keeps this cheaper than :func:`tokenize`.
    """
    parts: list[str] = []
    literals: list[tuple[int, str]] = []
    match = _SHAPE_RE.match
    pos = 0
    while True:
        m = match(text, pos)
        run = m.group("run")
        parts.append(run)
        pos = m.end()
        kind = "number" if m.group("number") is not None else "string"
        value = m.group(kind)
        if value is None:
            break
        if _STRUCTURAL_END.search(run[-_TAIL:]):
            parts.append(value)
            continue
        parts.append(kind)
        if kind == "string":
            value = value[1:-1].replace("''", "'")
        literals.append((m.start(kind), value))
    if pos != len(text):
        tokenize(text)  # raises the positioned lexer error
    return tuple(parts), literals


def statement_keyword(text: str) -> str:
    """The lower-cased first word of a statement (``"select"``, ...),
    or ``""`` when it does not start with one."""
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup in ("ws", "comment"):
            continue
        return m.group().lower() if m.lastgroup == "name" else ""
    return ""
