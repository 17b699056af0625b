"""XQuery subset parser.

Covers the language the paper exercises (Sections 4 and 7): FLWOR with
interleaved ``for``/``let``/``where``/``order by``, quantified expressions
(``some``/``every ... satisfies``), path expressions with full predicate
expressions, direct (``<e>{...}</e>``) and computed (``element e {...}``)
constructors, general comparisons, arithmetic and function calls.

The scanner is integrated with the parser because direct element
constructors require character-level parsing with re-entry into expression
mode inside ``{ }`` holes — the same structure real XQuery parsers use.

Notable XQuery conventions honoured here: names may contain ``-``
(``current-date``), so subtraction needs surrounding whitespace; comments
are ``(: ... :)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import XQuerySyntaxError
from repro.xquery.ast import (
    AttrTemplate,
    BinaryOp,
    ComputedElement,
    ContextItem,
    DirectElement,
    Flwor,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    Literal,
    OrderByClause,
    OrderSpec,
    PathExpr,
    Quantified,
    QuantifiedBinding,
    SequenceExpr,
    Step,
    UnaryOp,
    VarRef,
    WhereClause,
)

# The token grammar, one alternative per token kind.  The scanner
# matches one token with ``_TOKEN_RE``; :func:`query_shape` (the
# statement cache's pass over an XQuery) finds literals with the same string and
# number alternatives, so a literal it lifts spans what the scanner's
# token at that offset spans.  A doubled quote inside a string is the
# quote itself: the greedy match takes the pair before the closing quote.
_STRING = r""""(?:[^"]|"")*"|'(?:[^']|'')*'"""
_NUMBER = r"\d+(?:\.\d+)?"
_NAME = r"[A-Za-z_][\w\-]*(?::[A-Za-z_][\w\-]*)?"
_SYMBOL = r":=|//|!=|<=|>=|[()\[\]{},/$.=<>+\-*@]"

_TOKEN_RE = re.compile(
    f"(?P<STRING>{_STRING})|(?P<NUMBER>{_NUMBER})"
    f"|(?P<NAME>{_NAME})|(?P<SYM>{_SYMBOL})"
)
_NAME_RE = re.compile(_NAME)
_SPACE_RE = re.compile(r"\s*")

_KEYWORD_OPS = {"and", "or", "div", "mod", "to"}


def _number(text: str) -> int | float:
    return float(text) if "." in text else int(text)


def _string(token: str) -> str:
    quote = token[0]
    return token[1:-1].replace(quote + quote, quote)


# one match = a run of text without literals (kept verbatim: it is part
# of the key) and the literal that ends it, if any.  A digit right after
# a word character belongs to a name (``$e1``), not to a number.  The
# literal group is optional, so a match never backtracks into the run.
_SHAPE_RE = re.compile(
    r"(?P<run>(?:[^\"'\d]+|(?<=\w)\d+)*)"
    f"(?:(?P<number>{_NUMBER})|(?P<string>{_STRING}))?"
)
#: a run ending in ``doc(`` makes the string after it the document's
#: URI: structure (it picks the relation), not a value
_STRUCTURAL_END = re.compile(r"(?<![\w\-:])(?:doc|document)\s*\(\s*\Z")
_TAIL = 24


def query_shape(text: str) -> tuple[tuple, list]:
    """``(key, literals)``: the query's text with every value literal
    replaced by its kind, and the replaced literals in order as
    ``(pos, value)`` — ``pos`` and ``value`` as the parser's
    :class:`~repro.xquery.ast.Literal` nodes carry them.

    The key keeps the text between literals verbatim, so two queries
    with equal keys differ only in those values.  A ``doc()`` URI stays
    in the key.  The pass does not parse: it also lifts quoted or
    numeric text the parser reads otherwise (in a comment, or in a
    direct constructor's content), which the translator detects (see
    ``Analyzer.translate``).  An unterminated string ends the pass: the whole
    text is then the key and nothing is lifted.
    """
    parts: list[str] = []
    literals: list[tuple[int, object]] = []
    match = _SHAPE_RE.match
    pos = 0
    while True:
        m = match(text, pos)
        run = m.group("run")
        parts.append(run)
        pos = m.end()
        kind = m.lastgroup
        if kind == "run":
            break
        token = m.group(kind)
        if _STRUCTURAL_END.search(run[-_TAIL:]):
            parts.append(token)
            continue
        parts.append(kind)
        value = _number(token) if kind == "number" else _string(token)
        literals.append((m.start(kind), value))
    if pos != len(text):
        return (text,), []
    return tuple(parts), literals


@dataclass(slots=True)
class _Token:
    kind: str  # NAME, NUMBER, STRING, SYM, EOF
    value: str
    pos: int


class _ParserBase:
    """Shared scanner machinery."""

    def __init__(self, text: str, pos: int = 0) -> None:
        self.text = text
        self.pos = pos
        self._cache: _Token | None = None

    # -- scanning ---------------------------------------------------------

    def _error(self, message: str, pos: int | None = None) -> XQuerySyntaxError:
        at = self.pos if pos is None else pos
        snippet = self.text[at : at + 24].replace("\n", " ")
        return XQuerySyntaxError(f"{message} near {snippet!r} (offset {at})")

    def _skip_ws(self) -> None:
        text = self.text
        while True:
            self.pos = _SPACE_RE.match(text, self.pos).end()
            if not text.startswith("(:", self.pos):
                return
            depth = 1
            scan = self.pos + 2
            while scan < len(text) and depth:
                if text.startswith("(:", scan):
                    depth += 1
                    scan += 2
                elif text.startswith(":)", scan):
                    depth -= 1
                    scan += 2
                else:
                    scan += 1
            if depth:
                raise self._error("unterminated comment")
            self.pos = scan

    def _scan_token(self) -> _Token:
        self._skip_ws()
        start = self.pos
        m = _TOKEN_RE.match(self.text, start)
        if m is None:
            if start >= len(self.text):
                return _Token("EOF", "", start)
            char = self.text[start]
            if char in ("'", '"'):
                raise self._error("unterminated string literal", start)
            raise self._error(f"unexpected character {char!r}", start)
        self.pos = m.end()
        kind = m.lastgroup
        value = m.group()
        if kind == "STRING":
            value = _string(value)
        return _Token(kind, value, start)

    def _peek(self) -> _Token:
        if self._cache is None:
            self._cache = self._scan_token()
        return self._cache

    def _next(self) -> _Token:
        token = self._peek()
        self._cache = None
        return token

    def _at(self, kind: str, value: str | None = None) -> bool:
        token = self._peek()
        return token.kind == kind and (value is None or token.value == value)

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            want = value or kind
            raise self._error(f"expected {want!r}, got {token.value!r}", token.pos)
        return token

    def _rewind_to(self, pos: int) -> None:
        self.pos = pos
        self._cache = None


class XQueryParser(_ParserBase):
    """Recursive-descent parser for the XQuery subset."""

    def parse(self):
        expr = self._parse_expr()
        if self._peek().kind != "EOF":
            raise self._error("trailing content after query")
        return expr

    # -- expression levels --------------------------------------------------

    def _parse_expr(self):
        items = [self._parse_single()]
        while self._at("SYM", ","):
            self._next()
            items.append(self._parse_single())
        if len(items) == 1:
            return items[0]
        return SequenceExpr(tuple(items))

    def _parse_single(self):
        token = self._peek()
        if token.kind == "NAME":
            if token.value in ("for", "let") and self._lookahead_is_dollar():
                return self._parse_flwor()
            if token.value in ("some", "every") and self._lookahead_is_dollar():
                return self._parse_quantified()
            if token.value == "if" and self._lookahead_is_lparen():
                return self._parse_if()
            if token.value == "element":
                return self._parse_computed_element()
        return self._parse_or()

    def _lookahead_is_dollar(self) -> bool:
        saved_pos, saved_cache = self.pos, self._cache
        self._next()
        result = self._at("SYM", "$")
        self.pos, self._cache = saved_pos, saved_cache
        return result

    def _lookahead_is_lparen(self) -> bool:
        saved_pos, saved_cache = self.pos, self._cache
        self._next()
        result = self._at("SYM", "(")
        self.pos, self._cache = saved_pos, saved_cache
        return result

    # -- FLWOR -----------------------------------------------------------------

    def _parse_flwor(self):
        clauses: list = []
        while True:
            token = self._peek()
            if token.kind == "NAME" and token.value == "for":
                self._next()
                clauses.extend(self._parse_for_bindings())
            elif token.kind == "NAME" and token.value == "let":
                self._next()
                clauses.extend(self._parse_let_bindings())
            elif token.kind == "NAME" and token.value == "where":
                self._next()
                clauses.append(WhereClause(self._parse_single()))
            elif token.kind == "NAME" and token.value == "order":
                self._next()
                self._expect("NAME", "by")
                clauses.append(self._parse_order_by())
            else:
                break
        self._expect("NAME", "return")
        return Flwor(tuple(clauses), self._parse_single())

    def _parse_for_bindings(self) -> list:
        out = []
        while True:
            self._expect("SYM", "$")
            var = self._expect("NAME").value
            position_var = None
            if self._at("NAME", "at"):
                self._next()
                self._expect("SYM", "$")
                position_var = self._expect("NAME").value
            self._expect("NAME", "in")
            out.append(ForClause(var, self._parse_single(), position_var))
            if self._at("SYM", ","):
                self._next()
                continue
            return out

    def _parse_let_bindings(self) -> list:
        out = []
        while True:
            self._expect("SYM", "$")
            var = self._expect("NAME").value
            self._expect("SYM", ":=")
            out.append(LetClause(var, self._parse_single()))
            if self._at("SYM", ","):
                self._next()
                continue
            return out

    def _parse_order_by(self) -> OrderByClause:
        specs = []
        while True:
            key = self._parse_single()
            descending = False
            if self._at("NAME", "descending"):
                self._next()
                descending = True
            elif self._at("NAME", "ascending"):
                self._next()
            specs.append(OrderSpec(key, descending))
            if self._at("SYM", ","):
                self._next()
                continue
            return OrderByClause(tuple(specs))

    def _parse_quantified(self):
        kind = self._next().value
        bindings = []
        while True:
            self._expect("SYM", "$")
            var = self._expect("NAME").value
            self._expect("NAME", "in")
            bindings.append(QuantifiedBinding(var, self._parse_or()))
            if self._at("SYM", ","):
                self._next()
                continue
            break
        self._expect("NAME", "satisfies")
        return Quantified(kind, tuple(bindings), self._parse_single())

    def _parse_if(self):
        self._next()  # if
        self._expect("SYM", "(")
        condition = self._parse_expr()
        self._expect("SYM", ")")
        self._expect("NAME", "then")
        then_branch = self._parse_single()
        self._expect("NAME", "else")
        else_branch = self._parse_single()
        return IfExpr(condition, then_branch, else_branch)

    def _parse_computed_element(self):
        self._next()  # element
        name = self._expect("NAME").value
        self._expect("SYM", "{")
        if self._at("SYM", "}"):
            content = None
        else:
            content = self._parse_expr()
        self._expect("SYM", "}")
        return ComputedElement(name, content)

    # -- operators ---------------------------------------------------------------

    def _parse_or(self):
        node = self._parse_and()
        while self._at("NAME", "or"):
            self._next()
            node = BinaryOp("or", node, self._parse_and())
        return node

    def _parse_and(self):
        node = self._parse_comparison()
        while self._at("NAME", "and"):
            self._next()
            node = BinaryOp("and", node, self._parse_comparison())
        return node

    def _parse_comparison(self):
        node = self._parse_additive()
        token = self._peek()
        if token.kind == "SYM" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            return BinaryOp(token.value, node, self._parse_additive())
        return node

    def _parse_additive(self):
        node = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "SYM" and token.value in ("+", "-"):
                self._next()
                node = BinaryOp(token.value, node, self._parse_multiplicative())
            else:
                return node

    def _parse_multiplicative(self):
        node = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "SYM" and token.value == "*":
                self._next()
                node = BinaryOp("*", node, self._parse_unary())
            elif token.kind == "NAME" and token.value in ("div", "mod"):
                op = self._next().value
                node = BinaryOp(op, node, self._parse_unary())
            else:
                return node

    def _parse_unary(self):
        token = self._peek()
        if token.kind == "SYM" and token.value in ("-", "+"):
            self._next()
            return UnaryOp(token.value, self._parse_unary())
        return self._parse_path()

    # -- paths ------------------------------------------------------------------

    def _parse_path(self):
        token = self._peek()
        if token.kind == "SYM" and token.value in ("/", "//"):
            # absolute path
            steps = self._parse_steps(initial_slash_consumed=False)
            return PathExpr(None, tuple(steps))
        start, first_steps = self._parse_primary_or_namestep()
        steps = list(first_steps)
        while self._at("SYM", "/") or self._at("SYM", "//"):
            steps.extend(self._parse_steps(initial_slash_consumed=False))
        if steps:
            return PathExpr(start, tuple(steps))
        return start

    def _parse_steps(self, initial_slash_consumed: bool) -> list[Step]:
        steps: list[Step] = []
        while True:
            if not initial_slash_consumed:
                token = self._peek()
                if not (token.kind == "SYM" and token.value in ("/", "//")):
                    return steps
                self._next()
                axis = "descendant" if token.value == "//" else "child"
            else:
                axis = "child"
                initial_slash_consumed = False
            steps.append(self._parse_step(axis))

    def _parse_step(self, axis: str) -> Step:
        token = self._peek()
        if token.kind == "SYM" and token.value == "@":
            self._next()
            name = self._expect("NAME").value
            return Step(axis, "@" + name, tuple(self._parse_predicates()))
        if token.kind == "SYM" and token.value == "$":
            raise self._error("variable cannot appear mid-path")
        if token.kind == "SYM" and token.value == "*":
            self._next()
            return Step(axis, "*", tuple(self._parse_predicates()))
        if token.kind == "NAME":
            name = self._next().value
            if name == "text" and self._at("SYM", "("):
                self._next()
                self._expect("SYM", ")")
                return Step(axis, "text()", tuple(self._parse_predicates()))
            if name == "node" and self._at("SYM", "("):
                self._next()
                self._expect("SYM", ")")
                return Step(axis, "node()", tuple(self._parse_predicates()))
            return Step(axis, name, tuple(self._parse_predicates()))
        if token.kind == "SYM" and token.value == ".":
            self._next()
            return Step("self", ".", tuple(self._parse_predicates()))
        raise self._error("expected a path step")

    def _parse_predicates(self) -> list:
        predicates = []
        while self._at("SYM", "["):
            self._next()
            predicates.append(self._parse_expr())
            self._expect("SYM", "]")
        return predicates

    # -- primaries ------------------------------------------------------------------

    def _parse_primary_or_namestep(self):
        """Parse a primary expression, or a relative name-step path start.

        Returns (start_expr, initial_steps): a relative path like
        ``employee[x]/y`` yields (ContextItem(), [Step(employee)...]).
        """
        token = self._peek()
        if token.kind == "STRING":
            self._next()
            return Literal(token.value, token.pos), ()
        if token.kind == "NUMBER":
            self._next()
            return Literal(_number(token.value), token.pos), ()
        if token.kind == "SYM" and token.value == "$":
            self._next()
            name = self._expect("NAME").value
            return VarRef(name), ()
        if token.kind == "SYM" and token.value == ".":
            self._next()
            return ContextItem(), ()
        if token.kind == "SYM" and token.value == "(":
            self._next()
            if self._at("SYM", ")"):
                self._next()
                return SequenceExpr(()), ()
            inner = self._parse_expr()
            self._expect("SYM", ")")
            return inner, ()
        if token.kind == "SYM" and token.value == "@":
            self._next()
            name = self._expect("NAME").value
            step = Step("child", "@" + name, tuple(self._parse_predicates()))
            return ContextItem(), (step,)
        if token.kind == "SYM" and token.value == "<":
            return self._parse_direct_constructor(token.pos), ()
        if token.kind == "SYM" and token.value == "*":
            self._next()
            step = Step("child", "*", tuple(self._parse_predicates()))
            return ContextItem(), (step,)
        if token.kind == "NAME":
            name = token.value
            self._next()
            if self._at("SYM", "(") and name not in _KEYWORD_OPS:
                self._next()
                args = []
                if not self._at("SYM", ")"):
                    args.append(self._parse_single())
                    while self._at("SYM", ","):
                        self._next()
                        args.append(self._parse_single())
                self._expect("SYM", ")")
                return FunctionCall(name, tuple(args)), ()
            if name == "text" and self._at("SYM", "("):
                pass  # unreachable; text() handled as function-less above
            # a relative path starting with a name test
            step = Step("child", name, tuple(self._parse_predicates()))
            return ContextItem(), (step,)
        raise self._error(f"unexpected token {token.value!r}", token.pos)

    # -- direct constructors (character-level) -------------------------------------

    def _parse_direct_constructor(self, start_pos: int) -> DirectElement:
        self._rewind_to(start_pos)
        element = self._scan_direct_element()
        return element

    def _scan_direct_element(self) -> DirectElement:
        if self.text[self.pos : self.pos + 1] != "<":
            raise self._error("expected '<'")
        self.pos += 1
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise self._error("expected element name after '<'")
        name = match.group(0)
        self.pos = match.end()
        attrs = self._scan_attributes()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            self._cache = None
            return DirectElement(name, tuple(attrs), ())
        if not self.text.startswith(">", self.pos):
            raise self._error(f"malformed start tag <{name}")
        self.pos += 1
        content = self._scan_content(name)
        self._cache = None
        return DirectElement(name, tuple(attrs), tuple(content))

    def _scan_attributes(self) -> list[AttrTemplate]:
        attrs = []
        while True:
            while self.pos < len(self.text) and self.text[self.pos].isspace():
                self.pos += 1
            char = self.text[self.pos : self.pos + 1]
            if char in (">", "/", ""):
                return attrs
            match = _NAME_RE.match(self.text, self.pos)
            if not match:
                raise self._error("expected attribute name")
            attr_name = match.group(0)
            self.pos = match.end()
            while self.pos < len(self.text) and self.text[self.pos].isspace():
                self.pos += 1
            if self.text[self.pos : self.pos + 1] != "=":
                raise self._error(f"attribute {attr_name} missing '='")
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isspace():
                self.pos += 1
            quote = self.text[self.pos : self.pos + 1]
            if quote not in ("'", '"'):
                raise self._error(f"attribute {attr_name} value not quoted")
            self.pos += 1
            parts = self._scan_template_until(quote)
            attrs.append(AttrTemplate(attr_name, tuple(parts)))

    def _scan_template_until(self, terminator: str) -> list:
        """Scan literal text + {expr} holes until ``terminator``."""
        parts: list = []
        buffer: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error("unterminated constructor")
            char = self.text[self.pos]
            if char == terminator:
                self.pos += 1
                if buffer:
                    parts.append("".join(buffer))
                return parts
            if char == "{":
                if self.text.startswith("{{", self.pos):
                    buffer.append("{")
                    self.pos += 2
                    continue
                if buffer:
                    parts.append("".join(buffer))
                    buffer = []
                self.pos += 1
                self._cache = None
                parts.append(self._parse_expr())
                self._skip_ws()
                self._expect("SYM", "}")
                self._cache = None
                continue
            if char == "}":
                if self.text.startswith("}}", self.pos):
                    buffer.append("}")
                    self.pos += 2
                    continue
                raise self._error("unescaped '}' in constructor")
            buffer.append(char)
            self.pos += 1

    def _scan_content(self, name: str) -> list:
        parts: list = []
        buffer: list[str] = []

        def flush() -> None:
            if buffer:
                text = "".join(buffer)
                if text.strip():
                    parts.append(text)
                buffer.clear()

        while True:
            if self.pos >= len(self.text):
                raise self._error(f"unterminated element <{name}>")
            if self.text.startswith("</", self.pos):
                flush()
                self.pos += 2
                match = _NAME_RE.match(self.text, self.pos)
                if not match or match.group(0) != name:
                    raise self._error(f"mismatched end tag for <{name}>")
                self.pos = match.end()
                while self.pos < len(self.text) and self.text[self.pos].isspace():
                    self.pos += 1
                if not self.text.startswith(">", self.pos):
                    raise self._error("malformed end tag")
                self.pos += 1
                return parts
            char = self.text[self.pos]
            if char == "<":
                flush()
                parts.append(self._scan_direct_element())
                continue
            if char == "{":
                if self.text.startswith("{{", self.pos):
                    buffer.append("{")
                    self.pos += 2
                    continue
                flush()
                self.pos += 1
                self._cache = None
                parts.append(self._parse_expr())
                self._skip_ws()
                self._expect("SYM", "}")
                self._cache = None
                continue
            if char == "}":
                if self.text.startswith("}}", self.pos):
                    buffer.append("}")
                    self.pos += 2
                    continue
                raise self._error("unescaped '}' in content")
            buffer.append(char)
            self.pos += 1


def parse_xquery(text: str):
    """Parse XQuery text into an AST expression."""
    return XQueryParser(text).parse()
