"""SQL parser (recursive descent over the token list)."""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, tokenize
from repro.util.timeutil import parse_date


def _number(text: str):
    return float(text) if "." in text else int(text)


def _day_number(text: str) -> int:
    if "." in text:
        raise ValueError(f"{text} is not a day number")
    return int(text)


#: how a lifted literal's token value becomes its AST value, by the
#: grammar position it was parsed in.  The statement cache binds a new
#: statement's literals with the converters its shape was parsed with;
#: a converter that raises sends the statement back through the parser,
#: which reports the error.
CONVERTERS = {
    "number": _number,
    "day_number": _day_number,
    "string": str,
    "date": parse_date,
}


class SqlParser:
    """Recursive descent over :func:`tokenize`'s tokens.

    ``lifted`` maps the text offsets of the literals the statement cache
    lifts out of the shape to their slot numbers; each becomes a slotted
    ``Literal``/``DateLiteral`` and records, per slot, its converter name
    (``converters``) and value (``values``).  A lifted literal the
    grammar consumes as structure instead (never slotted) leaves its
    converter ``None``.

    ``slots`` are the values of a translated XQuery's literals: its SQL
    names the ``n``-th as ``$n`` (``DATE $n`` for a day number), which
    parses to a literal in slot ``n`` holding that value.
    """

    def __init__(
        self, text: str, lifted: dict | None = None, slots: tuple | None = None
    ) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.lifted = lifted or {}
        self.converters: list = [None] * len(self.lifted)
        self.values: list = [None] * len(self.lifted)
        self.slots = slots

    def literal(self, token: Token, converter: str):
        """The AST value of a literal token, and its slot if lifted."""
        value = CONVERTERS[converter](token.value)
        slot = self.lifted.get(token.pos)
        if slot is not None:
            self.converters[slot] = converter
            self.values[slot] = value
        return value, slot

    def slot(self, token: Token):
        """The value of a ``$n`` slot reference, and its slot."""
        slot = int(token.value)
        if self.slots is None or slot >= len(self.slots):
            self.fail("slot reference without a value", token)
        return self.slots[slot], slot

    # -- plumbing ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "KEYWORD" and token.value in words

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token.kind == "OP" and token.value in ops

    def at_name(self, word: str) -> bool:
        """Contextual (non-reserved) word match, e.g. TO / JOIN."""
        token = self.peek()
        return token.kind == "NAME" and token.value == word

    def fail(self, message: str, token: Token | None = None) -> None:
        token = token if token is not None else self.peek()
        shown = token.value if token.kind != "EOF" else "end of input"
        raise SqlSyntaxError(
            f"{message} at line {token.line}:{token.column} near {shown!r}",
            line=token.line,
            column=token.column,
            token=shown,
        )

    def expect_keyword(self, word: str) -> Token:
        token = self.next()
        if token.kind != "KEYWORD" or token.value != word:
            self.fail(f"expected {word.upper()}", token)
        return token

    def expect_op(self, op: str) -> Token:
        token = self.next()
        if token.kind != "OP" or token.value != op:
            self.fail(f"expected {op!r}", token)
        return token

    def expect_name(self) -> str:
        token = self.next()
        if token.kind in ("NAME", "QNAME"):
            return token.value
        # non-reserved keywords usable as identifiers
        if token.kind == "KEYWORD" and token.value in (
            "name", "date", "key", "table", "index", "of", "normalize",
        ):
            return token.value
        self.fail("expected identifier", token)

    # -- entry point -------------------------------------------------------------

    def parse_statement(self):
        token = self.peek()
        if token.kind != "KEYWORD":
            self.fail("expected a statement", token)
        if token.value == "select":
            stmt = self.parse_select()
        elif token.value == "insert":
            stmt = self.parse_insert()
        elif token.value == "update":
            stmt = self.parse_update()
        elif token.value == "delete":
            stmt = self.parse_delete()
        elif token.value == "create":
            stmt = self.parse_create()
        elif token.value == "drop":
            stmt = self.parse_drop()
        else:
            self.fail(f"unsupported statement {token.value!r}", token)
        if self.at_op(";"):
            self.next()
        if self.peek().kind != "EOF":
            self.fail("trailing input")
        return stmt

    # -- SELECT ---------------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect_keyword("select")
        distinct = False
        normalize = False
        while self.at_keyword("distinct", "normalize"):
            if self.next().value == "distinct":
                distinct = True
            else:
                normalize = True
        items = [self.parse_select_item()]
        while self.at_op(","):
            self.next()
            items.append(self.parse_select_item())
        self.expect_keyword("from")
        sources = [self.parse_joined_source()]
        while self.at_op(","):
            self.next()
            sources.append(self.parse_joined_source())
        where = None
        if self.at_keyword("where"):
            self.next()
            where = self.parse_expr()
        group_by: list = []
        if self.at_keyword("group"):
            self.next()
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.at_op(","):
                self.next()
                group_by.append(self.parse_expr())
        order_by: list = []
        if self.at_keyword("order"):
            self.next()
            self.expect_keyword("by")
            order_by.append(self.parse_order_item())
            while self.at_op(","):
                self.next()
                order_by.append(self.parse_order_item())
        limit = None
        if self.at_keyword("limit"):
            self.next()
            token = self.next()
            if token.kind != "NUMBER":
                self.fail("LIMIT expects a number", token)
            limit = int(token.value)
        return ast.Select(
            tuple(items), tuple(sources), where, tuple(group_by),
            tuple(order_by), limit, distinct, normalize,
        )

    def parse_select_item(self) -> ast.SelectItem:
        if self.at_op("*"):
            self.next()
            return ast.SelectItem(ast.Star())
        expr = self.parse_expr()
        alias = None
        if self.at_keyword("as"):
            self.next()
            alias = self.expect_name()
        elif self.peek().kind in ("NAME", "QNAME"):
            alias = self.next().value
        return ast.SelectItem(expr, alias)

    def parse_joined_source(self):
        """One FROM-list entry: a source, optionally chained with
        ``TEMPORAL JOIN ... ON ...`` (left-associative)."""
        source = self.parse_source()
        while self.at_keyword("temporal"):
            self.next()
            if not self.at_name("join"):
                self.fail("expected JOIN after TEMPORAL")
            self.next()
            right = self.parse_source()
            self.expect_keyword("on")
            on = self.parse_expr()
            source = ast.TemporalJoinRef(source, right, on)
        return source

    def parse_source(self):
        if self.at_keyword("table"):
            self.next()
            self.expect_op("(")
            function = self.expect_name()
            self.expect_op("(")
            args: list = []
            if not self.at_op(")"):
                args.append(self.parse_expr())
                while self.at_op(","):
                    self.next()
                    args.append(self.parse_expr())
            self.expect_op(")")
            self.expect_op(")")
            if self.at_keyword("as"):
                self.next()
            alias = self.expect_name()
            columns: list = []
            if self.at_op("("):
                self.next()
                columns.append(self.expect_name())
                while self.at_op(","):
                    self.next()
                    columns.append(self.expect_name())
                self.expect_op(")")
            return ast.TableFunctionRef(
                function, tuple(args), alias, tuple(columns),
                self.parse_temporal_clause(),
            )
        name = self.expect_name()
        alias = name
        if self.at_keyword("as"):
            self.next()
            alias = self.expect_name()
        elif self.peek().kind == "NAME" and not self.at_name("join"):
            alias = self.next().value
        return ast.TableRef(name, alias, self.parse_temporal_clause())

    def parse_temporal_clause(self) -> ast.TemporalClause | None:
        """``FOR SYSTEM_TIME AS OF t | FROM t1 TO t2 | BETWEEN t1 AND t2``."""
        if not self.at_keyword("for"):
            return None
        self.next()
        self.expect_keyword("system_time")
        if self.at_keyword("as"):
            self.next()
            self.expect_keyword("of")
            return ast.TemporalClause("as_of", self.parse_temporal_bound())
        if self.at_keyword("from"):
            self.next()
            low = self.parse_temporal_bound()
            if not self.at_name("to"):
                self.fail("expected TO in FOR SYSTEM_TIME FROM ... TO ...")
            self.next()
            return ast.TemporalClause("from_to", low, self.parse_temporal_bound())
        if self.at_keyword("between"):
            self.next()
            low = self.parse_temporal_bound()
            self.expect_keyword("and")
            return ast.TemporalClause("between", low, self.parse_temporal_bound())
        self.fail("expected AS OF, FROM or BETWEEN after FOR SYSTEM_TIME")
        return None

    def parse_temporal_bound(self):
        """A temporal bound: DATE '...', a bare '...' date string (``'now'``
        allowed), an integer day number, or a ``:name`` parameter."""
        token = self.peek()
        if token.kind == "PARAM":
            self.next()
            return ast.Param(token.value)
        if token.kind == "NUMBER" and "." not in token.value:
            self.next()
            return ast.Literal(*self.literal(token, "day_number"))
        if token.kind == "STRING" or self.at_keyword("date"):
            if self.at_keyword("date"):
                self.next()
                token = self.peek()
                if token.kind != "STRING":
                    self.fail("DATE literal expects a string", token)
            self.next()
            try:
                return ast.DateLiteral(*self.literal(token, "date"))
            except ValueError:
                self.fail(f"bad date {token.value!r} in temporal bound", token)
        self.fail("expected a date bound after FOR SYSTEM_TIME", token)
        return None

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.at_keyword("desc"):
            self.next()
            descending = True
        elif self.at_keyword("asc"):
            self.next()
        return ast.OrderItem(expr, descending)

    # -- DML / DDL -----------------------------------------------------------------------

    def parse_insert(self):
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_name()
        columns: list = []
        if self.at_op("("):
            self.next()
            columns.append(self.expect_name())
            while self.at_op(","):
                self.next()
                columns.append(self.expect_name())
            self.expect_op(")")
        if self.at_keyword("select"):
            select = self.parse_select()
            return ast.InsertSelect(table, tuple(columns), select)
        self.expect_keyword("values")
        rows = [self.parse_value_row()]
        while self.at_op(","):
            self.next()
            rows.append(self.parse_value_row())
        return ast.Insert(table, tuple(columns), tuple(rows))

    def parse_value_row(self) -> tuple:
        self.expect_op("(")
        values = [self.parse_expr()]
        while self.at_op(","):
            self.next()
            values.append(self.parse_expr())
        self.expect_op(")")
        return tuple(values)

    def parse_update(self) -> ast.Update:
        self.expect_keyword("update")
        table = self.expect_name()
        self.expect_keyword("set")
        assignments = [self.parse_assignment()]
        while self.at_op(","):
            self.next()
            assignments.append(self.parse_assignment())
        where = None
        if self.at_keyword("where"):
            self.next()
            where = self.parse_expr()
        return ast.Update(table, tuple(assignments), where)

    def parse_assignment(self) -> tuple:
        column = self.expect_name()
        self.expect_op("=")
        return (column, self.parse_expr())

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_name()
        where = None
        if self.at_keyword("where"):
            self.next()
            where = self.parse_expr()
        return ast.Delete(table, where)

    def parse_create(self):
        self.expect_keyword("create")
        unique = False
        if self.at_keyword("unique"):
            self.next()
            unique = True
        if self.at_keyword("table"):
            if unique:
                raise SqlSyntaxError("UNIQUE TABLE is not a thing")
            self.next()
            return self.parse_create_table()
        if self.at_keyword("index"):
            self.next()
            return self.parse_create_index(unique)
        raise SqlSyntaxError("expected TABLE or INDEX after CREATE")

    def parse_create_table(self) -> ast.CreateTable:
        name = self.expect_name()
        self.expect_op("(")
        columns: list[ast.ColumnDef] = []
        primary_key: tuple = ()
        while True:
            if self.at_keyword("primary"):
                self.next()
                self.expect_keyword("key")
                self.expect_op("(")
                pk = [self.expect_name()]
                while self.at_op(","):
                    self.next()
                    pk.append(self.expect_name())
                self.expect_op(")")
                primary_key = tuple(pk)
            else:
                col_name = self.expect_name()
                type_token = self.next()
                if type_token.kind not in ("KEYWORD", "NAME"):
                    raise SqlSyntaxError(
                        f"expected a type for column {col_name}"
                    )
                type_name = type_token.value.lower()
                if self.at_op("("):  # e.g. VARCHAR(20): size ignored
                    self.next()
                    self.next()
                    self.expect_op(")")
                columns.append(ast.ColumnDef(col_name, type_name))
            if self.at_op(","):
                self.next()
                continue
            break
        self.expect_op(")")
        return ast.CreateTable(name, tuple(columns), primary_key)

    def parse_create_index(self, unique: bool) -> ast.CreateIndex:
        name = self.expect_name()
        self.expect_keyword("on")
        table = self.expect_name()
        self.expect_op("(")
        columns = [self.expect_name()]
        while self.at_op(","):
            self.next()
            columns.append(self.expect_name())
        self.expect_op(")")
        return ast.CreateIndex(name, table, tuple(columns), unique)

    def parse_drop(self) -> ast.DropTable:
        self.expect_keyword("drop")
        self.expect_keyword("table")
        return ast.DropTable(self.expect_name())

    # -- expressions ----------------------------------------------------------------------

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        node = self.parse_and()
        while self.at_keyword("or"):
            self.next()
            node = ast.BinaryOp("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.at_keyword("and"):
            self.next()
            node = ast.BinaryOp("and", node, self.parse_not())
        return node

    def parse_not(self):
        if self.at_keyword("not"):
            self.next()
            return ast.UnaryOp("not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self):
        node = self.parse_additive()
        if self.at_op("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self.next().value
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, node, self.parse_additive())
        negated = False
        if self.at_keyword("not"):
            # IN / BETWEEN / LIKE with NOT
            save = self.pos
            self.next()
            if self.at_keyword("in", "between", "like"):
                negated = True
            else:
                self.pos = save
                return node
        if self.at_keyword("in"):
            self.next()
            self.expect_op("(")
            if self.at_keyword("select"):
                subquery = ast.Subquery(self.parse_select())
                self.expect_op(")")
                return ast.InSubquery(node, subquery, negated)
            items = [self.parse_expr()]
            while self.at_op(","):
                self.next()
                items.append(self.parse_expr())
            self.expect_op(")")
            return ast.InList(node, tuple(items), negated)
        if self.at_keyword("between"):
            self.next()
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            return ast.Between(node, low, high, negated)
        if self.at_keyword("like"):
            self.next()
            return ast.LikeOp(node, self.parse_additive(), negated)
        if self.at_keyword("is"):
            self.next()
            is_negated = False
            if self.at_keyword("not"):
                self.next()
                is_negated = True
            self.expect_keyword("null")
            return ast.IsNull(node, is_negated)
        return node

    def parse_additive(self):
        node = self.parse_multiplicative()
        while self.at_op("+", "-", "||"):
            op = self.next().value
            node = ast.BinaryOp(op, node, self.parse_multiplicative())
        return node

    def parse_multiplicative(self):
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.next().value
            node = ast.BinaryOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.at_op("-"):
            self.next()
            return ast.UnaryOp("-", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        token = self.peek()
        if token.kind == "NUMBER":
            self.next()
            return ast.Literal(*self.literal(token, "number"))
        if token.kind == "STRING":
            self.next()
            return ast.Literal(*self.literal(token, "string"))
        if token.kind == "PARAM":
            self.next()
            return ast.Param(token.value)
        if token.kind == "SLOT":
            self.next()
            return ast.Literal(*self.slot(token))
        if token.kind == "KEYWORD":
            if token.value == "null":
                self.next()
                return ast.Literal(None)
            if token.value == "date":
                self.next()
                literal = self.next()
                if literal.kind == "SLOT":
                    return ast.DateLiteral(*self.slot(literal))
                if literal.kind != "STRING":
                    raise SqlSyntaxError("DATE literal expects a string")
                try:
                    return ast.DateLiteral(*self.literal(literal, "date"))
                except ValueError:
                    self.fail(f"bad date {literal.value!r}", literal)
            if token.value == "case":
                return self.parse_case()
            if token.value == "xmlelement":
                return self.parse_xmlelement()
            if token.value == "xmlagg":
                return self.parse_xmlagg()
        if self.at_op("("):
            self.next()
            if self.at_keyword("select"):
                subquery = ast.Subquery(self.parse_select())
                self.expect_op(")")
                return subquery
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if token.kind == "NAME" and token.value == "exists":
            self.next()
            self.expect_op("(")
            subquery = ast.Subquery(self.parse_select())
            self.expect_op(")")
            return ast.ExistsSubquery(subquery)
        if token.kind in ("NAME", "QNAME"):
            return self.parse_name_expr()
        if token.kind == "KEYWORD" and token.value in ("name", "key", "index"):
            # soft keywords usable as column names
            return self.parse_name_expr()
        self.fail("unexpected token", token)

    def parse_case(self) -> ast.CaseExpr:
        self.expect_keyword("case")
        whens = []
        while self.at_keyword("when"):
            self.next()
            condition = self.parse_expr()
            self.expect_keyword("then")
            whens.append((condition, self.parse_expr()))
        else_result = None
        if self.at_keyword("else"):
            self.next()
            else_result = self.parse_expr()
        self.expect_keyword("end")
        if not whens:
            raise SqlSyntaxError("CASE requires at least one WHEN")
        return ast.CaseExpr(tuple(whens), else_result)

    def parse_name_expr(self):
        name = self.next().value
        if self.at_op("."):
            self.next()
            if self.at_op("*"):
                self.next()
                return ast.Star(name)
            column = self.expect_name()
            return ast.ColumnRef(name, column)
        if self.at_op("("):
            self.next()
            distinct = False
            if self.at_keyword("distinct"):
                self.next()
                distinct = True
            args: list = []
            if self.at_op("*"):
                self.next()
                args.append(ast.Star())
            elif not self.at_op(")"):
                args.append(self.parse_expr())
                while self.at_op(","):
                    self.next()
                    args.append(self.parse_expr())
            self.expect_op(")")
            return ast.FunctionCall(name.lower(), tuple(args), distinct)
        return ast.ColumnRef(None, name)

    # -- SQL/XML --------------------------------------------------------------------------

    def parse_xmlelement(self) -> ast.XmlElementExpr:
        self.expect_keyword("xmlelement")
        self.expect_op("(")
        self.expect_keyword("name")
        tag_token = self.next()
        if tag_token.kind not in ("QNAME", "STRING", "NAME"):
            raise SqlSyntaxError("XMLElement NAME expects an identifier")
        tag = tag_token.value
        attributes: list = []
        content: list = []
        while self.at_op(","):
            self.next()
            if self.at_keyword("xmlattributes"):
                self.next()
                self.expect_op("(")
                attributes.append(self.parse_xmlattribute())
                while self.at_op(","):
                    self.next()
                    attributes.append(self.parse_xmlattribute())
                self.expect_op(")")
            else:
                content.append(self.parse_expr())
        self.expect_op(")")
        return ast.XmlElementExpr(tag, tuple(attributes), tuple(content))

    def parse_xmlattribute(self) -> ast.XmlAttribute:
        value = self.parse_expr()
        self.expect_keyword("as")
        name_token = self.next()
        if name_token.kind not in ("QNAME", "STRING", "NAME"):
            raise SqlSyntaxError("XMLAttributes AS expects a name")
        return ast.XmlAttribute(value, name_token.value)

    def parse_xmlagg(self) -> ast.XmlAggExpr:
        self.expect_keyword("xmlagg")
        self.expect_op("(")
        operand = self.parse_expr()
        order_by: list = []
        if self.at_keyword("order"):
            self.next()
            self.expect_keyword("by")
            order_by.append(self.parse_order_item())
            while self.at_op(","):
                self.next()
                order_by.append(self.parse_order_item())
        self.expect_op(")")
        return ast.XmlAggExpr(operand, tuple(order_by))


def parse_sql(text: str):
    """Parse one SQL statement."""
    return SqlParser(text).parse_statement()
