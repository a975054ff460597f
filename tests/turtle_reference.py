"""The Turtle reader as it was before it became one compiled scanner and one
iterative parse loop, kept verbatim as the reference that
``tests/test_turtle.py`` compares ``kava.turtle.parse_turtle`` against.
It recurses two frames per ``[ … ]`` nesting level."""

from kava.errors import TurtleSyntaxError, UnknownPrefix
from kava.rdf import (
    DECIMAL, DEFAULT_PREFIXES, INTEGER, BlankNode, Graph, Iri, Literal, Triple, expand,
)
from kava.turtle import RDF_TYPE

_PUNCT = {".", ";", ",", "[", "]"}

_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _is_pname_char(c):
    return c.isalnum() or c in "_-."


def _tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg, l=None, c=None):
        raise TurtleSyntaxError(l or line, c or col, msg)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c in _PUNCT:
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c == "(":
            err("unsupported Turtle feature: collections")
        if c == "@":
            if text.startswith("@prefix", i):
                tokens.append(_Token("@prefix", "@prefix", line, col))
                i += 7
                col += 7
                continue
            err("unsupported Turtle feature: @-directive or language tag")
        if c == "<":
            j = text.find(">", i)
            if j < 0 or "\n" in text[i:j]:
                err("unterminated IRI")
            tokens.append(_Token("iri", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c == '"':
            if text.startswith('"""', i):
                err("unsupported Turtle feature: triple-quoted string")
            j = i + 1
            buf = []
            while j < n:
                ch = text[j]
                if ch == "\\":
                    if j + 1 >= n or text[j + 1] not in _UNESCAPE:
                        err("bad escape in string", start_line, start_col)
                    buf.append(_UNESCAPE[text[j + 1]])
                    j += 2
                    continue
                if ch == '"':
                    break
                if ch == "\n":
                    err("unterminated string", start_line, start_col)
                buf.append(ch)
                j += 1
            else:
                err("unterminated string", start_line, start_col)
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1 if c == "-" else i
            while j < n and text[j].isdigit():
                j += 1
            kind = "integer"
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                kind = "decimal"
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token(kind, text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_" or c == ":":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            if j < n and text[j] == ":":
                prefix = text[i:j]
                j += 1
                k = j
                while k < n and _is_pname_char(text[k]):
                    k += 1
                while k > j and text[k - 1] == ".":
                    k -= 1  # trailing dots terminate the statement
                tokens.append(_Token("pname", (prefix, text[j:k]), start_line, start_col))
                col += k - i
                i = k
                continue
            word = text[i:j]
            if word == "a":
                tokens.append(_Token("a", "a", start_line, start_col))
                col += j - i
                i = j
                continue
            err(f"unexpected bare word {word!r}")
        err(f"unexpected character {c!r}")
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, prefixes):
        self.tokens = tokens
        self.pos = 0
        self.prefixes = dict(prefixes)
        self.graph = None
        self._bnode_count = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def err(self, tok, msg):
        raise TurtleSyntaxError(tok.line, tok.col, msg)

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            self.err(tok, f"expected {kind!r}, found {tok.kind!r}")
        return tok

    def fresh_bnode(self):
        self._bnode_count += 1
        return BlankNode(f"b{self._bnode_count}")

    def parse(self):
        triples = []
        while self.peek().kind != "eof":
            if self.peek().kind == "@prefix":
                self.parse_prefix()
            else:
                self.parse_statement(triples)
        self.graph = Graph(triples, self.prefixes)
        return self.graph

    def parse_prefix(self):
        self.next()
        tok = self.expect("pname")
        label, local = tok.value
        if local:
            self.err(tok, "prefix label must end with ':'")
        ns = self.expect("iri").value
        self.expect(".")
        self.prefixes[label] = ns

    def term_from(self, tok):
        try:
            if tok.kind == "iri":
                return Iri(tok.value)
            if tok.kind == "pname":
                return expand(":".join(tok.value), self.prefixes)
        except UnknownPrefix:
            self.err(tok, f"undeclared prefix {tok.value[0]!r}")
        except ValueError as exc:
            self.err(tok, str(exc))
        self.err(tok, f"unexpected token {tok.kind!r}")

    def parse_statement(self, triples):
        tok = self.next()
        if tok.kind == "[":
            subject = self.fresh_bnode()
            self.parse_predicate_object_list(subject, triples, closing="]")
            self.expect("]")
            if self.peek().kind != ".":
                self.parse_predicate_object_list(subject, triples, closing=".")
        else:
            subject = self.term_from(tok)
            self.parse_predicate_object_list(subject, triples, closing=".")
        self.expect(".")

    def parse_predicate_object_list(self, subject, triples, closing):
        while True:
            tok = self.peek()
            if tok.kind == closing:
                return
            predicate = self.parse_verb()
            while True:
                obj = self.parse_object(triples)
                triples.append(Triple(subject, predicate, obj))
                if self.peek().kind == ",":
                    self.next()
                    continue
                break
            if self.peek().kind == ";":
                self.next()
                continue
            return

    def parse_verb(self):
        tok = self.next()
        if tok.kind == "a":
            return RDF_TYPE
        term = self.term_from(tok)
        if not isinstance(term, Iri):
            self.err(tok, "predicate must be an IRI")
        return term

    def parse_object(self, triples):
        tok = self.next()
        if tok.kind == "string":
            return Literal(tok.value)
        if tok.kind == "integer":
            return Literal(tok.value, INTEGER)
        if tok.kind == "decimal":
            return Literal(tok.value, DECIMAL)
        if tok.kind == "[":
            node = self.fresh_bnode()
            self.parse_predicate_object_list(node, triples, closing="]")
            self.expect("]")
            return node
        return self.term_from(tok)


def parse_turtle(text, prefixes=None):
    base = dict(DEFAULT_PREFIXES)
    if prefixes:
        base.update(prefixes)
    return _Parser(_tokenize(text), base).parse()
