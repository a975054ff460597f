"""The predicate parser as it was before it became one operator-stack loop,
kept verbatim as the reference that ``tests/test_predicate.py`` compares
``kava.predicate.parse_predicate`` against. It recurses one frame per
``NOT`` and three per level of parentheses."""

from kava.errors import PredicateSyntaxError
from kava.predicate import And, Comparison, Not, Or, Predicate, _tokenize


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        node = self.parse_or()
        kind, _, at = self.peek()
        if kind != "EOF":
            raise PredicateSyntaxError(at, "trailing input after expression")
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.peek()[0] == "OR":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek()[0] == "AND":
            self.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self):
        kind, value, at = self.peek()
        if kind == "NOT":
            self.next()
            return Not(self.parse_unary())
        if kind == "(":
            self.next()
            node = self.parse_or()
            kind, _, at = self.next()
            if kind != ")":
                raise PredicateSyntaxError(at, "expected ')'")
            return node
        if kind == "VAR":
            return self.parse_comparison()
        raise PredicateSyntaxError(at, f"expected comparison, NOT, or '(', found {kind}")

    def parse_comparison(self):
        _, variable, _ = self.next()
        kind, op, at = self.next()
        if kind != "OP":
            raise PredicateSyntaxError(at, "expected comparison operator")
        kind, constant, at = self.next()
        if kind not in ("NUM", "STR"):
            raise PredicateSyntaxError(at, "expected numeric or string constant")
        return Comparison(variable, op, constant)


def parse_predicate(text: str) -> Predicate:
    """Parse a predicate string; NOT binds tighter than AND, AND than OR."""
    return _Parser(_tokenize(text)).parse()
