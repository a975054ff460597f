"""Boolean query predicates over records: ``[variable] op constant``
leaves combined with AND/OR/NOT."""

from __future__ import annotations

import decimal
import math
import operator
import re

from .errors import PredicateSyntaxError
from .rdf import Value

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
}


class Comparison(Value):
    __slots__ = ()
    variable: str
    op: str
    constant: object  # int, float, or str


class And(Value):
    __slots__ = ()
    left: object
    right: object


class Or(Value):
    __slots__ = ()
    left: object
    right: object


class Not(Value):
    __slots__ = ()
    operand: object


Predicate = Comparison | And | Or | Not

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<var>\[[^\]\[]+\])
      | (?P<num>-?\d+(?:\.\d+)?)
      | (?P<str>"(?:[^"\\]|\\.)*")
      | (?P<op>>=|<=|!=|>|<|=)
      | (?P<paren>[()])
      | (?P<word>[A-Za-z]+)
    )""",
    re.VERBOSE,
)


def parse_number(raw):
    """The one number rule, for CSV cells, bindings and predicate constants:
    None for an empty text, an int for digits that int() reads, else
    float(raw), which raises ValueError on a text that is no number."""
    if not raw:  # an empty cell, or one a short row lacks
        return None
    if raw.lstrip("-").isdigit():
        try:
            return int(raw)
        except ValueError:  # "--5", "²", or more digits than int() reads
            pass
    return float(raw)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PredicateSyntaxError(at, f"unexpected character {stripped[0]!r}")
        kind = m.lastgroup
        value = m.group(kind)
        start = m.start(kind)
        if kind == "word":
            upper = value.upper()
            if upper not in ("AND", "OR", "NOT"):
                raise PredicateSyntaxError(start, f"unexpected word {value!r}")
            tokens.append((upper, value, start))
        elif kind == "var":
            tokens.append(("VAR", value[1:-1], start))
        elif kind == "num":
            tokens.append(("NUM", parse_number(value), start))
        elif kind == "str":
            tokens.append(("STR", value[1:-1].replace('\\"', '"').replace("\\\\", "\\"), start))
        elif kind == "op":
            tokens.append(("OP", value, start))
        else:
            tokens.append((value, value, start))
        pos = m.end()
    tokens.append(("EOF", None, len(text)))
    return tokens


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


def variables(pred: Predicate) -> set[str]:
    if isinstance(pred, Comparison):
        return {pred.variable}
    if isinstance(pred, Not):
        return variables(pred.operand)
    return variables(pred.left) | variables(pred.right)


def _compare(value, op, constant):
    # comparisons against missing values never match
    if value is None:
        return False
    if isinstance(constant, str) != isinstance(value, str):
        return False
    return _OPS[op](value, constant)


def compile_predicate(pred: Predicate):
    """Compile to a closure over a record dict (variable name -> value):
    ``compile_mask`` evaluated on the columns of that one record."""
    import numpy as np

    from .dataset import Column  # dataset imports this module

    mask = compile_mask(pred)
    names = variables(pred)
    code = np.zeros(1, dtype=np.intp)
    return lambda rec: bool(mask({v: Column((rec.get(v),), code) for v in names})[0])


def compile_mask(pred: Predicate):
    """Compile to a function from a dataset's columns (variable name ->
    ``dataset.Column``) to a boolean mask over its records. Each comparison
    is one ``Column.compare`` on its variable's column."""
    if isinstance(pred, Comparison):
        var, op, const = pred.variable, pred.op, pred.constant
        return lambda columns: columns[var].compare(op, const)
    if isinstance(pred, Not):
        inner = compile_mask(pred.operand)
        return lambda columns: ~inner(columns)
    left = compile_mask(pred.left)
    right = compile_mask(pred.right)
    if isinstance(pred, And):
        return lambda columns: left(columns) & right(columns)
    return lambda columns: left(columns) | right(columns)


def _float_text(x: float) -> str:
    """A float constant as a number the tokenizer reads back as ``x``:
    positional, never in exponent form, and with a fraction so that it
    stays a float. An infinity is written as a number too large for a
    float, which float() reads back as that infinity."""
    if math.isinf(x):
        return ("-" if x < 0 else "") + "1" + "0" * 309 + ".0"
    text = format(decimal.Decimal(repr(x)), "f")
    return text if "." in text else text + ".0"


def to_text(pred: Predicate) -> str:
    """Render a predicate back to its string form."""
    if isinstance(pred, Comparison):
        const = pred.constant
        if isinstance(const, str):
            const = '"' + const.replace("\\", "\\\\").replace('"', '\\"') + '"'
        elif isinstance(const, float):
            const = _float_text(const)
        return f"[{pred.variable}] {pred.op} {const}"
    if isinstance(pred, Not):
        return f"NOT ({to_text(pred.operand)})"
    joint = "AND" if isinstance(pred, And) else "OR"
    return f"({to_text(pred.left)}) {joint} ({to_text(pred.right)})"
