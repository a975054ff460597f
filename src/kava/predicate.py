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


class _Node(Value):
    """A predicate node. ``==``, ``!=`` and ``repr`` walk the tree with an
    explicit stack, so that trees of any depth compare and print; they give
    what tuple equality and ``_Tuple.__repr__`` give, and the hash is the
    tuple's."""

    __slots__ = ()
    __hash__ = Value.__hash__

    def __eq__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        pairs = [(self, other)]  # item pairs still to compare, the next one last
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, _Node) and isinstance(b, tuple):
                if len(a) != len(b):
                    return False
                pairs += reversed(list(zip(a, b)))
            elif not a == b:
                return False
        return True

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self):
        out, todo = [], [self]  # texts to write and nodes to print, the next one last
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces = [f"{type(item).__name__}("]
            for i, (field, value) in enumerate(zip(item._fields, item[item._first:])):
                pieces += [f"{', ' if i else ''}{field}=",
                           value if isinstance(value, _Node) else repr(value)]
            todo += reversed(pieces + [")"])
        return "".join(out)

    __str__ = __repr__


class Comparison(_Node):
    __slots__ = ()
    variable: str
    op: str
    constant: object  # int, float, or str


class And(_Node):
    __slots__ = ()
    left: object
    right: object


class Or(_Node):
    __slots__ = ()
    left: object
    right: object


class Not(_Node):
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


_BINDS = {"OR": 1, "AND": 2}  # how tightly each binary operator binds


def parse_predicate(text: str) -> Predicate:
    """Parse a predicate string; NOT binds tighter than AND, AND than OR,
    and chains of one operator nest to the left. One operator-stack loop
    over the tokens, so neither nesting nor length meets a recursion
    limit; the first error in token order is the one raised."""
    tokens = _tokenize(text)
    pending = []  # "(", "NOT", "AND" and "OR" whose operands are not all read
    lefts = []  # the left operand of each pending AND and OR, in order
    i = 0
    while True:
        while tokens[i][0] in ("NOT", "("):
            pending.append(tokens[i][0])
            i += 1
        kind, variable, at = tokens[i]
        if kind != "VAR":
            raise PredicateSyntaxError(at, f"expected comparison, NOT, or '(', found {kind}")
        kind, op, at = tokens[i + 1]
        if kind != "OP":
            raise PredicateSyntaxError(at, "expected comparison operator")
        kind, constant, at = tokens[i + 2]
        if kind not in ("NUM", "STR"):
            raise PredicateSyntaxError(at, "expected numeric or string constant")
        node = Comparison(variable, op, constant)
        i += 3
        while True:  # node is a whole operand: apply what binds tighter than the next token
            while pending and pending[-1] == "NOT":
                pending.pop()
                node = Not(node)
            kind, _, at = tokens[i]
            i += 1
            binds = _BINDS.get(kind, 0)
            while pending and pending[-1] in _BINDS and _BINDS[pending[-1]] >= binds:
                node = (And if pending.pop() == "AND" else Or)(lefts.pop(), node)
            if binds:
                lefts.append(node)
                pending.append(kind)
                break
            if pending and kind == ")":
                pending.pop()  # the "(": node is the operand it encloses
            elif pending:
                raise PredicateSyntaxError(at, "expected ')'")
            elif kind != "EOF":
                raise PredicateSyntaxError(at, "trailing input after expression")
            else:
                return node


def _fold(pred: Predicate, leaf, negate, both, either):
    """``pred`` folded bottom-up without recursion: ``leaf`` on each
    comparison, then ``negate`` (NOT), ``both`` (AND) or ``either`` (OR) on
    the values of a node's operands. Listed in pre-order, right operands
    pushed first, and read backwards, the nodes come after their operands."""
    order, todo = [], [pred]
    while todo:
        node = todo.pop()
        order.append(node)
        if isinstance(node, Not):
            todo.append(node.operand)
        elif not isinstance(node, Comparison):
            todo += (node.right, node.left)
    values = []
    for node in reversed(order):
        if isinstance(node, Comparison):
            values.append(leaf(node))
        elif isinstance(node, Not):
            values.append(negate(values.pop()))
        else:
            left = values.pop()
            values.append((both if isinstance(node, And) else either)(left, values.pop()))
    return values[0]


def variables(pred: Predicate) -> set[str]:
    names = set()  # every leaf adds to this one set, so nothing is combined
    ignore = lambda *operands: None
    _fold(pred, lambda c: names.add(c.variable), ignore, ignore, ignore)
    return names


def _compare(value, op, constant):
    # comparisons against missing values never match
    if value is None:
        return False
    if isinstance(constant, str) != isinstance(value, str):
        return False
    return _OPS[op](value, constant)


def compile_predicate(pred: Predicate):
    """Compile to a function of a record dict (variable name -> value):
    ``_compare`` on each comparison, record by record, the reference that
    ``compile_mask`` computes column by column."""
    return lambda rec: bool(_fold(pred, lambda c: _compare(rec.get(c.variable), c.op, c.constant),
                                  operator.not_, operator.and_, operator.or_))


def all_records(length: int) -> int:
    """The mask of each of ``length`` records (see ``dataset.Column``)."""
    return int.from_bytes(b"\1" * length, "little")


def compile_mask(pred: Predicate):
    """Compile to a function from a dataset's columns (variable name ->
    ``dataset.Column``) to the mask of the records that pass. Each
    comparison is one ``Column.compare`` on its variable's column; NOT is an
    XOR with the mask of all records."""
    return lambda columns: _fold(pred, lambda c: columns[c.variable].compare(c.op, c.constant),
                                 all_records(len(next(iter(columns.values())).codes)).__xor__,
                                 operator.and_, operator.or_)


def _float_text(x: float) -> str:
    """A float constant as a number the tokenizer reads back as ``x``:
    positional, never in exponent form, and with a fraction so that it
    stays a float. An infinity is written as a number too large for a
    float, which float() reads back as that infinity."""
    if math.isinf(x):
        return ("-" if x < 0 else "") + "1" + "0" * 309 + ".0"
    text = format(decimal.Decimal(repr(x)), "f")
    return text if "." in text else text + ".0"


def _comparison_text(c: Comparison) -> str:
    const = c.constant
    if isinstance(const, str):
        const = '"' + const.replace("\\", "\\\\").replace('"', '\\"') + '"'
    elif isinstance(const, float):
        const = _float_text(const)
    return f"[{c.variable}] {c.op} {const}"


def to_text(pred: Predicate) -> str:
    """Render a predicate back to its string form."""
    return _fold(pred, _comparison_text, "NOT ({})".format,
                 "({}) AND ({})".format, "({}) OR ({})".format)
