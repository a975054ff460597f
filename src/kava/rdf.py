"""In-memory RDF triple graph: terms, prefix expansion, pattern matching,
and restricted isomorphism for tree-shaped blank nodes."""

from __future__ import annotations

import decimal
import re
from collections import Counter, _tuplegetter  # namedtuple's field reader
from itertools import chain, groupby

from .errors import InvalidTerm, NonTreeBlankNodes, UnknownPrefix

STRING = "string"
INTEGER = "integer"
DECIMAL = "decimal"
_MISSING = object()  # a Value field that neither the caller nor a default gives

DEFAULT_PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "dct": "http://purl.org/dc/terms/",
    "foaf": "http://xmlns.com/foaf/0.1/",
    # Namespaces minted by this project; no authoritative IRIs exist for them.
    "kava": "http://example.org/kava/vocab#",
    "gps": "http://example.org/kava/gait-pattern-scheme#",
    "icd10": "http://example.org/kava/icd10#",
    "health": "http://example.org/kava/health#",
}


# Characters Turtle's IRIREF cannot hold: whitespace and <>"{}|^`\
_IRI_FORBIDDEN = re.compile(r'[\s<>"{}|^`\\]')


class _Tuple(tuple):
    """An immutable value held as a tuple, so that hashing, equality and order
    run in C. Its fields, its own annotations, are read as namedtuple's are,
    from item ``_first`` on. A term (Iri, BlankNode, Literal) has one item
    before them: its canonical text, ``str(term)``, which no term of another
    kind or value shares, so two terms are equal, and order, as their texts do."""

    __slots__ = ()
    _first, _fields, _defaults = 1, (), {}

    def __init_subclass__(cls):
        own = vars(cls)
        if "__annotations__" in own:
            cls._fields = tuple(own["__annotations__"])
            cls._defaults = {f: own[f] for f in cls._fields if f in own}
            for i, name in enumerate(cls._fields, cls._first):
                setattr(cls, name, _tuplegetter(i, None))

    def __str__(self):
        return self[0]

    def __repr__(self):
        items = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self[self._first:]))
        return f"{type(self).__name__}({items})"

    def __getnewargs__(self):  # copy and pickle build it through __new__ again
        return self[self._first:]


class _Signature:
    """A Value class's fields and defaults for ``inspect``, unless its ``__new__``
    names them; built when asked for, so that kava's imports skip ``inspect``."""

    def __get__(self, value, cls):
        from inspect import Parameter as P, Signature, signature

        params = list(signature(cls.__new__).parameters.values())[1:]
        if all(p.kind in (P.VAR_POSITIONAL, P.VAR_KEYWORD) for p in params):
            params = [P(f, P.POSITIONAL_OR_KEYWORD, default=cls._defaults.get(f, P.empty))
                      for f in cls._fields]
        return Signature(params)


class Value(_Tuple):
    """A record of named fields: ``class Span(Value)`` declares ``__slots__ =
    ()``, ``start: int`` and ``end: int = 0``, and ``Span(1, end=2)`` takes
    them by position, keyword or default. Item 0 holds the class, so values
    of two classes never compare equal. ``__new__`` may check the fields."""

    __slots__ = ()
    __str__ = _Tuple.__repr__
    __signature__ = _Signature()

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            args += tuple(kwargs.pop(f, cls._defaults.get(f, _MISSING)) for f in fields[len(args):])
            if kwargs or len(args) != len(fields) or any(a is _MISSING for a in args):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        return tuple.__new__(cls, (cls, *args))


class Iri(_Tuple):
    __slots__ = ()
    value: str

    def __new__(cls, value):
        if not value or _IRI_FORBIDDEN.search(value):
            raise InvalidTerm(f"invalid IRI: {value!r}")
        return tuple.__new__(cls, (f"<{value}>", value))


class BlankNode(_Tuple):
    __slots__ = ()
    label: str

    def __new__(cls, label):
        return tuple.__new__(cls, (f"_:{label}", label))


def _canonical_numeric(lexical: str, datatype: str) -> str:
    try:
        if datatype == INTEGER:
            return str(int(lexical))
        d = decimal.Decimal(lexical)
    except (ValueError, decimal.InvalidOperation):
        d = None
    if d is None or not d.is_finite():  # NaN and Infinity have no xsd lexical
        raise InvalidTerm(f"not a valid {datatype} literal: {lexical!r}")
    # Normalize in a context as precise as the input, so nothing is rounded.
    exact = decimal.Context(prec=max(1, len(d.as_tuple().digits)))
    out = format(d.normalize(exact), "f")
    if "." not in out:
        out += ".0"
    return out


class Literal(_Tuple):
    __slots__ = ()
    lexical: str
    datatype: str

    def __new__(cls, lexical, datatype=STRING):
        if datatype == STRING:
            escaped = lexical.replace("\\", "\\\\").replace('"', '\\"')
            return tuple.__new__(cls, (f'"{escaped}"', lexical, datatype))
        if datatype not in (INTEGER, DECIMAL):
            raise ValueError(f"unsupported datatype: {datatype!r}")
        lexical = _canonical_numeric(lexical, datatype)
        return tuple.__new__(cls, (f'"{lexical}"^^{datatype}', lexical, datatype))

    def value(self):
        """Lexical form as a Python value (str, int, or float)."""
        if self.datatype == INTEGER:
            return int(self.lexical)
        if self.datatype == DECIMAL:
            return float(self.lexical)
        return self.lexical


Term = Iri | BlankNode | Literal


def literal_for(value) -> Literal:
    """Wrap a Python value as the matching Literal."""
    if isinstance(value, bool):
        raise ValueError("boolean literals are not supported")
    if isinstance(value, int):
        return Literal(str(value), INTEGER)
    if isinstance(value, float):
        return Literal(repr(value), DECIMAL)
    return Literal(str(value), STRING)


class Triple(_Tuple):
    """A (subject, predicate, object) tuple of terms: triples order as
    their terms' texts do, subject first."""

    __slots__ = ()
    _first = 0
    subject: Term
    predicate: Iri
    object: Term
    __str__ = _Tuple.__repr__

    def __new__(cls, subject, predicate, object):
        if isinstance(subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        return tuple.__new__(cls, (subject, predicate, object))


def expand(name: str, prefixes: dict[str, str]) -> Iri:
    """Expand a prefixed name like ``skos:prefLabel`` to a full IRI.

    Raises UnknownPrefix for an undeclared label, and InvalidTerm for a
    name that is not a prefixed name or expands to an invalid IRI."""
    if name.count(":") != 1:
        raise InvalidTerm(f"not a prefixed name: {name!r}")
    label, local = name.split(":")
    if label not in prefixes:
        raise UnknownPrefix(label)
    return Iri(prefixes[label] + local)


def prefixed_names(iri: Iri, prefixes: dict[str, str]) -> list[str]:
    """Every prefixed name of the IRI, longest namespace first; labels of
    one namespace length keep their order in ``prefixes``."""
    value = iri.value
    labels = [label for label, ns in prefixes.items() if value.startswith(ns)]
    labels.sort(key=lambda label: len(prefixes[label]), reverse=True)  # stable
    return [f"{label}:{value[len(prefixes[label]):]}" for label in labels]


def shrink(iri: Iri, prefixes: dict[str, str]) -> str | None:
    """Inverse of expand using the longest registered namespace, or None."""
    names = prefixed_names(iri, prefixes)
    return names[0] if names else None


class Graph:
    """An immutable set of triples plus a prefix map, held as one tuple of
    the distinct triples in sorted order.

    No method changes a graph after construction; ``insert`` and ``merge``
    return a new one. All reads are pure and safe for concurrent readers.
    """

    def __init__(self, triples=(), prefixes=None):
        # dict.fromkeys drops repeats in input order, so the sort meets the
        # input's runs: a parsed store and a merge arrive nearly sorted
        self._triples: tuple[Triple, ...] = tuple(sorted(dict.fromkeys(triples)))
        self.prefixes: dict[str, str] = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)
        self._hash: int | None = None
        self._indexes: list[dict[Term, list[Triple]] | None] = [None, None]

    def __len__(self):
        return len(self._triples)

    def __iter__(self):
        return iter(self._triples)

    def __contains__(self, triple):
        hash(triple)  # an unhashable value raises TypeError, as a set's lookup does
        return (isinstance(triple, tuple) and len(triple) == 3
                and triple in self._index(0).get(triple[0], ()))

    def __eq__(self, other):
        return isinstance(other, Graph) and self._triples == other._triples

    def __hash__(self):  # a tuple does not keep its hash; caches keyed by graph ask often
        if self._hash is None:
            self._hash = hash(self._triples)
        return self._hash

    def _index(self, position: int) -> dict[Term, list[Triple]]:
        """Subject (position 0) or predicate (1) -> its triples in sorted
        order, built on first use."""
        index = self._indexes[position]
        if index is None:
            index = self._indexes[position] = {}
            for t in self:
                index.setdefault(t[position], []).append(t)
        return index

    def match(self, s=None, p=None, o=None) -> list[Triple]:
        """Triples matching the bound positions; None is a wildcard.

        Result is sorted by canonical (subject, predicate, object) strings.
        """
        if s is not None:
            candidates = self._index(0).get(s, ())
        elif p is not None:
            candidates, p = self._index(1).get(p, ()), None
        else:
            candidates = self
        return [t for t in candidates
                if (p is None or t.predicate == p) and (o is None or t.object == o)]

    def expand(self, name: str) -> Iri:
        return expand(name, self.prefixes)


def merge(graph: Graph, triples) -> Graph:
    """The graph plus the triples, under set semantics."""
    return Graph(chain(graph, triples), graph.prefixes)


def insert(graph: Graph, triple: Triple) -> Graph:
    """Copy-on-write insertion; idempotent under set semantics."""
    return merge(graph, [triple])


def _tree(graph: Graph):
    """Walk the blank-node trees of a graph once, without recursion.

    Returns the IRI subjects in order, the root blank nodes (those that
    are no triple's object) in key order, the key function and the
    per-height tables. A blank node's key is ``(1, height, rank)``: its rank
    is the index of its sorted ``(predicate, key(object))`` pairs in its
    height's table, so two blank nodes share a key exactly when their
    subtrees are isomorphic (AHU tree canonization). Any other term's key is
    ``(0, term)``. Raises NonTreeBlankNodes if a blank node is the
    object of more than one triple or cannot be reached from an IRI subject
    or a root.
    """
    index = graph._index(0)
    counts = Counter(t.object for t in graph if isinstance(t.object, BlankNode))
    for node, n in counts.items():
        if n > 1:
            raise NonTreeBlankNodes(f"blank node {node} is object of {n} triples")

    subjects = [s for s in index if isinstance(s, Iri)]  # the index is in order
    roots = [s for s in index if isinstance(s, BlankNode) and s not in counts]
    # Breadth first: each blank node has at most one parent here, so it is
    # listed once, after its parent, and no cycle is reached.
    order = roots.copy()
    for node in chain(subjects, order):
        order.extend(t.object for t in index.get(node, ()) if isinstance(t.object, BlankNode))
    unreached = {s for s in index if isinstance(s, BlankNode)}.difference(order)
    if unreached:
        raise NonTreeBlankNodes(
            f"blank nodes unreachable from any root: {sorted(map(str, unreached))}"
        )

    height: dict[BlankNode, int] = {}
    for node in reversed(order):
        height[node] = max(
            (height[t.object] + 1 for t in index.get(node, ()) if isinstance(t.object, BlankNode)),
            default=0,
        )
    keys: dict[BlankNode, tuple] = {}

    def key(term: Term) -> tuple:
        return keys[term] if isinstance(term, BlankNode) else (0, term)

    tables = []
    for h, level in groupby(sorted(order, key=height.get), height.get):
        level = list(level)
        signatures = [
            tuple(sorted((t.predicate, key(t.object)) for t in index.get(node, ())))
            for node in level
        ]
        table = sorted(set(signatures))
        rank = {signature: r for r, signature in enumerate(table)}
        for node, signature in zip(level, signatures):
            keys[node] = (1, h, rank[signature])
        tables.append(tuple(table))
    roots.sort(key=keys.get)
    return subjects, roots, key, tuple(tables)


def canonical_form(graph: Graph) -> tuple:
    """Order- and label-independent form of a graph with tree blank nodes:
    the per-height tables, the sorted (subject, predicate, object key) of
    the triples with an IRI subject, and the root keys.

    Raises NonTreeBlankNodes if any blank node is the object of more than
    one triple or blank nodes form a cycle.
    """
    _, roots, key, tables = _tree(graph)
    triples = [(t.subject, t.predicate, key(t.object)) for t in graph if isinstance(t.subject, Iri)]
    return tables, tuple(sorted(triples)), tuple(map(key, roots))


def isomorphic_trees(a: Graph, b: Graph) -> bool:
    """True iff some blank-node relabeling makes the triple sets equal."""
    return canonical_form(a) == canonical_form(b)
