"""JSON-LD subset codec: node objects with @id/@type/@context, nested
blank-node trees, and plain string/number literals."""

from __future__ import annotations

import json

from .errors import JsonLdSyntaxError, KavaError, UnknownPrefix, UnsupportedKeyword
from .jsontext import fragment_text
from .rdf import (
    DECIMAL,
    DEFAULT_PREFIXES,
    INTEGER,
    STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    _tree,
    expand,
    prefixed_names,
)
from .turtle import RDF_TYPE


class _Number:
    """A JSON number, read or to be written: its lexical form as in the
    text, and its datatype, INTEGER or DECIMAL. Not a str, so no name or
    namespace accepts it. Its repr, and the text that the JSON text writer
    calls it for, is the lexical, verbatim."""

    __slots__ = ("lexical", "datatype")

    def __init__(self, lexical: str, datatype: str):
        self.lexical, self.datatype = lexical, datatype

    def __call__(self, newline=None):
        return self.lexical

    __repr__ = __call__


# How deep node objects may nest below a top-level one, read or written. The
# reader's node and the writer's _node_json recurse per level (the JSON text
# writer does not), and json.loads refuses ~1,000 nested containers.
MAX_DEPTH = 200
_TOO_DEEP = f"node objects nest deeper than {MAX_DEPTH} levels"

# Names read as full IRIs; any other name is read as a prefixed name.
_FULL_IRI_SCHEMES = ("http://", "https://", "urn:")


def _expand_name(name, prefixes):
    if not isinstance(name, str):
        raise JsonLdSyntaxError(f"invalid IRI: {name!r}")
    try:
        if name.startswith(_FULL_IRI_SCHEMES):
            return Iri(name)
        return expand(name, prefixes)
    except ValueError as exc:
        raise JsonLdSyntaxError(str(exc)) from exc


class _Reader:
    def __init__(self, prefixes):
        self.prefixes = dict(prefixes)
        self.iris = {}  # name -> its IRI under the prefixes read so far
        self.triples = []
        self._bnode_count = 0

    def iri(self, name):
        iri = self.iris.get(name) if type(name) is str else None
        if iri is None:
            iri = self.iris[name] = _expand_name(name, self.prefixes)
        return iri

    def fresh_bnode(self):
        self._bnode_count += 1
        return BlankNode(f"b{self._bnode_count}")

    def read_context(self, ctx):
        if not isinstance(ctx, dict):
            raise JsonLdSyntaxError("@context must be an object of prefix mappings")
        for label, ns in ctx.items():
            if not isinstance(ns, str):
                raise JsonLdSyntaxError(f"@context entry {label!r} is not a plain namespace IRI")
            self.prefixes[label] = ns
        self.iris.clear()

    def literal(self, value):
        if isinstance(value, bool):
            raise JsonLdSyntaxError("boolean values are not supported")
        if isinstance(value, _Number):
            return Literal(value.lexical, value.datatype)
        if isinstance(value, str):
            return Literal(value)
        raise JsonLdSyntaxError(f"unsupported literal value: {value!r}")

    def node(self, obj, depth=0):
        """Emit triples for one node object, nested ``depth`` levels below
        a top-level one; returns its subject term."""
        if depth > MAX_DEPTH:
            raise JsonLdSyntaxError(_TOO_DEEP)
        if not isinstance(obj, dict):
            raise JsonLdSyntaxError("node object expected")
        if "@context" in obj:
            self.read_context(obj["@context"])
        for key in obj:
            if key.startswith("@") and key not in ("@id", "@type", "@context"):
                raise UnsupportedKeyword(key)
        if "@id" in obj:
            subject = self.iri(obj["@id"])
        else:
            subject = self.fresh_bnode()
        types = obj.get("@type", [])
        if not isinstance(types, list):
            types = [types]
        for name in types:
            self.triples.append(Triple(subject, RDF_TYPE, self.iri(name)))
        for key, value in obj.items():
            if key.startswith("@"):
                continue
            predicate = self.iri(key)
            values = value if isinstance(value, list) else [value]
            for v in values:
                self.triples.append(Triple(subject, predicate, self.value_term(v, depth)))
        return subject

    def value_term(self, value, depth):
        if isinstance(value, dict):
            keys = set(value.keys())
            if keys == {"@id"}:
                return self.iri(value["@id"])
            return self.node(value, depth + 1)
        if isinstance(value, list):
            raise JsonLdSyntaxError("nested arrays are not supported")
        return self.literal(value)


def parse_jsonld(text: str, prefixes=None) -> Graph:
    """Parse a JSON-LD subset document (node object or array of them)."""
    try:
        data = json.loads(
            text,
            parse_int=lambda lexical: _Number(lexical, INTEGER),
            parse_float=lambda lexical: _Number(lexical, DECIMAL),
        )
    except json.JSONDecodeError as exc:
        raise JsonLdSyntaxError(str(exc)) from exc
    except RecursionError:
        raise JsonLdSyntaxError(_TOO_DEEP) from None
    reader = _Reader({**DEFAULT_PREFIXES, **(prefixes or {})})
    nodes = data if isinstance(data, list) else [data]
    for obj in nodes:
        reader.node(obj)
    return Graph(reader.triples, reader.prefixes)


def _name_of(iri, prefixes):
    """The name ``_expand_name`` reads back as the IRI: the first of its
    prefixed names, longest namespace first, that reads back, else the full
    IRI when that does."""
    for name in (*prefixed_names(iri, prefixes), iri.value):
        try:
            if _expand_name(name, prefixes) == iri:
                return name
        except (JsonLdSyntaxError, UnknownPrefix):
            pass
    raise KavaError(
        f"cannot write {iri} in JSON-LD: neither a prefixed name nor the full IRI "
        f"reads back as it"
    )


def _is_type(triple):
    """Whether the triple is written under @type: rdf:type with an IRI."""
    return triple.predicate == RDF_TYPE and isinstance(triple.object, Iri)


def _iri_names(graph):
    """Every IRI the document writes, named once; rdf:type as a predicate
    is written as @type when its object is an IRI."""
    names = {}
    for t in graph:
        for term in (t.subject, t.object) if _is_type(t) else t:
            if isinstance(term, Iri) and term not in names:
                names[term] = _name_of(term, graph.prefixes)
    return names


def _object_json(term, graph, names, key):
    if isinstance(term, Iri):
        return {"@id": names[term]}
    if isinstance(term, Literal):
        return term.lexical if term.datatype == STRING else _Number(term.lexical, term.datatype)
    return _node_json(term, graph, names, key)


def _node_json(subject, graph, names, key):
    node = {}
    if isinstance(subject, Iri):
        node["@id"] = names[subject]
    triples = graph.match(s=subject)
    types = sorted(names[t.object] for t in triples if _is_type(t))
    if types:
        node["@type"] = types[0] if len(types) == 1 else types
    by_pred = {}
    for t in triples:
        if not _is_type(t):
            by_pred.setdefault(t.predicate, []).append(t.object)
    for pred in sorted(by_pred, key=names.__getitem__):
        objs = sorted(by_pred[pred], key=key)
        rendered = [_object_json(o, graph, names, key) for o in objs]
        node[names[pred]] = rendered[0] if len(rendered) == 1 else rendered
    return node


def _depth(graph, roots, key) -> int:
    """How deep the written node objects nest below a top-level one, counted
    as the reader counts: a root blank node is a top-level node object, an
    IRI subject's blank object is one level below one, and below each come
    as many levels as its height, ``key(node)[1]``."""
    depths = [key(node)[1] for node in roots]
    depths += [
        key(t.object)[1] + 1
        for t in graph
        if isinstance(t.subject, Iri) and isinstance(t.object, BlankNode)
    ]
    return max(depths, default=0)


def serialize_jsonld(graph: Graph) -> str:
    """Serialize a Graph with tree blank nodes to a JSON-LD subset array.

    The first node object carries an explicit @context with the prefixes
    of the prefixed names written. Output is pretty-printed with 2-space
    indentation; sibling blank nodes come in the order of their keys.
    Raises KavaError for an IRI that has no name the reader reads back, and
    for blank nodes nested more than MAX_DEPTH levels below a top-level
    node object.
    """
    iri_subjects, root_bnodes, key, _ = _tree(graph)
    if _depth(graph, root_bnodes, key) > MAX_DEPTH:
        raise KavaError(f"cannot write JSON-LD: blank nodes nest deeper than {MAX_DEPTH} levels")
    names = _iri_names(graph)
    nodes = [_node_json(s, graph, names, key) for s in iri_subjects + root_bnodes]
    used = {n.split(":")[0] for n in names.values() if not n.startswith(_FULL_IRI_SCHEMES)}
    if nodes and used:
        context = {label: graph.prefixes[label] for label in sorted(used)}
        nodes[0] = {"@context": context, **nodes[0]}
    return fragment_text(nodes) + "\n"
