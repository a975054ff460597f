"""Direct and indirect concept-to-data mappings with provenance, stored
as blank-node trees under the kava: vocabulary."""

from __future__ import annotations

import math
import weakref
from functools import reduce
from itertools import chain, count
from typing import TYPE_CHECKING

from .errors import (
    ForeignDialect,
    InvalidKind,
    KavaError,
    MalformedManifestation,
    UnknownVariable,
)
from .predicate import (
    And, Comparison, Not, Or, Predicate, all_records, compile_mask, parse_predicate, variables,
)
from .rdf import (
    DEFAULT_PREFIXES,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    Value,
    literal_for,
    merge,
)

if TYPE_CHECKING:
    from .dataset import Dataset

KAVA_NS = DEFAULT_PREFIXES["kava"]
DCT_NS = DEFAULT_PREFIXES["dct"]
FOAF_NS = DEFAULT_PREFIXES["foaf"]

KAVA_MANIFEST = Iri(KAVA_NS + "manifest")
KAVA_IS_PROTOTYPE = Iri(KAVA_NS + "isPrototype")
KAVA_MATCH_VARIABLE = Iri(KAVA_NS + "matchVariable")
KAVA_MATCH_QUERY = Iri(KAVA_NS + "matchQuery")
KAVA_VARIABLE = Iri(KAVA_NS + "variable")
KAVA_VALUE = Iri(KAVA_NS + "value")
KAVA_MIN_VALUE = Iri(KAVA_NS + "minValue")
KAVA_MAX_VALUE = Iri(KAVA_NS + "maxValue")
KAVA_DIALECT = Iri(KAVA_NS + "queryDialect")
DCT_CREATOR = Iri(DCT_NS + "creator")
DCT_DATE_SUBMITTED = Iri(DCT_NS + "dateSubmitted")
FOAF_NAME = Iri(FOAF_NS + "name")

KAVA_PREDICATE_DIALECT = "kava-predicate"


class Provenance(Value):
    __slots__ = ()
    creator_name: str | None = None
    date_submitted: str | None = None


class DirectMapping(Value):
    __slots__ = ()
    bindings: tuple  # of (variable, value)


class IndirectVariableMapping(Value):
    __slots__ = ()
    variable: str | Iri
    min_value: float | int | None = None
    max_value: float | int | None = None

    def variable_name(self) -> str:
        """Plain dataset variable name; IRIs reduce to their local part."""
        if isinstance(self.variable, Iri):
            v = self.variable.value
            for sep in ("#", "/"):
                if sep in v:
                    v = v.rsplit(sep, 1)[1]
                    break
            return v
        return self.variable


class IndirectQueryMapping(Value):
    __slots__ = ()
    query_text: str
    dialect: str = KAVA_PREDICATE_DIALECT


Kind = DirectMapping | IndirectVariableMapping | IndirectQueryMapping


class Manifestation(Value):
    __slots__ = ()
    concept: Iri
    kind: Kind
    provenance: Provenance = Provenance()
    anchor: str = ""  # stable synthetic identifier assigned on load


def _literal_value(term):
    if isinstance(term, Literal):
        return term.value()
    return None


def _is_number(value) -> bool:
    """An int or a float, and not a bool: what a range bound must be."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bound(graph, subject, node, predicate):
    """The node's last ``predicate`` (kava:minValue or kava:maxValue) value,
    or None; MalformedManifestation for one that is not a number."""
    value = None
    for t in graph.match(s=node, p=predicate):
        value = _literal_value(t.object)
        if not _is_number(value):
            name = predicate.value.removeprefix(KAVA_NS)
            raise MalformedManifestation(str(subject), f"kava:{name} must be a number")
    return value


def _extract_provenance(graph, node):
    creator = None
    for t in graph.match(s=node, p=DCT_CREATOR):
        if isinstance(t.object, BlankNode):
            for t2 in graph.match(s=t.object, p=FOAF_NAME):
                creator = _literal_value(t2.object)
        elif isinstance(t.object, Literal):
            creator = t.object.lexical
    date = None
    for t in graph.match(s=node, p=DCT_DATE_SUBMITTED):
        date = _literal_value(t.object)
    return Provenance(creator, date)


def _load_direct(graph, subject, node):
    bindings = []
    for t in graph.match(s=node, p=KAVA_IS_PROTOTYPE):
        proto = t.object
        if not isinstance(proto, BlankNode):
            raise MalformedManifestation(str(subject), "kava:isPrototype must be a node")
        var = None
        val = None
        for t2 in graph.match(s=proto, p=KAVA_VARIABLE):
            var = t2.object.lexical if isinstance(t2.object, Literal) else t2.object
        for t2 in graph.match(s=proto, p=KAVA_VALUE):
            val = _literal_value(t2.object)
        if var is None or val is None:
            raise MalformedManifestation(
                str(subject), "prototype needs kava:variable and kava:value"
            )
        if isinstance(var, Iri):
            var = IndirectVariableMapping(var).variable_name()
        bindings.append((var, val))
    bindings.sort(key=lambda b: str(b[0]))
    return DirectMapping(tuple(bindings))


def _load_indirect_variable(graph, subject, node):
    mv = graph.match(s=node, p=KAVA_MATCH_VARIABLE)
    if len(mv) != 1:
        raise MalformedManifestation(str(subject), "expected one kava:matchVariable")
    inner = mv[0].object
    if not isinstance(inner, BlankNode):
        raise MalformedManifestation(str(subject), "kava:matchVariable must be a node")
    var = None
    for t in graph.match(s=inner, p=KAVA_VARIABLE):
        var = t.object.lexical if isinstance(t.object, Literal) else t.object
    if var is None:
        raise MalformedManifestation(str(subject), "matchVariable needs kava:variable")
    lo = _bound(graph, subject, inner, KAVA_MIN_VALUE)
    hi = _bound(graph, subject, inner, KAVA_MAX_VALUE)
    if lo is None and hi is None:
        raise MalformedManifestation(str(subject), "matchVariable needs a bound")
    if lo is not None and hi is not None and lo > hi:
        raise MalformedManifestation(str(subject), "minValue exceeds maxValue")
    return IndirectVariableMapping(var, lo, hi)


def _load_indirect_query(graph, subject, node):
    texts = [
        t.object.lexical
        for t in graph.match(s=node, p=KAVA_MATCH_QUERY)
        if isinstance(t.object, Literal)
    ]
    if len(texts) != 1:
        raise MalformedManifestation(str(subject), "expected one kava:matchQuery string")
    dialect = KAVA_PREDICATE_DIALECT
    for t in graph.match(s=node, p=KAVA_DIALECT):
        if isinstance(t.object, Literal):
            dialect = t.object.lexical
    if dialect == KAVA_PREDICATE_DIALECT:
        parse_predicate(texts[0])  # must parse under the native dialect
    return IndirectQueryMapping(texts[0], dialect)


# Graph is immutable and the result depends on its triples alone, so each
# graph (or an equal one) is loaded once; the entry dies with the graph.
_LOADED = weakref.WeakKeyDictionary()  # Graph -> (manifestations, by concept)


def _loaded(graph: Graph) -> tuple[tuple, dict]:
    loaded = _LOADED.get(graph)
    if loaded is None:
        manifests = _load(graph)
        by_concept = {}
        for m in manifests:
            by_concept.setdefault(m.concept, []).append(m)
        groups = {concept: tuple(ms) for concept, ms in by_concept.items()}
        loaded = _LOADED[graph] = (manifests, groups)
    return loaded


def load_manifestations(graph: Graph) -> list[Manifestation]:
    """One Manifestation per (concept, kava:manifest, node) triple.

    Each call returns a new list; the graph is read on the first call only.
    Raises MalformedManifestation for nodes with zero or several kinds.
    """
    return list(_loaded(graph)[0])


def concept_manifestations(graph: Graph, concept: Iri) -> tuple[Manifestation, ...]:
    """The concept's manifestations, in load_manifestations order; grouped
    on the graph's first load, so each call is a dict lookup."""
    return _loaded(graph)[1].get(concept, ())


def _load_kind(graph, subject, node) -> Kind:
    """The mapping kind of one manifestation node; MalformedManifestation
    unless it has exactly one."""
    kinds = []
    if graph.match(s=node, p=KAVA_IS_PROTOTYPE):
        kinds.append(_load_direct(graph, subject, node))
    if graph.match(s=node, p=KAVA_MATCH_VARIABLE):
        kinds.append(_load_indirect_variable(graph, subject, node))
    if graph.match(s=node, p=KAVA_MATCH_QUERY):
        kinds.append(_load_indirect_query(graph, subject, node))
    if len(kinds) != 1:
        raise MalformedManifestation(
            str(subject), f"expected exactly one mapping kind, found {len(kinds)}"
        )
    return kinds[0]


def _load(graph: Graph) -> tuple[Manifestation, ...]:
    out = []
    for t in graph.match(p=KAVA_MANIFEST):
        subject = t.subject
        if not isinstance(subject, Iri):
            raise MalformedManifestation(str(subject), "manifest subject must be an IRI")
        node = t.object
        if not isinstance(node, BlankNode):
            raise MalformedManifestation(str(subject), "manifest object must be a node")
        out.append((subject, _load_kind(graph, subject, node), _extract_provenance(graph, node)))
    out.sort(key=lambda m: (m[0], repr(m[1])))  # concept, then kind
    return tuple(Manifestation(*m, f"m{i}") for i, m in enumerate(out))


def _validate_kind(kind):
    if isinstance(kind, DirectMapping):
        if not kind.bindings:
            raise InvalidKind("direct mapping needs at least one binding")
    elif isinstance(kind, IndirectVariableMapping):
        bounds = [b for b in (kind.min_value, kind.max_value) if b is not None]
        if not bounds:
            raise InvalidKind("indirect variable mapping needs at least one bound")
        if not all(map(_is_number, bounds)):
            raise InvalidKind(f"range bounds must be numbers, not {bounds!r}")
        if len(bounds) == 2 and bounds[0] > bounds[1]:
            raise InvalidKind("minValue exceeds maxValue")
    elif isinstance(kind, IndirectQueryMapping):
        if kind.dialect == KAVA_PREDICATE_DIALECT:
            parse_predicate(kind.query_text)
    else:
        raise InvalidKind(f"unknown mapping kind: {kind!r}")


def create_manifestation(
    concept: Iri, kind: Kind, creator_name: str | None = None, date: str | None = None
) -> Manifestation:
    """Build a manifestation stamped with provenance."""
    _validate_kind(kind)
    return Manifestation(concept, kind, Provenance(creator_name, date))


def evaluate_manifestation(m: Manifestation, dataset: Dataset) -> set:
    """The set of record identifiers the manifestation matches, for library
    callers (commands stay on record_mask); the errors are record_mask's."""
    return dataset.matched_identifiers(record_mask(m, dataset))


def kind_predicate(kind: Kind) -> Predicate | None:
    """The predicate a mapping kind stands for, which record_mask evaluates
    and utilization.threshold_region_spec draws. A direct mapping ANDs
    ``[var] = value`` over its bindings, in order (None, every record, for
    none; for a value of None, that the variable has no value: neither a
    number, each ``!= nan``, nor a string, each ``>= ""``); a range ANDs
    ``[v] >= min`` and ``[v] <= max`` over the bounds it has (``[v] != nan``,
    every number, for neither); a query in kava's dialect is its parsed text.
    ForeignDialect for another dialect, InvalidKind for no mapping kind."""
    if isinstance(kind, DirectMapping):
        terms = [Comparison(var, "=", value) if value is not None
                 else Not(Or(Comparison(var, "!=", math.nan), Comparison(var, ">=", "")))
                 for var, value in kind.bindings]
        return reduce(And, terms) if terms else None
    if isinstance(kind, IndirectVariableMapping):
        v = kind.variable_name()
        bounds = [Comparison(v, op, bound) for op, bound in
                  ((">=", kind.min_value), ("<=", kind.max_value)) if bound is not None]
        return reduce(And, bounds) if bounds else Comparison(v, "!=", math.nan)
    if isinstance(kind, IndirectQueryMapping):
        if kind.dialect != KAVA_PREDICATE_DIALECT:
            raise ForeignDialect(kind.dialect)
        return parse_predicate(kind.query_text)
    raise InvalidKind(f"unknown mapping kind: {kind!r}")


def record_mask(m: Manifestation, dataset: Dataset):
    """Mask of the records that pass the kind's predicate (see kind_predicate
    and ``dataset.Column``), by compile_mask. Raises kind_predicate's errors,
    then UnknownVariable for a direct mapping's first variable not in the
    schema, in binding order, or for all of a range's or a query's, sorted."""
    pred = kind_predicate(m.kind)
    if pred is None:
        return all_records(len(dataset))
    missing = variables(pred) - set(dataset.schema.names())
    if missing:
        if isinstance(m.kind, DirectMapping):
            missing = [next(var for var, _ in m.kind.bindings if var in missing)]
        raise UnknownVariable(", ".join(sorted(map(str, missing))))
    return compile_mask(pred)(dataset.columns)


def _fresh_bnodes(taken=frozenset()):
    """Blank nodes m1, m2, … whose labels are not taken."""
    return (BlankNode(f"m{n}") for n in count(1) if f"m{n}" not in taken)


def _kind_triples(node, kind, fresh, triples):
    if isinstance(kind, DirectMapping):
        for var, value in kind.bindings:
            proto = next(fresh)
            triples.append(Triple(node, KAVA_IS_PROTOTYPE, proto))
            triples.append(Triple(proto, KAVA_VARIABLE, literal_for(var)))
            triples.append(Triple(proto, KAVA_VALUE, literal_for(value)))
    elif isinstance(kind, IndirectVariableMapping):
        inner = next(fresh)
        triples.append(Triple(node, KAVA_MATCH_VARIABLE, inner))
        var = kind.variable if isinstance(kind.variable, Iri) else literal_for(kind.variable)
        triples.append(Triple(inner, KAVA_VARIABLE, var))
        if kind.min_value is not None:
            triples.append(Triple(inner, KAVA_MIN_VALUE, literal_for(kind.min_value)))
        if kind.max_value is not None:
            triples.append(Triple(inner, KAVA_MAX_VALUE, literal_for(kind.max_value)))
    else:
        triples.append(Triple(node, KAVA_MATCH_QUERY, literal_for(kind.query_text)))
        if kind.dialect != KAVA_PREDICATE_DIALECT:
            triples.append(Triple(node, KAVA_DIALECT, literal_for(kind.dialect)))


def _manifestation_triples(manifestations, fresh) -> list[Triple]:
    triples = []
    for m in manifestations:
        _validate_kind(m.kind)
        node = next(fresh)
        triples.append(Triple(m.concept, KAVA_MANIFEST, node))
        _kind_triples(node, m.kind, fresh, triples)
        if m.provenance.creator_name is not None:
            person = next(fresh)
            triples.append(Triple(node, DCT_CREATOR, person))
            triples.append(Triple(person, FOAF_NAME, literal_for(m.provenance.creator_name)))
        if m.provenance.date_submitted is not None:
            triples.append(
                Triple(node, DCT_DATE_SUBMITTED, literal_for(m.provenance.date_submitted))
            )
    return triples


def manifestations_to_graph(manifestations, prefixes=None) -> Graph:
    """Inverse of load_manifestations up to blank-node labels."""
    return Graph(
        _manifestation_triples(manifestations, _fresh_bnodes()),
        prefixes if prefixes is not None else DEFAULT_PREFIXES,
    )


def add_manifestation_to_graph(graph: Graph, m: Manifestation) -> Graph:
    """A new graph holding the given one plus one manifestation tree, whose
    blank-node labels skip every label already in the graph."""
    taken = {term.label for term in chain.from_iterable(graph) if isinstance(term, BlankNode)}
    return merge(graph, _manifestation_triples([m], _fresh_bnodes(taken)))


def without_manifestations(graph: Graph, concept: Iri, drop) -> Graph:
    """The graph less the concept's manifestation trees whose kind ``drop``
    accepts. A tree the loader refuses stays, for validation to report."""
    removed = set()
    for t in graph.match(s=concept, p=KAVA_MANIFEST):
        if not isinstance(t.object, BlankNode):
            continue
        try:
            kind = _load_kind(graph, concept, t.object)
        except KavaError:
            continue
        if drop(kind):
            removed.add(t)
            nodes = [t.object]
            for node in nodes:  # grows while read; each node is listed once
                for child in graph.match(s=node):
                    removed.add(child)
                    if isinstance(child.object, BlankNode) and child.object not in nodes:
                        nodes.append(child.object)
    return Graph([t for t in graph if t not in removed], graph.prefixes)
