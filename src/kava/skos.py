"""Concept-scheme layer: load, validate, and traverse SKOS taxonomies."""

from __future__ import annotations

from .errors import EmptyScheme, UnknownConcept
from .rdf import DEFAULT_PREFIXES, Graph, Iri, Literal, Value
from .turtle import RDF_TYPE

SKOS_NS = DEFAULT_PREFIXES["skos"]
SKOS_CONCEPT = Iri(SKOS_NS + "Concept")
SKOS_PREF_LABEL = Iri(SKOS_NS + "prefLabel")
SKOS_BROADER = Iri(SKOS_NS + "broader")
SKOS_NARROWER = Iri(SKOS_NS + "narrower")
SKOS_RELATED = Iri(SKOS_NS + "related")
SKOS_IN_SCHEME = Iri(SKOS_NS + "inScheme")


class Concept(Value):
    __slots__ = ()
    id: Iri
    pref_label: str
    broader: set
    narrower: set
    related: set
    in_scheme: Iri | None

    def __new__(cls, id, pref_label="", broader=None, narrower=None, related=None, in_scheme=None):
        # each edge set not given is a new empty one, for load_scheme to fill
        edges = [set() if e is None else e for e in (broader, narrower, related)]
        return tuple.__new__(cls, (cls, id, pref_label, *edges, in_scheme))


class ConceptScheme(Value):
    __slots__ = ()
    id: Iri
    concepts: dict  # Iri -> Concept

    def __contains__(self, concept_id):
        return concept_id in self.concepts

    def sorted_ids(self):
        return sorted(self.concepts)


class Finding(Value):
    __slots__ = ()
    kind: str
    severity: str  # "error" | "warning"
    subject: str
    detail: str

    def as_dict(self):
        return dict(zip(self._fields, self[1:]))


def scheme_ids(graph: Graph) -> list[Iri]:
    """All scheme IRIs referenced via skos:inScheme."""
    return sorted({t.object for t in graph.match(p=SKOS_IN_SCHEME) if isinstance(t.object, Iri)})


def load_scheme(graph: Graph, scheme_id: Iri) -> ConceptScheme:
    """Collect skos:Concept subjects of one scheme; broader/narrower are
    symmetrized within the scheme."""
    concepts = {}
    for t in graph.match(p=RDF_TYPE, o=SKOS_CONCEPT):
        subject = t.subject
        if not isinstance(subject, Iri):
            continue
        if not graph.match(s=subject, p=SKOS_IN_SCHEME, o=scheme_id):
            continue
        labels = (t2.object for t2 in graph.match(s=subject, p=SKOS_PREF_LABEL))
        label = next((o.lexical for o in labels if isinstance(o, Literal)), "")
        c = Concept(subject, label, in_scheme=scheme_id)
        for pred, attr in (
            (SKOS_BROADER, "broader"),
            (SKOS_NARROWER, "narrower"),
            (SKOS_RELATED, "related"),
        ):
            for t2 in graph.match(s=subject, p=pred):
                if isinstance(t2.object, Iri):
                    getattr(c, attr).add(t2.object)
        concepts[subject] = c
    if not concepts:
        raise EmptyScheme(f"no concepts found for scheme {scheme_id}")
    for c in concepts.values():
        for other in c.broader:
            if other in concepts:
                concepts[other].narrower.add(c.id)
        for other in c.narrower:
            if other in concepts:
                concepts[other].broader.add(c.id)
    return ConceptScheme(id=scheme_id, concepts=concepts)


def validate_scheme(scheme: ConceptScheme) -> list[Finding]:
    """Structural findings: broader cycles, dangling edges, missing labels,
    asymmetric related links (warning only)."""
    findings = []
    for cid in scheme.sorted_ids():
        c = scheme.concepts[cid]
        if not c.pref_label:
            findings.append(
                Finding("MissingLabel", "error", str(cid), "concept has no skos:prefLabel")
            )
        for attr in ("broader", "narrower", "related"):
            for target in sorted(getattr(c, attr)):
                if target not in scheme.concepts:
                    detail = f"{attr} edge to unknown concept {target}"
                    findings.append(Finding("DanglingEdge", "error", str(cid), detail))
        for target in sorted(c.related):
            if target in scheme.concepts and cid not in scheme.concepts[target].related:
                detail = f"related edge to {target} is not reciprocated"
                findings.append(Finding("RelatedAsymmetry", "warning", str(cid), detail))
    findings.extend(_broader_cycles(scheme))
    return findings


def _broader_cycles(scheme: ConceptScheme) -> list[Finding]:
    """A finding per broader edge back to a concept on the path of a
    depth-first walk, roots and edges in IRI order. The walk keeps its own
    stack, so a chain of any depth is walked."""
    color = {}  # 1 on the path, 2 done
    findings = []
    path, pending = [], [iter(scheme.sorted_ids())]  # pending[i + 1]: path[i]'s edges to walk
    while pending:
        cid = next(pending[-1], None)
        if cid is None:
            pending.pop()
            if path:
                color[path.pop()] = 2
        elif cid not in color:
            color[cid] = 1
            path.append(cid)
            broader = scheme.concepts[cid].broader
            pending.append(iter(sorted(b for b in broader if b in scheme.concepts)))
        elif color[cid] == 1:
            cycle = " -> ".join(str(x) for x in path[path.index(cid):] + [cid])
            findings.append(Finding("BroaderCycle", "error", str(path[-1]), cycle))
    return findings


def has_broader_cycle(scheme: ConceptScheme) -> bool:
    return any(f.kind == "BroaderCycle" for f in _broader_cycles(scheme))


def _closure(scheme, start, attr):
    if start not in scheme.concepts:
        raise UnknownConcept(str(start))
    seen = []
    frontier = [start]
    visited = {start}
    while frontier:
        level = set()
        for cid in frontier:
            for nxt in getattr(scheme.concepts[cid], attr):
                if nxt in scheme.concepts and nxt not in visited:
                    level.add(nxt)
        frontier = sorted(level)
        for nxt in frontier:
            visited.add(nxt)
            seen.append(nxt)
    return seen


def broader_closure(scheme: ConceptScheme, concept_id: Iri) -> list[Iri]:
    """Transitive broader ancestors, nearest first."""
    return _closure(scheme, concept_id, "broader")


def narrower_closure(scheme: ConceptScheme, concept_id: Iri) -> list[Iri]:
    """Transitive narrower descendants, nearest first."""
    return _closure(scheme, concept_id, "narrower")
