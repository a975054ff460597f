import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree_graph
from kava.errors import NonTreeBlankNodes, UnknownPrefix
from kava.rdf import (
    DEFAULT_PREFIXES,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    expand,
    insert,
    isomorphic_trees,
    merge,
    prefixed_names,
    shrink,
)


def test_expand_skos():
    # matches the published W3C SKOS namespace
    assert expand("skos:prefLabel", DEFAULT_PREFIXES) == Iri(
        "http://www.w3.org/2004/02/skos/core#prefLabel"
    )


def test_expand_empty_prefix():
    assert expand(":x", {"": "urn:ex#"}) == Iri("urn:ex#x")


def test_expand_unknown_prefix():
    with pytest.raises(UnknownPrefix):
        expand("foo:bar", {})


def test_shrink_longest_match():
    prefixes = {"a": "http://x/", "b": "http://x/y/"}
    assert shrink(Iri("http://x/y/z"), prefixes) == "b:z"
    assert shrink(Iri("http://other/z"), prefixes) is None


def test_prefixed_names_longest_namespace_first():
    # labels of one namespace keep their order in the map
    prefixes = {"a": "http://x/", "c": "http://x/y/", "b": "http://x/y/"}
    assert prefixed_names(Iri("http://x/y/z"), prefixes) == ["c:z", "b:z", "a:y/z"]
    assert prefixed_names(Iri("http://other/z"), prefixes) == []


@given(st.text(alphabet="abcdefghij/#.", min_size=1).filter(lambda s: s.strip()))
def test_expand_shrink_identity(local):
    prefixes = dict(DEFAULT_PREFIXES)
    iri = Iri(DEFAULT_PREFIXES["kava"] + local)
    name = shrink(iri, prefixes)
    assert name is not None
    assert expand(name, prefixes) == iri


def test_iri_rejects_whitespace():
    with pytest.raises(ValueError):
        Iri("http://x/ y")
    with pytest.raises(ValueError):
        Iri("")


def test_literal_datatypes():
    assert Literal("5", "integer").value() == 5
    assert Literal("2.50", "decimal").lexical == "2.5"
    assert Literal("100.", "decimal").lexical == "100.0"
    digits = "0.1234567890123456789012345678901"
    assert Literal(digits, "decimal").lexical == digits
    with pytest.raises(ValueError):
        Literal("abc", "integer")
    with pytest.raises(ValueError):
        Literal("x", "date")
    for lexical in ("NaN", "-nan", "inf", "-Infinity", "sNaN"):
        with pytest.raises(ValueError, match="not a valid decimal literal"):
            Literal(lexical, "decimal")


def test_triple_invariants():
    s = Iri("http://x/s")
    p = Iri("http://x/p")
    with pytest.raises(ValueError):
        Triple(Literal("x"), p, s)
    with pytest.raises(ValueError):
        Triple(s, BlankNode("b"), s)


def test_insert_idempotent():
    t = Triple(Iri("http://x/s"), Iri("http://x/p"), Literal("o"))
    g = Graph()
    g1 = insert(g, t)
    assert len(g1) == 1
    g2 = insert(g1, t)
    assert len(g2) == 1
    assert len(g) == 0  # copy-on-write


def test_insert_commutative():
    rng = random.Random(7)
    triples = list(random_tree_graph(rng, 20))
    shuffled = triples[:]
    rng.shuffle(shuffled)
    a, b = Graph(), Graph()
    for t in triples:
        a = insert(a, t)
    for t in shuffled:
        b = insert(b, t)
    assert a == b


def test_match_wildcards_and_bound():
    s = Iri("http://x/s")
    p = Iri("http://x/p")
    g = Graph([Triple(s, p, Literal("1", "integer")), Triple(s, p, Literal("2", "integer"))])
    assert len(g.match()) == 2
    assert len(g.match(s=s, p=p, o=Literal("1", "integer"))) == 1
    assert g.match(s=Iri("http://x/other")) == []
    assert Graph().match() == []


def test_match_returns_sorted_everything_once():
    rng = random.Random(11)
    g = random_tree_graph(rng, 30)
    everything = g.match()
    assert len(everything) == len(g)
    by_text = sorted(everything, key=lambda t: (str(t.subject), str(t.predicate), str(t.object)))
    assert everything == by_text
    for subject in {t.subject for t in everything}:
        assert g.match(s=subject) == [t for t in everything if t.subject == subject]


def test_isomorphic_identity_and_relabel():
    rng = random.Random(3)
    g = random_tree_graph(rng, 25)
    assert isomorphic_trees(g, g)
    relabeled = Graph(
        [
            Triple(
                BlankNode("x" + t.subject.label)
                if isinstance(t.subject, BlankNode)
                else t.subject,
                t.predicate,
                BlankNode("x" + t.object.label)
                if isinstance(t.object, BlankNode)
                else t.object,
            )
            for t in g
        ]
    )
    assert isomorphic_trees(g, relabeled)
    assert isomorphic_trees(relabeled, g)


def test_isomorphic_detects_mutation():
    s = Iri("http://x/s")
    p = Iri("http://x/p")
    b = BlankNode("b1")
    g1 = Graph([Triple(s, p, b), Triple(b, p, Literal("12345", "integer"))])
    g2 = Graph([Triple(s, p, b), Triple(b, p, Literal("12346", "integer"))])
    assert not isomorphic_trees(g1, g2)


def test_isomorphic_rejects_shared_bnode():
    s = Iri("http://x/s")
    p = Iri("http://x/p")
    q = Iri("http://x/q")
    b = BlankNode("b1")
    g = Graph([Triple(s, p, b), Triple(s, q, b)])
    with pytest.raises(NonTreeBlankNodes):
        isomorphic_trees(g, g)


def test_isomorphic_rejects_bnode_cycle():
    p = Iri("http://x/p")
    b1, b2 = BlankNode("b1"), BlankNode("b2")
    g = Graph([Triple(b1, p, b2), Triple(b2, p, b1)])
    with pytest.raises(NonTreeBlankNodes):
        isomorphic_trees(g, g)


@given(st.integers(min_value=0, max_value=10_000))
def test_isomorphic_reflexive_symmetric(seed):
    rng = random.Random(seed)
    g = random_tree_graph(rng, 15)
    h = random_tree_graph(random.Random(seed + 1), 15)
    assert isomorphic_trees(g, g)
    assert isomorphic_trees(g, h) == isomorphic_trees(h, g)


# --- term value semantics ---------------------------------------------------

# Payloads that collide across kinds and formats: a quote, a backslash, "^^"
# and "_:" inside a string, and texts that share a long prefix.
_PAYLOAD = st.text(alphabet='ab5"\\^_:', max_size=6)
_IRI_TEXT = st.text(alphabet="ab5:_/#.", max_size=6)
_TERMS = st.one_of(
    _IRI_TEXT.map(lambda v: Iri("http://example.org/" + v)),
    _PAYLOAD.map(lambda v: BlankNode("g" + v)),
    _PAYLOAD.map(Literal),
    st.integers(-(10**20), 10**20).map(lambda n: Literal(str(n), "integer")),
    st.decimals(-1000, 1000, places=3).map(lambda d: Literal(str(d), "decimal")),
    st.sampled_from(
        [Literal("5"), Literal("5", "integer"), Literal("5.0", "decimal"), Literal('5"^^integer'),
         Literal("<http://example.org/x>"), Iri("http://example.org/x"), BlankNode("x")]
    ),
)
_SUBJECTS = _TERMS.filter(lambda t: not isinstance(t, Literal))
_PREDICATES = _IRI_TEXT.map(lambda v: Iri("http://example.org/p" + v))


def _text_order(t):
    return (str(t.subject), str(t.predicate), str(t.object))


@given(_TERMS, _TERMS)
def test_terms_are_equal_hash_and_order_as_their_kind_and_text(a, b):
    same = type(a) is type(b) and str(a) == str(b)
    assert (a == b) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)
    assert (a < b) is (str(a) < str(b))
    for plain in (str(a), str(a)[1:-1], *a[1:]):  # texts and fields
        assert a != plain


@given(_PAYLOAD.filter(lambda v: v.isalnum()))
def test_a_term_never_equals_a_term_of_another_kind(v):
    terms = [Iri("http://example.org/" + v), BlankNode(v), Literal(v)]
    if v.isdigit():
        terms += [Literal(v, "integer"), Literal(v, "decimal")]
    for i, a in enumerate(terms):
        assert [b for b in terms if b == a] == [a], i


@given(_TERMS)
def test_terms_repr_copy_and_pickle(term):
    assert repr(term).startswith(type(term).__name__ + "(")
    assert copy.copy(term) == term == pickle.loads(pickle.dumps(term))
    t = Triple(Iri("http://example.org/s"), Iri("http://example.org/p"), term)
    assert copy.deepcopy(t) == t == pickle.loads(pickle.dumps(t))
    fields = f"subject={t.subject!r}, predicate={t.predicate!r}, object={term!r}"
    assert str(t) == repr(t) == f"Triple({fields})"


def test_term_repr_names_the_fields():
    assert repr(Iri("urn:x")) == "Iri(value='urn:x')"
    assert repr(BlankNode("b1")) == "BlankNode(label='b1')"
    assert repr(Literal("05", "integer")) == "Literal(lexical='5', datatype='integer')"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.tuples(_SUBJECTS, _PREDICATES, _TERMS), max_size=30),
)
def test_graph_order_and_match_against_brute_force(seed, extra):
    """Iteration is the order of the triples' texts; match(p=…) and
    match(s=…, p=…) equal a filter of that order; merge keeps it."""
    tree = random_tree_graph(random.Random(seed), 30)
    extra = [Triple(*t) for t in extra]
    for graph in (tree, Graph(extra), Graph([*tree, *extra]), merge(tree, extra)):
        everything = list(graph)
        assert everything == sorted(graph, key=_text_order)
        predicates = {t.predicate for t in everything} | {Iri("http://example.org/absent")}
        for p in predicates:
            assert graph.match(p=p) == [t for t in everything if t.predicate == p]
            for s in {t.subject for t in everything}:
                assert graph.match(s=s, p=p) == [
                    t for t in everything if t.subject == s and t.predicate == p
                ]
    assert merge(tree, extra) == Graph([*tree, *extra])


_TRIPLE_LISTS = st.lists(st.builds(Triple, _SUBJECTS, _PREDICATES, _TERMS), max_size=30)


@settings(max_examples=100, deadline=None)
@given(_TRIPLE_LISTS, _TRIPLE_LISTS, st.data())
def test_graph_is_its_distinct_triples_in_order(triples, extra, data):
    """Whatever the order and repeats of its input, a graph iterates its
    distinct triples in sorted order; graphs of one set are equal and hash
    alike; merge equals a graph built anew; membership answers as a set's."""
    repeated = data.draw(st.permutations(triples + triples[: len(triples) // 2]))
    g = Graph(repeated, {"ex": "http://example.org/"})
    assert list(g) == sorted(set(triples)) and len(g) == len(set(triples))
    shuffled = Graph(data.draw(st.permutations(repeated)))
    assert g == shuffled and hash(g) == hash(shuffled)

    merged = merge(g, extra)
    assert merged == Graph(list(g) + extra, g.prefixes)
    assert merged.prefixes == g.prefixes == {"ex": "http://example.org/"}

    for t in triples:
        assert t in g and tuple(t) in g  # a plain 3-tuple equals its Triple
    for t in extra:
        assert (t in g) is (t in set(triples))
    for value in (None, "", "abc", (), (None, None, None)):
        assert value not in g
    for t in triples[:1] + extra[:1]:
        with pytest.raises(TypeError):
            list(t) in g
