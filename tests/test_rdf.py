import random

import pytest
from hypothesis import given
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
    assert everything == sorted(everything, key=Triple.sort_key)
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
