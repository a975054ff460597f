import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text, random_tree_graph
from kava.errors import TurtleSyntaxError
from kava.jsonld import serialize_jsonld
from kava.rdf import BlankNode, Graph, Iri, Literal, Triple, isomorphic_trees
from kava.turtle import RDF_TYPE, parse_turtle, serialize_turtle


def test_listing1_triples():
    g = parse_turtle(fixture_text("listing1.ttl"))
    assert len(g) == 5
    midknee = g.expand("gps:midKnee")
    assert len(g.match(s=midknee)) == 5
    assert g.match(
        s=midknee,
        p=g.expand("skos:prefLabel"),
        o=Literal("abnormal mid stance phase of knee"),
    )
    assert g.match(s=midknee, p=RDF_TYPE, o=g.expand("skos:Concept"))


def test_listing3_tree():
    g = parse_turtle(fixture_text("listing3.ttl"))
    assert len(g) == 7
    manifest = g.match(s=g.expand("icd10:R73"), p=g.expand("kava:manifest"))
    assert len(manifest) == 1
    node = manifest[0].object
    assert isinstance(node, BlankNode)
    assert g.match(s=node, p=g.expand("dct:dateSubmitted"), o=Literal("2019-02-04"))
    proto = g.match(s=node, p=g.expand("kava:isPrototype"))[0].object
    assert g.match(s=proto, p=g.expand("kava:value"), o=Literal("12345", "integer"))


def test_listing4_tree():
    g = parse_turtle(fixture_text("listing4.ttl"))
    assert len(g) == 4
    hits = g.match(p=g.expand("kava:minValue"))
    assert len(hits) == 1
    assert hits[0].object == Literal("200", "integer")
    assert g.match(p=g.expand("kava:variable"), o=g.expand("health:bloodSugar"))


def test_empty_document():
    assert len(parse_turtle("")) == 0
    assert len(parse_turtle("# just a comment\n")) == 0


def test_syntax_error_position():
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle("x y")
    assert exc.value.line == 1
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle("gps:a gps:b 5 .\nbroken here")
    assert exc.value.line == 2


def test_unsupported_features_rejected():
    for text in [
        'gps:a gps:b ( gps:c ) .',
        'gps:a gps:b """long""" .',
        'gps:a gps:b "x"@en .',
    ]:
        with pytest.raises(TurtleSyntaxError) as exc:
            parse_turtle(text)
        assert "unsupported" in str(exc.value) or "unexpected" in str(exc.value)


def test_undeclared_prefix():
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle("foo:a gps:b foo:c .")
    assert "undeclared prefix" in str(exc.value)


def test_prefix_directive_overrides_default():
    g = parse_turtle('@prefix ex: <urn:ex#> .\nex:a ex:b "v" .')
    assert g.match(s=Iri("urn:ex#a"))


def test_comment_and_whitespace_tolerance():
    text = '# header\ngps:a   gps:b\t"v" ;# trailing\n  gps:c 5 .\n'
    g = parse_turtle(text)
    assert len(g) == 2


def test_escaped_string_roundtrip():
    g = Graph(
        [
            Triple(
                Iri("http://x/s"),
                Iri("http://x/p"),
                Literal('say "hi" \\ done'),
            ),
            Triple(Iri("http://x/s"), Iri("http://x/p"), Literal("a\nb\tc\r")),
        ]
    )
    assert isomorphic_trees(parse_turtle(serialize_turtle(g)), g)


def test_serialize_empty():
    assert serialize_turtle(Graph()) == ""


def test_serialize_bracket_form():
    b = BlankNode("b1")
    g = Graph(
        [
            Triple(Iri("http://example.org/kava/icd10#R73"), Iri("http://example.org/kava/vocab#manifest"), b),
            Triple(b, Iri("http://example.org/kava/vocab#value"), Literal("1", "integer")),
        ]
    )
    out = serialize_turtle(g)
    assert "kava:manifest [" in out
    assert isomorphic_trees(parse_turtle(out), g)


def test_root_bnode_statement():
    b = BlankNode("b1")
    g = Graph([Triple(b, Iri("http://x/p"), Literal("v"))])
    out = serialize_turtle(g)
    assert out.startswith("[")
    assert isomorphic_trees(parse_turtle(out), g)


def test_listing_roundtrips():
    for name in ["listing1.ttl", "listing3.ttl", "listing4.ttl", "listing5.ttl"]:
        g = parse_turtle(fixture_text(name))
        again = parse_turtle(serialize_turtle(g))
        assert isomorphic_trees(g, again), name


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_roundtrip_random_trees(seed):
    g = random_tree_graph(random.Random(seed), 40)
    assert isomorphic_trees(parse_turtle(serialize_turtle(g)), g)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_serializer_text_is_canonical(seed):
    """Both serializers give the same text whatever the triple order and the
    blank-node names. Sibling blank nodes under one predicate are written in
    the str order of their labels, so the renaming keeps that order for
    nested nodes and scrambles it only for roots."""
    rng = random.Random(seed)
    # detach some trees from their IRI subject so that the graph has roots
    triples = [
        t
        for t in random_tree_graph(rng, 40)
        if not (isinstance(t.subject, Iri) and isinstance(t.object, BlankNode))
        or rng.random() < 0.5
    ]
    labels = {
        term.label
        for t in triples
        for term in (t.subject, t.object)
        if isinstance(term, BlankNode)
    }
    nested = sorted({t.object.label for t in triples if isinstance(t.object, BlankNode)})
    roots = sorted(labels - set(nested))
    rng.shuffle(roots)
    fresh = iter(sorted(f"r{n}" for n in rng.sample(range(10**6), len(labels))))
    rename = {label: next(fresh) for label in nested + roots}

    def relabel(term):
        return BlankNode(rename[term.label]) if isinstance(term, BlankNode) else term

    relabeled = [Triple(relabel(t.subject), t.predicate, relabel(t.object)) for t in triples]
    shuffled = triples[:]
    rng.shuffle(shuffled)
    rng.shuffle(relabeled)
    for serialize in (serialize_turtle, serialize_jsonld):
        text = serialize(Graph(triples))
        assert serialize(Graph(shuffled)) == text
        assert serialize(Graph(relabeled)) == text
