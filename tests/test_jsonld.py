import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_text, random_tree_graph
from kava.errors import JsonLdSyntaxError, UnsupportedKeyword
from kava import jsonld
from kava.jsonld import _Number, parse_jsonld, serialize_jsonld
from kava.rdf import DEFAULT_PREFIXES, Graph, Iri, Literal, Triple, isomorphic_trees
from kava.turtle import RDF_TYPE, parse_turtle, serialize_turtle


def test_listing2_structure():
    g = parse_jsonld(fixture_text("listing2.jsonld"))
    midknee = g.expand("gps:midKnee")
    assert g.match(s=midknee, p=RDF_TYPE, o=g.expand("skos:Concept"))
    assert g.match(
        s=midknee, p=g.expand("skos:inScheme"), o=g.expand("gps:gaitPatternSchema")
    )
    # the document self-references its broader target
    assert g.match(s=midknee, p=g.expand("skos:broader"), o=midknee)


def test_empty_node_object():
    assert len(parse_jsonld("{}")) == 0


def test_type_only_node():
    g = parse_jsonld('{"@id": "gps:a", "@type": "skos:Concept"}')
    assert len(g) == 1
    assert g.match(p=RDF_TYPE)


def test_malformed_json():
    with pytest.raises(JsonLdSyntaxError):
        parse_jsonld("{not json")


def test_unsupported_keyword():
    with pytest.raises(UnsupportedKeyword):
        parse_jsonld('{"@id": "gps:a", "@reverse": {}}')


def test_context_merges_prefixes():
    g = parse_jsonld('{"@context": {"ex": "urn:ex#"}, "@id": "ex:a", "ex:p": 1}')
    assert g.match(s=Iri("urn:ex#a"))


def test_context_rejects_expanded_terms():
    with pytest.raises(JsonLdSyntaxError):
        parse_jsonld('{"@context": {"x": {"@id": "urn:x"}}, "@id": "gps:a"}')


def test_serialize_empty():
    assert serialize_jsonld(Graph()).strip() == "[]"


def test_serializer_emits_context():
    g = parse_turtle(fixture_text("listing1.ttl"))
    doc = json.loads(serialize_jsonld(g))
    assert isinstance(doc, list)
    assert "@context" in doc[0]
    assert doc[0]["@context"]["skos"] == "http://www.w3.org/2004/02/skos/core#"


def test_listing3_nested_prototype():
    g = parse_turtle(fixture_text("listing3.ttl"))
    text = serialize_jsonld(g)
    assert '"kava:isPrototype"' in text
    assert '"kava:value": 12345' in text


def test_numeric_literal_bijection():
    g = Graph(
        [
            Triple(Iri("http://x/s"), Iri("http://x/p"), Literal("42", "integer")),
            Triple(Iri("http://x/s"), Iri("http://x/q"), Literal("2.5", "decimal")),
            Triple(Iri("http://x/s"), Iri("http://x/r"), Literal("2.5")),
        ]
    )
    back = parse_jsonld(serialize_jsonld(g))
    assert isomorphic_trees(g, back)
    assert back.match(o=Literal("2.5", "decimal"))
    assert back.match(o=Literal("2.5"))


def test_cross_format_listing1():
    g = parse_turtle(fixture_text("listing1.ttl"))
    again = parse_jsonld(serialize_jsonld(g))
    assert isomorphic_trees(g, again)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cross_format_random_trees(seed):
    g = random_tree_graph(random.Random(seed), 40)
    via_jsonld = parse_jsonld(serialize_jsonld(g))
    assert isomorphic_trees(g, via_jsonld)
    via_both = parse_turtle(serialize_turtle(via_jsonld))
    assert isomorphic_trees(g, via_both)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
@example(663)  # in label order, empty [] siblings b10 and b11 moved ahead of b9
def test_turtle_through_jsonld_is_a_fixpoint(seed):
    """ttl -> jsonld -> ttl gives back the same text and an isomorphic graph."""
    g = random_tree_graph(random.Random(seed), 40)
    text = serialize_turtle(g)
    again = serialize_turtle(parse_jsonld(serialize_jsonld(parse_turtle(text))))
    assert again == text
    assert isomorphic_trees(parse_turtle(again), g)


# Numbers that no float holds: past 2**64, more than 17 significant digits,
# a negative zero.
_LONG_NUMBERS = [
    Literal("18446744073709551617", "integer"),
    Literal("-340282366920938463463374607431768211457", "integer"),
    Literal("0.12345678901234567890123", "decimal"),
    Literal("-98765432109876543210.5", "decimal"),
    Literal("-0.0", "decimal"),
]
_NUMBER_PREDICATES = [Iri(DEFAULT_PREFIXES["kava"] + "value"), Iri("http://example.org/n")]


def _with_placeholders(value, lexicals):
    """value with each _Number swapped for a string that stands for it; the
    lexicals are appended in order."""
    if isinstance(value, _Number):
        lexicals.append(value.lexical)
        return f"\x00number {len(lexicals) - 1}"
    if isinstance(value, list):
        return [_with_placeholders(v, lexicals) for v in value]
    if isinstance(value, dict):
        return {k: _with_placeholders(v, lexicals) for k, v in value.items()}
    return value


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.lists(st.sampled_from(_LONG_NUMBERS), max_size=8))
def test_jsonld_text_is_its_document_dumped(seed, numbers):
    """serialize_jsonld writes json.dumps(indent=2, ensure_ascii=False) of
    the document it builds, with each number's lexical put in verbatim."""
    rng = random.Random(seed)
    g = random_tree_graph(rng, 40)
    subjects = sorted({t.subject for t in g}, key=str)  # IRIs and blank nodes
    g = Graph([*g, *(Triple(rng.choice(subjects), rng.choice(_NUMBER_PREDICATES), n)
                     for n in numbers)])
    with mock.patch.object(jsonld, "fragment_text", wraps=jsonld.fragment_text) as write:
        text = serialize_jsonld(g)
    lexicals = []
    reference = json.dumps(_with_placeholders(write.call_args.args[0], lexicals), indent=2,
                           ensure_ascii=False)
    for i, lexical in enumerate(lexicals):
        reference = reference.replace(json.dumps(f"\x00number {i}"), lexical)
    assert text == reference + "\n"
    assert isomorphic_trees(parse_jsonld(text), g)
