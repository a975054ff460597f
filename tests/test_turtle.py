import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import turtle_reference
from conftest import fixture_text, random_tree_graph
from kava import turtle
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


def test_rdf_prefix_is_declared_only_for_the_rdf_namespace():
    rebound = parse_turtle(
        "@prefix rdf: <http://example.org/x#> .\n@prefix ex: <http://example.org/> .\n"
        "ex:s a ex:C .\n"
    )
    assert serialize_turtle(rebound) == (
        "@prefix ex: <http://example.org/> .\n\nex:s a ex:C .\n"
    )
    bare = Graph([Triple(Iri("http://x/s"), RDF_TYPE, Iri("http://x/C"))], prefixes={})
    out = serialize_turtle(bare)
    assert out == "<http://x/s> a <http://x/C> .\n"
    assert parse_turtle(out) == bare


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
    blank-node labels: every label is replaced by a fresh one at random."""
    rng = random.Random(seed)
    # detach some trees from their IRI subject so that the graph has roots
    triples = [
        t
        for t in random_tree_graph(rng, 40)
        if not (isinstance(t.subject, Iri) and isinstance(t.object, BlankNode))
        or rng.random() < 0.5
    ]
    labels = sorted(
        {
            term.label
            for t in triples
            for term in (t.subject, t.object)
            if isinstance(term, BlankNode)
        }
    )
    fresh = [f"r{n}" for n in rng.sample(range(10**6), len(labels))]
    rename = dict(zip(labels, fresh))

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
    text = serialize_turtle(Graph(triples))
    assert serialize_turtle(parse_turtle(text)) == text


# Pieces of Turtle, well-formed and not, that the reader must take exactly
# as the reference reader does.
_FRAGMENTS = [
    "@prefix", "@prefix ex: <urn:ex#> .", "@prefix ex: <urn:other#> .",
    "@prefix ex:a <urn:x> .", "@prefix ex: ex:b .", "@base", "@en",
    "<urn:x>", "<>", "<a b>", "<a\nb>", "<urn:open",
    '"v"', '""', '"q\\"q"', '"b\\\\b"', '"n\\nn"', '"r\\rr"', '"t\\tt"',
    '"bad\\x"', '"end\\', '"open', '"line\nbreak"', '"""',
    "-", "-1", "-1.5", "1", "1.", "1.5", "1.5.", "007",
    "a", "a-", "a:", "_:b", "ex:a.", "ex:a", "ex:b", "ex:", ":x", "ex:.a", "ex:a-b",
    "skos:Concept", "foo:bar", "(", ")", "# note", "#",
    "\t", "\r", "\n", " ", "\x0b", "\u00a0",
    "²", "①", "٣", "½", "é", "éx:a", "½x:a", "x²:a",
    ".", ";", ",", "[", "]", "[]", "ex:s ex:p ex:o .",
    'ex:s a ex:C ; ex:p [ ex:q 1, 2 ; ex:r "w" ] .', '[ ex:p "v" ] .',
    "[ ex:p [ ex:q [] ] ] ex:r 1.0 .", "[] ex:p ex:o .",
]
_OBJECTS = ['"v"', '""', '"q\\"q \\\\ \\n\\r\\t"', "1", "-1", "1.5", "007", "-0.0", "٣", "²",
            "ex:a", "ex:b", "<urn:x>", "ex:.a", "ex:a-b", "skos:Concept"]
_SEPARATORS = [" ", " ", "\n", "\t", "", "\r\n", " # c\n"]


@st.composite
def _documents(draw):
    """A well-formed document, sometimes with one token dropped or one
    fragment put in."""
    tokens = []

    def objects(depth):  # a predicate-object list
        items = draw(st.integers(0, 3))
        for item in range(items):
            if item:
                tokens.append(";")
            tokens.append(draw(st.sampled_from(["a", "ex:p", "ex:q", "<urn:p>"])))
            for k in range(draw(st.integers(1, 2))):
                if k:
                    tokens.append(",")
                if depth < 4 and draw(st.booleans()):
                    tokens.append("[")
                    objects(depth + 1)
                    tokens.append("]")
                else:
                    tokens.append(draw(st.sampled_from(_OBJECTS)))
        if items and draw(st.integers(0, 4)) == 0:
            tokens.append(";")

    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["prefix", "name", "name", "bracket"]))
        if kind == "prefix":
            label = draw(st.sampled_from(["ex:", ":", "skos:"]))
            tokens += ["@prefix", label, draw(st.sampled_from(["<urn:ex#>", "<urn:new#>"])), "."]
            continue
        if kind == "name":
            tokens.append(draw(st.sampled_from(["ex:s", "<urn:s>", ":s"])))
        else:
            tokens.append("[")
            objects(1)
            tokens.append("]")
        objects(1)
        tokens.append(".")
    edit = draw(st.sampled_from(["none", "none", "drop", "insert"]))
    if edit == "drop" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif edit == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_FRAGMENTS)))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    return "".join(t + sep for t, sep in zip(tokens, seps))


_TEXTS = st.one_of(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join), _documents())


def _outcome(parse, text):
    """The graph, blank-node labels included, and the prefix map a parse
    gives, or the type and text of what it raises."""
    try:
        graph = parse(text, {"ex": "urn:ex#", "": "urn:empty#"})
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return graph, list(graph.prefixes.items())


@settings(max_examples=600, deadline=None)
@given(_TEXTS)
@example("ex:a ex:b ² .")  # str.isdigit holds for '²', \d does not match it
@example("ex:a ex:b ① , 1²3 .")
@example("ex:a ex:b -² .")
@example("½x:a ex:b ex:c .")  # a label may not start with '½', though \w holds it
@example("ex:a ex:b ½ .")
@example('ex:a ex:b """x""" .')  # '"""' is refused before a string is read
@example('ex:a ex:b """')
@example("ex:a ex:b ex:c . @prefix ex: <urn:new#> . ex:a ex:b ex:c .")
@example("ex:a ex:b ex:c # no final newline")  # eof sits at the column of '#'
@example("ex:a ex:b ex:c .\n  # last line")
@example('ex:a ex:b "x" . # "#" in a comment')
def test_reader_matches_reference(text):
    assert _outcome(parse_turtle, text) == _outcome(turtle_reference.parse_turtle, text)


def test_reader_classes_are_the_str_predicates():
    """The scanner's character classes hold exactly the characters the
    str predicates of the reference hold, over every code point."""
    everything = "".join(map(chr, range(0x110000)))
    digits = re.compile(rf"[\d{turtle._OTHER_DIGITS}]")
    assert set(digits.findall(everything)) == {c for c in everything if c.isdigit()}
    assert set(re.findall(r"\s", everything)) == {c for c in everything if c.isspace()}
    assert set(re.findall(r"\w", everything)) == {
        c for c in everything if c.isalnum() or c == "_"
    }


@pytest.mark.parametrize("depth", [10, 100, 1000, 5000])
def test_deep_nesting_is_read(depth):
    text = "ex:s " + "ex:p [ " * depth + "ex:v 1" + " ]" * depth + " ."
    graph = parse_turtle(text, {"ex": "urn:ex#"})
    assert len(graph) == depth + 1
    assert len(graph.match(p=Iri("urn:ex#p"))) == depth
