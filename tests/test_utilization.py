import copy
import functools
import inspect
import json
import sys
from decimal import Decimal

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from kava import utilization
from kava.dataset import NUMBER, Schema, load_csv
from kava.errors import (
    CyclicScheme,
    ForeignDialect,
    FragmentError,
    KavaError,
    UnknownVariable,
    UnsupportedChannel,
    UnsupportedPredicateShape,
)
from kava.jsontext import fragment_text
from kava.manifestation import (
    DirectMapping,
    IndirectQueryMapping,
    IndirectVariableMapping,
    create_manifestation,
    load_manifestations,
)
from kava.rdf import DEFAULT_PREFIXES, Iri
from kava.skos import Concept, ConceptScheme, load_scheme
from kava.turtle import parse_turtle
from kava.utilization import (
    _runs,
    _schema,
    aggregate_mark_spec,
    channels,
    concept_tree_spec,
    encoded_marks_spec,
    threshold_region_spec,
    validate_fragment,
)

R73 = Iri("http://example.org/kava/icd10#R73")


def _gps_scheme():
    g = parse_turtle(fixture_text("gps_scheme.ttl"))
    return g, load_scheme(g, g.expand("gps:gaitPatternSchema"))


def _glucose_dataset(values=(150, 200, 250)):
    schema = Schema(
        variables=(("patientId", NUMBER), ("glucose", NUMBER), ("t", NUMBER)),
        identifying=("patientId",),
    )
    rows = "\n".join(f"{i + 1},{v},{i + 1}" for i, v in enumerate(values))
    return load_csv("patientId,glucose,t\n" + rows + "\n", schema)


def test_concept_tree_counts():
    g, scheme = _gps_scheme()
    doc = concept_tree_spec(scheme, prefixes=g.prefixes)
    assert doc["kind"] == "conceptTree"
    assert len(doc["data"]["values"]) == len(scheme.concepts)
    broader_edges = sum(
        len([b for b in c.broader if b in scheme.concepts])
        for c in scheme.concepts.values()
    )
    assert len(doc["edges"]) == broader_edges
    ids = {n["id"] for n in doc["data"]["values"]}
    assert {"gps:mid", "gps:midKnee", "gps:midKneeSagittal"} <= ids
    sagittal = next(n for n in doc["data"]["values"] if n["id"] == "gps:midKneeSagittal")
    assert sagittal["parent"] == "gps:midKnee"


def test_concept_tree_flat_scheme():
    g = parse_turtle(fixture_text("gait_categories.ttl"))
    scheme = load_scheme(g, g.expand("gps:gaitCategorySchema"))
    doc = concept_tree_spec(scheme, prefixes=g.prefixes)
    assert len(doc["data"]["values"]) == 7
    assert all(n["parent"] is None for n in doc["data"]["values"])
    assert doc["edges"] == []


def test_concept_tree_frequencies_optional():
    g, scheme = _gps_scheme()
    plain = concept_tree_spec(scheme, prefixes=g.prefixes)
    assert "size" not in plain["encoding"]
    sized = concept_tree_spec(
        scheme, frequencies={g.expand("gps:mid"): 4}, prefixes=g.prefixes
    )
    assert sized["encoding"]["size"]["field"] == "frequency"


def test_concept_tree_rejects_cycles():
    a, b = Iri("urn:a"), Iri("urn:b")
    scheme = ConceptScheme(
        id=Iri("urn:s"),
        concepts={
            a: Concept(id=a, pref_label="a", broader={b}),
            b: Concept(id=b, pref_label="b", broader={a}),
        },
    )
    with pytest.raises(CyclicScheme):
        concept_tree_spec(scheme)


def test_encoded_marks_assigns_concepts():
    g = parse_turtle(fixture_text("listing5.ttl"))
    ms = load_manifestations(g)
    doc = encoded_marks_spec(_glucose_dataset(), ms, "color", prefixes=g.prefixes)
    by_glucose = {row["glucose"]: row["concept"] for row in doc["data"]["values"]}
    assert by_glucose == {150: "none", 200: "none", 250: "icd10:R73"}
    assert doc["encoding"]["color"] == {"field": "concept", "type": "nominal"}


def test_encoded_marks_no_manifestations():
    doc = encoded_marks_spec(_glucose_dataset(), [], "color")
    assert all(row["concept"] == "none" for row in doc["data"]["values"])


def test_encoded_marks_overlap_diagnostic():
    other = Iri("urn:other")
    ms = [
        create_manifestation(R73, IndirectQueryMapping("[glucose] > 200")),
        create_manifestation(other, IndirectQueryMapping("[glucose] > 100")),
    ]
    doc = encoded_marks_spec(_glucose_dataset(), ms, "color", prefixes=DEFAULT_PREFIXES)
    matched = {row["glucose"]: row["concept"] for row in doc["data"]["values"]}
    assert matched[250] == "icd10:R73"  # first manifestation wins
    assert len(doc["diagnostics"]) == 1
    assert doc["diagnostics"][0]["concepts"] == ["icd10:R73", "urn:other"]


def test_encoded_marks_rows_are_not_shared():
    # the records share one match pattern, whose concepts are worked out once
    other = Iri("urn:other")
    ms = [
        create_manifestation(R73, IndirectQueryMapping("[glucose] > 200")),
        create_manifestation(other, IndirectQueryMapping("[glucose] > 100")),
    ]
    doc = encoded_marks_spec(_glucose_dataset((250, 260, 270)), ms, prefixes=DEFAULT_PREFIXES)
    assert len(doc["diagnostics"]) == 3
    before = copy.deepcopy(doc)
    doc["diagnostics"][0]["concepts"].append("urn:changed")
    doc["diagnostics"][0]["record"] = "changed"
    doc["data"]["values"][0]["concept"] = "urn:changed"
    doc["data"]["values"][0]["glucose"] = -1
    assert doc["diagnostics"][1:] == before["diagnostics"][1:]
    assert doc["data"]["values"][1:] == before["data"]["values"][1:]


def test_aggregate_single_run():
    ds = _glucose_dataset((100, 300, 300, 300, 100))  # t = 1..5, matches at 2,3,4
    m = create_manifestation(R73, IndirectQueryMapping("[glucose] > 200"))
    doc = aggregate_mark_spec(ds, m, "t")
    assert len(doc["layer"]) == 1
    enc = doc["layer"][0]["encoding"]
    assert (enc["x"]["datum"], enc["x2"]["datum"]) == (2, 4)


def test_aggregate_no_matches():
    ds = _glucose_dataset((100, 100))
    m = create_manifestation(R73, IndirectQueryMapping("[glucose] > 200"))
    assert aggregate_mark_spec(ds, m, "t")["layer"] == []


def test_aggregate_two_runs():
    ds = _glucose_dataset((300, 300, 100, 300, 300))
    m = create_manifestation(R73, IndirectQueryMapping("[glucose] > 200"))
    doc = aggregate_mark_spec(ds, m, "t")
    spans = [
        (l["encoding"]["x"]["datum"], l["encoding"]["x2"]["datum"])
        for l in doc["layer"]
    ]
    assert spans == [(1, 2), (4, 5)]


def test_aggregate_unknown_time_variable():
    ds = _glucose_dataset()
    m = create_manifestation(R73, IndirectQueryMapping("[glucose] > 200"))
    with pytest.raises(UnknownVariable):
        aggregate_mark_spec(ds, m, "when")


def _oracle_runs(flags):
    runs, current = [], None
    for i, f in enumerate(flags):
        if f:
            current = [i, i] if current is None else [current[0], i]
        else:
            if current:
                runs.append(tuple(current))
            current = None
    if current:
        runs.append(tuple(current))
    return runs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
def test_runs_match_oracle(flags):
    assert _runs(flags) == _oracle_runs(flags)


def test_threshold_from_listing4():
    g = parse_turtle(fixture_text("listing4.ttl"))
    kind = load_manifestations(g)[0].kind
    doc = threshold_region_spec(kind, "bloodSugar")
    assert doc["region"] == {"lower": {"value": 200, "inclusive": True}}
    assert doc["encoding"]["y"]["datum"] == 200
    assert "y2" not in doc["encoding"]


def test_threshold_from_query():
    doc = threshold_region_spec(IndirectQueryMapping("[glucose] > 200"), "glucose")
    assert doc["region"] == {"lower": {"value": 200, "inclusive": False}}


def test_threshold_degenerate_band_warns():
    doc = threshold_region_spec(IndirectVariableMapping("v", 0, 0), "v")
    assert doc["warnings"] == ["degenerate zero-height band"]


def test_threshold_rejects_compound():
    with pytest.raises(UnsupportedPredicateShape):
        threshold_region_spec(
            IndirectQueryMapping("[glucose] > 200 AND [age] > 40"), "glucose"
        )


def test_threshold_axis_variable_mismatch():
    with pytest.raises(UnknownVariable):
        threshold_region_spec(IndirectVariableMapping("v", 1, None), "other")


def _region(lower=None, upper=None):
    """A region's bounds, lower first, as (value, inclusive) pairs."""
    sides = {"lower": lower, "upper": upper}
    return {side: {"value": b[0], "inclusive": b[1]} for side, b in sides.items() if b}


@pytest.mark.parametrize(
    "op, region",
    [(">", _region(lower=(7, False))), (">=", _region(lower=(7, True))),
     ("<", _region(upper=(7, False))), ("<=", _region(upper=(7, True))),
     ("=", _region((7, True), (7, True)))],
)
def test_threshold_region_of_each_query_operator(op, region):
    doc = threshold_region_spec(IndirectQueryMapping(f"[v] {op} 7"), "v")
    assert doc["region"] == region
    assert doc["encoding"] == {channel: {"datum": 7} for channel, side
                               in (("y", "lower"), ("y2", "upper")) if side in region}
    assert ("warnings" in doc) == (op == "=")


@pytest.mark.parametrize("lo, hi", [(2.5, None), (None, -0.0), (1, 3), (4, 4)])
def test_threshold_region_of_a_range_is_its_bounds_as_queries(lo, hi):
    doc = threshold_region_spec(IndirectVariableMapping("v", lo, hi), "v")
    assert doc["region"] == _region(None if lo is None else (lo, True),
                                    None if hi is None else (hi, True))
    assert list(doc["region"]) == [side for side, b in (("lower", lo), ("upper", hi))
                                   if b is not None]
    for op, bound in ((">=", lo), ("<=", hi)):
        if bound is not None and (lo is None or hi is None):
            query = threshold_region_spec(IndirectQueryMapping(f"[v] {op} {bound}"), "v")
            assert json.dumps(query) == json.dumps(doc)


def test_threshold_region_of_a_range_without_bounds_spans_the_axis():
    doc = threshold_region_spec(IndirectVariableMapping("v"), "v")
    assert doc["region"] == {} and doc["encoding"] == {} and "warnings" not in doc
    with pytest.raises(UnknownVariable, match="^v$"):
        threshold_region_spec(IndirectVariableMapping("v"), "w")


@pytest.mark.parametrize(
    "kind, axis, error, message",
    [
        (DirectMapping((("v", 1),)), "v", UnsupportedPredicateShape,
         "no region form for DirectMapping"),
        (DirectMapping(()), "v", UnsupportedPredicateShape, "no region form for DirectMapping"),
        ("[v] > 1", "v", UnsupportedPredicateShape, "no region form for str"),
        (IndirectQueryMapping("[v] != 7"), "v", UnsupportedPredicateShape,
         "operator '!=' has no region form"),
        (IndirectQueryMapping("[v] > 1 AND [v] < 3"), "v", UnsupportedPredicateShape,
         "threshold regions require a single comparison"),
        (IndirectQueryMapping("NOT [v] > 1"), "v", UnsupportedPredicateShape,
         "threshold regions require a single comparison"),
        (IndirectQueryMapping('[v] > "a"'), "v", UnsupportedPredicateShape,
         "threshold bound must be numeric"),
        (IndirectQueryMapping("[v] > 1"), "w", UnknownVariable, "v"),
        (IndirectVariableMapping("v", 1, 3), "w", UnknownVariable, "v"),
        (IndirectVariableMapping(Iri("http://example.org/x#glucose"), 1), "v", UnknownVariable,
         "glucose"),
        (IndirectQueryMapping("[v] > 1", "sql"), "v", ForeignDialect,
         "query dialect 'sql' is not evaluable locally"),
    ],
    ids=["direct", "no-binding", "no-kind", "not-equal", "compound", "not", "string",
         "query-axis", "range-axis", "iri-axis", "foreign"],
)
def test_threshold_refusals_name_their_cause(kind, axis, error, message):
    with pytest.raises(error) as caught:
        threshold_region_spec(kind, axis)
    assert type(caught.value) is error and str(caught.value) == message


def test_published_schema_in_sync():
    import json
    from pathlib import Path

    packaged = json.loads(
        (Path(__file__).parent.parent / "src/kava/fragment_schema.json").read_text()
    )
    published = json.loads(
        (Path(__file__).parent.parent / "docs/fragment-schema.json").read_text()
    )
    assert packaged == published
    # the schema ships twice; the copies must stay byte for byte the same
    assert (Path(__file__).parent.parent / "docs/fragment-schema.json").read_bytes() == (
        Path(__file__).parent.parent / "src/kava/fragment_schema.json"
    ).read_bytes()


def test_shipped_schema_is_a_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(_schema())


def test_fragments_validate():
    g, scheme = _gps_scheme()
    validate_fragment(concept_tree_spec(scheme, prefixes=g.prefixes))
    with pytest.raises(FragmentError):
        validate_fragment({"kind": "nonsense"})


def test_fragment_error_names_an_rfc_6901_pointer():
    # a bad fragment is kava's fault: no KavaError or OSError, which exit 2
    assert issubclass(FragmentError, ValueError)
    assert not issubclass(FragmentError, (KavaError, OSError))
    assert str(FragmentError((), "required", {})) == (
        "fragment fails its schema at '' (required): {}"
    )
    error = FragmentError(("a/b", "m~n", 0), "type", "x" * 100)
    assert str(error) == "fragment fails its schema at '/a~1b/m~0n/0' (type): '" + "x" * 56 + "..."
    assert (error.path, error.keyword, error.value) == (("a/b", "m~n", 0), "type", "x" * 100)


def test_encoded_marks_rejects_channel_outside_schema():
    assert channels() == ("x", "x2", "y", "y2", "color", "size")
    for channel in channels():
        assert encoded_marks_spec(_glucose_dataset(), [], channel)["encoding"] == {
            channel: {"field": "concept", "type": "nominal"}
        }
    with pytest.raises(UnsupportedChannel, match="'shape'; expected one of: x, x2"):
        encoded_marks_spec(_glucose_dataset(), [], "shape")


# --- fragment text ----------------------------------------------------------

# Text that looks like the layout the row writer re-indents, or that JSON
# must escape.
_TRICKY = st.sampled_from(
    ["},\n        {", "},\n{", "}", "{", "[", "]", '"', "\\", "\\u00e9", ": ", ",",
     "\x00", "\x1f", "\x7f", "\t\r\n", "é", "Gänge", " ", "😀", "\ud800"]
)
_STRINGS = st.one_of(st.text(max_size=6), _TRICKY, st.lists(_TRICKY, max_size=4).map("".join))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 0.0, -0.0, float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
    _STRINGS,
)
_KEYS = st.one_of(_STRINGS, st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())


def _rows(values, keys=_STRINGS):
    return st.lists(st.dictionaries(keys, values, max_size=4), max_size=4)


_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_KEYS, inner, max_size=3),
        _rows(_SCALARS),
        _rows(_SCALARS, _KEYS),
        _rows(st.one_of(_SCALARS, st.lists(_STRINGS, max_size=3))),
        _rows(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example({"data": {"values": [{"a": "},\n        {", "b": float("nan")}, {"a": -0.0}]}})
@example(
    {"diagnostics": [{"record": "1", "concepts": ["ex:a", "é"]}, {"record": "2", "concepts": []}]}
)
@example([{"a": [1]}, {"a": [1.0]}, {"a": [True]}, {"a": [0.0]}, {"a": [-0.0]}])
@example({"values": [], "rows": [{}], "mixed": [{"a": 1}, {}], "nested": [{"a": {"b": 1}}]})
# the column writer's edges: it leaves the first four lists to the stack,
# item by item, and writes the last two by columns
@example({"values": [{"a": 1, "b": 2}, {"b": 2, "a": 1}]})  # two key orders
@example([{"a": 1, 2: "x"}, {"a": 1, 2: "y"}])  # a key that is no str
@example({"rows": [{"a": ["x"], "b": 1}, {"a": "x", "b": 2}]})  # lists and scalars
@example([{"a": [1, "x"]}, {"a": ["y"]}])  # a list that holds a number
@example({"d": [{"r": "1", "c": []}, {"r": "2", "c": ["x", "\n"]}, {"r": "3", "c": []}]})
@example({"values": [{"s": "a\x00b\nc", "t": ["\x00", "x\ny"]}, {"s": "\n", "t": []}]})
# keys that are no str, tuples, and rows whose cells are objects
@example({float("nan"): (1, (2,)), None: {False: ()}, 2.5: [{"a": {"b": 1}}, {"a": {}}]})
def test_fragment_text_equals_indented_dumps(doc):
    assert fragment_text(doc) == json.dumps(doc, indent=2, ensure_ascii=False)


def test_fragment_text_of_a_document_nested_2000_deep():
    """Nesting waits on the writer's stack, not on Python's: 2,000 nested
    containers, objects, arrays and rows whose cells are objects, are
    written within 50 frames of the caller's."""
    doc = "bottom"
    for _ in range(400):  # five containers a round
        doc = {"k": doc, "rows": [{"s": "é", "t": 2}, {"s": "\n", "t": -0.0}]}
        doc = [1.5, doc, []]
        doc = [{"a": {"b": doc}, "c": ["x"]}, {"a": {}, "c": []}]
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit + 10_000)  # json.dumps(indent=2) recurses
        reference = json.dumps(doc, indent=2, ensure_ascii=False)
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        text = fragment_text(doc)
    finally:
        sys.setrecursionlimit(limit)
    assert text == reference


@pytest.mark.parametrize("container", ["dict", "list"])
def test_fragment_text_refuses_a_document_that_holds_itself(container):
    doc = {"a": [1]} if container == "dict" else [1, {"a": []}]
    (doc["a"] if container == "dict" else doc).append(doc)
    with pytest.raises(ValueError, match="Circular reference detected"):
        json.dumps(doc, indent=2, ensure_ascii=False)
    with pytest.raises(ValueError, match="Circular reference detected"):
        fragment_text(doc)
    shared = {"s": [1]}  # one container twice, but inside neither
    doc = {"a": shared, "b": [shared, shared]}
    assert fragment_text(doc) == json.dumps(doc, indent=2, ensure_ascii=False)


def test_fragment_text_of_every_fragment_kind():
    g, scheme = _gps_scheme()
    g4 = parse_turtle(fixture_text("listing4.ttl"))
    ms = load_manifestations(parse_turtle(fixture_text("listing5.ttl")))
    other = create_manifestation(Iri("urn:other"), IndirectQueryMapping("[glucose] > 100"))
    docs = [
        concept_tree_spec(scheme, prefixes=g.prefixes),
        encoded_marks_spec(_glucose_dataset(), [*ms, other], "size", prefixes=g.prefixes),
        aggregate_mark_spec(_glucose_dataset((100, 300, 300, 100)), ms[0], "t"),
        threshold_region_spec(load_manifestations(g4)[0].kind, "bloodSugar"),
    ]
    for doc in docs:
        assert fragment_text(doc) == json.dumps(doc, indent=2, ensure_ascii=False)


# --- fragment validation ----------------------------------------------------


@functools.cache
def _full_validator():
    return jsonschema.Draft202012Validator(_schema())


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _best_match(doc):
    error = jsonschema.exceptions.best_match(_full_validator().iter_errors(doc))
    return tuple(error.path), error.validator


def _verdict(doc):
    """The (path, keyword) of the failure validate_fragment raises for doc, or
    None; checked against a full validation: doc fails if and only if
    jsonschema reports an error, and the failure is one of its errors."""
    errors = {(tuple(e.path), e.validator) for e in _full_validator().iter_errors(doc)}
    try:
        validate_fragment(doc)
    except FragmentError as exc:
        assert (exc.path, exc.keyword) in errors, (exc.path, exc.keyword, errors)
        assert exc.value is _at(doc, exc.path)
        return exc.path, exc.keyword
    assert not errors, errors
    return None


class _Dict(dict):
    pass


class _Str(str):
    pass


# Numbers to JSON Schema that are no int or float; and values that are no
# numbers, or no booleans, to JSON Schema, bools and ints among them.
_OTHER_NUMBERS = st.sampled_from([Decimal("-0.5"), np.float64(2.5), np.int64(3)])
_NUMBERS = st.one_of(st.integers(), st.floats(), _OTHER_NUMBERS)
_NOT_NUMBERS = st.sampled_from([True, False, "1", None])
_NOT_BOOLEANS = st.sampled_from([0, 1, 1.0, "true"])

_CHANNELS = st.dictionaries(
    st.sampled_from(["x", "x2", "y", "y2", "color", "size"]),
    st.fixed_dictionaries(
        {},
        optional={
            "field": st.text(max_size=2),
            "type": st.sampled_from(["quantitative", "nominal", "ordinal", "temporal"]),
            "datum": _NUMBERS,
        },
    ),
    max_size=2,
)
_BOUND = st.fixed_dictionaries(
    {"value": _NUMBERS, "inclusive": st.booleans()}
)
_OBJECT_ROWS = st.lists(st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2), max_size=4)
_NOT_OBJECTS = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2))
_NOT_ARRAYS = st.one_of(_SCALARS, st.dictionaries(st.text(max_size=1), _SCALARS, max_size=1))


def _insert(rows, draw):
    rows = list(rows) if isinstance(rows, list) else []
    rows.insert(draw(st.integers(0, len(rows))), draw(_NOT_OBJECTS))
    return rows


def _data(doc):
    return doc["data"] if isinstance(doc.get("data"), dict) else {}


def _as_tuple(doc, draw):
    """doc with one of its arrays made a tuple."""
    key = draw(st.sampled_from(["values", "layer", "edges", "diagnostics", "warnings"]))
    value = (_data(doc) if key == "values" else doc).get(key)
    value = tuple(value) if isinstance(value, list) else ()
    return {**doc, "data": {**_data(doc), key: value}} if key == "values" else {**doc, key: value}


def _subclassed(doc, draw):
    """doc as a dict subclass, with its kind, mark and data of subclasses too."""
    out = _Dict(doc)
    for key, cls in (("kind", _Str), ("mark", _Str), ("data", _Dict)):
        if isinstance(doc.get(key), (str, dict)) and draw(st.booleans()):
            out[key] = cls(doc[key])
    return out


# Each mutation takes a fragment and draw, and returns a changed copy.
_MUTATIONS = [
    lambda doc, draw: {**doc, "kind": draw(st.sampled_from(["wrong", "", 1]))},
    lambda doc, draw: {**doc, draw(st.sampled_from(["extra", "values", "Kind"])): 1},
    lambda doc, draw: {**doc, "data": {**_data(doc), "extra": 1}},
    lambda doc, draw: {**doc, "data": {"values": _insert(_data(doc).get("values"), draw)}},
    lambda doc, draw: {**doc, "data": {"values": draw(_NOT_ARRAYS)}},
    lambda doc, draw: {**doc, "data": draw(st.one_of(_OBJECT_ROWS, _SCALARS))},
    lambda doc, draw: {**doc, "diagnostics": _insert(doc.get("diagnostics"), draw)},
    lambda doc, draw: {**doc, "diagnostics": draw(_NOT_ARRAYS)},
    lambda doc, draw: {
        **doc, "encoding": {draw(st.sampled_from(["shape", "color"])): {"type": "bogus"}}
    },
    lambda doc, draw: {
        **doc,
        "region": {"lower": {"value": draw(st.sampled_from(["200", None])), "inclusive": True}},
    },
    lambda doc, draw: {**doc, "region": {"upper": {"value": 1}}},
    lambda doc, draw: {**doc, "layer": [{"mark": "rule", "extra": 1}]},
    lambda doc, draw: {**doc, "edges": [{"source": "a"}]},
    lambda doc, draw: {**doc, "encoding": {"y": {"datum": draw(_NOT_NUMBERS)}}},
    lambda doc, draw: {
        **doc, "region": {"upper": {"value": draw(_NOT_NUMBERS), "inclusive": True}}
    },
    lambda doc, draw: {
        **doc, "region": {"lower": {"value": draw(_NUMBERS), "inclusive": draw(_NOT_BOOLEANS)}}
    },
    _as_tuple,
    lambda doc, draw: {**doc, draw(st.sampled_from([1, None])): 1},
    lambda doc, draw: {**doc, "data": {**_data(doc), draw(st.sampled_from([1, None])): "x"}},
    lambda doc, draw: {**doc, "encoding": {draw(st.sampled_from([1, None])): {}}},
    _subclassed,
]


@st.composite
def _fragments(draw):
    """A valid fragment, then up to two mutations drawn from _MUTATIONS."""
    kinds = ["conceptTree", "encodedMarks", "aggregateMark", "thresholdRegion"]
    doc = {"kind": draw(st.sampled_from(kinds))}
    optional = {
        "mark": st.just("point"),
        "data": st.fixed_dictionaries(
            {"values": _OBJECT_ROWS}, optional={"name": st.text(max_size=2)}
        ),
        "encoding": _CHANNELS,
        "layer": st.lists(
            st.fixed_dictionaries({"mark": st.just("rule"), "encoding": _CHANNELS}), max_size=2
        ),
        "edges": st.lists(
            st.fixed_dictionaries({"source": st.text(max_size=2), "target": st.text(max_size=2)}),
            max_size=2,
        ),
        "region": st.fixed_dictionaries({}, optional={"lower": _BOUND, "upper": _BOUND}),
        "diagnostics": _OBJECT_ROWS,
        "warnings": st.lists(st.text(max_size=2), max_size=2),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    for _ in range(draw(st.integers(0, 2))):
        doc = draw(st.sampled_from(_MUTATIONS))(doc, draw)
    return doc


def _with(doc, path, value):
    """Copy of doc with the value at the key path set, or deleted for None."""
    out = dict(doc)
    if len(path) > 1:
        out[path[0]] = _with(doc[path[0]], path[1:], value)
    elif value is None:
        del out[path[0]]
    else:
        out[path[0]] = value
    return out


_MARKS = {
    "kind": "encodedMarks",
    "mark": "point",
    "data": {"values": [{"id": 1, "concept": "none"}, {"id": 2, "concept": "ex:a"}]},
    "encoding": {"color": {"field": "concept", "type": "nominal"}},
    "diagnostics": [{"record": "2", "concepts": ["ex:a", "ex:b"]}],
}
_REGION = {
    "kind": "thresholdRegion",
    "region": {"lower": {"value": 200, "inclusive": True}},
    "encoding": {"y": {"datum": 200}},
}


# Bad fragments and the (path, keyword) of their first failure, which is
# also the one jsonschema's best_match picks.
_FAILURES = [
    (_with(_MARKS, ("kind",), "wrong"), (("kind",), "enum")),
    (_with(_MARKS, ("kind",), None), ((), "required")),
    (_with(_MARKS, ("extra",), 1), ((), "additionalProperties")),
    (_with(_MARKS, ("data", "extra"), 1), (("data",), "additionalProperties")),
    (
        _with(_MARKS, ("data", "values"), [{"id": 1}, 2, {"id": 3}]),
        (("data", "values", 1), "type"),
    ),
    (_with(_MARKS, ("data", "values"), [[{"id": 1}]]), (("data", "values", 0), "type")),
    (_with(_MARKS, ("data", "values"), {"id": 1}), (("data", "values"), "type")),
    (_with(_MARKS, ("data", "values"), "rows"), (("data", "values"), "type")),
    (_with(_MARKS, ("data",), [{"id": 1}]), (("data",), "type")),
    (_with(_MARKS, ("diagnostics",), [{"record": "1"}, "x"]), (("diagnostics", 1), "type")),
    (_with(_MARKS, ("diagnostics",), {"record": "1"}), (("diagnostics",), "type")),
    (
        _with(_MARKS, ("encoding",), {"shape": {"field": "concept", "type": "nominal"}}),
        (("encoding",), "additionalProperties"),
    ),
    (
        _with(_MARKS, ("encoding", "color", "type"), "bogus"),
        (("encoding", "color", "type"), "enum"),
    ),
    (
        _with(_with(_MARKS, ("data", "values"), [{"id": 1}, 2]), ("extra",), 1),
        ((), "additionalProperties"),
    ),
    (_with(_REGION, ("region", "lower", "value"), "200"), (("region", "lower", "value"), "type")),
    (_with(_REGION, ("region", "lower", "inclusive"), None), (("region", "lower"), "required")),
    (
        _with(_REGION, ("region", "upper"), {"value": 1, "inclusive": "yes"}),
        (("region", "upper", "inclusive"), "type"),
    ),
]


@pytest.mark.parametrize(
    "doc, failure", _FAILURES, ids=[f"doc{i}" for i in range(len(_FAILURES))]
)
def test_validate_fragment_reports_what_full_validation_reports(doc, failure):
    assert _verdict(_MARKS) is None
    assert _verdict(_REGION) is None
    assert _verdict(doc) == failure == _best_match(doc)


@settings(max_examples=400, deadline=None)
@given(_fragments())
@example({"kind": "aggregateMark", "layer": [{"encoding": {"x": {"datum": True}}}]})
@example({"kind": "thresholdRegion", "region": {"lower": {"value": True, "inclusive": True}}})
@example({"kind": "thresholdRegion", "region": {"upper": {"value": 1, "inclusive": 0}}})
@example({"kind": "thresholdRegion", "region": {"upper": {"value": 1, "inclusive": 1}}})
@example({"kind": "encodedMarks", "data": {"values": ({"id": 1},)}, "diagnostics": ()})
@example({"kind": "conceptTree", "edges": ({"source": "a", "target": "b"},)})
@example({"kind": "encodedMarks", "data": {"values": [{"id": 1}, ("id", 2)]}})
@example({"kind": "conceptTree", 1: "x"})
@example({"kind": "conceptTree", None: "x"})
@example({"kind": "encodedMarks", "data": {"values": [{1: "a", None: "b"}]}})
@example(_Dict(kind=_Str("conceptTree"), data=_Dict(values=[_Dict(id=_Str("a"))])))
@example(_Dict(kind=_Str("wrong")))
@example({"kind": "thresholdRegion", "encoding": {"y": {"datum": Decimal("1.5")}}})
@example({"kind": "thresholdRegion", "encoding": {"y": {"datum": np.float64(2.5)}}})
@example({"kind": "thresholdRegion", "encoding": {"y2": {"datum": np.int64(3)}}})
def test_validate_fragment_verdict_equals_full_validation(doc):
    _verdict(doc)


# Edits to the schema that the compiled check could not read, and so must
# refuse to compile.
_SCHEMA_EDITS = {
    "maxItems": lambda s: s["properties"]["diagnostics"].update(maxItems=3),
    "patternProperties": lambda s: s["properties"]["data"].update(
        patternProperties={"^v": {"maxItems": 1}}
    ),
    "allOf": lambda s: s.update(allOf=[{"required": ["mark"]}]),
    "additionalProperties-schema": lambda s: s.update(additionalProperties={}),
    "enum-number": lambda s: s["properties"]["kind"]["enum"].append(1),
    "missing-ref": lambda s: s["properties"]["encoding"]["properties"]["x"].update(
        {"$ref": "#/$defs/missing"}
    ),
}


@pytest.mark.parametrize("edit", _SCHEMA_EDITS)
def test_compiling_refuses_a_schema_the_check_cannot_read(monkeypatch, edit):
    edited = copy.deepcopy(_schema())
    monkeypatch.setattr(utilization, "_schema", lambda: edited)
    assert utilization._check.__wrapped__()(_MARKS) is None  # the shipped schema compiles
    _SCHEMA_EDITS[edit](edited)
    with pytest.raises(ValueError):
        utilization._check.__wrapped__()


@pytest.mark.parametrize("at", [0, 500, 999])
@pytest.mark.parametrize("path", [("data", "values"), ("diagnostics",)])
def test_a_non_object_row_gets_full_validations_error(path, at):
    rows = [{"id": i, "concept": "none"} for i in range(1000)]
    assert _verdict(_with(_MARKS, path, rows)) is None
    rows[at] = "not an object"
    doc = _with(_MARKS, path, rows)
    assert _verdict(doc) == ((*path, at), "type") == _best_match(doc)
