import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from kava.dataset import NUMBER, Schema, load_csv
from kava.errors import CyclicScheme, UnknownVariable, UnsupportedPredicateShape
from kava.manifestation import (
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
    aggregate_mark_spec,
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


def test_fragments_validate():
    g, scheme = _gps_scheme()
    validate_fragment(concept_tree_spec(scheme, prefixes=g.prefixes))
    with pytest.raises(Exception):
        validate_fragment({"kind": "nonsense"})
