"""The value classes (mappings, provenance, manifestations, predicates,
findings, schemas, gait parameters) behave as immutable records: their
repr and str, equality by class and fields, hashing, refusal of field
assignment, copy and pickle, and their constructors' signatures."""

import copy
import inspect
import pickle

import pytest

from kava.dataset import NUMBER, Record, Schema
from kava.gait import PARAMETER_NAMES, MatchResult, SpatioTemporalParams
from kava.manifestation import (
    DirectMapping,
    IndirectQueryMapping,
    IndirectVariableMapping,
    Manifestation,
    Provenance,
)
from kava.predicate import And, Comparison, Not, Or
from kava.rdf import Iri
from kava.skos import Finding

R73 = Iri("http://example.org/kava/icd10#R73")
LEFT, RIGHT = Comparison("glucose", ">", 200), Comparison("name", "=", "a")

REPRS = [
    (DirectMapping((("patientId", 1), ("sex", "f"))),
     "DirectMapping(bindings=(('patientId', 1), ('sex', 'f')))"),
    (IndirectVariableMapping("glucose", 100, 125.5),
     "IndirectVariableMapping(variable='glucose', min_value=100, max_value=125.5)"),
    (IndirectVariableMapping(Iri("urn:x#age"), max_value=3),
     "IndirectVariableMapping(variable=Iri(value='urn:x#age'), min_value=None, max_value=3)"),
    (IndirectQueryMapping("[glucose] > 200"),
     "IndirectQueryMapping(query_text='[glucose] > 200', dialect='kava-predicate')"),
    (IndirectQueryMapping("SELECT 1", dialect="sql"),
     "IndirectQueryMapping(query_text='SELECT 1', dialect='sql')"),
    (Provenance(), "Provenance(creator_name=None, date_submitted=None)"),
    (Provenance("ACME", date_submitted="2020-06-01"),
     "Provenance(creator_name='ACME', date_submitted='2020-06-01')"),
    (Manifestation(R73, IndirectQueryMapping("[glucose] > 200"), anchor="m0"),
     "Manifestation(concept=Iri(value='http://example.org/kava/icd10#R73'), "
     "kind=IndirectQueryMapping(query_text='[glucose] > 200', dialect='kava-predicate'), "
     "provenance=Provenance(creator_name=None, date_submitted=None), anchor='m0')"),
    (LEFT, "Comparison(variable='glucose', op='>', constant=200)"),
    (And(LEFT, RIGHT),
     "And(left=Comparison(variable='glucose', op='>', constant=200), "
     "right=Comparison(variable='name', op='=', constant='a'))"),
    (Or(LEFT, Not(RIGHT)),
     "Or(left=Comparison(variable='glucose', op='>', constant=200), "
     "right=Not(operand=Comparison(variable='name', op='=', constant='a')))"),
    (Finding("MissingLabel", "error", "urn:c", "concept has no skos:prefLabel"),
     "Finding(kind='MissingLabel', severity='error', subject='urn:c', "
     "detail='concept has no skos:prefLabel')"),
]
VALUES = [value for value, _ in REPRS] + [
    Schema((("id", NUMBER), ("v", NUMBER)), ("id",)),
    Record((("id", 1), ("v", None))),
    SpatioTemporalParams(tuple(map(float, range(len(PARAMETER_NAMES))))),
    MatchResult(R73, 0.75, {"cadence": "inside"}),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_and_str_name_the_fields(value, text):
    assert repr(value) == str(value) == text


def test_values_of_different_classes_with_equal_fields_are_unequal():
    assert And(LEFT, RIGHT) != Or(LEFT, RIGHT)
    assert Not(LEFT) != DirectMapping(LEFT)
    assert Provenance("a", "b") != IndirectQueryMapping("a", "b")
    assert IndirectQueryMapping("a", "b") == IndirectQueryMapping(query_text="a", dialect="b")
    assert len({And(LEFT, RIGHT), Or(LEFT, RIGHT), And(LEFT, RIGHT)}) == 2


@pytest.mark.parametrize("value", [v for v in VALUES if not isinstance(v, MatchResult)])
def test_equal_values_hash_alike(value):
    twin = pickle.loads(pickle.dumps(value))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)


@pytest.mark.parametrize("value", VALUES)
def test_fields_cannot_be_assigned(value):
    field = next(iter(inspect.signature(type(value)).parameters))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("value", VALUES)
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


def test_constructors_take_fields_by_position_keyword_or_default():
    params = inspect.signature(Manifestation).parameters.values()
    assert [(p.name, p.kind.name, p.default) for p in params] == [
        ("concept", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("kind", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("provenance", "POSITIONAL_OR_KEYWORD", Provenance()),
        ("anchor", "POSITIONAL_OR_KEYWORD", ""),
    ]
    m = Manifestation(kind=DirectMapping((("id", 1),)), concept=R73)
    assert (m.provenance, m.anchor) == (Provenance(), "")
    for bad in (lambda: Provenance("a", "b", "c"), lambda: Provenance("a", creator_name="b"),
                lambda: Manifestation(R73), lambda: Not(LEFT, operator="x")):
        with pytest.raises(TypeError):
            bad()


def test_checks_refuse_at_construction():
    with pytest.raises(ValueError, match="^duplicate variable names in schema$"):
        Schema((("a", NUMBER), ("a", NUMBER)))
    with pytest.raises(ValueError, match=r"^identifying variables not in schema: \['b'\]$"):
        Schema((("a", NUMBER),), identifying=("b",))
    with pytest.raises(ValueError, match=f"^expected {len(PARAMETER_NAMES)} parameters$"):
        SpatioTemporalParams(values=(1.0,))
    params = SpatioTemporalParams(tuple(map(float, range(len(PARAMETER_NAMES)))))
    assert params["cadence"] == params.values[PARAMETER_NAMES.index("cadence")]
