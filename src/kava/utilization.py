"""Translate concepts and manifestations into declarative visualization
spec fragments (Vega-Lite flavored, validated against a packaged schema)."""

from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema

from .dataset import Dataset
from .errors import CyclicScheme, UnknownVariable, UnsupportedPredicateShape
from .manifestation import (
    IndirectQueryMapping,
    IndirectVariableMapping,
    Manifestation,
    evaluate_manifestation,
)
from .predicate import Comparison, parse_predicate
from .rdf import shrink
from .skos import ConceptScheme, has_broader_cycle


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    text = resources.files("kava").joinpath("fragment_schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def validate_fragment(doc: dict) -> None:
    """Raise jsonschema.ValidationError if the fragment is malformed."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error


def _concept_name(iri, prefixes):
    pname = shrink(iri, prefixes)
    return pname if pname is not None else iri.value


def concept_tree_spec(
    scheme: ConceptScheme, frequencies: dict | None = None, prefixes=None
) -> dict:
    """Tree fragment: one node per concept, parent links from broader edges,
    optional size channel bound to concept frequency."""
    if has_broader_cycle(scheme):
        raise CyclicScheme(str(scheme.id))
    prefixes = prefixes or {}
    nodes = []
    edges = []
    for cid in scheme.sorted_ids():
        c = scheme.concepts[cid]
        name = _concept_name(cid, prefixes)
        broader = sorted(
            (b for b in c.broader if b in scheme.concepts), key=str
        )
        node = {
            "id": name,
            "label": c.pref_label,
            "parent": _concept_name(broader[0], prefixes) if broader else None,
        }
        if frequencies:
            node["frequency"] = frequencies.get(cid, 0)
        nodes.append(node)
        for b in broader:
            edges.append({"source": name, "target": _concept_name(b, prefixes)})
    doc = {
        "kind": "conceptTree",
        "mark": "point",
        "data": {"name": "concepts", "values": nodes},
        "edges": edges,
        "encoding": {"color": {"field": "label", "type": "nominal"}},
    }
    if frequencies:
        doc["encoding"]["size"] = {"field": "frequency", "type": "quantitative"}
    validate_fragment(doc)
    return doc


def encoded_marks_spec(
    dataset: Dataset,
    manifestations: list[Manifestation],
    channel: str = "color",
    prefixes=None,
) -> dict:
    """Per-record categorical concept field bound to an encoding channel.

    Ties are broken by manifestation list order; overlaps are reported in
    the fragment's diagnostics.
    """
    prefixes = prefixes or {}
    matched_by = {}
    for m in manifestations:
        ids = evaluate_manifestation(m, dataset)
        name = _concept_name(m.concept, prefixes)
        for i in ids:
            matched_by.setdefault(i, []).append(name)
    idents = dataset.identifier_column
    concepts_of = [matched_by.get(ident, []) for ident in idents.values]
    names = dataset.schema.names()
    columns = [dataset.columns[n].decode() for n in names]
    values = []
    diagnostics = []
    for i, code in enumerate(idents.codes.tolist()):
        row = {name: column[i] for name, column in zip(names, columns)}
        concepts = concepts_of[code]
        row["concept"] = concepts[0] if concepts else "none"
        values.append(row)
        distinct = list(dict.fromkeys(concepts))
        if len(distinct) > 1:
            diagnostics.append({"record": str(idents.values[code]), "concepts": distinct})
    doc = {
        "kind": "encodedMarks",
        "mark": "point",
        "data": {"values": values},
        "encoding": {channel: {"field": "concept", "type": "nominal"}},
        "diagnostics": diagnostics,
    }
    validate_fragment(doc)
    return doc


def _runs(ordered_flags):
    """Maximal runs of consecutive truthy entries; yields (start, end) index pairs."""
    runs = []
    start = None
    for i, flag in enumerate(ordered_flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(ordered_flags) - 1))
    return runs


def aggregate_mark_spec(
    dataset: Dataset, m: Manifestation, time_variable: str
) -> dict:
    """One rule-mark layer per maximal run of consecutive matching records
    in time order, spanning [first, last] time of the run."""
    if time_variable not in set(dataset.schema.names()):
        raise UnknownVariable(time_variable)
    if dataset.schema.kind(time_variable) != "number":
        raise UnknownVariable(f"{time_variable} is not numeric")
    matched = evaluate_manifestation(m, dataset)
    times = dataset.columns[time_variable].decode()
    idents = dataset.identifier_column
    hit = [ident in matched for ident in idents.values]
    codes = idents.codes.tolist()
    ordered = sorted(range(len(times)), key=lambda i: (times[i] is None, times[i]))
    flags = [hit[codes[i]] for i in ordered]
    layers = []
    for start, end in _runs(flags):
        t0 = times[ordered[start]]
        t1 = times[ordered[end]]
        layers.append(
            {
                "mark": "rule",
                "encoding": {"x": {"datum": t0}, "x2": {"datum": t1}},
            }
        )
    doc = {
        "kind": "aggregateMark",
        "layer": layers,
        "data": {
            "values": [
                {
                    "id": str(idents.values[codes[i]]),
                    "t": times[i],
                    "matched": "yes" if f else "no",
                }
                for i, f in zip(ordered, flags)
            ]
        },
    }
    validate_fragment(doc)
    return doc


def _bounds_from_query(kind: IndirectQueryMapping, axis_variable: str):
    pred = parse_predicate(kind.query_text)
    if not isinstance(pred, Comparison):
        raise UnsupportedPredicateShape(
            "threshold regions require a single comparison"
        )
    if pred.variable != axis_variable:
        raise UnknownVariable(pred.variable)
    if isinstance(pred.constant, str):
        raise UnsupportedPredicateShape("threshold bound must be numeric")
    v = pred.constant
    if pred.op in (">", ">="):
        return {"lower": {"value": v, "inclusive": pred.op == ">="}}
    if pred.op in ("<", "<="):
        return {"upper": {"value": v, "inclusive": pred.op == "<="}}
    if pred.op == "=":
        return {
            "lower": {"value": v, "inclusive": True},
            "upper": {"value": v, "inclusive": True},
        }
    raise UnsupportedPredicateShape(f"operator {pred.op!r} has no region form")


def threshold_region_spec(kind, axis_variable: str) -> dict:
    """Background region fragment for a single-variable bound."""
    if isinstance(kind, IndirectVariableMapping):
        if kind.variable_name() != axis_variable:
            raise UnknownVariable(kind.variable_name())
        region = {}
        if kind.min_value is not None:
            region["lower"] = {"value": kind.min_value, "inclusive": True}
        if kind.max_value is not None:
            region["upper"] = {"value": kind.max_value, "inclusive": True}
    elif isinstance(kind, IndirectQueryMapping):
        region = _bounds_from_query(kind, axis_variable)
    else:
        raise UnsupportedPredicateShape(f"no region form for {type(kind).__name__}")
    encoding = {}
    if "lower" in region:
        encoding["y"] = {"datum": region["lower"]["value"]}
    if "upper" in region:
        encoding["y2"] = {"datum": region["upper"]["value"]}
    warnings = []
    if (
        "lower" in region
        and "upper" in region
        and region["lower"]["value"] == region["upper"]["value"]
    ):
        warnings.append("degenerate zero-height band")
    doc = {
        "kind": "thresholdRegion",
        "mark": "rect",
        "axis": {"variable": axis_variable},
        "region": region,
        "encoding": encoding,
    }
    if warnings:
        doc["warnings"] = warnings
    validate_fragment(doc)
    return doc
