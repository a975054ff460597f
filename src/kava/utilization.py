"""Translate concepts and manifestations into declarative visualization
spec fragments (Vega-Lite flavored, validated against a packaged schema)."""

from __future__ import annotations

import functools
import json
from itertools import groupby
from importlib import resources
from typing import TYPE_CHECKING

from .errors import (
    CyclicScheme,
    UnknownVariable,
    UnsupportedChannel,
    UnsupportedPredicateShape,
)
from .jsontext import _encode, _list_text, _row_list, _value_texts, fragment_text
from .manifestation import (
    IndirectQueryMapping,
    IndirectVariableMapping,
    Manifestation,
    record_mask,
)
from .predicate import Comparison, parse_predicate
from .rdf import shrink
from .skos import ConceptScheme, has_broader_cycle

if TYPE_CHECKING:
    from .dataset import Dataset

# An array property whose schema is exactly this is checked element by
# element with is_type instead of through the validator.
_OBJECT_ARRAY = {"type": "array", "items": {"type": "object"}}
# Keywords that judge an object by its keys and through "properties" only, so
# swapping the value of a listed property for [] leaves their verdict alone.
_PLAIN_OBJECT_KEYWORDS = frozenset(
    {"$schema", "title", "description", "type", "required", "additionalProperties",
     "properties", "$defs"}
)


@functools.cache
def _schema() -> dict:
    return json.loads(resources.files("kava").joinpath("fragment_schema.json").read_text())


def channels() -> tuple[str, ...]:
    """Encoding channels a fragment may use, in the schema's order."""
    return tuple(_schema()["properties"]["encoding"]["properties"])


def _object_arrays(schema, path=()):
    """Key paths from the root to every array property that the schema asks
    only to hold objects, reached through plain object schemas."""
    if schema == _OBJECT_ARRAY:
        yield path
    elif isinstance(schema, dict) and schema.keys() <= _PLAIN_OBJECT_KEYWORDS:
        for key, sub in schema.get("properties", {}).items():
            yield from _object_arrays(sub, path + (key,))


@functools.cache
def _validator():
    import jsonschema  # costs a tenth of a second; commands without fragments skip it

    schema = _schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema), tuple(_object_arrays(schema))


def _hold_out(value, path, is_type, held):
    """value with the array at the key path swapped for [] (the array is
    appended to held); value itself when there is no array at that path."""
    if not is_type(value, "object") or path[0] not in value:
        return value
    sub = value[path[0]]
    if len(path) > 1:
        new = _hold_out(sub, path[1:], is_type, held)
        if new is sub:
            return value
    elif is_type(sub, "array"):
        held.append(sub)
        new = []
    else:
        return value
    return {**value, path[0]: new}


def validate_fragment(doc: dict) -> None:
    """Raise jsonschema.ValidationError if the fragment is malformed.

    Arrays whose schema is exactly {"type": "array", "items": {"type":
    "object"}} (data.values, diagnostics) are held out: the validator runs on
    the document with each of them replaced by [], and their elements are
    checked with the validator's own is_type(x, "object"), once per distinct
    element type: that check reads the type alone. The paths are read from
    the schema when the validator is built. If either check fails, the
    whole document is validated and the best_match error is raised, so every
    verdict and message is that of a full validation.
    """
    validator, paths = _validator()
    held = []
    skeleton = doc
    for path in paths:
        skeleton = _hold_out(skeleton, path, validator.is_type, held)
    one_per_type = {type(x): x for rows in held for x in rows}.values()
    if validator.is_valid(skeleton) and all(
        validator.is_type(x, "object") for x in one_per_type
    ):
        return
    from jsonschema.exceptions import best_match

    error = best_match(validator.iter_errors(doc))
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
        broader = sorted(b for b in c.broader if b in scheme.concepts)
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


def encoded_marks_spec(dataset, manifestations, channel="color", prefixes=None) -> dict:
    """encoded_marks_text's fragment, parsed: fresh dicts, each NaN a new float."""
    return json.loads(encoded_marks_text(dataset, manifestations, channel, prefixes))


def encoded_marks_text(
    dataset: Dataset, manifestations: list[Manifestation], channel: str = "color", prefixes=None
) -> str:
    """Per-record categorical concept field bound to an encoding channel,
    as the fragment's text: json.dumps(fragment, indent=2, ensure_ascii=False).

    A record's concept is that of the first manifestation, in list order,
    that matches a record with an equal identifier; overlaps are reported
    in the fragment's diagnostics. The concepts are worked out once per
    match pattern: the set of manifestations an identifier is matched by.
    The rows are written from the dictionary-encoded columns: each distinct
    value, identifier and match pattern is encoded once.
    """
    import numpy as np  # here, so that graph-only commands never load numpy

    if channel not in channels():
        raise UnsupportedChannel(
            f"unsupported channel {channel!r}; expected one of: {', '.join(channels())}"
        )
    prefixes = prefixes or {}
    idents = dataset.identifier_column
    # bit j of an identifier code's row: manifestation j matches a record
    # with an equal identifier
    width = max(1, -(-len(manifestations) // 8))
    bits = np.zeros((len(idents.values), width), dtype=np.uint8)
    concept_texts = []  # as JSON strings
    for j, m in enumerate(manifestations):
        bits[dataset.identifier_hits(record_mask(m, dataset)), j >> 3] |= 0x80 >> (j & 7)
        concept_texts.append(_encode(_concept_name(m.concept, prefixes)))
    patterns, pattern_of = np.unique(
        bits.view(np.dtype((np.void, width))).ravel(), return_inverse=True
    )
    # the concepts of each pattern's manifestations, pattern by pattern
    at, js = np.nonzero(np.unpackbits(patterns.view(np.uint8).reshape(-1, width), axis=1))
    bounds = np.searchsorted(at, np.arange(len(patterns) + 1)).tolist()
    concepts = list(map(concept_texts.__getitem__, js.tolist()))
    firsts, distinct = [], []  # per pattern
    for lo, hi in zip(bounds, bounds[1:]):
        firsts.append('"concept": ' + (concepts[lo] if hi > lo else '"none"'))
        distinct.append(list(dict.fromkeys(concepts[lo:hi])))
    record_pattern = pattern_of[idents.codes]
    overlapping = np.array([len(d) > 1 for d in distinct], dtype=bool)[record_pattern]
    doc = {
        "kind": "encodedMarks",
        "mark": "point",
        "data": {"values": []},
        "encoding": {channel: {"field": "concept", "type": "nominal"}},
        "diagnostics": [],
    }
    validate_fragment(doc)  # held-out rows need only be objects, as all of these are

    def values(newline):
        columns = {  # a data column named concept keeps its place
            name: np.array(_value_texts(name, c.values, newline + "    "), object)[c.codes]
            for name, c in dataset.columns.items()
        }
        columns["concept"] = np.array(firsts, object)[record_pattern]
        return _row_list(list(columns.values()), newline)

    def diagnostics(newline):
        field = newline + "    "
        records = np.array(_value_texts("record", list(map(str, idents.values)), field), object)
        lists = np.array(['"concepts": ' + _list_text(d, field) for d in distinct], object)
        rows = [records[idents.codes[overlapping]], lists[record_pattern[overlapping]]]
        return _row_list(rows, newline)

    return fragment_text({**doc, "data": {"values": values}, "diagnostics": diagnostics})


def _runs(ordered_flags):
    """Maximal runs of consecutive truthy entries, as (start, end) index pairs."""
    runs, start = [], 0
    for flag, group in groupby(map(bool, ordered_flags)):
        end = start + len(list(group))
        if flag:
            runs.append((start, end - 1))
        start = end
    return runs


def aggregate_mark_spec(
    dataset: Dataset, m: Manifestation, time_variable: str
) -> dict:
    """One rule-mark layer per maximal run of consecutive matching records
    in time order, spanning [first, last] time of the run. Records with no
    time value are listed last and are in no run."""
    if time_variable not in set(dataset.schema.names()):
        raise UnknownVariable(time_variable)
    if dataset.schema.kind(time_variable) != "number":
        raise UnknownVariable(f"{time_variable} is not numeric")
    idents = dataset.identifier_column
    hits = dataset.identifier_hits(record_mask(m, dataset))[idents.codes].tolist()
    times = dataset.columns[time_variable].decode()
    codes = idents.codes.tolist()
    ordered = sorted(range(len(times)), key=lambda i: (times[i] is None, times[i]))
    flags = [hits[i] for i in ordered]
    runs = _runs([f and times[i] is not None for i, f in zip(ordered, flags)])
    layers = [
        {"mark": "rule", "encoding": {"x": {"datum": times[ordered[start]]},
                                      "x2": {"datum": times[ordered[end]]}}}
        for start, end in runs
    ]
    values = [
        {"id": str(idents.values[codes[i]]), "t": times[i], "matched": "yes" if f else "no"}
        for i, f in zip(ordered, flags)
    ]
    doc = {"kind": "aggregateMark", "layer": layers, "data": {"values": values}}
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
