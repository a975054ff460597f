"""Translate concepts and manifestations into declarative visualization
spec fragments (Vega-Lite flavored, validated against a packaged schema)."""

from __future__ import annotations

import functools
import json
from itertools import compress, groupby, repeat
from importlib import resources
from numbers import Number
from typing import TYPE_CHECKING

from .errors import (
    CyclicScheme,
    FragmentError,
    UnknownVariable,
    UnsupportedChannel,
    UnsupportedPredicateShape,
)
from .jsontext import _encode, _list_text, _row_list, _value_texts, fragment_text
from .manifestation import (
    DirectMapping,
    IndirectVariableMapping,
    Kind,
    Manifestation,
    kind_predicate,
    record_mask,
)
from .predicate import And, Comparison
from .rdf import shrink
from .skos import ConceptScheme, has_broader_cycle

if TYPE_CHECKING:
    from .dataset import Dataset

# The keywords the compiled check reads, and metadata; compiling raises on any
# other keyword, so that a schema edit cannot quietly weaken the check.
_KEYWORDS = frozenset({"type", "enum", "required", "additionalProperties", "properties",
                       "items", "$ref", "$schema", "title", "description", "$defs"})
# jsonschema's Draft 2020-12 types; a bool is no number there
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": Number}
# each byte's set bits, lowest first, as bytes: the garbage collector tracks no bytes
_BITS = [bytes(b for b in range(8) if byte >> b & 1) for byte in range(256)]


@functools.cache
def _schema() -> dict:
    return json.loads(resources.files("kava").joinpath("fragment_schema.json").read_text())


def channels() -> tuple[str, ...]:
    """Encoding channels a fragment may use, in the schema's order."""
    return tuple(_schema()["properties"]["encoding"]["properties"])


def _compile(schema, resolve):
    """A function giving None for a value that meets schema, as Draft 2020-12
    judges it, or its first failure: (path, keyword, value), path the keys and
    indexes down to the value that fails keyword. The keywords are tried in
    the order below; resolve(ref) gives the compiled schema a $ref names."""
    if not schema.keys() <= _KEYWORDS:
        raise ValueError(f"unsupported schema keywords: {sorted(schema.keys() - _KEYWORDS)}")
    cls = _TYPES[schema["type"]] if "type" in schema else None
    enum = schema.get("enum")
    if enum is not None and not all(isinstance(e, str) for e in enum):
        raise ValueError(f"enum entries other than strings: {enum!r}")
    required = tuple(schema.get("required", ()))
    props = {k: _compile(sub, resolve) for k, sub in schema.get("properties", {}).items()}
    additional = schema.get("additionalProperties", True)
    if not isinstance(additional, bool):
        raise ValueError(f"additionalProperties must be a boolean: {additional!r}")
    keyed = bool(required or props or not additional)
    items = schema.get("items")  # rows of one type but number take one isinstance scan
    row = items and items.keys() == {"type"} and items["type"] != "number" and _TYPES[items["type"]]
    each = _compile(items, resolve) if items is not None and not row else None
    ref = resolve(schema["$ref"]) if "$ref" in schema else None

    def check(v):
        if cls and (not isinstance(v, cls) or cls is Number and isinstance(v, bool)):
            return (), "type", v
        if enum is not None and not (isinstance(v, str) and v in enum):
            return (), "enum", v
        if keyed and isinstance(v, dict):
            for k in required:
                if k not in v:
                    return (), "required", v
            if not (additional or v.keys() <= props.keys()):
                return (), "additionalProperties", v
            for k, x in v.items():
                if k in props and (f := props[k](x)):
                    return (k, *f[0]), f[1], f[2]
        if row and isinstance(v, list) and not all(map(isinstance, v, repeat(row))):
            i = next(i for i, x in enumerate(v) if not isinstance(x, row))
            return (i,), "type", v[i]
        if each and isinstance(v, list):
            for i, x in enumerate(v):
                if f := each(x):
                    return (i, *f[0]), f[1], f[2]
        return ref(v) if ref else None

    return check


@functools.cache
def _check():
    """The fragment schema, compiled; each $ref is resolved once."""

    @functools.cache
    def resolve(ref):
        target = {"#": _schema()}
        for key in ref.split("/"):
            target = target.get(key) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            raise ValueError(f"unresolvable $ref: {ref!r}")
        return _compile(target, resolve)

    return resolve("#")


def validate_fragment(doc: dict) -> None:
    """Raise FragmentError, naming the first value that fails and the keyword
    it fails, if the fragment does not meet the packaged schema. A check
    compiled once from the schema judges it."""
    if failure := _check()(doc):
        raise FragmentError(*failure)


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
    if channel not in channels():
        raise UnsupportedChannel(
            f"unsupported channel {channel!r}; expected one of: {', '.join(channels())}"
        )
    prefixes = prefixes or {}
    idents = dataset.identifier_column
    # Bit j of an identifier code's match pattern: manifestation j matches a
    # record with an equal identifier. Plane p, a mask over the codes, holds
    # bits 8p to 8p + 7; a code's bytes across the planes are its pattern's key.
    planes = [0] * max(1, -(-len(manifestations) // 8))
    concept_texts = []  # as JSON strings
    for j, m in enumerate(manifestations):
        planes[j >> 3] |= dataset.identifier_hits(record_mask(m, dataset)) << (j & 7)
        concept_texts.append(_encode(_concept_name(m.concept, prefixes)))
    keys = zip(*(plane.to_bytes(len(idents.values), "little") for plane in planes))
    numbers = {}  # pattern key -> its number, in order of first appearance
    pattern_of = list(map(numbers.setdefault, keys, map(len, repeat(numbers))))
    firsts, distinct = [], []  # per pattern
    for key in numbers:  # the set bits, lowest first
        concepts = [concept_texts[8 * p + b] for p, byte in enumerate(key) for b in _BITS[byte]]
        firsts.append('"concept": ' + (concepts[0] if concepts else '"none"'))
        distinct.append(list(dict.fromkeys(concepts)))
    record_pattern = list(map(pattern_of.__getitem__, idents.codes))
    overlapping = list(compress(range(len(record_pattern)),
                                map([len(d) > 1 for d in distinct].__getitem__, record_pattern)))
    doc = {
        "kind": "encodedMarks",
        "mark": "point",
        "data": {"values": []},
        "encoding": {channel: {"field": "concept", "type": "nominal"}},
        "diagnostics": [],
    }
    validate_fragment(doc)  # the rows written below are objects, all that the schema asks of them

    def values(newline):
        columns = {  # a data column named concept keeps its place
            name: map(_value_texts(name, c.values, newline + "    ").__getitem__, c.codes)
            for name, c in dataset.columns.items()
        }
        columns["concept"] = map(firsts.__getitem__, record_pattern)
        return _row_list(list(columns.values()), newline)

    def diagnostics(newline):
        field = newline + "    "
        records = _value_texts("record", list(map(str, idents.values)), field)
        lists = ['"concepts": ' + _list_text(d, field) for d in distinct]
        rows = [[records[idents.codes[i]] for i in overlapping],
                [lists[record_pattern[i]] for i in overlapping]]
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
    matched = dataset.matched_identifiers(record_mask(m, dataset))
    idents = dataset.identifiers()
    times = dataset.columns[time_variable].decode()
    ordered = sorted(range(len(times)), key=lambda i: (times[i] is None, times[i]))
    flags = [idents[i] in matched for i in ordered]
    runs = _runs([f and times[i] is not None for i, f in zip(ordered, flags)])
    layers = [
        {"mark": "rule", "encoding": {"x": {"datum": times[ordered[start]]},
                                      "x2": {"datum": times[ordered[end]]}}}
        for start, end in runs
    ]
    values = [
        {"id": str(idents[i]), "t": times[i], "matched": "yes" if f else "no"}
        for i, f in zip(ordered, flags)
    ]
    doc = {"kind": "aggregateMark", "layer": layers, "data": {"values": values}}
    validate_fragment(doc)
    return doc


# The sides of the region a comparison bounds, each with whether it holds its bound
_SIDES = {">": (("lower", False),), ">=": (("lower", True),), "<": (("upper", False),),
          "<=": (("upper", True),), "=": (("lower", True), ("upper", True))}


def threshold_region_spec(kind, axis_variable: str) -> dict:
    """Background region fragment for a single-variable bound: the region of a
    range's or a query's predicate (see manifestation.kind_predicate), its one
    or two ANDed bounds or the query's one comparison; ``!= nan``, a range
    without bounds, spans the axis. A direct mapping has no region form."""
    if isinstance(kind, DirectMapping) or not isinstance(kind, Kind):
        raise UnsupportedPredicateShape(f"no region form for {type(kind).__name__}")
    pred = kind_predicate(kind)
    ranged = isinstance(kind, IndirectVariableMapping) and isinstance(pred, And)
    region = {}
    for c in (pred.left, pred.right) if ranged else (pred,):
        if not isinstance(c, Comparison):
            raise UnsupportedPredicateShape("threshold regions require a single comparison")
        if c.variable != axis_variable:
            raise UnknownVariable(c.variable)
        if isinstance(c.constant, str):
            raise UnsupportedPredicateShape("threshold bound must be numeric")
        if c.op not in _SIDES and not (c.op == "!=" and c.constant != c.constant):
            raise UnsupportedPredicateShape(f"operator {c.op!r} has no region form")
        for side, inclusive in _SIDES.get(c.op, ()):
            region[side] = {"value": c.constant, "inclusive": inclusive}
    encoding = {channel: {"datum": region[side]["value"]}
                for side, channel in (("lower", "y"), ("upper", "y2")) if side in region}
    doc = {
        "kind": "thresholdRegion",
        "mark": "rect",
        "axis": {"variable": axis_variable},
        "region": region,
        "encoding": encoding,
    }
    if len(region) == 2 and region["lower"]["value"] == region["upper"]["value"]:
        doc["warnings"] = ["degenerate zero-height band"]
    validate_fragment(doc)
    return doc
