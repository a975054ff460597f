"""The column-encoded evaluators and loader against per-record references.

``evaluate_manifestation``, ``filter_records``, ``encoded_marks_spec`` and
``aggregate_mark_spec`` work on dictionary-encoded columns. The reference
below walks the records one by one, as the evaluators did before the
columns existed, and must agree with them on every generated dataset:
results, the types and signs of the values written out, and errors.
``load_csv`` and the CLI's schema inference parse each distinct cell text
once, straight into columns; their reference reads the CSV row by row.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kava import predicate
from kava.cli import _infer_schema
from kava.dataset import (
    NUMBER,
    STRING,
    Dataset,
    Record,
    Schema,
    _encode,
    filter_records,
    load_csv,
    write_csv,
)
from kava.errors import (
    CsvTypeError,
    DuplicateIdentifier,
    ForeignDialect,
    HeaderMismatch,
    KavaError,
    UnknownVariable,
)
from kava.manifestation import (
    DirectMapping,
    IndirectQueryMapping,
    IndirectVariableMapping,
    Manifestation,
    evaluate_manifestation,
)
from kava.predicate import And, Comparison, Not, Or, parse_predicate, to_text
from kava.rdf import Iri
from kava.utilization import (
    _concept_name,
    _runs,
    aggregate_mark_spec,
    encoded_marks_spec,
    validate_fragment,
)
from test_predicate import oracle_eval

BIG = 2**53 + 1  # not a float64
LONG_INT = "9" * 5000  # digits that float() reads and int() refuses


# --- per-record reference -----------------------------------------------


def ref_evaluate(m, dataset):
    known = set(dataset.schema.names())
    kind = m.kind
    if isinstance(kind, DirectMapping):
        for var, _ in kind.bindings:
            if var not in known:
                raise UnknownVariable(str(var))
        return {
            r.identifier(dataset.schema)
            for r in dataset.records
            if all(r.as_dict().get(var) == value for var, value in kind.bindings)
        }
    if isinstance(kind, IndirectVariableMapping):
        name = kind.variable_name()
        if name not in known:
            raise UnknownVariable(name)
        out = set()
        for r in dataset.records:
            v = r.as_dict().get(name)
            if v is None or isinstance(v, str):
                continue
            if kind.min_value is not None and v < kind.min_value:
                continue
            if kind.max_value is not None and v > kind.max_value:
                continue
            out.add(r.identifier(dataset.schema))
        return out
    if kind.dialect != "kava-predicate":
        raise ForeignDialect(kind.dialect)
    pred = parse_predicate(kind.query_text)
    return {
        r.identifier(dataset.schema) for r in dataset.records if oracle_eval(pred, r.as_dict())
    }


def ref_filter(dataset, pred):
    kept = [r for r in dataset.records if oracle_eval(pred, r.as_dict())]
    ids = {r.identifier(dataset.schema) for r in kept} if dataset.schema.identifying else set()
    return kept, {k: v for k, v in dataset.series.items() if k in ids}


def ref_marks(dataset, manifestations):
    matched_by = {}
    for m in manifestations:
        for i in ref_evaluate(m, dataset):
            matched_by.setdefault(i, []).append(_concept_name(m.concept, {}))
    values, diagnostics = [], []
    for r in dataset.records:
        ident = r.identifier(dataset.schema)
        concepts = matched_by.get(ident, [])
        row = dict(r.values)
        row["concept"] = concepts[0] if concepts else "none"
        values.append(row)
        distinct = []
        for c in concepts:
            if c not in distinct:
                distinct.append(c)
        if len(distinct) > 1:
            diagnostics.append({"record": str(ident), "concepts": distinct})
    doc = {
        "kind": "encodedMarks",
        "mark": "point",
        "data": {"values": values},
        "encoding": {"color": {"field": "concept", "type": "nominal"}},
        "diagnostics": diagnostics,
    }
    validate_fragment(doc)
    return doc


def ref_aggregate(dataset, m, time_variable):
    matched = ref_evaluate(m, dataset)
    ordered = sorted(
        dataset.records,
        key=lambda r: (r.get(time_variable) is None, r.get(time_variable)),
    )
    flags = [r.identifier(dataset.schema) in matched for r in ordered]
    timed = [r.get(time_variable) is not None for r in ordered]
    layers = [
        {
            "mark": "rule",
            "encoding": {
                "x": {"datum": ordered[a].get(time_variable)},
                "x2": {"datum": ordered[b].get(time_variable)},
            },
        }
        for a, b in _runs([f and has_time for f, has_time in zip(flags, timed)])
    ]
    doc = {
        "kind": "aggregateMark",
        "layer": layers,
        "data": {
            "values": [
                {
                    "id": str(r.identifier(dataset.schema)),
                    "t": r.get(time_variable),
                    "matched": "yes" if f else "no",
                }
                for r, f in zip(ordered, flags)
            ]
        },
    }
    validate_fragment(doc)
    return doc


def ref_parse_cell(raw, kind):
    if raw == "" or raw is None:
        return None
    if kind == NUMBER:
        try:
            return int(raw) if raw.lstrip("-").isdigit() else float(raw)
        except ValueError:  # int() reads at most 4,300 digits; float() reads more
            return float(raw)
    return raw


def ref_load_csv(text, schema):
    """load_csv as a row-by-row read: the records, and each variable's
    values in record order (a missing cell is None)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise HeaderMismatch("missing header row")
    header = rows[0]
    names = schema.names()
    if sorted(header) != sorted(names):
        raise HeaderMismatch(f"header {header} does not match schema variables {names}")
    records, seen_ids = [], set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not any(row):
            continue
        values = []
        for name in names:  # the first bad cell of the row, in schema order
            pos = header.index(name)
            raw = row[pos] if pos < len(row) else None
            try:
                values.append((name, ref_parse_cell(raw, schema.kind(name))))
            except ValueError:
                raise CsvTypeError(row_no, name, f"not a number: {raw!r}") from None
        record = Record(tuple(values))
        if schema.identifying:
            ident = record.identifier(schema)
            if ident is None or (isinstance(ident, tuple) and None in ident):
                raise CsvTypeError(row_no, schema.identifying[0], "missing identifier")
            if ident in seen_ids:
                raise DuplicateIdentifier(f"row {row_no}: {ident!r}")
            seen_ids.add(ident)
        records.append(record)
    return records


def ref_infer_schema(rows, id_var):
    """The CLI's schema inference, one float() per non-empty cell."""
    if not rows:
        raise KavaError("empty CSV file")
    header = rows[0]

    def numeric(col):
        cells = [r[col] for r in rows[1:] if col < len(r) and r[col] != ""]
        if not cells:
            return False
        try:
            for c in cells:
                float(c)
            return True
        except ValueError:
            return False

    variables = tuple((name, NUMBER if numeric(i) else STRING) for i, name in enumerate(header))
    return Schema(variables=variables, identifying=(id_var or header[0],))


# --- generators -----------------------------------------------------------

# Values whose comparisons a float64 kernel would get wrong: ints past 2**53,
# 1 / 1.0 / True, -0.0, NaN (a new object per draw), infinities, missing
# cells and strings inside NUMBER columns.
VALUES = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, False, -0.0, 0.0, 2, 2.5, BIG, BIG - 1,
                     float(BIG - 1), float("inf"), float("-inf"), "a", "b", "1", ""]),
    st.builds(float, st.just("nan")),
    st.integers(-3, 3),
)
CONSTANTS = st.sampled_from([0, 1, 2, -1, BIG, BIG - 1, 1.0, 2.5, -0.0, "a", "1", ""])
OPS = st.sampled_from([">", ">=", "<", "<=", "=", "!="])
NAMES = ("id", "k", "v", "s")


@st.composite
def datasets(draw):
    kinds = (NUMBER, NUMBER, NUMBER, STRING)
    schema = Schema(
        variables=tuple(zip(NAMES, kinds)),
        identifying=draw(st.sampled_from([("id",), (), ("id", "k"), ("k",)])),
    )
    n = draw(st.integers(0, 12))
    pool = draw(st.lists(VALUES, min_size=1, max_size=6))  # repeats make duplicates
    records = [
        Record(tuple((name, draw(st.sampled_from(pool) | VALUES)) for name in NAMES))
        for _ in range(n)
    ]
    dataset = Dataset(schema, records)
    if records and schema.identifying:
        # a series per identifier of some records; unhashable ids never occur
        ids = [r.identifier(schema) for r in records]
        dataset.series = {i: f"series {k}" for k, i in enumerate(ids[: draw(st.integers(0, n))])}
    return dataset


def predicates(depth=2, names=NAMES):
    leaf = st.builds(Comparison, st.sampled_from(names), OPS, CONSTANTS)
    if depth == 0:
        return leaf
    sub = predicates(depth - 1, names)
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
    )


BOUNDS = st.one_of(st.none(), st.sampled_from([0, 1, 1.0, -0.0, 2, BIG, float("inf")]))
KINDS = st.one_of(
    st.builds(
        DirectMapping,
        st.lists(st.tuples(st.sampled_from(NAMES), VALUES), min_size=0, max_size=2).map(tuple),
    ),
    st.builds(IndirectVariableMapping, st.sampled_from(NAMES), BOUNDS, BOUNDS),
    predicates().map(lambda p: IndirectQueryMapping(to_text(p))),
)
MANIFESTATIONS = st.lists(
    st.builds(Manifestation, st.sampled_from([Iri("urn:c:a"), Iri("urn:c:b")]), KINDS),
    max_size=4,
)


def outcome(fn, *args):
    """Result, or the error's type and message, for comparing two paths."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # both paths must fail alike
        return ("error", type(exc).__name__, str(exc))


def exact(result):
    """Text that tells 1 / 1.0 / True and 0.0 / -0.0 apart."""
    if result[0] != "ok":
        return result
    value = result[1]
    if isinstance(value, set):
        return sorted(map(repr, value))
    return json.dumps(value)


# --- properties -------------------------------------------------------------


# Equal identifiers 1 and 1.0: the set keeps the first matched one, 1.0,
# although 1 appears first in the dataset.
_FIRST_MATCHED = Dataset(
    Schema(variables=(("id", NUMBER), ("v", NUMBER)), identifying=("id",)),
    [Record((("id", i), ("v", v))) for i, v in ((1, 0), (1.0, 5), (1, 5))],
)


@settings(max_examples=200, deadline=None)
@given(datasets(), MANIFESTATIONS)
@example(_FIRST_MATCHED, [Manifestation(Iri("urn:c:a"), IndirectQueryMapping("[v] > 1"))])
def test_evaluate_and_marks_match_per_record_reference(dataset, manifestations):
    for m in manifestations:
        got = outcome(evaluate_manifestation, m, dataset)
        want = outcome(ref_evaluate, m, dataset)
        assert got == want
        assert exact(got) == exact(want)
    got = outcome(encoded_marks_spec, dataset, manifestations)
    want = outcome(ref_marks, dataset, manifestations)
    assert exact(got) == exact(want)


@settings(max_examples=200, deadline=None)
@given(datasets(), MANIFESTATIONS, st.sampled_from(["k", "v"]))
def test_aggregate_matches_per_record_reference(dataset, manifestations, time_variable):
    for m in manifestations:
        got = outcome(aggregate_mark_spec, dataset, m, time_variable)
        want = outcome(ref_aggregate, dataset, m, time_variable)
        assert exact(got) == exact(want)


@settings(max_examples=200, deadline=None)
@given(datasets(), predicates())
def test_filter_matches_per_record_reference(dataset, pred):
    out = filter_records(dataset, pred)
    kept, series = ref_filter(dataset, pred)
    assert [id(r) for r in out.records] == [id(r) for r in kept]
    assert out.series == series
    assert len(out) == len(kept)
    assert columns_form(out) == canonical_form(out)


def typed(values):
    """Values as text that tells 1 / 1.0 / True, 0.0 / -0.0 and "1" / 1
    apart, and finds two NaN equal."""
    return [(type(v).__name__, repr(v)) for v in values]


def columns_form(dataset):
    return {name: (typed(c.values), c.codes.tolist()) for name, c in dataset.columns.items()}


def canonical_form(dataset):
    """columns_form of the columns _encode builds from the records."""
    rows = [r.as_dict() for r in dataset.records]
    return columns_form(Dataset.from_columns(
        dataset.schema,
        {name: _encode([row.get(name) for row in rows]) for name in dataset.schema.names()},
        len(rows),
    ))


def test_loaded_columns_equal_columns_built_from_records():
    schema = Schema(
        variables=(("id", NUMBER), ("v", NUMBER), ("s", STRING)), identifying=("id",)
    )
    text = "id,v,s\n1,nan,a\n2,-0.0,\n3,0,a\n4,1.0,b\n5,nan,a\n6,,b\n7,9007199254740993,a\n"
    loaded = load_csv(text, schema)
    rebuilt = Dataset(schema, loaded.records)
    for name in schema.names():
        a, b = loaded.columns[name], rebuilt.columns[name]
        assert list(map(repr, a.values)) == list(map(repr, b.values))
        assert a.codes.tolist() == b.codes.tolist()
    # each NaN cell is its own value, as each was parsed on its own
    assert len(loaded.columns["v"].values) == 7
    # a filtered dataset's columns hold only the values its records use
    kept = filter_records(load_csv(text, schema), parse_predicate('[s] = "a" AND [id] > 1'))
    assert typed(kept.columns["v"].values) == typed([0, float("nan"), 2**53 + 1])
    assert [r.get("id") for r in kept.records] == [3, 5, 7]
    assert columns_form(kept) == canonical_form(kept)
    assert columns_form(loaded) == canonical_form(loaded)


def test_compare_runs_once_per_distinct_value(monkeypatch):
    calls = []
    original = predicate._compare

    def counting(value, op, constant):
        calls.append(value)
        return original(value, op, constant)

    monkeypatch.setattr(predicate, "_compare", counting)
    schema = Schema(variables=(("id", NUMBER), ("v", NUMBER)), identifying=("id",))
    cycle = [7, None, 2.5]
    dataset = Dataset(
        schema, [Record((("id", i), ("v", cycle[i % 3]))) for i in range(10_000)]
    )
    pred = parse_predicate("[v] > 1 AND NOT [v] = 7")
    kept = filter_records(dataset, pred)
    assert len(calls) <= 2 * 3
    assert [r.get("v") for r in kept.records[:2]] == [2.5, 2.5]
    calls.clear()
    m = Manifestation(Iri("urn:c:a"), IndirectQueryMapping("[v] != 2.5"))
    assert len(evaluate_manifestation(m, dataset)) == 3334
    assert len(calls) <= 3


def test_column_masks_are_numpy_booleans():
    schema = Schema(variables=(("id", NUMBER),), identifying=("id",))
    dataset = Dataset(schema, [Record((("id", i),)) for i in (3, 1, 3)])
    column = dataset.columns["id"]
    assert column.values == (3, 1)
    assert column.codes.tolist() == [0, 1, 0]
    assert column.equal(3).dtype == np.bool_
    with pytest.raises(ValueError):
        column.codes[0] = 1  # read-only


# --- loader against the row-by-row reference ------------------------------

# Cell texts a row-wise read tells apart or merges: ints and floats that
# print alike, signs, text float() accepts but int() does not, digits that
# are not numbers, NaN (one value per cell), 2**53 + 1, and quoted cells.
CELL_TEXTS = ["1", "01", "1.0", "1.00", "-0", "-0.0", "0", "0.0", "+5", " 5", "5", "5_0",
              "\u00b2", "--5", "-", "nan", "NaN", "inf", "-inf", str(BIG), str(BIG - 1),
              "a", "b", "", '"1"', '"a,b"', '""', '" 7"']
# numbers only, so that more generated files load
NUMBER_TEXTS = ["1", "01", "1.0", "1.00", "-0", "-0.0", "0", "0.0", "+5", " 5", "5", "5_0",
                "nan", "inf", str(BIG), str(BIG - 1), "2", "3", "-7", "2.5", '"4"']
LOADER_NAMES = ("id", "k", "s")
LOADER_SCHEMAS = [
    Schema((("id", NUMBER), ("k", NUMBER), ("s", STRING)), identifying)
    for identifying in [("id",), ("id", "k"), (), ("s",), ("k",)]
]


@st.composite
def csv_texts(draw):
    """CSV text over the columns id, k and s: a header (mostly the schema's
    names in some order), then rows drawn from one small pool of cells, so
    that identifiers repeat, with short, long and blank rows now and then."""
    header = list(draw(st.permutations(LOADER_NAMES)))
    shape = draw(st.sampled_from(["plain", "plain", "plain", "ragged", "header"]))
    if shape == "header":
        header = draw(st.sampled_from(
            [header, header[:2], header + ["x"], ["id", "k", "k"], ["id", "id", "s"], []]
        ))
    alphabet = st.sampled_from(draw(st.sampled_from([CELL_TEXTS, NUMBER_TEXTS])))
    pool = draw(st.lists(alphabet, min_size=1, max_size=5))
    cell = st.sampled_from(pool) | alphabet
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        width = len(header)
        if shape == "ragged":
            width = draw(st.sampled_from([width, width, 0, 1, width - 1, width + 1]))
        lines.append(",".join(draw(cell) for _ in range(max(width, 0))))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def typed_records(records):
    return [[(name, typed([v])[0]) for name, v in r.values] for r in records]


def load_outcome(load, text, schema):
    try:
        return ("ok", load(text, schema))
    except Exception as exc:  # both paths must fail alike
        return ("error", type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None)
@given(csv_texts(), st.sampled_from(LOADER_SCHEMAS), predicates(1, LOADER_NAMES))
@example("id,k,s\n1,1,a\n01,1.0,b\n1.0,1.00,a\n", LOADER_SCHEMAS[1], Comparison("k", "=", 1))
@example("id,k,s\n1,1,a\n2,01,b\n3,1.0,a\n4,1.00,b\n", LOADER_SCHEMAS[0], Comparison("k", "=", 1))
@example("id,k,s\n-0,nan,a\n-0.0,nan,\n", LOADER_SCHEMAS[0], Comparison("k", "!=", 1))
@example("id,k,s\n1,x,a\n1,2,b\n", LOADER_SCHEMAS[0], Comparison("k", ">", 0))
@example("id,k,s\n1,2,a\n1,x,b\n", LOADER_SCHEMAS[0], Comparison("k", ">", 0))
@example("id,k,s\n2,\u00b2,--5\n,1,\n", LOADER_SCHEMAS[2], Comparison("id", "<", 3))
@example("id,k,s\n", LOADER_SCHEMAS[0], Comparison("id", "=", 1))
@example(f"id,k,s\n1,{LONG_INT},a\n2,-{LONG_INT},b\n", LOADER_SCHEMAS[0], Comparison("k", ">", 0))
def test_load_csv_matches_row_reference(text, schema, pred):
    got = load_outcome(load_csv, text, schema)
    want = load_outcome(ref_load_csv, text, schema)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    loaded, records = got[1], want[1]
    assert len(loaded) == len(records)
    assert typed_records(loaded.records) == typed_records(records)
    # the columns are those _encode builds from the records, in either form
    assert columns_form(loaded) == canonical_form(Dataset(schema, records))
    assert columns_form(loaded) == canonical_form(loaded)
    rows = list(csv.reader(io.StringIO(text)))
    assert columns_form(load_csv(rows, schema)) == columns_form(loaded)
    assert write_csv(loaded) == write_csv(Dataset(schema, records))
    kept = filter_records(loaded, pred)
    want_kept = ref_filter(Dataset(schema, records), pred)[0]
    assert typed_records(kept.records) == typed_records(want_kept)
    assert columns_form(kept) == canonical_form(kept)


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.sampled_from([None, "id", "k", "s", "x"]))
@example("id,k\n1,\u00b2\n2,5_0\n", None)
@example("id,k\n1, 5\n,\n3\n", "k")
@example("\nid,k\n1,2\n", None)
@example(f"id,k\n1,{LONG_INT}\n2,3\n", None)
def test_infer_schema_matches_row_reference(text, id_var):
    rows = list(csv.reader(io.StringIO(text)))
    got = load_outcome(_infer_schema, rows, id_var)
    want = load_outcome(ref_infer_schema, rows, id_var)
    if want[:2] == ("error", "ValueError"):
        # a repeated header name or an --id-var not in the header; the
        # reference crashes on them, the CLI reports an input error
        assert got[:2] in {("error", "HeaderMismatch"), ("error", "UnknownVariable")}
    elif want[:2] == ("error", "IndexError"):
        # a blank header line and no --id-var: the reference crashes, the
        # CLI reports an input error
        assert got == ("error", "HeaderMismatch", "the header row is blank")
    else:
        assert got == want
    if got[0] == "ok":
        # a column typed NUMBER loads: each of its cells is a number
        loaded = load_outcome(load_csv, rows, got[1])
        assert loaded[0] == "ok" or "not a number" not in loaded[2], loaded
