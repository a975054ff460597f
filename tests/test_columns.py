"""The column-encoded evaluators and loader against per-record references.

``evaluate_manifestation``, ``filter_records``, ``encoded_marks_spec`` and
``aggregate_mark_spec`` work on dictionary-encoded columns. The reference
below walks the records one by one, as the evaluators did before the
columns existed, and must agree with them on every generated dataset:
results, the types and signs of the values written out, and errors.
``encoded_marks_text`` writes the marks fragment from the columns and must
equal the reference document's ``json.dumps(indent=2)`` byte for byte.
``load_csv`` parses each distinct cell text once, straight into columns,
and decides there the kinds the CLI's schema inference leaves to it; its
reference reads the CSV row by row.
"""

import csv
import io
import json
import random
from array import array
from itertools import compress, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kava import predicate
from kava import dataset as dataset_module
from kava.cli import _infer_schema, read_table
from kava.dataset import (
    INFER,
    NUMBER,
    STRING,
    Dataset,
    Record,
    Schema,
    _encode,
    _parse_column,
    filter_records,
    load_csv,
    write_csv,
)
from kava.errors import (
    CsvSyntaxError,
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
from kava.predicate import (
    And,
    Comparison,
    Not,
    Or,
    all_records,
    compile_mask,
    parse_predicate,
    to_text,
    variables,
)
from kava.rdf import Iri
from kava.utilization import (
    _concept_name,
    _runs,
    aggregate_mark_spec,
    encoded_marks_spec,
    encoded_marks_text,
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
            if kind.min_value is not None and not kind.min_value <= v:
                continue
            if kind.max_value is not None and not v <= kind.max_value:
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
    return [r for r in dataset.records if oracle_eval(pred, r.as_dict())]


def ref_write_csv(dataset: Dataset) -> str:
    """write_csv as it was when a dataset stored Record objects."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    names = dataset.schema.names()
    writer.writerow(names)
    for record in dataset.records:
        vals = record.as_dict()
        writer.writerow(["" if vals[n] is None else vals[n] for n in names])
    return out.getvalue()


def ref_filter_records(dataset: Dataset, predicate) -> Dataset:
    """filter_records as it was when a dataset stored Record objects."""
    known = set(dataset.schema.names())
    missing = variables(predicate) - known
    if missing:
        raise UnknownVariable(", ".join(sorted(missing)))
    mask = compile_mask(predicate)(dataset.columns)
    kept = list(compress(dataset.records, flags(mask, len(dataset))))
    return Dataset(schema=dataset.schema, records=kept)


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
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # text the reader refuses, at the line it reached
        raise CsvSyntaxError(f"line {reader.line_num}: {exc}") from None
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
    return Dataset(schema, records)


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
CONCEPTS = [Iri("urn:c:a"), Iri("urn:c:b"), Iri("urn:c:c")]
# Up to 12 manifestations, with examples of 0, 9 and 17 below: the marks
# export keeps one bit per manifestation, eight to a byte, so a match
# pattern spans one, two or three bytes.
MANIFESTATIONS = st.lists(st.builds(Manifestation, st.sampled_from(CONCEPTS), KINDS), max_size=12)


def flags(mask, length):
    """A mask's per-record flags. A mask is an int of one byte per record,
    each 0 or 1, and nothing past them."""
    assert type(mask) is int and mask >= 0
    selected = mask.to_bytes(length, "little")  # OverflowError past the records
    assert set(selected) <= {0, 1}
    return [b == 1 for b in selected]


def codes_list(codes):
    """A column's codes as a list: bytes for at most 256 values, else an
    array of the smallest unsigned type that holds them."""
    assert type(codes) in (bytes, array)
    return list(codes)


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


# Equal identifiers (1, 1.0, True; 0 and -0.0), NaN identifiers that are
# each their own, and records matched by several manifestations.
_NAN = float("nan")
_MANY_MATCHED = Dataset(
    Schema(variables=(("id", NUMBER), ("v", NUMBER), ("s", STRING)), identifying=("id",)),
    [
        Record((("id", i), ("v", v), ("s", t)))
        for i, v, t in (
            (1, 0, "a"), (2, 5, "b"), (1.0, 3, "a"), (True, 7, None), (_NAN, 2, "b"),
            (float("nan"), 2, "a"), (-0.0, 9, "b"), (0, 1, "a"), (3, None, None), (_NAN, 4, "b"),
        )
    ],
)


def _cycled(count):
    """count manifestations over three concepts, each concept repeated, with
    every kind among them."""
    kinds = [
        DirectMapping((("id", 1),)),
        IndirectQueryMapping("[v] >= 9"),
        IndirectVariableMapping("v", None, 4),
        IndirectQueryMapping('[s] = "b" OR [v] < 1'),
        DirectMapping((("s", "a"),)),
        IndirectVariableMapping("v", 2, None),
        IndirectQueryMapping("[v] > 1"),
    ]
    return [Manifestation(CONCEPTS[i % 3], kinds[i % len(kinds)]) for i in range(count)]


@settings(max_examples=200, deadline=None)
@given(datasets(), MANIFESTATIONS)
@example(_FIRST_MATCHED, [Manifestation(Iri("urn:c:a"), IndirectQueryMapping("[v] > 1"))])
@example(_MANY_MATCHED, _cycled(0))
@example(_MANY_MATCHED, _cycled(9))
@example(_MANY_MATCHED, _cycled(17))
# no binding matches every record, a binding to None the records without a
# value, and a range with neither bound every record that holds a number
@example(_MANY_MATCHED, [Manifestation(CONCEPTS[0], DirectMapping(())),
                         Manifestation(CONCEPTS[1], DirectMapping((("v", None), ("s", None)))),
                         Manifestation(CONCEPTS[2], IndirectVariableMapping("v"))])
def test_evaluate_and_marks_match_per_record_reference(dataset, manifestations):
    for m in manifestations:
        got = outcome(evaluate_manifestation, m, dataset)
        want = outcome(ref_evaluate, m, dataset)
        assert got == want
        assert exact(got) == exact(want)
    got = outcome(encoded_marks_spec, dataset, manifestations)
    want = outcome(ref_marks, dataset, manifestations)
    assert exact(got) == exact(want)


# A data column named concept: the row's concept field overwrites its cell
# in place, so the key keeps its position.
_CONCEPT_COLUMN = Dataset(
    Schema(
        variables=(("id", NUMBER), ("concept", STRING), ("v", NUMBER), ("s", STRING)),
        identifying=("id",),
    ),
    [
        Record((("id", i), ("concept", c), ("v", v), ("s", t)))
        for i, c, v, t in ((1, "x", 0, "a"), (2, None, 9, "b"), (3, "none", 2, None))
    ],
)

# Names, identifiers and cells that JSON escapes, or that str.splitlines()
# splits although JSON leaves them raw (U+2028), and a lone surrogate.
_ESCAPED = ['q"uote', "back\\slash", "tab\there", "line\u2028sep", "\u00e9", "lone\ud800"]
_ESCAPES = Dataset(
    Schema(
        variables=(("id", STRING), *((n, STRING) for n in _ESCAPED[1:]), (_ESCAPED[0], NUMBER)),
        identifying=("id",),
    ),
    [
        Record((("id", text), *((name, text + name) for name in _ESCAPED[1:]), (_ESCAPED[0], n)))
        for n, text in enumerate(_ESCAPED)
    ],
)
_ESCAPES_MATCHED = [
    Manifestation(CONCEPTS[0], IndirectQueryMapping(f"[{_ESCAPED[0]}] >= 2")),
    Manifestation(CONCEPTS[1], DirectMapping((("tab\there", "line\u2028septab\there"),))),
    Manifestation(CONCEPTS[2], IndirectQueryMapping('[\u00e9] != "x"')),
]


@settings(max_examples=200, deadline=None)
@given(datasets(), MANIFESTATIONS)
@example(_CONCEPT_COLUMN, _cycled(5))
@example(_ESCAPES, _ESCAPES_MATCHED)
@example(_MANY_MATCHED, _cycled(9))  # identifiers 1 / 1.0 / True, 0 / -0.0 and NaN
@example(Dataset(_MANY_MATCHED.schema, []), _cycled(3))  # header only
@example(_MANY_MATCHED, [])
def test_marks_text_is_the_reference_document_indented(dataset, manifestations):
    got = outcome(encoded_marks_text, dataset, manifestations)
    want = outcome(
        lambda: json.dumps(ref_marks(dataset, manifestations), indent=2, ensure_ascii=False)
    )
    assert got == want


@settings(max_examples=200, deadline=None)
@given(datasets(), MANIFESTATIONS, st.sampled_from(["k", "v"]))
def test_aggregate_matches_per_record_reference(dataset, manifestations, time_variable):
    for m in manifestations:
        got = outcome(aggregate_mark_spec, dataset, m, time_variable)
        want = outcome(ref_aggregate, dataset, m, time_variable)
        assert exact(got) == exact(want)


def test_aggregate_matches_reference_on_equal_identifiers():
    # a match on 0 must flag -0.0, the equal identifier listed before it
    for m in _cycled(7):
        got = outcome(aggregate_mark_spec, _MANY_MATCHED, m, "v")
        want = outcome(ref_aggregate, _MANY_MATCHED, m, "v")
        assert exact(got) == exact(want)


@settings(max_examples=200, deadline=None)
@given(datasets(), predicates())
def test_filter_matches_per_record_reference(dataset, pred):
    out = filter_records(dataset, pred)
    kept = ref_filter(dataset, pred)
    assert typed_records(out.records) == typed_records(kept)
    assert len(out) == len(kept)
    assert columns_form(out) == canonical_form(out)


@settings(max_examples=200, deadline=None)
@given(datasets(), predicates())
def test_column_writer_and_filter_match_record_versions(dataset, pred):
    assert write_csv(dataset) == ref_write_csv(dataset)
    got = outcome(filter_records, dataset, pred)
    want = outcome(ref_filter_records, dataset, pred)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got == want
        return
    out, ref = got[1], want[1]
    assert typed_records(out.records) == typed_records(ref.records)
    assert write_csv(out) == ref_write_csv(ref)
    assert columns_form(out) == columns_form(ref)


def test_write_csv_leaves_a_missing_variable_empty():
    schema = Schema(variables=(("id", NUMBER), ("v", NUMBER), ("s", STRING)), identifying=("id",))
    dataset = Dataset(schema, [Record((("id", 1), ("s", "a"))), Record((("id", 2), ("v", 3)))])
    assert write_csv(dataset) == "id,v,s\n1,,a\n2,3,\n"
    assert [r.get("v") for r in dataset.records] == [None, 3]


def typed(values):
    """Values as text that tells 1 / 1.0 / True, 0.0 / -0.0 and "1" / 1
    apart, and finds two NaN equal."""
    return [(type(v).__name__, repr(v)) for v in values]


def columns_form(dataset):
    return {name: (typed(c.values), codes_list(c.codes)) for name, c in dataset.columns.items()}


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
        assert codes_list(a.codes) == codes_list(b.codes)
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


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, max_size=8), CONSTANTS)
@example([float(BIG - 1), 2.5, None, "1"], BIG)  # a constant float64 cannot hold
@example([BIG, BIG - 1, float(BIG - 1)], BIG - 1)  # a value float64 cannot hold
@example([True, False, -0.0, float("nan"), float("inf")], 0)
def test_column_compare_equals_compare_per_value(values, constant):
    column = _encode(values)
    for op in predicate._OPS:
        want = [predicate._compare(v, op, constant) for v in column.decode()]
        assert flags(column.compare(op, constant), len(values)) == want


# --- columns of more than 256 distinct values: codes and ranks in byte planes --

# Values whose order or equality a ranked compare could get wrong, mixed into
# every wide column: missing cells, strings, NaN (a new object per use),
# -0.0 and 0, 1 / 1.0 / True, ints past 2**53 and the float next to them.
WIDE_EXTRAS = [None, "a", "", "1", -0.0, 0.0, 0, 1, 1.0, True, False, BIG, BIG - 1,
               float(BIG - 1), -BIG, 2**64 + 1, float("inf"), float("-inf"), 2.5]


def nan():
    return float("nan")


@st.composite
def wide_columns(draw):
    """The values of the records of a column of 257 to 2,000 distinct
    values: a run of ints, halves or ints past 2**53, each once in shuffled
    order, with repeats and the extras scattered among them."""
    count = draw(st.integers(257, 2000))
    start, step = draw(st.sampled_from([(0, 1), (-700, 0.5), (0, 3), (BIG - 1000, 1), (2**64, 3)]))
    numbers = [start + i * step for i in range(count)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = numbers + rng.choices(numbers, k=draw(st.integers(0, 300)))
    values += [nan() if rng.random() < 0.1 else rng.choice(WIDE_EXTRAS)
               for _ in range(draw(st.integers(0, 60)))]
    rng.shuffle(values)
    return values


def wide_constants(values):
    """Constants that fall on, between and beyond the column's values."""
    numbers = [v for v in values if type(v) in (int, float) and v == v]
    picks = numbers[:: max(1, len(numbers) // 5)]
    return picks + [p + 0.25 for p in picks] + [p - 1 for p in picks] + [
        0, -0.0, 1, 1.0, True, BIG, BIG - 1, float(BIG - 1), 2**64 + 1, float("inf"),
        float("-inf"), min(numbers) - 1, max(numbers) + 1, "a", "", "1", float("nan")]


def check_compares(column, constants):
    decoded = column.decode()
    for constant in constants:
        for op in predicate._OPS if constant is not None else ("=", "!="):
            want = [predicate._compare(v, op, constant) for v in decoded]
            assert flags(column.compare(op, constant), len(decoded)) == want, (op, constant)
        want = [v == constant for v in decoded]
        assert flags(column.equal(constant), len(decoded)) == want, constant


def ref_identifier_hits(dataset, mask):
    """Per identifier code: whether an identifier equal to its value (as a
    dict key: one NaN object is equal to itself only) is that of a record
    the mask selects."""
    selected = flags(mask, len(dataset))
    hit = {ident for ident, chosen in zip(dataset.identifiers(), selected) if chosen}
    return [v in hit for v in dataset.identifier_column.values]


def ref_matched_identifiers(dataset, mask):
    """The identifiers of the selected records, added one by one in record order."""
    matched = set()
    for ident, chosen in zip(dataset.identifiers(), flags(mask, len(dataset))):
        if chosen:
            matched.add(ident)
    return matched


def check_identifiers(dataset, rng):
    n = len(dataset)
    for density in (0.0, 0.01, 0.5, 1.0):
        mask = int.from_bytes(bytes(rng.random() < density for _ in range(n)), "little")
        hits = dataset.identifier_hits(mask)
        assert flags(hits, len(dataset.identifier_column.values)) == ref_identifier_hits(
            dataset, mask)
        got = dataset.matched_identifiers(mask)
        assert exact(("ok", got)) == exact(("ok", ref_matched_identifiers(dataset, mask)))


@settings(max_examples=60, deadline=None)
@given(wide_columns(), st.integers(0, 2**32))
@example([*range(300), None, "a", float("nan"), -0.0, 1.0, True, BIG, 2**64 + 1], 0)
@example([*range(255), *range(255), float("nan"), "a"], 1)  # 257 values
def test_wide_column_compare_equals_compare_per_record(values, seed):
    rng = random.Random(seed)
    column = _encode(values)
    assert len(column.values) > 256 and type(column.codes) is array
    check_compares(column, wide_constants(values) + [None])  # None: = and != only
    # NOT, AND and OR over a wide and a narrow column, against the per-record reference
    narrow = [rng.choice(WIDE_EXTRAS) for _ in values]
    schema = Schema((("w", NUMBER), ("k", NUMBER)), identifying=("w",))
    dataset = Dataset(schema, [Record((("w", w), ("k", k))) for w, k in zip(values, narrow)])
    rows = [r.as_dict() for r in dataset.records]
    constants = wide_constants(values)
    for _ in range(30):
        pred = random_predicate(rng, constants, depth=3)
        got = flags(compile_mask(pred)(dataset.columns), len(dataset))
        assert got == [predicate.compile_predicate(pred)(row) for row in rows], pred
    # identifiers that repeat, equal ones (1, 1.0, True) and NaN objects
    check_identifiers(dataset, rng)
    unique = Dataset(schema, [Record((("w", w), ("k", 0))) for w in dict.fromkeys(values)])
    check_identifiers(unique, rng)


def random_predicate(rng, constants, depth):
    if depth == 0 or rng.random() < 0.3:
        return Comparison(rng.choice("wk"), rng.choice(list(predicate._OPS)), rng.choice(constants))
    shape = rng.choice([Not, And, Or])
    if shape is Not:
        return Not(random_predicate(rng, constants, depth - 1))
    return shape(random_predicate(rng, constants, depth - 1),
                 random_predicate(rng, constants, depth - 1))


def test_column_of_more_than_65536_distinct_ints():
    count = 70_000
    rng = random.Random(7)
    values = list(range(-1000, count - 1000)) + [rng.choice(WIDE_EXTRAS) for _ in range(200)]
    values += [nan() for _ in range(20)]
    rng.shuffle(values)
    column = _encode(values)
    assert len(column.values) > 65_536 and column.codes.itemsize == 4
    assert codes_list(column.codes) == codes_list(_encode(column.decode()).codes)
    check_compares(column, [-1000, -1, 0, 255, 256, 65_535, 65_536, 30_000.5, count, "a",
                            BIG, float("nan"), True, -0.0, None])
    schema = Schema((("id", NUMBER),), identifying=("id",))
    dataset = Dataset.from_columns(schema, {"id": column}, len(values))
    check_identifiers(dataset, rng)


def test_numeric_column_compares_without_compare_calls(monkeypatch):
    calls = []
    original = dataset_module._compare

    def counting(value, op, constant):
        calls.append(value)
        return original(value, op, constant)

    monkeypatch.setattr(dataset_module, "_compare", counting)
    # records-like: int ids and ages, one-decimal floats and missing cells
    lines = [f"{i},{18 + i % 73},{'' if i % 31 == 0 else round(60 + i * 0.37, 1)}"
             for i in range(1, 2001)]
    dataset = load_csv("\n".join(["id,age,glucose", *lines]), Schema(
        variables=(("id", NUMBER), ("age", NUMBER), ("glucose", NUMBER)), identifying=("id",)
    ))
    records = [r.as_dict() for r in dataset.records]
    pred = parse_predicate("[age] >= 40 AND [glucose] < 150.5 OR NOT [glucose] != 99.9")
    kept = filter_records(dataset, pred)
    assert len(kept) == sum(oracle_eval(pred, r) for r in records)
    m = Manifestation(Iri("urn:c:a"), IndirectVariableMapping("glucose", 70, 180.5))
    inside = {r["id"] for r in records if r["glucose"] is not None and 70 <= r["glucose"] <= 180.5}
    assert evaluate_manifestation(m, dataset) == inside
    assert calls == []
    # a constant past 2**53 is ranked among the numbers exactly, as Python compares
    for constant in (BIG, -BIG, BIG - 1, float(BIG - 1)):
        big = Comparison("glucose", ">", constant)
        assert len(filter_records(dataset, big)) == sum(oracle_eval(big, r) for r in records)
        column = dataset.columns["glucose"]
        for op in predicate._OPS:
            want = [original(v, op, constant) for v in column.decode()]
            assert flags(column.compare(op, constant), len(dataset)) == want
    assert calls == []


def test_column_codes_are_bytes_or_arrays_and_masks_are_ints():
    schema = Schema(variables=(("id", NUMBER),), identifying=("id",))
    dataset = Dataset(schema, [Record((("id", i),)) for i in (3, 1, 3)])
    column = dataset.columns["id"]
    assert column.values == (3, 1)
    assert column.codes == b"\x00\x01\x00"  # bytes: immutable
    # one byte per record, the first record lowest
    assert column.equal(3) == 0x01_00_01 and column.compare(">", 2) == 0x01_00_01
    assert column.compare("<", 2) == 0x00_01_00 and column.equal(7) == 0
    assert compile_mask(parse_predicate("NOT [id] = 3"))(dataset.columns) == 0x00_01_00
    # wider codes: the smallest unsigned array type that holds them
    for count, typecode in ((257, "H"), (65_536, "H"), (65_537, "I")):
        wide = _encode(list(range(count)) + [0])
        assert type(wide.codes) is array and wide.codes.typecode == typecode
        assert wide.codes.itemsize == {"H": 2, "I": 4}[typecode]
        assert codes_list(wide.codes) == [*range(count), 0]
        assert wide.equal(0) == 1 | 1 << 8 * count
        assert wide.compare(">=", count - 1) == 1 << 8 * (count - 1)
    # as many numbers as the rank planes' bytes can hold: a rank past them is no record
    for count in (255, 65_535):
        full = _encode(list(range(count)))
        assert full.compare(">", count - 1) == full.compare(">=", count) == 0
        assert full.compare("<", count) == full.compare("<=", count - 1) == all_records(count)


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
# the one-pass splitter's edges: a row of empty cells only, a NUL and a
# U+2028 inside cells, a field past the csv module's limit, no final newline
@example("id,k,s\n1,2,a\n,,\n3,4,b\n", LOADER_SCHEMAS[0], Comparison("k", ">", 2))
@example("id,k,s\n1,2,a\x00b\n3,4,c\u2028d\n", LOADER_SCHEMAS[3], Comparison("s", "=", "a\x00b"))
@example(f"id,k,s\n1,2,{'a' * (csv.field_size_limit() + 1)}\n", LOADER_SCHEMAS[0],
         Comparison("k", ">", 0))
@example("id,k,s\n1,2,a\n3,4,b", LOADER_SCHEMAS[0], Comparison("k", ">", 2))
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
    want_kept = ref_filter(Dataset(schema, records), pred)
    assert typed_records(kept.records) == typed_records(want_kept)
    assert columns_form(kept) == canonical_form(kept)


# --- one-map number conversion against parse_number text by text ----------

# Texts on each side of the guards of the one-map conversions: all digits
# (leading zeros that merge, non-ASCII digits that int() reads, "²" that it
# does not, and more digits than it reads), a "." in every text (with texts
# float() refuses), and neither (signs, exponents, NaN, words).
GUARD_TEXTS = ["1", "7", "007", "12", "0", "\u0663", "\u00b2", LONG_INT, "1.", ".5", " 5.5",
               "5_0.5", "2.5", "-2.5", "1.e3", "nan.", "1e3.", "-0", "-3", "+4", "1e3",
               "1.5e3", " 5", "nan", "inf", "x", "", None]
DIGIT_TEXTS = [t for t in GUARD_TEXTS if not t or t.isdigit()]
DOT_TEXTS = [t for t in GUARD_TEXTS if not t or "." in t]


def ref_parse_column(cells, kind):
    """_parse_column cell by cell: each cell's own parse_number (the empty
    text and None are None), then _encode; the column of a NUMBER variable
    with a text that is no number is None."""
    try:
        values = [None if not c else c if kind == STRING else predicate.parse_number(c)
                  for c in cells]
    except ValueError:
        if kind == NUMBER:
            return None, kind
        kind, values = STRING, [c or None for c in cells]
    if kind == INFER:
        kind = NUMBER if any(v is not None for v in values) else STRING
    return _encode(values), kind


def column_form(column, kind):
    """The column's kind, typed values, codes, and per value the codes of
    the values equal to it as a dict key."""
    if column is None:
        return None, kind
    groups = {}
    for code, value in enumerate(column.values):
        groups.setdefault(value, []).append(code)
    assert [list(column._equal_codes[v]) for v in column.values] == [
        groups[v] for v in column.values]
    return kind, typed(column.values), codes_list(column.codes)


@st.composite
def guarded_cells(draw):
    """A column's cells, mostly from one side of a guard, now and then all distinct."""
    alphabet = st.sampled_from(draw(st.sampled_from([DIGIT_TEXTS, DOT_TEXTS, GUARD_TEXTS])))
    return draw(st.lists(alphabet, max_size=8, unique=draw(st.booleans())))


@settings(max_examples=600, deadline=None)
@given(guarded_cells(), st.sampled_from([NUMBER, INFER, STRING]))
@example(["7", "12", "", "0", "12"], NUMBER)  # all digits: int()
@example(["3", "1", "2"], INFER)  # all distinct: codes 0, 1, 2
@example(["7", "007", None], NUMBER)  # all digits, one value of two texts
@example(["7", "\u0663"], NUMBER)  # digits that are not ASCII: int() reads them
@example(["7", "\u00b2"], INFER)  # a digit int() refuses: no number
@example(["7", LONG_INT], NUMBER)  # more digits than int() reads: float() reads them
@example(["1.", ".5", None, " 5.5", ""], NUMBER)  # a "." in each: float()
@example(["2.5", "5_0.5", "1.e3"], INFER)
@example(["2.5", "nan."], INFER)  # a "." in each, and no number
@example(["2.5", "1e3."], NUMBER)
@example(["2.5", "7"], NUMBER)  # neither: one by one
@example(["1", "1.", "7", "007"], NUMBER)  # 1 and 1.0: equal values of two keys
@example(["-3", "1.5e3", "+4", " 5"], NUMBER)
@example(["nan", "nan", "1"], NUMBER)  # one NaN value per cell
@example(["", None, ""], INFER)
@example([], NUMBER)
def test_parse_column_matches_parse_number_text_by_text(cells, kind):
    got = column_form(*_parse_column(cells, kind))
    assert got == column_form(*ref_parse_column(cells, kind))
    column, _ = _parse_column(cells, kind)
    assert column is None or column._unmerged == (len(set(column.values)) == len(column.values))


SPLITTER_CASES = {
    "plain": ("id,k,s\n1,2,a\n3,,b\n", True),
    "no final newline": ("id,k,s\n1,2,a", True),
    "one column": ("id\n1\n2\n", True),
    "header only": ("id,k,s\n", True),
    "short row": ("id,k,s\n1,2\n3,4,b\n", False),
    "long row": ("id,k,s\n1,2,a,x\n", False),
    "row of empty cells": ("id,k,s\n1,2,a\n,,\n", False),
    "blank line": ("id\n1\n\n2\n", False),
    "blank header": ("\nid,k\n", False),
    "quote": ('id,k,s\n1,2,"a"\n', False),
    "carriage return": ("id,k,s\r\n1,2,a\r\n", False),
    "field at the limit": (f"id,k\n1,{'2' * csv.field_size_limit()}\n", False),
    "lone surrogate": ("id,k\n1,\ud800\n", False),
    "empty": ("", False),
}


@pytest.mark.parametrize("text, plain", SPLITTER_CASES.values(), ids=list(SPLITTER_CASES))
def test_splitter_takes_plain_text_only(text, plain):
    cells = dataset_module._plain_cells(text)
    assert (cells is not None) == plain
    if plain:
        rows = list(csv.reader(io.StringIO(text)))
        assert cells == (rows[0], [cell for row in rows[1:] for cell in row])


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.sampled_from([None, "id", "k", "s", "x"]))
@example("id,k\n1,\u00b2\n2,5_0\n", None)
@example("id,k\n1, 5\n,\n3\n", "k")
@example("\nid,k\n1,2\n", None)
@example(f"id,k\n1,{LONG_INT}\n2,3\n", None)
def test_infer_schema_matches_row_reference(text, id_var):
    rows = list(csv.reader(io.StringIO(text)))

    def read(infer):
        return load_outcome(lambda rows, id_var: load_csv(rows, infer(rows, id_var)), rows, id_var)

    got, want = read(_infer_schema), read(ref_infer_schema)
    if want[:2] == ("error", "ValueError"):
        # a repeated header name or an --id-var not in the header; the
        # reference crashes on them, the CLI reports an input error
        assert got[:2] in {("error", "HeaderMismatch"), ("error", "UnknownVariable")}
    elif want[:2] == ("error", "IndexError"):
        # a blank header line and no --id-var: the reference crashes, the
        # CLI reports an input error
        assert got == ("error", "HeaderMismatch", "the header row is blank")
    elif want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok", got
        assert got[1].schema == want[1].schema
        assert columns_form(got[1]) == columns_form(want[1])


def test_read_table_parses_each_distinct_cell_text_once(tmp_path, monkeypatch):
    """One transpose of the rows, and at most one parse_number call per
    distinct cell text of each column, whatever the column turns out to be;
    the schema inference reads the header alone."""
    text = ("id,glucose,t,note\n1, 7 ,nan,a\n2,1e3,nan,2\n3, 7 ,1,\u00b2\n\n"
            "4,2_50,1,2\n5,infinity,-0.0\n6,,nan,a\n7,1e3\n")
    data = tmp_path / "data.csv"
    data.write_text(text)
    rows = list(csv.reader(io.StringIO(text)))
    distinct = [set(column) for column in zip_longest(*filter(any, rows[1:]))]  # None: no cell
    calls, transposes = [], []

    def counted_parse(raw, parse=dataset_module.parse_number):
        calls.append(raw)
        return parse(raw)

    def counted_transpose(*rows, transpose=dataset_module.zip_longest):
        transposes.append(len(rows))
        return transpose(*rows)

    monkeypatch.setattr(dataset_module, "parse_number", counted_parse)
    monkeypatch.setattr(dataset_module, "zip_longest", counted_transpose)
    loaded = read_table(str(data), None)
    assert transposes == [7]  # the non-blank body rows, once
    for raw in set(calls):
        assert calls.count(raw) <= sum(raw in texts for texts in distinct), raw
    assert dict(loaded.schema.variables) == {
        "id": NUMBER, "glucose": NUMBER, "t": NUMBER, "note": STRING,
    }
    assert len(calls) <= sum(map(len, distinct))

    class Unread(list):
        def __iter__(self):
            raise AssertionError("a body row was read")

        __getitem__ = __len__ = __iter__

    schema = _infer_schema([rows[0], Unread(), Unread()], None)
    assert schema.names() == rows[0] and schema.identifying == ("id",)