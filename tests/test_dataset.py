import csv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kava import dataset
from kava.dataset import (
    NUMBER,
    STRING,
    Dataset,
    Record,
    Schema,
    TimeSeries,
    filter_records,
    load_csv,
    load_series_csv,
    write_csv,
    write_series_csv,
)
from kava.errors import (
    CsvTypeError,
    DuplicateIdentifier,
    HeaderMismatch,
    UnknownVariable,
)
from kava.predicate import parse_predicate

PATIENT_SCHEMA = Schema(
    variables=(("patientId", NUMBER), ("bloodSugar", NUMBER)),
    identifying=("patientId",),
)


def test_load_simple():
    ds = load_csv("patientId,bloodSugar\n12345,250\n", PATIENT_SCHEMA)
    assert len(ds) == 1
    assert ds.records[0].get("bloodSugar") == 250
    assert ds.identifiers() == [12345]


def test_header_only():
    ds = load_csv("patientId,bloodSugar\n", PATIENT_SCHEMA)
    assert len(ds) == 0


def test_header_order_insensitive():
    ds = load_csv("bloodSugar,patientId\n250,12345\n", PATIENT_SCHEMA)
    assert ds.records[0].get("patientId") == 12345


def test_header_mismatch():
    with pytest.raises(HeaderMismatch):
        load_csv("patientId,glucose\n1,2\n", PATIENT_SCHEMA)


def test_duplicate_identifier():
    with pytest.raises(DuplicateIdentifier):
        load_csv("patientId,bloodSugar\n12345,1\n12345,2\n", PATIENT_SCHEMA)


def test_type_error_position():
    with pytest.raises(CsvTypeError) as exc:
        load_csv("patientId,bloodSugar\n1,abc\n", PATIENT_SCHEMA)
    assert exc.value.row == 2


def test_missing_cells():
    ds = load_csv("patientId,bloodSugar\n1,\n", PATIENT_SCHEMA)
    assert ds.records[0].get("bloodSugar") is None


def test_csv_roundtrip():
    text = "patientId,bloodSugar\n1,150\n2,\n3,250.5\n"
    ds = load_csv(text, PATIENT_SCHEMA)
    again = load_csv(write_csv(ds), PATIENT_SCHEMA)
    assert again.records == ds.records


def _age_dataset():
    schema = Schema(
        variables=(("patientId", NUMBER), ("age", NUMBER)), identifying=("patientId",)
    )
    rows = "\n".join(f"{i},{20 + 5 * i}" for i in range(10))
    return load_csv("patientId,age\n" + rows + "\n", schema)


def test_filter_matches_bruteforce():
    ds = _age_dataset()
    pred = parse_predicate("[age] >= 30 AND [age] <= 50")
    out = filter_records(ds, pred)
    expected = [r for r in ds.records if 30 <= r.get("age") <= 50]
    assert out.records == expected


def test_filter_always_true_false():
    ds = _age_dataset()
    assert filter_records(ds, parse_predicate("[age] >= 0")).records == ds.records
    assert filter_records(ds, parse_predicate("[age] < 0")).records == []


def test_filter_idempotent_and_subset():
    ds = _age_dataset()
    pred = parse_predicate("[age] > 35")
    once = filter_records(ds, pred)
    twice = filter_records(once, pred)
    assert once.records == twice.records
    assert set(once.identifiers()) <= set(ds.identifiers())


def test_filter_unknown_variable():
    with pytest.raises(UnknownVariable):
        filter_records(_age_dataset(), parse_predicate("[height] > 1"))


def test_timeseries_strictly_increasing():
    with pytest.raises(ValueError):
        TimeSeries(samples=((0.0, 1.0), (0.0, 2.0)))


def test_series_csv_roundtrip():
    series = TimeSeries(samples=((0.0, 0.0), (0.01, 800.0), (0.02, 640.5)), label="Fv")
    again = load_series_csv(write_series_csv(series), "Fv")
    assert again.samples == series.samples


def test_series_csv_header_only_is_empty():
    series = load_series_csv("t,v\n", "Fv")
    assert series.samples == ()
    assert series.label == "Fv"


def test_series_csv_accepted_rows():
    # blank and all-empty rows are skipped, extra columns ignored, quoted
    # numbers read as numbers
    text = 't,v,note\n\n0.0,1.5,a\n,\n"0.01","2.5"\n,,\n0.02,3.5,x,y\n'
    assert load_series_csv(text).samples == ((0.0, 1.5), (0.01, 2.5), (0.02, 3.5))


@pytest.mark.parametrize(
    "text, row",
    [
        ("t,v\n0.0,1.0\n0.01\n", 3),
        ("t,v\n0.0,1.0\n\n0.01,heavy\n", 4),
        ("t,v\nx,1.0\n", 2),
        ("t,v\n0.0,\n", 2),
    ],
)
def test_series_csv_bad_row_position(text, row):
    with pytest.raises(CsvTypeError, match="bad sample row") as exc:
        load_series_csv(text)
    assert exc.value.row == row
    assert str(exc.value).startswith(f"row {row}, ")


@pytest.mark.parametrize("text", ["", "t\n0.0\n", "\n0.0,1.0\n"])
def test_series_csv_short_header(text):
    with pytest.raises(HeaderMismatch, match="expected a t,v header row"):
        load_series_csv(text)


def test_series_csv_rejects_equal_infinite_stamps():
    with pytest.raises(ValueError, match="strictly increasing"):
        load_series_csv("t,v\ninf,1.0\ninf,2.0\n")


@pytest.mark.parametrize(
    "text, row",
    [
        ("t,v\n0.0,1\nnan,2\n0.0,3\n", 3),
        ("t,v\nnan,1\n", 2),
        ("t,v\n0.0,1\n\n0.5,2\n0.5,3\n", 5),
        ("t,v\n1.0,1\n0.5,2\n", 3),
    ],
)
def test_series_csv_rejects_nan_and_non_increasing_stamps(text, row):
    with pytest.raises(CsvTypeError, match="strictly increasing") as exc:
        load_series_csv(text)
    assert exc.value.row == row
    assert exc.value.column == "t"


@pytest.mark.parametrize(
    "samples", [((0.0, 1.0), (float("nan"), 2.0), (0.0, 3.0)), ((float("nan"), 1.0),)]
)
def test_timeseries_rejects_nan_stamps(samples):
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeries(samples)


# --- plain-row fast path of load_series_csv ------------------------------


def _increasing_stamp(n, form):
    """A time cell whose value lies within half a unit of the integer n, so
    stamps drawn from increasing n stay strictly increasing."""
    forms = [f"{n}", f"{n}.5", f" {n} ", f"{n}e0", f"{n}_0e-1", f"+{n}\t", f"\xa0{n}\u2003"]
    return forms[form].replace("+-", "-")


NUMBERS = ["0", "1", "-1", "+2.5", "1e3", "-1E-3", "inf", "-inf", "nan", "-nan", "1_0",
           " 3 ", "\t4", "1e400", "\u0663", "\xa05", "6\u2003", "Infinity", "-iNfInItY",
           "1e-400", "-0.0", "4.9e-324", "2.2250738585072011e-308"]
# 17 to 25 digits with a point somewhere: past what float64 holds exactly
LONG_DECIMALS = st.tuples(
    st.text("0123456789", min_size=17, max_size=25), st.integers(0, 25)
).map(lambda d: d[0][: d[1]] + "." + d[0][d[1] :])
VALUES = st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr), LONG_DECIMALS)
CELLS = st.one_of(VALUES, st.sampled_from(
    ["", " ", "x", "0x1", "1__0", "_1", "5\r", '"5"', '"6,7"', "#", "1#2", "\x00", "1\x00",
     "\ufeff1", "1.0j", "0x1p3", "1d3", "\x0c", "1\x0b2"]
))
SEPARATORS = st.sampled_from([",", ",", ",", ",,", "", ", ", "\r,"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\n", "\r\n", "\r"])
HEADERS = st.sampled_from(
    ["t,v", "t", "t,v,w", "", '"t",v', '"t,v"', " , ", "t,v\r", "\ufefft,v", "#t,v"]
)


@st.composite
def series_texts(draw):
    """Series CSV text: clean (every row plain ``number,number``), a few
    rows off, or anything from the alphabet."""
    mess = draw(st.sampled_from(["clean", "clean", "some", "any"]))
    header = draw(st.sampled_from(["t,v", "t,v", "\ufefft,v"]) if mess != "any" else HEADERS)
    kinds = ["plain"] if mess == "clean" else ["plain"] * 6 + ["noise", "blank", "stamp"]
    stamps = sorted(draw(st.lists(st.integers(-30, 30), unique=True, max_size=12)))
    lines = []
    for n in stamps:
        kind = draw(st.sampled_from(kinds))
        if kind == "plain":
            t = _increasing_stamp(n, draw(st.integers(0, 6)))
            lines.append(t + "," + draw(VALUES))
        elif kind == "noise":
            lines.append(draw(CELLS) + draw(SEPARATORS) + draw(CELLS))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "", " ", ",", ",,", "\t", "\xa0"])))
        else:  # a stamp out of order, repeated or NaN
            lines.append(draw(st.sampled_from(["nan", "-5", "0", "inf"])) + ",1")
    ends = [draw(LINE_ENDS) if mess == "any" else "\n" for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return header + "\n" + "".join(line + end for line, end in zip(lines, ends))


def _series_outcome(read, text):
    try:
        series = read(text, "Fv")
    except Exception as exc:  # both paths must fail alike
        return ("error", type(exc).__name__, str(exc))
    return ("ok", series.label, series.t.tobytes(), series.v.tobytes())


@pytest.mark.filterwarnings("error")  # such as loadtxt's on a text without rows
@settings(max_examples=400, deadline=None)
@given(series_texts())
@example("t,v\n0,1\n1,2\n")
@example("t,v\n0,1\n1,2")
@example("t,v\n1,2,3\n4\n")  # ragged: an even cell count, but not two per row
@example("t,v\n0,1\n\n1,2\n")
@example("t,v\n0\r,1\n")  # csv ends the row at a lone CR; float() strips it
@example("t,v\n0,nan\n1,-0.0\n2,-inf\n")
@example("t,v\n0,1\nnan,2\n")
@example("t,v\n" + "0" * csv.field_size_limit() + "1,2\n")  # a field past the limit
@example("t,v\n\n")  # bodies of blank lines only
@example("t,v\n\n\n")
@example("t,v\n \n")
@example("t,v\n0,1\n\n\n")
@example("\ufefft,v\n0,1\n")
@example("t,v\n0,1#\n")  # comments=None: csv keeps what follows a #
@example('"t,v"\n0,1\n')  # a header of one quoted cell
@example("t,v\n5\n6\n")  # one column
@example("t,v\n0,1,2\n1,2,3\n")  # three
def test_series_fast_path_matches_rows(text):
    assert _series_outcome(load_series_csv, text) == _series_outcome(
        dataset._load_series_rows, text
    )


@pytest.mark.parametrize(
    "text, plain",
    [
        ("t,v\n0,1\n0.01,-2e3\n", True),
        ("t,v\n0,1\n0.01,-2e3", True),
        ("t,v\n", True),
        ("t,v\n1,2,3\n4\n", False),
        ("t,v\n0,1\n\n", True),  # numpy skips a blank line, as the row reader does
        ("t,v\n\n\n", False),
        ("t,v\n0,1_0\n", False),
        ('t,v\n"0",1\n', False),
        ("t,v\r\n0,1\r\n", False),
        ("t,v,w\n0,1,2\n", False),
        ("t,v\n0,x\n", False),
    ],
)
def test_series_fast_path_takes_plain_text_only(text, plain, monkeypatch):
    assert _read_in_one_pass(text, monkeypatch) == plain


def _read_in_one_pass(text, monkeypatch) -> bool:
    """Whether load_series_csv reads ``text`` without the row-wise reader."""
    row_reads = []

    def counted(text, label, rows=dataset._load_series_rows):
        row_reads.append(text)
        return rows(text, label)

    monkeypatch.setattr(dataset, "_load_series_rows", counted)
    _series_outcome(load_series_csv, text)
    return not row_reads


def test_series_fast_path_reads_long_plain_text(monkeypatch):
    # 200 KB, past csv.field_size_limit(), yet every line is short
    rows = [f"{n / 1000!r},{(n * 7919 % 1000) / 7!r}" for n in range(12_000)]
    text = "t,v\n" + "\n".join(rows) + "\n"
    assert len(text) > 200_000 > csv.field_size_limit()
    assert _read_in_one_pass(text, monkeypatch)
    assert _series_outcome(load_series_csv, text) == _series_outcome(
        dataset._load_series_rows, text
    )


def test_series_fast_path_reads_written_series(monkeypatch):
    series = TimeSeries(((0.0, 0.0), (0.01, 800.0), (0.02, float("nan"))), label="Fv")
    text = write_series_csv(series)
    assert _read_in_one_pass(text, monkeypatch)
    assert _series_outcome(load_series_csv, text) == _series_outcome(
        dataset._load_series_rows, text
    )
