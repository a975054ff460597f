"""Typed record tables and time series."""

from __future__ import annotations

import csv
import io
import operator
from functools import cached_property
from itertools import compress, zip_longest

import numpy as np

from .errors import (
    CsvSyntaxError,
    CsvTypeError,
    DuplicateIdentifier,
    HeaderMismatch,
    UnknownVariable,
)
from .predicate import _OPS, Predicate, _compare, compile_mask, parse_number, variables
from .rdf import Value

NUMBER = "number"
STRING = "string"
INFER = "infer"  # a kind load_csv decides from the cells: NUMBER or STRING


class Schema(Value):
    __slots__ = ()
    variables: tuple  # of (name, kind)
    identifying: tuple = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        names = self.names()
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in schema")
        unknown = set(self.identifying) - set(names)
        if unknown:
            raise ValueError(f"identifying variables not in schema: {sorted(unknown)}")
        return self

    def names(self):
        return [n for n, _ in self.variables]

    def kind(self, name):
        for n, k in self.variables:
            if n == name:
                return k
        raise UnknownVariable(name)


class Record(Value):
    __slots__ = ()
    values: tuple  # of (name, value); value None means missing

    def as_dict(self):
        return dict(self.values)

    def get(self, name):
        found = None  # the last pair wins, as in as_dict
        for n, v in self.values:
            if n == name:
                found = v
        return found

    def identifier(self, schema: Schema):
        vals = self.as_dict()
        ids = tuple(vals[n] for n in schema.identifying)
        return ids[0] if len(ids) == 1 else ids


class TimeSeries:
    """A labelled signal, to be treated as immutable: two read-only float64
    arrays of one length, the strictly increasing stamps ``t`` and values ``v``."""

    __slots__ = ("t", "v", "label")

    def __init__(self, samples, label=""):
        pairs = np.array(samples, dtype=np.float64).reshape(len(samples), 2)
        self._adopt(pairs[:, 0], pairs[:, 1], label)

    @classmethod
    def from_arrays(cls, t, v, label="") -> TimeSeries:
        """Series over copies of the time stamps ``t`` and values ``v``."""
        series = cls.__new__(cls)
        series._adopt(t, v, label)
        return series

    def _adopt(self, t, v, label):
        t = np.array(t, dtype=np.float64)
        v = np.array(v, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("t and v must be one-dimensional and of one length")
        if np.isnan(t).any() or (t[1:] <= t[:-1]).any():
            raise ValueError("time stamps must be strictly increasing and not NaN")
        t.flags.writeable = False
        v.flags.writeable = False
        self.t, self.v, self.label = t, v, label

    @property
    def samples(self) -> tuple:
        """The (t, v) pairs as Python floats."""
        return tuple(zip(self.t.tolist(), self.v.tolist()))

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.v, other.v)
        )

    def __hash__(self):
        return hash((self.label, len(self.t)))


def _key(value):
    """Encoding key. Two values are one distinct value when they have one
    type, compare equal and print alike: ``==`` alone merges 1, 1.0 and
    True, or 0.0 and -0.0, which the output tells apart. Each NaN object
    stays its own value, as it does in a set."""
    if type(value) in (str, int):
        return (type(value), value)
    return (type(value), value, repr(value))


class Column:
    """One variable of a dataset, dictionary-encoded (treat it as immutable):
    its distinct values in order of first appearance and, per record, the
    index of its value."""

    def __init__(self, values: tuple, codes: np.ndarray):
        self.values, self.codes = values, codes  # codes: read-only intp, one per record

    def decode(self) -> list:
        """The value of every record, in record order."""
        return list(map(self.values.__getitem__, self.codes.tolist()))

    def compare(self, op, constant) -> np.ndarray:
        """Mask of the records whose value v passes ``_compare(v, op,
        constant)``: one float64 comparison over the distinct values when
        float64 holds them and the constant exactly, else one ``_compare``
        per distinct value."""
        floats, numbers = self._floats
        if floats is not None and (
            type(constant) is float or type(constant) is int and abs(constant) <= _EXACT
        ):
            hits = _OPS[op](floats, constant) & numbers
        else:
            hits = np.fromiter((_compare(v, op, constant) for v in self.values), bool)
        return hits[self.codes]

    @cached_property
    def _floats(self) -> tuple:
        """The distinct values as float64 and the mask of the numbers among
        them; (None, None) unless each is None, a str, a float, a bool or
        an int within 2**53 of 0."""
        kinds = list(map(type, self.values))
        if not set(kinds) <= _FLOAT64_TYPES or any(
            abs(v) > _EXACT for v in self.values if type(v) is int
        ):
            return None, None
        numbers = np.fromiter(map(_NUMBER_TYPES.__contains__, kinds), bool, len(kinds))
        floats = np.where(numbers, np.array(self.values, dtype=object), 0.0)
        return floats.astype(np.float64), numbers

    def equal(self, value) -> np.ndarray:
        """Mask of the records whose value ``== value``, found by a dict
        lookup among the distinct values."""
        hits = np.zeros(len(self.values), dtype=bool)
        for code in self._equal_codes.get(value, ()):
            hits[code] = self.values[code] == value  # a NaN is found but unequal
        return hits[self.codes]

    @cached_property
    def _equal_codes(self) -> dict:
        groups = {}
        for code, value in enumerate(self.values):
            groups.setdefault(value, []).append(code)
        return groups

    @cached_property
    def canonical_codes(self) -> np.ndarray:
        """Per code, the first code whose value is equal to its value as a
        dict key: 1, 1.0 and True share one, each NaN object keeps its own."""
        groups = self._equal_codes
        return np.fromiter((groups[v][0] for v in self.values), np.intp, len(self.values))


_EXACT = 2**53  # float64 holds every int up to this size exactly
_NUMBER_TYPES = frozenset({float, int, bool})
_FLOAT64_TYPES = _NUMBER_TYPES | {str, type(None)}


def _frozen(codes: np.ndarray) -> np.ndarray:
    codes.flags.writeable = False
    return codes


def _encode(values: list) -> Column:
    """Dictionary-encode one value per record."""
    distinct, codes = [], []
    code_of_key = {}
    code_of_object = {}  # id -> code: a repeated object is keyed once
    for value in values:
        code = code_of_object.get(id(value))
        if code is None:
            key = _key(value)
            code = code_of_key.get(key)
            if code is None:
                code = code_of_key[key] = len(distinct)
                distinct.append(value)
            code_of_object[id(value)] = code
        codes.append(code)
    return Column(tuple(distinct), _frozen(np.array(codes, dtype=np.intp)))


class Dataset:
    """Records over a schema, stored as dictionary-encoded columns only.

    ``Dataset(schema, records)`` encodes the records at once (a variable a
    record lacks is a missing value, None); ``records`` is decoded from
    the columns on first use. Treat a dataset as immutable. Values must
    be hashable.
    """

    def __init__(self, schema: Schema, records=()):
        rows = [record.as_dict() for record in records]
        self.schema = schema
        self.columns = {name: _encode([row.get(name) for row in rows]) for name in schema.names()}
        self._length = len(rows)

    @classmethod
    def from_columns(cls, schema: Schema, columns: dict, length: int) -> Dataset:
        """A dataset of ``length`` records stored as ``columns`` (variable
        name -> Column, in schema order)."""
        dataset = cls.__new__(cls)
        dataset.schema = schema
        dataset.columns = columns
        dataset._length = length
        return dataset

    def __len__(self):
        return self._length

    @cached_property
    def records(self) -> list:
        """One Record per record, decoded from the columns."""
        names = self.schema.names()
        return [Record(tuple(zip(names, vals))) for vals in self._rows()]

    def _rows(self):
        """Per record, the tuple of its values in schema order."""
        columns = [self.columns[name].decode() for name in self.schema.names()]
        return zip(*columns) if columns else [()] * len(self)

    def identifiers(self):
        return self.identifier_column.decode()

    @cached_property
    def identifier_column(self) -> Column:
        """Record identifiers as a Column: the identifying variable's own
        column, or tuples of the values of several, or () for every record
        when the schema declares none."""
        ident = self.schema.identifying
        if len(ident) == 1:
            return self.columns[ident[0]]
        parts = [self.columns[name].decode() for name in ident]
        return _encode(list(zip(*parts)) if parts else [()] * len(self))

    def identifier_hits(self, mask: np.ndarray) -> np.ndarray:
        """Per identifier code, whether a record the boolean mask selects
        has an equal identifier (one in the code's canonical_codes class)."""
        column = self.identifier_column
        canon = column.canonical_codes
        hits = np.zeros(len(column.values), dtype=bool)
        hits[canon[column.codes[mask]]] = True
        return hits[canon]

    def matched_identifiers(self, mask: np.ndarray) -> set:
        """Identifiers of the records a boolean mask selects, added to the
        set in record order (of equal identifiers the first one is kept)."""
        column = self.identifier_column
        values = column.values
        return {values[c] for c in dict.fromkeys(column.codes[mask].tolist())}


def _parse_text(raw):
    return raw or None


def load_csv(text: str | list, schema: Schema) -> Dataset:
    """Parse CSV text (first row header) against the schema into a dataset
    stored as columns; ``text`` may also be the rows ``csv.reader`` made
    of it.

    Header must contain exactly the schema variables, in any order. Plain
    text (``_plain_cells``) is split in one pass, any other by ``csv.reader``.
    Each distinct cell text of a column is parsed once and given one code.
    An INFER variable is a NUMBER when that parse finds a number and no
    other text, else a STRING; the dataset's schema holds the decided
    kinds. Errors are those of a row-by-row read: the first bad cell, or
    missing or repeated identifier, wins.
    """
    plain = _plain_cells(text) if isinstance(text, str) else None
    if plain is not None:
        header, body = plain
        by_position = [body[pos :: len(header)] for pos in range(len(header))]
        length = len(by_position[0])
    else:
        rows = _csv_rows(text)
        if not rows:
            raise HeaderMismatch("missing header row")
        header = rows[0]
        body = list(filter(any, rows[1:]))  # a row of empty cells is no record
        by_position = list(zip_longest(*body))  # a short row has None for the cells it lacks
        length = len(body)
    names = schema.names()
    if sorted(header) != sorted(names):
        raise HeaderMismatch(
            f"header {header} does not match schema variables {names}"
        )
    columns, kinds = {}, []
    for name, kind in schema.variables:
        pos = header.index(name)
        cells = by_position[pos] if pos < len(by_position) else (None,) * length
        columns[name], kind = _parse_column(cells, kind)
        kinds.append((name, kind))
    schema = Schema(tuple(kinds), schema.identifying)
    if None in columns.values() or not _identifiers_unique(schema, columns, length):
        raise _first_row_error(text, schema)
    return Dataset.from_columns(schema, columns, length)


def _csv_rows(text: str | list) -> list:
    """The rows ``csv.reader`` makes of CSV text; rows are returned as they are."""
    return list(_csv_reader(text)) if isinstance(text, str) else text


def _csv_reader(text: str):
    """The rows ``csv.reader`` makes of CSV text, one at a time."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:  # named by the line the reader had reached
        raise CsvSyntaxError(f"line {reader.line_num}: {exc}") from None


def _plain_cells(text: str):
    """For load_csv: the header and the body's cells, row by row, of CSV
    text that ``csv.reader`` splits exactly at its commas and newlines, all
    taken from one ``str.split``; None for any other text. Plain text has no
    quote and no carriage return, the header's comma count in every line
    (one numpy pass over the bytes), no field past
    ``csv.field_size_limit()`` and no line of empty cells only, which
    ``csv.reader`` reads as a row that load_csv drops, or as none."""
    if not text or '"' in text or "\r" in text:
        return None
    text += "" if text.endswith("\n") else "\n"
    width = text.count(",", 0, text.index("\n")) + 1  # cells per line, as in the header
    try:
        raw = np.frombuffer(text.encode(), dtype=np.uint8)
    except ValueError:  # a lone surrogate has no UTF-8 form
        return None
    newlines = raw == ord("\n")
    at = np.flatnonzero(newlines | (raw == ord(",")))
    ends = at[width - 1 :: width]  # each line's end, when it has width - 1 commas
    if len(at) % width or np.count_nonzero(newlines) != len(ends) or not newlines[ends].all():
        return None
    if (
        np.diff(at, prepend=-1).max() > csv.field_size_limit()  # a field's length plus one
        or ends[0] == width - 1  # a header of empty cells only
        or (np.diff(ends) == width).any()  # a body line of empty cells only
    ):
        return None
    del raw, newlines, at, ends
    cells = text.replace("\n", ",").split(",")
    header = cells[:width]
    del cells[:width], cells[-1]  # the header's, and the one after the final newline
    return header, cells


def _parse_column(cells, kind):
    """The Column of one variable's cells, or None when a cell of a NUMBER
    variable is not a number, and the kind, decided for INFER. Each distinct
    cell text is parsed once; texts whose values share one ``_key``, such as
    "1" and "01", share one code."""
    texts = list(dict.fromkeys(cells))  # in order of first appearance
    try:
        values = list(map(_parse_text if kind == STRING else parse_number, texts))
    except ValueError:  # at the first text that is no number
        if kind == NUMBER:
            return None, kind
        kind, values = STRING, list(map(_parse_text, texts))
    if kind == INFER:  # a number variable has a number
        kind = NUMBER if values.count(None) < len(values) else STRING
    if not all(map(operator.eq, values, values)):  # each NaN cell is its own value:
        value_of = dict(zip(texts, values))  # float() makes a new NaN object per cell
        cell_values = [value_of[c] if value_of[c] == value_of[c] else float(c) for c in cells]
        return _encode(cell_values), kind
    code_of_text = range(len(texts))
    if len(set(values)) < len(values):  # some values are equal, maybe of one key
        merged = _encode(values)
        values, code_of_text = merged.values, merged.codes.tolist()
    code_of = dict(zip(texts, code_of_text))
    codes = np.fromiter(map(code_of.__getitem__, cells), dtype=np.intp, count=len(cells))
    return Column(tuple(values), _frozen(codes)), kind


def _identifiers_unique(schema, columns, length) -> bool:
    """Whether every record has an identifier, and no two equal ones."""
    parts = [columns[name] for name in schema.identifying]
    if not parts:
        return True
    if any(None in part.values for part in parts):
        return False
    if len(parts) == 1:  # one value per code; set() merges 1, 1.0 and -0.0, 0
        return len(parts[0].values) == length and len(set(parts[0].values)) == length
    return len(set(zip(*(part.decode() for part in parts)))) == length


def _first_row_error(text, schema) -> Exception:
    """The error a row-by-row read of the CSV text or rows meets first: a
    cell of a NUMBER variable that is not a number, or a missing or
    repeated identifier. load_csv calls it only when ``text`` holds one."""
    rows = _csv_rows(text)
    header = rows[0]
    parsers = [
        (name, header.index(name), parse_number if kind == NUMBER else _parse_text)
        for name, kind in schema.variables
    ]
    seen_ids = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not any(row):
            continue
        values = []
        for name, pos, parse in parsers:  # the first bad cell of the row, in schema order
            raw = row[pos] if pos < len(row) else None
            try:
                values.append((name, parse(raw)))
            except ValueError:
                return CsvTypeError(row_no, name, f"not a number: {raw!r}")
        if not schema.identifying:
            continue
        ident = Record(tuple(values)).identifier(schema)
        if ident is None or (isinstance(ident, tuple) and None in ident):
            return CsvTypeError(row_no, schema.identifying[0], "missing identifier")
        if ident in seen_ids:
            return DuplicateIdentifier(f"row {row_no}: {ident!r}")
        seen_ids.add(ident)


def write_csv(dataset: Dataset) -> str:
    """Canonical CSV text: schema column order, empty cell for missing."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.schema.names())
    writer.writerows(["" if v is None else v for v in row] for row in dataset._rows())
    return out.getvalue()


def filter_records(dataset: Dataset, predicate: Predicate) -> Dataset:
    """Subset dataset of records satisfying the predicate; order preserved.
    Each kept column holds only the values its records use."""
    known = set(dataset.schema.names())
    missing = variables(predicate) - known
    if missing:
        raise UnknownVariable(", ".join(sorted(missing)))
    keep = compile_mask(predicate)(dataset.columns).tolist()
    columns = {
        name: _encode(list(compress(column.decode(), keep)))
        for name, column in dataset.columns.items()
    }
    return Dataset.from_columns(dataset.schema, columns, sum(keep))


def load_series_csv(text: str, label: str = "") -> TimeSeries:
    """Parse a two-column t,v CSV (with header) into a TimeSeries.

    Extra columns are ignored; blank and all-empty rows are skipped. A NaN
    or non-increasing time stamp is a CsvTypeError at its row.

    Text whose header has one comma and which has no quote, no carriage
    return and no line past ``csv.field_size_limit()`` is read by numpy's
    C reader, which converts each cell as ``float()`` does but refuses
    what only ``float()`` takes (``1_0``, non-ASCII digits) and skips blank
    lines alone; a body of two columns it reads is the series. Any other
    text is read row by row, with the same values and errors.
    """
    header, _, body = text.partition("\n")
    if (
        header.count(",") == 1
        and '"' not in text
        and "\r" not in text
        and _within_field_limit(text)
    ):
        if not body:
            return TimeSeries.from_arrays((), (), label)
        if not body.isspace():  # loadtxt warns of a body without rows
            try:
                pairs = np.loadtxt(
                    io.StringIO(body), delimiter=",", comments=None, ndmin=2, dtype=np.float64
                )
                if pairs.shape[1] == 2:
                    return TimeSeries.from_arrays(pairs[:, 0], pairs[:, 1], label)
            except ValueError:
                pass  # the row-wise read below names the offending row
    return _load_series_rows(text, label)


def _within_field_limit(text: str) -> bool:
    """Whether no line of the text, so no field, is longer than
    ``csv.field_size_limit()``; lines are measured only in a longer text."""
    limit = csv.field_size_limit()
    return len(text) <= limit or max(map(len, text.split("\n"))) <= limit


def _load_series_rows(text: str, label: str) -> TimeSeries:
    """load_series_csv row by row through ``csv.reader``, for any text."""
    reader = _csv_reader(text)
    header = next(reader, None)
    if header is None or len(header) < 2:
        raise HeaderMismatch("expected a t,v header row")
    t, v, row_nos = [], [], []  # row_nos: each sample's row number
    for row_no, row in enumerate(reader, start=2):
        try:
            t.append(float(row[0]))
            v.append(float(row[1]))
        except (ValueError, IndexError):
            if not any(row):
                continue
            raise CsvTypeError(row_no, "t/v", f"bad sample row: {row!r}")
        row_nos.append(row_no)
    try:
        return TimeSeries.from_arrays(t, v, label)
    except ValueError:
        # the first stamp that is NaN or not after the one before it
        i = next(i for i, s in enumerate(t) if not (s > t[i - 1] if i else s == s))
        raise CsvTypeError(
            row_nos[i], "t", f"not a strictly increasing time stamp: {t[i]}"
        ) from None


def write_series_csv(series: TimeSeries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "v"])
    writer.writerows(series.samples)
    return out.getvalue()
