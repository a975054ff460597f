"""Typed record tables and per-record time series."""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, zip_longest

import numpy as np

from .errors import (
    CsvTypeError,
    DuplicateIdentifier,
    HeaderMismatch,
    UnknownVariable,
)
from .predicate import Predicate, compile_mask, variables

NUMBER = "number"
STRING = "string"


@dataclass(frozen=True)
class Schema:
    variables: tuple  # of (name, kind)
    identifying: tuple = ()

    def __post_init__(self):
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in schema")
        unknown = set(self.identifying) - set(names)
        if unknown:
            raise ValueError(f"identifying variables not in schema: {sorted(unknown)}")

    def names(self):
        return [n for n, _ in self.variables]

    def kind(self, name):
        for n, k in self.variables:
            if n == name:
                return k
        raise UnknownVariable(name)


@dataclass(frozen=True)
class Record:
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


@dataclass(frozen=True, init=False, eq=False)
class TimeSeries:
    """A labelled signal: two read-only float64 arrays of one length, the
    strictly increasing time stamps ``t`` and the values ``v``."""

    t: np.ndarray
    v: np.ndarray
    label: str = ""

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
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "label", label)

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


@dataclass(frozen=True, eq=False)
class Column:
    """One variable of a dataset, dictionary-encoded: its distinct values in
    order of first appearance and, per record, the index of its value."""

    values: tuple
    codes: np.ndarray  # read-only intp, one per record

    def decode(self) -> list:
        """The value of every record, in record order."""
        return list(map(self.values.__getitem__, self.codes.tolist()))

    def select(self, test) -> np.ndarray:
        """Mask of the records whose value passes ``test``, which runs once
        per distinct value."""
        hits = np.fromiter(map(test, self.values), dtype=bool, count=len(self.values))
        return hits[self.codes]

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
    """Records over a schema, plus per-record time series.

    A dataset stores either the records it was built from or, when
    load_csv built it, only dictionary-encoded columns; the other form is
    derived from the stored one on first use. Treat a dataset as
    immutable. Values must be hashable.
    """

    def __init__(self, schema: Schema, records: list | None = None, series: dict | None = None):
        self.schema = schema
        self.records = [] if records is None else records
        self.series = {} if series is None else series  # record identifier -> TimeSeries
        self._length = len(self.records)

    @classmethod
    def from_columns(cls, schema: Schema, columns: dict, length: int, series=None) -> Dataset:
        """A dataset of ``length`` records stored as ``columns`` (variable
        name -> Column, in schema order)."""
        dataset = cls.__new__(cls)
        dataset.schema = schema
        dataset.columns = columns
        dataset.series = {} if series is None else series
        dataset._length = length
        return dataset

    def __len__(self):
        return self._length

    @cached_property
    def records(self) -> list:
        """One Record per record, decoded from the columns."""
        names = self.schema.names()
        columns = [self.columns[name].decode() for name in names]
        values = zip(*columns) if names else [()] * len(self)
        return [Record(tuple(zip(names, vals))) for vals in values]

    def identifiers(self):
        return self.identifier_column.decode()

    @cached_property
    def columns(self) -> dict:
        """Variable name -> Column, in schema order; a missing value is None."""
        rows = [record.as_dict() for record in self.records]
        return {name: _encode([row.get(name) for row in rows]) for name in self.schema.names()}

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

    def matched_identifiers(self, mask: np.ndarray) -> set:
        """Identifiers of the records a boolean mask selects, added to the
        set in record order (of equal identifiers the first one is kept)."""
        column = self.identifier_column
        values = column.values
        return {values[c] for c in dict.fromkeys(column.codes[mask].tolist())}


def _parse_number(raw):
    if not raw:  # an empty cell, or one a short row lacks
        return None
    if raw.lstrip("-").isdigit():
        try:
            return int(raw)
        except ValueError:  # "--5", "²", or more digits than int() reads
            pass
    return float(raw)


def _parse_text(raw):
    return raw or None


def load_csv(text: str | list, schema: Schema) -> Dataset:
    """Parse CSV text (first row header) against the schema into a dataset
    stored as columns; ``text`` may also be the rows ``csv.reader`` made
    of it.

    Header must contain exactly the schema variables, in any order. Each
    distinct cell text of a column is parsed once and given one code.
    Errors are those of a row-by-row read: the first bad cell, or missing
    or repeated identifier, wins.
    """
    rows = list(csv.reader(io.StringIO(text))) if isinstance(text, str) else text
    if not rows:
        raise HeaderMismatch("missing header row")
    header = rows[0]
    names = schema.names()
    if sorted(header) != sorted(names):
        raise HeaderMismatch(
            f"header {header} does not match schema variables {names}"
        )
    body = list(filter(any, rows[1:]))  # a row of empty cells is no record
    by_position = list(zip_longest(*body))  # a short row has None for the cells it lacks
    columns = {}
    for name in names:
        pos = header.index(name)
        cells = by_position[pos] if pos < len(by_position) else (None,) * len(body)
        columns[name] = _parse_column(cells, schema.kind(name))
    if None in columns.values() or not _identifiers_unique(schema, columns, len(body)):
        raise _first_row_error(rows, schema)
    return Dataset.from_columns(schema, columns, len(body))


def _parse_column(cells, kind):
    """The Column of one variable's cells, or None when a cell of a NUMBER
    variable is not a number. Cell texts whose values share one ``_key``,
    such as "1" and "01", share one code."""
    texts = list(dict.fromkeys(cells))  # in order of first appearance
    try:
        values = list(map(_parse_number if kind == NUMBER else _parse_text, texts))
    except ValueError:
        return None
    if not all(map(operator.eq, values, values)):  # each NaN cell is its own value
        return _encode(list(map(_parse_number, cells)))  # so each cell is parsed
    code_of_text = range(len(texts))
    if len(set(values)) < len(values):  # some values are equal, maybe of one key
        merged = _encode(values)
        values, code_of_text = merged.values, merged.codes.tolist()
    code_of = dict(zip(texts, code_of_text))
    codes = np.fromiter(map(code_of.__getitem__, cells), dtype=np.intp, count=len(cells))
    return Column(tuple(values), _frozen(codes))


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


def _first_row_error(rows, schema) -> Exception:
    """The error a row-by-row read of ``rows`` meets first: a cell of a
    NUMBER variable that is not a number, or a missing or repeated
    identifier. load_csv calls it only when ``rows`` hold one."""
    header = rows[0]
    parsers = [
        (name, header.index(name), _parse_number if kind == NUMBER else _parse_text)
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
    names = dataset.schema.names()
    writer.writerow(names)
    for record in dataset.records:
        vals = record.as_dict()
        writer.writerow(["" if vals[n] is None else vals[n] for n in names])
    return out.getvalue()


def filter_records(dataset: Dataset, predicate: Predicate) -> Dataset:
    """Subset dataset of records satisfying the predicate; order preserved."""
    known = set(dataset.schema.names())
    missing = variables(predicate) - known
    if missing:
        raise UnknownVariable(", ".join(sorted(missing)))
    mask = compile_mask(predicate)(dataset.columns)
    kept = list(compress(dataset.records, mask.tolist()))
    kept_ids = dataset.matched_identifiers(mask) if dataset.schema.identifying else set()
    series = {k: v for k, v in dataset.series.items() if k in kept_ids}
    return Dataset(schema=dataset.schema, records=kept, series=series)


def load_series_csv(text: str, label: str = "") -> TimeSeries:
    """Parse a two-column t,v CSV (with header) into a TimeSeries.

    Extra columns are ignored; blank and all-empty rows are skipped. A NaN
    or non-increasing time stamp is a CsvTypeError at its row.
    """
    pairs = _plain_pairs(text)
    if pairs is not None:
        try:
            return TimeSeries.from_arrays(pairs[0::2], pairs[1::2], label)
        except ValueError:
            pass  # the row-wise read below names the offending row
    return _load_series_rows(text, label)


def _plain_pairs(text: str):
    """The cells of a plain ``number,number`` series as one flat float64
    array, t and v interleaved; None for any other text.

    Plain means: no quote and no carriage return, exactly one comma in the
    header and in every body line, no field past ``csv.field_size_limit()``,
    and every cell ``float()`` accepts. On such text ``csv.reader`` yields
    the same cells, and each is parsed by the same ``float()``.
    """
    if '"' in text or "\r" in text:
        return None
    header, _, body = text.partition("\n")
    if header.count(",") != 1 or len(header) > csv.field_size_limit():
        return None
    if body and not body.endswith("\n"):
        body += "\n"
    try:
        raw = np.frombuffer(body.encode(), dtype=np.uint8)
    except ValueError:  # a lone surrogate has no UTF-8 form
        return None
    at = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    marks = raw[at]
    # marks alternate comma, newline: one comma per line, so no line is blank
    if (marks[0::2] != ord(",")).any() or (marks[1::2] != ord("\n")).any():
        return None
    if len(at) and np.diff(at, prepend=-1).max() > csv.field_size_limit():
        return None
    cells = body.replace("\n", ",").split(",")
    cells.pop()  # after the final newline
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None


def _load_series_rows(text: str, label: str) -> TimeSeries:
    """load_series_csv row by row through ``csv.reader``, for any text."""
    reader = csv.reader(io.StringIO(text))
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
