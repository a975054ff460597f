"""Typed record tables and per-record time series."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CsvTypeError,
    DuplicateIdentifier,
    HeaderMismatch,
    UnknownVariable,
)
from .predicate import Predicate, compile_predicate, variables

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
        return dict(self.values).get(name)

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
        if (t[1:] <= t[:-1]).any():
            raise ValueError("time stamps must be strictly increasing")
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


@dataclass
class Dataset:
    schema: Schema
    records: list = field(default_factory=list)
    series: dict = field(default_factory=dict)  # record identifier -> TimeSeries

    def __len__(self):
        return len(self.records)

    def identifiers(self):
        return [r.identifier(self.schema) for r in self.records]


def _parse_cell(raw, kind, row_no, name):
    if raw == "" or raw is None:
        return None
    if kind == NUMBER:
        try:
            return int(raw) if raw.lstrip("-").isdigit() else float(raw)
        except ValueError:
            raise CsvTypeError(row_no, name, f"not a number: {raw!r}")
    return raw


def load_csv(text: str, schema: Schema) -> Dataset:
    """Parse CSV text (first row header) against the schema.

    Header must contain exactly the schema variables, in any order.
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise HeaderMismatch("missing header row")
    header = rows[0]
    if sorted(header) != sorted(schema.names()):
        raise HeaderMismatch(
            f"header {header} does not match schema variables {schema.names()}"
        )
    records = []
    seen_ids = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(cell == "" for cell in row):
            continue
        raw = dict(zip(header, row))
        values = tuple(
            (name, _parse_cell(raw.get(name), schema.kind(name), row_no, name))
            for name in schema.names()
        )
        record = Record(values)
        if schema.identifying:
            ident = record.identifier(schema)
            if ident is None or (isinstance(ident, tuple) and None in ident):
                raise CsvTypeError(row_no, schema.identifying[0], "missing identifier")
            if ident in seen_ids:
                raise DuplicateIdentifier(f"row {row_no}: {ident!r}")
            seen_ids.add(ident)
        records.append(record)
    return Dataset(schema=schema, records=records)


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
    test = compile_predicate(predicate)
    kept = [r for r in dataset.records if test(r.as_dict())]
    kept_ids = {r.identifier(dataset.schema) for r in kept} if dataset.schema.identifying else set()
    series = {k: v for k, v in dataset.series.items() if k in kept_ids}
    return Dataset(schema=dataset.schema, records=kept, series=series)


def load_series_csv(text: str, label: str = "") -> TimeSeries:
    """Parse a two-column t,v CSV (with header) into a TimeSeries.

    Extra columns are ignored; blank and all-empty rows are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or len(header) < 2:
        raise HeaderMismatch("expected a t,v header row")
    t, v = [], []
    for row_no, row in enumerate(reader, start=2):
        try:
            t.append(float(row[0]))
            v.append(float(row[1]))
        except (ValueError, IndexError):
            if not row or all(cell == "" for cell in row):
                continue
            raise CsvTypeError(row_no, "t/v", f"bad sample row: {row!r}")
    return TimeSeries.from_arrays(t, v, label)


def write_series_csv(series: TimeSeries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "v"])
    writer.writerows(series.samples)
    return out.getvalue()
