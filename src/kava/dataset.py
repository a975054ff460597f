"""Typed record tables and time series."""

from __future__ import annotations

import csv
import io
import operator
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property, partial
from itertools import compress, repeat, zip_longest

from .errors import (
    CsvSyntaxError,
    CsvTypeError,
    DuplicateIdentifier,
    HeaderMismatch,
    UnknownVariable,
)
from .predicate import Predicate, _compare, all_records, compile_mask, parse_number, variables
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
        import numpy as np  # here, so that the records commands never load numpy
        pairs = np.array(samples, dtype=np.float64).reshape(len(samples), 2)
        self._adopt(pairs[:, 0], pairs[:, 1], label)

    @classmethod
    def from_arrays(cls, t, v, label="") -> TimeSeries:
        """Series over copies of the time stamps ``t`` and values ``v``."""
        series = cls.__new__(cls)
        series._adopt(t, v, label)
        return series

    def _adopt(self, t, v, label):
        import numpy as np
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
        return (  # as np.array_equal: NaN is unequal, -0.0 equals 0.0
            self.label == other.label
            and self.t.tolist() == other.t.tolist()
            and self.v.tolist() == other.v.tolist()
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
    its distinct values and, per record, the index of its value, numbered
    in order of first appearance: ``bytes`` for at most 256 values, else an
    ``array`` of the smallest unsigned type. A mask of records is an int of
    one byte per record, 1 if selected, else 0, the first record lowest."""

    def __init__(self, values: tuple, codes: bytes | array):
        self.values, self.codes = values, codes

    def decode(self) -> list:
        """The value of every record, in record order."""
        return list(map(self.values.__getitem__, self.codes))

    def compare(self, op, constant) -> int:
        """Mask of the records whose value v passes ``_compare(v, op, constant)``:
        ``=`` and ``!=`` by a dict lookup, a range against a number by a ``bisect``
        among the ranked numbers, any other by a ``_compare`` per distinct value."""
        if op in ("=", "!="):
            typed = self._typed[isinstance(constant, str)]
            hits = typed & self.equal(constant)
            return hits if op == "=" else typed ^ hits
        ranked = self._ranked
        if ranked is not None and type(constant) in _NUMBER_TYPES and constant == constant:
            numbers, planes, held = ranked
            at = (bisect_left if op in (">=", "<") else bisect_right)(numbers, constant)
            above = _at_least(planes, at + 1)  # the records from the number at ``at`` up
            return above if op in (">", ">=") else held ^ above
        return self._select(bytes(_compare(v, op, constant) for v in self.values))

    @cached_property
    def _typed(self) -> tuple:
        """Masks of the records holding neither None nor a str, and a str."""
        strings = self._select(bytes(map(isinstance, self.values, repeat(str))))
        return all_records(len(self.codes)) ^ strings ^ self.equal(None), strings

    @cached_property
    def _ranked(self):
        """The unequal numbers among the values (not NaN) in order, each
        record's rank among them from 1 (0 for no number) as byte planes, and
        the mask of the records with a number; None unless every other value
        is None or a str. A set merges the equal numbers, as 1 and 1.0."""
        if not set(map(type, self.values)) <= _RANKABLE:
            return None
        numbers = sorted({v for v in self.values if type(v) in _NUMBER_TYPES and v == v})
        rank_of = dict(zip(numbers, range(1, len(numbers) + 1)))
        ranks = list(map(rank_of.get, self.values, repeat(0)))  # per code
        planes = _planes(_pack(list(map(ranks.__getitem__, self.codes)), len(numbers) + 1))
        return numbers, planes, _at_least(planes, 1)

    def equal(self, value) -> int:
        """Mask of the records whose value ``== value``, by a dict lookup among the values."""
        hits, planes = 0, _planes(self.codes)
        for code in self._equal_codes.get(value, ()):
            if self.values[code] == value:  # a NaN is found but unequal
                hits |= _at_least(planes, code) ^ _at_least(planes, code + 1)
        return hits

    def _select(self, flags) -> int:
        """Mask of the records whose code's flag, a 0 or 1 per value, is 1."""
        if 1 not in flags:
            return 0
        if type(self.codes) is bytes:
            return _mask(self.codes.translate(bytes(flags).ljust(256, b"\0")))
        return _mask(bytes(map(flags.__getitem__, self.codes)))

    @cached_property
    def _unmerged(self) -> bool:
        """Whether no two values are one dict key, as 1, 1.0 and True are;
        a set merges exactly the values that dict keys merge."""
        return len(set(self.values)) == len(self.values)

    @cached_property
    def _equal_codes(self) -> dict:
        """Per value as a dict key, the codes of the values equal to it."""
        if self._unmerged:
            return dict(zip(self.values, zip(range(len(self.values)))))
        groups = {}
        for code, value in enumerate(self.values):
            groups.setdefault(value, []).append(code)
        return groups


_NUMBER_TYPES = frozenset({float, int, bool})
_RANKABLE = _NUMBER_TYPES | {str, type(None)}
_mask = partial(int.from_bytes, byteorder="little")  # of one 0 or 1 byte per record


def _pack(codes: list, count: int) -> bytes | array:
    """Codes below count as bytes, or an array of the smallest unsigned type (filled by struct)."""
    if count <= 256:
        return bytes(codes)
    typecode = next(t for t in "HILQ" if count <= 256 ** struct.calcsize(t))
    return array(typecode, struct.pack(f"{len(codes)}{typecode}", *codes))


def _planes(numbers: bytes | array) -> list:
    """Byte planes of unsigned numbers, the most significant byte's first."""
    if type(numbers) is bytes:
        return [numbers]
    raw, size = numbers.tobytes(), numbers.itemsize
    order = range(size) if sys.byteorder == "big" else range(size - 1, -1, -1)
    return [raw[i::size] for i in order]


def _at_least(planes: list, k: int) -> int:
    """Mask of the records whose number in the byte planes is at least k, a
    bit-sliced compare from the lowest plane up: a record passes a plane when
    its byte there is above k's, or equal to it and the record passed below."""
    if k >> 8 * len(planes):
        return 0
    digits = k.to_bytes(len(planes), "big")
    hits = _mask(planes[-1].translate(bytes(digits[-1]).ljust(256, b"\1")))
    for plane, digit in zip(planes[-2::-1], digits[-2::-1]):  # 2 above the digit, 1 at it
        passed = _mask(plane.translate((bytes(digit) + b"\1").ljust(256, b"\2"))) + hits
        hits = passed >> 1 & all_records(len(plane))  # a byte's sum is 2 or 3 where it passes
    return hits


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
    return Column(tuple(distinct), _pack(codes, len(distinct)))


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

    def identifier_hits(self, mask: int) -> int:
        """A mask over the identifier codes, one byte per code: whether the
        identifier of a record the mask selects is equal to the code's value
        as a dict key (1, 1.0 and True are, a NaN object is only itself)."""
        column = self.identifier_column
        if len(column.values) == len(self) and column._unmerged:
            return mask  # record i has code i, and no other code an equal value
        return _mask(bytes(map(self.matched_identifiers(mask).__contains__, column.values)))

    def matched_identifiers(self, mask: int) -> set:
        """Identifiers of the records a mask selects, added to the set in
        record order (of equal identifiers the first one is kept)."""
        values, codes = self.identifier_column.values, self.identifier_column.codes
        return {values[c] for c in compress(codes, mask.to_bytes(len(self), "little"))}


def _parse_text(raw):
    return raw or None


def load_csv(text: str | list, schema: Schema) -> Dataset:
    """Parse CSV text (first row header) against the schema into a dataset
    stored as columns; ``text`` may also be the rows ``csv.reader`` made
    of it.

    Header must contain exactly the schema variables, in any order. Plain
    text (``_plain_cells``) is split in one pass, any other by ``csv.reader``.
    Each distinct cell text of a column is parsed once and given one code;
    a column of digits only, or of texts that each have a ".", is
    converted by one ``int()`` or ``float()`` map, with the values
    ``parse_number`` gives. An INFER variable is a NUMBER when that parse
    finds a number and no other text, else a STRING; the dataset's schema
    holds the decided kinds. Errors are those of a row-by-row read: the
    first bad cell, or missing or repeated identifier, wins.
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
    (one ``bytes.translate`` keeps the commas and newlines of its UTF-8
    form), no line past ``csv.field_size_limit()`` and no line of empty
    cells only, which ``csv.reader`` reads as a row that load_csv drops, or
    as none."""
    if not text or '"' in text or "\r" in text:
        return None
    text += "" if text.endswith("\n") else "\n"
    line = "," * text.count(",", 0, text.index("\n")) + "\n"  # the header's separators
    try:
        separators = text.encode().translate(None, _NOT_SEPARATORS)
    except ValueError:  # a lone surrogate has no UTF-8 form
        return None
    if (
        separators != line.encode() * (len(separators) // len(line))
        or "\n" + line in "\n" + text  # a line of empty cells only
        or not _within_field_limit(text)
    ):
        return None
    cells = text.replace("\n", ",").split(",")
    header = cells[: len(line)]  # a line holds one separator per cell
    del cells[: len(line)], cells[-1]  # the header's, and the one after the final newline
    return header, cells


_NOT_SEPARATORS = bytes(range(10)) + bytes(range(11, 44)) + bytes(range(45, 256))  # not \n or ,


def _parse_column(cells, kind):
    """The Column of one variable's cells, or None when a cell of a NUMBER
    variable is not a number, and the kind, decided for INFER. One pass
    numbers the distinct cell texts in order of first appearance; each is
    parsed once (see ``_parse_numbers``), and texts whose values share one
    ``_key``, such as "1" and "01", share one code."""
    code_of = {}  # cell text -> its number
    text_codes = list(map(code_of.setdefault, cells, map(len, repeat(code_of))))
    texts = list(code_of)
    try:
        values = list(map(_parse_text, texts)) if kind == STRING else _parse_numbers(texts)
    except ValueError:  # at a text that is no number
        if kind == NUMBER:
            return None, kind
        kind, values = STRING, list(map(_parse_text, texts))
    if kind == INFER:  # a number variable has a number
        kind = NUMBER if values.count(None) < len(values) else STRING
    if not all(map(operator.eq, values, values)):  # each NaN cell is its own value:
        value_of = dict(zip(texts, values))  # float() makes a new NaN object per cell
        cell_values = [value_of[c] if value_of[c] == value_of[c] else float(c) for c in cells]
        return _encode(cell_values), kind
    unmerged = len(set(values)) == len(values)  # no two values are equal, so none share a key
    if not unmerged:
        merged = _encode(values)
        values, text_codes = merged.values, list(map(merged.codes.__getitem__, text_codes))
    column = Column(tuple(values), _pack(text_codes, len(values)))
    if unmerged:
        column._unmerged = True  # what the set above found
    return column, kind


def _parse_numbers(texts: list) -> list:
    """``parse_number`` of each text, by one C-level ``int()`` or ``float()``
    map where that gives the same values and errors; the empty text and
    None are None. ``parse_number`` reads a text of digits with ``int()``
    when ``int()`` takes it (not "²", nor more digits than it reads: then
    the texts are parsed one by one), and a text with a "." with
    ``float()`` alone. Neither map makes a NaN. Other texts, such as signed
    ints, exponents without a "." and ints among decimals, are parsed one
    by one."""
    rest = list(filter(None, texts))
    joined = "".join(rest)
    if joined.isdigit():
        try:
            values = list(map(int, rest))
        except ValueError:
            return list(map(parse_number, texts))
    elif all(map(operator.contains, rest, repeat("."))):
        values = list(map(float, rest))
    else:
        return list(map(parse_number, texts))
    for at in sorted(texts.index(t) for t in ("", None) if t in texts):
        values.insert(at, None)
    return values


def _identifiers_unique(schema, columns, length) -> bool:
    """Whether every record has an identifier, and no two equal ones."""
    parts = [columns[name] for name in schema.identifying]
    if not parts:
        return True
    if any(None in part.values for part in parts):
        return False
    if len(parts) == 1:  # one value per code; set() merges 1, 1.0 and -0.0, 0
        return len(parts[0].values) == length and parts[0]._unmerged
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
    keep = compile_mask(predicate)(dataset.columns).to_bytes(len(dataset), "little")
    columns = {
        name: _encode(list(compress(column.decode(), keep)))
        for name, column in dataset.columns.items()
    }
    return Dataset.from_columns(dataset.schema, columns, keep.count(1))


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
            import numpy as np
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
