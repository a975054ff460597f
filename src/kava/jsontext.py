"""kava's one JSON text format, that of json.dumps(value, indent=2,
ensure_ascii=False), written faster and without recursion: fragments and JSON-LD."""

import json

_SCALARS = frozenset({str, int, float, bool, type(None)})
_encode = json.JSONEncoder(ensure_ascii=False).encode
# a list as "[a\nb\nc]": a raw newline is only ever an item separator
_encode_lines = json.JSONEncoder(ensure_ascii=False, separators=("\n", ": ")).encode


def fragment_text(value, newline="\n") -> str:
    """Exactly json.dumps(value, indent=2, ensure_ascii=False), placed at the
    indentation that newline carries; a callable stands for text that it
    writes itself, given newline. Rows, an array of dicts that share one
    tuple of str keys and whose columns each hold scalars or lists of
    strings, are written column by column, a column of scalars by one
    C-encoder call. Every other non-empty array or object waits on an
    explicit stack, so the frames used do not grow with nesting. Raises
    ValueError for a container that holds itself, as json.dumps does."""
    parts, todo = [], [(value, newline)]  # (value, newline) pairs to write, and final texts
    open_ids = set()  # the id of each container whose closing text is not yet written
    while todo:
        item = todo.pop()
        if type(item) is str:
            parts.append(item)
            continue
        if type(item) is int:  # the id of a container whose items are all written
            open_ids.remove(item)
            continue
        value, newline = item
        text = value(newline) if callable(value) else None
        if isinstance(value, dict) and value:
            # '"key": ' for each key; json writes a key that is no str as a string
            heads = [_encode(k) + ": " if type(k) is str else _encode({k: 0})[1:-2] for k in value]
            items, ends = value.values(), "{}"
        elif isinstance(value, (list, tuple)) and value:
            text = _rows_text(value, newline)
            heads, items, ends = [""] * len(value), value, "[]"
        elif text is None:
            text = _encode(value)
        if text is not None:
            parts.append(text)
            continue
        if id(value) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(value))
        inner = newline + "  "
        todo += [newline + ends[1], id(value)]
        for head, v in zip(reversed(heads), reversed(items)):
            todo += [_encode(v) if type(v) in _SCALARS else (v, inner), "," + inner + head]
        todo[-1] = ends[0] + inner + heads[0]
    return "".join(parts)


def _rows_text(rows, newline):
    """fragment_text of a list of dicts that share one non-empty tuple of str
    keys and whose columns each hold scalars or lists of strings; None for
    any other list."""
    keys = tuple(rows[0]) if type(rows[0]) is dict else ()
    if (not keys or set(map(type, keys)) != {str} or set(map(type, rows)) != {dict}
            or set(map(tuple, rows)) != {keys}):
        return None
    field = newline + "    "
    columns = []
    for key, cells in zip(keys, zip(*map(dict.values, rows))):
        if set(map(type, cells)) <= _SCALARS:
            columns.append(_value_texts(key, cells, field))
        elif set(map(type, cells)) == {list} and {type(x) for c in cells for x in c} <= {str}:
            head = _encode(key) + ": "
            columns.append([head + _list_text(list(map(_encode, c)), field) for c in cells])
        else:
            return None
    return _row_list(columns, newline)


def _value_texts(key, values, field):
    """'"key": ' and the indented JSON of each value, at the indentation
    field carries. Scalars take one C-encoder call, whose raw newlines can
    only be its item separators (JSON escapes a newline inside a string)."""
    head = _encode(key) + ": "
    if set(map(type, values)) <= _SCALARS:
        return (head + _encode_lines(values)[1:-1].replace("\n", "\n" + head)).split("\n")
    return [head + fragment_text(v, field) for v in values]


def _list_text(items, field):
    """The indented JSON of a list, at the indentation field carries, from
    the JSON texts of its items, which hold no newline."""
    inner = field + "  "
    return "[" + inner + ("," + inner).join(items) + field + "]" if items else "[]"


def _row_list(columns, newline):
    """The indented JSON of a list of objects, at the indentation newline
    carries, from its columns of '"key": value' texts in key order."""
    item = newline + "  "
    field = item + "  "
    rows = list(map(("," + field).join, zip(*columns)))
    body = (item + "}," + item + "{" + field).join(rows)
    return "[" + item + "{" + field + body + item + "}" + newline + "]" if rows else "[]"
