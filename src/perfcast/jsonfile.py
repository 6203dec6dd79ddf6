"""The one JSON file writer: report JSON, the fill log and the model JSON.

`write_json(payload, path)` writes the bytes the standard library's
encoder writes with `indent=2, sort_keys=True`, followed by a newline,
for any payload of dicts with str keys, lists, tuples, str, int, float
(NaN and infinities included), bool, None and `Table`s. The stdlib's
indenting encoder (pure Python up to 3.12) sorts every dict and makes a
generator call per value; here each distinct key set is sorted, and its
`"key": ` heads rendered, once per file, and the common scalars are
rendered inline. Output goes to the file a bounded chunk at a time as
list elements are rendered, so the document is never held whole as a
string.

An iterator (a generator, say) is written as the list it yields, one
element at a time as it yields them.

A `Table` holds records as columns and is written as the list of its
records, column-wise, a slice of _SLICE records at a time: each column's
slice is converted in bulk (`tolist`, with NaN and the infinities replaced
by their JSON text from one `isfinite` mask), each distinct value of a
coded column is rendered once per table with its `"key": ` head, and
a slice's records come from one `%` format of the record template
repeated, whose `%s` renders an int or a float as its repr. No record is
built as a dict, and no per-value call is made. On a 7,200-cell
leave-one-out report (1.02 MB) this takes about 0.54 of the CPU time of
a record-at-a-time writer that was at 20.0-20.5 ms on a 2-CPU Xeon host;
float reprs are about 8 ms of it.

Like the stdlib, an unserializable value (a set, a numpy integer) raises
TypeError. Unlike it, so does a key that is not a str; the stdlib would
convert int, float, bool and None keys.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from math import isfinite

import numpy as np

_FLUSH = 256  # pending pieces after which a list element writes them out
_SLICE = 256  # records of a Table rendered at a time
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

ABSENT = object()  # a coded column's value for "this record has no such key"


@dataclass(frozen=True, eq=False)
class Table:
    """Records held as columns, written as the list of the records
    {key: entry i of columns[key]} for i in range(n).

    A column is a 1-d numpy array of integers or of float64, or a coded
    column (codes, values): record i's value is values[codes[i]], and a
    record whose value is ABSENT has no such key. Every column has n
    entries (codes).
    """
    columns: dict

    def __len__(self) -> int:
        col = next(iter(self.columns.values()), ())
        return len(col[0] if isinstance(col, tuple) else col)

    def records(self) -> list[dict]:
        """The records as dicts (a coded value is shared, not copied)."""
        keys = list(self.columns)
        entries = []
        for col in self.columns.values():
            if isinstance(col, tuple):
                codes, values = col
                entries.append([values[k] for k in _list(codes)])
            else:
                entries.append(col.tolist())
        return [{k: v for k, v in zip(keys, record) if v is not ABSENT}
                for record in zip(*entries)]


def coded(items) -> tuple[list[int], list]:
    """(codes, values): the distinct hashable items in first-seen order
    and each item's index among them, a coded column of items."""
    values = dict.fromkeys(items)
    index = {v: i for i, v in enumerate(values)}
    return list(map(index.__getitem__, items)), list(values)


def _list(a):
    return a.tolist() if isinstance(a, np.ndarray) else a


def _scalar(o) -> str | None:
    """o as the stdlib encoder renders it, or None if o is not a scalar."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        r = float.__repr__(o)
        return _SPECIAL.get(r, r)
    return None


def _check_key(key) -> None:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")


def _layout(keys: tuple, nl: str):
    """How a dict with these keys is written at the level that opens with
    nl: its keys in sorted order, the text before each key's value, the
    newline and indent of its values, and its closing text."""
    for key in keys:
        _check_key(key)
    inner = nl + "  "
    order = sorted(keys)
    heads = [f",{inner}{_string(key)}: " for key in order]
    heads[0] = "{" + heads[0][1:]
    return order, heads, inner, nl + "}"


def _check_column(key, a, n: int) -> None:
    if not isinstance(a, np.ndarray) or a.ndim != 1:
        raise TypeError(f"Table column {key!r} must be a 1-d numpy array "
                        f"or (codes, values), not {type(a).__name__}")
    if a.dtype.kind not in "iu" and a.dtype != np.float64:
        raise TypeError(f"Table column {key!r} must hold integers or "
                        f"float64, not {a.dtype}")
    if a.size != n:
        raise ValueError(f"Table column {key!r} has {a.size} entries, "
                         f"not {n}")


def _entries(s: np.ndarray) -> list:
    """The slice s of a plain column as the values that "%s" renders as
    their JSON text: ints and floats (str of a float is its repr), with
    NaN and the infinities replaced by their JSON text."""
    values = s.tolist()
    if s.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(s)).tolist():
            values[i] = _SPECIAL[float.__repr__(values[i])]
    return values


def write_json(payload, path) -> None:
    """Write payload to path byte for byte as the stdlib's `dump` with
    `indent=2, sort_keys=True` would, followed by a newline."""
    with open(path, "w", newline="") as fh:
        _write(payload, "\n", fh, {})
        fh.write("\n")


def _text(o, nl: str, layouts: dict) -> str:
    """o rendered at the level that opens with nl, as a string."""
    s = _scalar(o)
    if s is not None:  # a program name, say: no writer needed
        return s
    buf = io.StringIO()
    _write(o, nl, buf, layouts)
    return buf.getvalue()


def _write(payload, nl: str, fh, layouts: dict) -> None:
    """Write payload, rendered at the level that opens with nl, to fh.
    layouts caches _layout(keys, nl) by (keys in insertion order, nl)."""
    parts = []  # rendered text not yet written
    append = parts.append
    float_repr, int_repr = float.__repr__, int.__repr__

    def value(o, nl):
        if isinstance(o, dict):
            if not o:
                append("{}")
                return
            keys = tuple(o)
            layout = layouts.get((keys, nl))
            if layout is None:
                layout = layouts[keys, nl] = _layout(keys, nl)
            order, heads, inner, close = layout
            for key, head in zip(order, heads):
                v = o[key]
                t = type(v)
                if t is float and isfinite(v):
                    append(head + float_repr(v))
                elif t is str:
                    append(head + _string(v))
                elif t is int:
                    append(head + int_repr(v))
                else:
                    append(head)
                    value(v, inner)
            append(close)
        elif isinstance(o, (list, tuple, Iterator)):
            inner = nl + "  "
            sep = first = "[" + inner
            for item in o:
                append(sep)
                sep = "," + inner
                value(item, inner)
                if len(parts) > _FLUSH:
                    fh.write("".join(parts))
                    parts.clear()
            append("[]" if sep is first else nl + "]")
        elif isinstance(o, Table):
            table(o, nl)
        else:
            s = _scalar(o)
            if s is None:
                raise TypeError(f"Object of type {type(o).__name__} "
                                f"is not JSON serializable")
            append(s)

    def table(t, nl):
        n = len(t)
        if not n:
            append("[]")
            return
        inner = nl + "  "  # a record's opening and closing brace
        field = inner + "  "  # a record's keys
        for key in t.columns:
            _check_key(key)
        keys = sorted(t.columns)
        # Every head but the first starts with ",". When the first key
        # can be absent, so does the first head, and a slice's records
        # are patched: "{," then opens a record (it is never JSON text
        # before a newline) and "{" inner "}" is an empty one.
        first = t.columns[keys[0]]
        opens = not (isinstance(first, tuple)
                     and any(v is ABSENT for v in first[1]))
        # The record's template and, per "%s" in it, the column and the
        # coded column's rendered pieces (None for a plain column). A
        # coded column with one piece is a constant in the template.
        template, slots = ["{"], []
        for j, key in enumerate(keys):
            col = t.columns[key]
            head = ("" if opens and j == 0 else ",") + field
            head += _string(key) + ": "
            if isinstance(col, tuple):
                codes, values = col
                if len(codes) != n:
                    raise ValueError(f"Table column {key!r} has "
                                     f"{len(codes)} entries, not {n}")
                pieces = ["" if v is ABSENT else head + _text(v, field,
                                                              layouts)
                          for v in values]
                if len(set(pieces)) == 1:
                    template.append(pieces[0].replace("%", "%%"))
                else:
                    template.append("%s")
                    slots.append((codes, pieces))
            else:
                _check_column(key, col, n)
                template.append(head.replace("%", "%%") + "%s")
                slots.append((col, None))
        template.append(inner + "}")
        record = "".join(template)
        joiner = "," + inner
        width = len(slots)
        fh.write("".join(parts))
        parts.clear()
        sep = "[" + inner
        for lo in range(0, n, _SLICE):
            hi = min(lo + _SLICE, n)
            if lo == 0 or hi - lo < _SLICE:  # the template of a slice
                text = joiner.join([record] * (hi - lo))
            values = [None] * (width * (hi - lo))
            for j, (col, pieces) in enumerate(slots):
                values[j::width] = (
                    _entries(col[lo:hi]) if pieces is None
                    else map(pieces.__getitem__, _list(col[lo:hi])))
            out = text % tuple(values)
            if not opens:
                out = out.replace("{," + field, "{" + field).replace(
                    "{" + inner + "}", "{}")
            fh.write(sep)
            fh.write(out)
            sep = joiner
        append(nl + "]")

    value(payload, nl)
    fh.write("".join(parts))
    # value and table refer to each other: break the cycle, so that they
    # and what they hold are freed now, not by the garbage collector
    del value, table
