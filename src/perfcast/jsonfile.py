"""The one JSON file writer: report JSON, the fill log and the model JSON.

`write_json(payload, path)` writes the bytes the standard library's
`dump` writes with `indent=2, sort_keys=True`, followed by a newline. The
stdlib's own encoder writes every dict, list, tuple and scalar: its
pure-Python `JSONEncoder.iterencode` yields the document a chunk at a
time, and each chunk goes to the file as it comes, so the document is
never held whole as a string. An unserializable value (a set, a numpy
integer, a generator) raises the stdlib's TypeError, and a dict key is
converted or refused as the stdlib does.

The one value the stdlib cannot write is a `Table`, written as the list
of its records. The encoder hands it to `default`, which parks it and
returns a marker string, and the encoder's next chunk is that string's
encoding. The writer writes the parked table in that chunk's place, at
the indentation of the line the chunk sits on. Only the chunk that
follows a `default` call is replaced, so a payload string that equals
the marker is written as itself.

A `Table` holds records as columns and is written column-wise, a slice
of _SLICE records at a time: each column's slice is converted in bulk
(`tolist`, with NaN and the infinities replaced by their JSON text from
one `isfinite` mask), each distinct value of a coded column is rendered
once per table with its `"key": ` head, and a slice's records come from
one `%` format of the record template repeated, whose `%s` renders an
int or a float as its repr. No record is built as a dict, and no
per-value call is made. On a 7,200-cell leave-one-out report (1.02 MB)
this takes about 0.54 of the CPU time of a record-at-a-time writer that
was at 20.0-20.5 ms on a 2-CPU Xeon host; float reprs are about 8 ms of
it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

import numpy as np

_SLICE = 256  # records of a Table rendered at a time
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_MARKER = "perfcast.jsonfile.Table"  # what the encoder writes for a Table

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


def _list(a):
    return a.tolist() if isinstance(a, np.ndarray) else a


def _check_key(key) -> None:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")


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
    `indent=2, sort_keys=True` would, followed by a newline; a `Table`
    is written as the list of its records."""
    pending = None  # the Table whose marker is the encoder's next chunk

    def default(o):
        nonlocal pending
        if not isinstance(o, Table):
            raise TypeError(f"Object of type {type(o).__name__} "
                            f"is not JSON serializable")
        pending = o
        return _MARKER

    chunks = json.JSONEncoder(indent=2, sort_keys=True,
                              default=default).iterencode(payload)
    line = ""  # the last chunk written that holds a newline
    with open(path, "w", newline="") as fh:
        for chunk in chunks:
            if pending is not None:  # chunk is the marker: write the table
                tail = line.rpartition("\n")[2]
                indent = len(tail) - len(tail.lstrip(" "))
                _table(pending, "\n" + " " * indent, fh)
                pending = None
            else:
                fh.write(chunk)
                if "\n" in chunk:
                    line = chunk
        fh.write("\n")


def _table(t: Table, nl: str, fh) -> None:
    """Write t as the list of its records, at the level that opens with
    nl, to fh."""
    n = len(t)
    if not n:
        fh.write("[]")
        return
    inner = nl + "  "  # a record's opening and closing brace
    field = inner + "  "  # a record's keys
    for key in t.columns:
        _check_key(key)
    keys = sorted(t.columns)
    # Every head but the first starts with ",". When the first key can be
    # absent, so does the first head, and a slice's records are patched:
    # "{," then opens a record (it is never JSON text before a newline)
    # and "{" inner "}" is an empty one.
    first = t.columns[keys[0]]
    opens = not (isinstance(first, tuple)
                 and any(v is ABSENT for v in first[1]))
    # The record's template and, per "%s" in it, the column and the coded
    # column's rendered pieces (None for a plain column). A coded column
    # with one piece is a constant in the template.
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
            pieces = ["" if v is ABSENT else head + json.dumps(
                          v, indent=2, sort_keys=True).replace("\n", field)
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
    fh.write(nl + "]")
