"""The one JSON file writer: report JSON, the fill log and the model JSON.

`write_json(payload, path)` writes the bytes the standard library's
encoder writes with `indent=2, sort_keys=True`, followed by a newline,
for any payload of dicts with str keys, lists, tuples, str, int, float
(NaN and infinities included), bool and None. It is two to three times
faster on the program's payloads. The stdlib's indenting encoder (pure
Python up to 3.12) sorts every dict and makes a generator call per
value; here each distinct key set is sorted, and its `"key": ` heads
rendered, once per file, and the common scalars are rendered inline.
Output goes to the file a bounded chunk at a time as list elements are
rendered, so the document is never held whole as a string.

An iterator (a generator, say) is written as the list it yields, one
element at a time as it yields them, so a long list of records need
never exist whole: `zip_columns` yields records' fields from columns,
converting a bounded slice of each at a time.

Like the stdlib, an unserializable value (a set, a numpy integer) raises
TypeError. Unlike it, so does a key that is not a str; the stdlib would
convert int, float, bool and None keys.
"""

from __future__ import annotations

from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _string
from math import isfinite

_FLUSH = 256  # pending pieces after which a list element writes them out
_SLICE = 1024  # entries per column that zip_columns converts at a time
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


def _layout(keys: tuple, nl: str):
    """How a dict with these keys is written at the level that opens with
    nl: its keys in sorted order, the text before each key's value, the
    newline and indent of its values, and its closing text."""
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    inner = nl + "  "
    order = sorted(keys)
    heads = [f",{inner}{_string(key)}: " for key in order]
    heads[0] = "{" + heads[0][1:]
    return order, heads, inner, nl + "}"


def write_json(payload, path) -> None:
    """Write payload to path byte for byte as the stdlib's `dump` with
    `indent=2, sort_keys=True` would, followed by a newline."""
    layouts = {}  # (keys in insertion order, nl) -> _layout(keys, nl)
    parts = []  # rendered text not yet written
    append = parts.append
    float_repr, int_repr = float.__repr__, int.__repr__

    with open(path, "w", newline="") as fh:
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
            else:
                s = _scalar(o)
                if s is None:
                    raise TypeError(f"Object of type {type(o).__name__} "
                                    f"is not JSON serializable")
                append(s)

        value(payload, "\n")
        append("\n")
        fh.write("".join(parts))


def zip_columns(*columns):
    """zip(*columns), with each column sliced _SLICE entries at a time
    and a numpy slice turned into Python objects (tolist), so that a long
    column is never held whole as Python objects."""
    for lo in range(0, len(columns[0]), _SLICE):
        parts = [c[lo:lo + _SLICE] for c in columns]
        yield from zip(*(p.tolist() if hasattr(p, "tolist") else p
                         for p in parts))
