"""perfcast.jsonfile.write_json against the stdlib encoder as the oracle:
the file must hold json.dump(payload, fh, indent=2, sort_keys=True) and a
newline, byte for byte."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast import jsonfile
from perfcast.jsonfile import write_json

# Quotes, backslashes, control characters, non-ASCII and astral-plane
# characters, in keys as well as in values.
TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃",
          "\U0001f600", '"quoted"', "a\\b", "", "key", "Key", "k"]
texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY))
floats = st.one_of(
    st.floats(),
    st.floats().map(np.float64),  # a float subclass renders as a float
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     1e16, 1e-7, 0.1, 2.0**53 + 2]))
scalars = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
    st.integers(), floats, texts)


def containers(children):
    return st.one_of(st.lists(children, max_size=5),
                     st.lists(children, max_size=5).map(tuple),
                     st.dictionaries(texts, children, max_size=5))


payloads = st.recursive(scalars, containers, max_leaves=30)

# Records shaped as the program writes them: cell records (with the
# ensemble's nested `excluded` list), fill records, and the same keys in
# another insertion order.
cells = st.fixed_dictionaries(
    {"row": st.integers(0, 500), "col": st.integers(0, 50),
     "predicted": floats, "target": floats, "error": floats,
     "algorithm": texts},
    optional={"excluded": st.lists(texts, max_size=3)})
fills = st.fixed_dictionaries(
    {"program": texts, "args": texts, "machine": texts,
     "predicted_seconds": floats, "algorithm": texts})
reordered = cells.map(lambda d: dict(reversed(list(d.items()))))
records = st.lists(st.one_of(cells, fills, reordered), max_size=40)
reports = st.fixed_dictionaries({
    "reports": st.lists(st.fixed_dictionaries({
        "dataset": texts, "note": st.none() | texts,
        "config": st.dictionaries(texts, payloads, max_size=4),
        "results": st.lists(st.fixed_dictionaries({
            "algorithm": texts, "total_error": st.none() | floats,
            "n_cells": st.integers(0, 100), "cells": records}),
            max_size=3)}), max_size=3),
    "seed": st.integers(0, 2**32)})


def oracle_bytes(payload, path) -> bytes:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


def assert_same_bytes(payload, out_dir):
    write_json(payload, out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes()
            == oracle_bytes(payload, out_dir / "want.json"))


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_any_payload_matches_the_stdlib(out_dir, payload):
    assert_same_bytes(payload, out_dir)


@settings(max_examples=100, deadline=None)
@given(reports)
def test_report_shaped_payload_matches_the_stdlib(out_dir, payload):
    assert_same_bytes(payload, out_dir)


def as_iterators(payload):
    """payload with every list and tuple turned into a generator."""
    if isinstance(payload, dict):
        return {k: as_iterators(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return (as_iterators(v) for v in payload)
    return payload


@settings(max_examples=100, deadline=None)
@given(st.one_of(payloads, reports))
def test_iterators_are_written_as_the_lists_they_yield(out_dir, payload):
    write_json(as_iterators(payload), out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes()
            == oracle_bytes(payload, out_dir / "want.json"))


def test_empty_iterators(out_dir):
    payload = {"a": iter(()), "b": (x for x in []), "c": [iter([])],
               "d": map(str, [1, 2])}
    write_json(payload, out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes() == oracle_bytes(
        {"a": [], "b": [], "c": [[]], "d": ["1", "2"]},
        out_dir / "want.json"))


def test_zip_columns_slices_long_columns(monkeypatch):
    monkeypatch.setattr(jsonfile, "_SLICE", 3)
    ints = np.arange(8)
    floats = np.linspace(0.1, 0.8, 8)
    names = [f"n{i}" for i in range(8)]
    got = list(jsonfile.zip_columns(ints, floats, names, tuple(names)))
    assert got == list(zip(ints.tolist(), floats.tolist(), names, names))
    assert all(type(a) is int and type(b) is float for a, b, *_ in got)
    assert list(jsonfile.zip_columns(np.empty(0), [])) == []


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], [{}]],
    {"x": [True, 1, False, 0, None, 1.0, 0.0, -0.0]},
    [math.nan, math.inf, -math.inf, 5e-324, 1e16, -1e16],
    "top-level string", 3, 2.5, None, True,
    {"same": {"a": 1, "b": 2}, "depth": [{"b": 2, "a": 1}, {"a": 1, "b": 2}]},
])
def test_edge_payloads_match_the_stdlib(out_dir, payload):
    assert_same_bytes(payload, out_dir)


@pytest.mark.parametrize("bad", [
    {1, 2}, np.int64(3), np.float32(1.5), object(), b"bytes"])
@pytest.mark.parametrize("where", ["top", "value", "record"])
def test_unserializable_value_raises_type_error(out_dir, bad, where):
    payload = {"top": bad, "value": {"k": bad},
               "record": {"cells": [{"row": 0}, {"row": bad}]}}[where]
    with pytest.raises(TypeError):
        json.dump(payload, io.StringIO(), indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(payload, out_dir / "bad.json")


@pytest.mark.parametrize("key", [1, 1.5, None, True])
def test_non_str_key_is_rejected(out_dir, key):
    # Every payload the program writes has str keys. json.dump would
    # write this key as a string; the writer refuses it instead.
    with pytest.raises(TypeError, match="keys must be str"):
        write_json({"ok": {key: 1}}, out_dir / "key.json")


def test_long_list_is_written_in_chunks(out_dir, monkeypatch):
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

        def close(self):
            pass

    monkeypatch.setattr(jsonfile, "open", lambda *a, **k: Recorder(),
                        raising=False)
    payload = {"cells": [{"row": i, "col": i % 7, "predicted": i / 3,
                          "target": 1.0, "error": 0.5, "algorithm": "ridge"}
                         for i in range(5000)]}
    write_json(payload, out_dir / "unused.json")
    assert len(writes) > 10
    assert max(writes) < sum(writes) / 10
