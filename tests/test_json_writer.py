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
from perfcast.jsonfile import ABSENT, Table, write_json

# Quotes, backslashes, control characters, non-ASCII and astral-plane
# characters, in keys as well as in values.
TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃",
          "\U0001f600", '"quoted"', "a\\b", "", "key", "Key", "k", "%s",
          "100%"]
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


# Tables: plain int and float columns and coded columns, against the
# list of dicts they stand for.
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
present_values = st.one_of(texts, st.lists(texts, max_size=3), payloads)
coded_values = present_values | st.just(ABSENT)


@st.composite
def tables(draw, max_rows=8):
    """(table, records): a Table of up to max_rows records and the list
    of dicts it is written as. Every key but the first in sorted order
    can be ABSENT."""
    n = draw(st.integers(0, max_rows))
    keys = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    columns, entries = {}, {}
    for key in keys:
        kind = draw(st.sampled_from(["int", "float", "coded"]))
        if kind == "int":
            ints = draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                 min_size=n, max_size=n))
            columns[key] = np.array(ints, dtype=np.int64)
            entries[key] = ints
        elif kind == "float":
            col = np.array(draw(st.lists(
                st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
                min_size=n, max_size=n)), dtype=np.float64)
            columns[key] = col
            entries[key] = list(col)  # np.float64 entries
        else:
            values = draw(st.lists(
                present_values if key == min(keys) else coded_values,
                min_size=1, max_size=4))
            codes = draw(st.lists(st.integers(0, len(values) - 1),
                                  min_size=n, max_size=n))
            if draw(st.booleans()):
                codes = np.array(codes, dtype=np.intp)
            columns[key] = (codes, values)
            entries[key] = [values[c] for c in codes]
    records = [{k: entries[k][i] for k in keys
                if entries[k][i] is not ABSENT} for i in range(n)]
    return Table(columns), records


def nested(table, records, path):
    """table and records, each wrapped in the same dicts and lists:
    path is a list of keys, None for a one-element list."""
    for key in reversed(path):
        table, records = (([table], [records]) if key is None else
                          ({key: table, "z": 1}, {key: records, "z": 1}))
    return table, records


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.none() | texts, max_size=3),
       st.sampled_from([1, 2, 3, 256]))
def test_table_is_written_as_its_records(out_dir, drawn, path, size):
    payload, want = nested(*drawn, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonfile, "_SLICE", size)
        write_json(payload, out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes()
            == oracle_bytes(want, out_dir / "want.json"))


@pytest.mark.parametrize("n", range(10))
def test_table_slices_long_columns(out_dir, monkeypatch, n):
    # slices of 3 records: n from 0 up crosses one and two boundaries
    monkeypatch.setattr(jsonfile, "_SLICE", 3)
    floats = np.linspace(0.1, 0.9, n)
    floats[1::4] = np.nan
    names = [f"n{i % 3}" for i in range(n)]
    table = Table({"i": np.arange(n), "x": floats,
                   "name": (np.arange(n) % 3, ["n0", "n1", "n2"]),
                   "opt": (np.arange(n) % 2, [ABSENT, ["a", "b"]])})
    records = [{"i": i, "x": x, "name": name} | ({"opt": ["a", "b"]}
                                                 if i % 2 else {})
               for i, (x, name) in enumerate(zip(floats.tolist(), names))]
    assert len(table) == n
    write_json({"t": table}, out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes()
            == oracle_bytes({"t": records}, out_dir / "want.json"))


@settings(max_examples=100, deadline=None)
@given(tables())
def test_table_records_are_its_dicts(out_dir, drawn):
    table, want = drawn
    write_json(table.records(), out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes()
            == oracle_bytes(want, out_dir / "want.json"))


@pytest.mark.parametrize("columns,error", [
    ({"x": [1.0, 2.0]}, TypeError),
    ({"x": np.ones((2, 1))}, TypeError),
    ({"x": np.ones(2, dtype=np.float32)}, TypeError),
    ({"x": np.array(["a", "b"])}, TypeError),
    ({"x": np.ones(2), "y": np.arange(3)}, ValueError),
    ({"x": np.ones(2), "y": ([0], ["a"])}, ValueError),
    ({"x": np.ones(2), 3: np.ones(2)}, TypeError),
    # "a" sorts first, and the record template opens with it
    ({"b": ([0, 1], [ABSENT, "x"]), "a": ([0, 1], [ABSENT, 7])}, ValueError),
    ({"b": np.ones(2), "a": ([0, 0], [7, ABSENT])}, ValueError),
])
def test_malformed_table_is_rejected(out_dir, columns, error):
    with pytest.raises(error):
        write_json({"t": Table(columns)}, out_dir / "bad.json")


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], [{}]],
    {"x": [True, 1, False, 0, None, 1.0, 0.0, -0.0]},
    [math.nan, math.inf, -math.inf, 5e-324, 1e16, -1e16],
    "top-level string", 3, 2.5, None, True,
    {"same": {"a": 1, "b": 2}, "depth": [{"b": 2, "a": 1}, {"a": 1, "b": 2}]},
    # keys the stdlib converts to strings
    {1: "one"}, {"ok": {1.5: [1]}}, [{None: {"a": 1}}], {True: None},
])
def test_edge_payloads_match_the_stdlib(out_dir, payload):
    assert_same_bytes(payload, out_dir)


@pytest.mark.parametrize("bad", [
    {1, 2}, np.int64(3), np.float32(1.5), object(), b"bytes",
    (x for x in [1])])
@pytest.mark.parametrize("where", ["top", "value", "record"])
def test_unserializable_value_raises_type_error(out_dir, bad, where):
    payload = {"top": bad, "value": {"k": bad},
               "record": {"cells": [{"row": 0}, {"row": bad}]}}[where]
    with pytest.raises(TypeError):
        json.dump(payload, io.StringIO(), indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(payload, out_dir / "bad.json")


def small_table():
    table = Table({"i": np.arange(3), "s": ([0, 1, 0], ["a", ABSENT])})
    return table, [{"i": 0, "s": "a"}, {"i": 1}, {"i": 2, "s": "a"}]


def test_string_equal_to_the_marker_is_written_verbatim(out_dir):
    # only the chunk after a Table is replaced, not one that looks alike
    table, want = small_table()
    marker = jsonfile._MARKER
    payload = {"a": marker, "b": [marker, table, marker], "c": marker}
    write_json(payload, out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes() == oracle_bytes(
        {"a": marker, "b": [marker, want, marker], "c": marker},
        out_dir / "want.json"))


def test_top_level_table_and_tables_beside_strings(out_dir):
    table, want = small_table()
    write_json(table, out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes()
            == oracle_bytes(want, out_dir / "want.json"))
    empty = Table({"x": np.zeros(0)})
    # a string's newline is escaped, so it never sets the indentation
    write_json(["s\n  ", table, "t", table, empty, {"u\n": [table]}],
               out_dir / "got.json")
    assert ((out_dir / "got.json").read_bytes() == oracle_bytes(
        ["s\n  ", want, "t", want, [], {"u\n": [want]}],
        out_dir / "want.json"))


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
