"""The names other code reaches into the package by.

`bench/spans.py` wraps the functions on its `WRAPPED` list, and
`PCMatrix.with_cell_missing`, by name; a deleted or renamed one would
otherwise fail only when the benchmark runs traced.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import perfcast

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,name",
                         [entry[:2] for entry in load_spans().WRAPPED])
def test_benchmark_wrapped_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"perfcast.{module}"),
                            name))


def test_benchmark_wrapped_method_resolves():
    assert callable(perfcast.PCMatrix.with_cell_missing)


def test_every_export_resolves():
    assert len(set(perfcast.__all__)) == len(perfcast.__all__)
    for name in perfcast.__all__:
        assert hasattr(perfcast, name), name
