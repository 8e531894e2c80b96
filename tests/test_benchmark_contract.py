"""The names the benchmark harness (benchmarks/) reaches into the package by."""

import importlib
import importlib.util
from pathlib import Path

import lidarplan

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines SPANS; install() is not called
    return module


def test_traced_names_resolve():
    for module, names in load_tracer().SPANS.items():
        mod = importlib.import_module(f"lidarplan.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"lidarplan.{module}.{name}"
    assert callable(importlib.import_module("lidarplan.cli").load_scene)


def test_public_names_resolve():
    missing = [name for name in lidarplan.__all__ if not hasattr(lidarplan, name)]
    assert missing == []
