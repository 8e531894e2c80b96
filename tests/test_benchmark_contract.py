"""The names the benchmark harness (benchmarks/) reaches into the package by."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lidarplan
from lidarplan.cli import main

from test_cli import FAST

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


@pytest.mark.parametrize("flags", [
    FAST,
    # calls gain_curve and compare_weighted, whose traced wrappers read their results
    [*FAST, "--weights", "central=10", "--gain-budgets", "1,3"],
], ids=["fast", "weighted-gain-curve"])
def test_pipeline_hands_artifacts_over_in_memory(tmp_path, flags):
    """A traced pipeline loads the scene once, writes the two CSVs and the
    grid once and reads none of them back, and traced artifacts match an
    untraced run's."""
    traced, plain, trace = tmp_path / "traced", tmp_path / "plain", tmp_path / "trace.json"
    src = Path(lidarplan.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(trace), "pipeline", *flags, "--out", str(traced)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    tracer = load_tracer()
    spans = json.loads(trace.read_text())["spans"]
    assert tracer.calls(spans, "scene.load") == 1
    assert tracer.calls(spans, "discretization.csv_io") == 2
    assert tracer.calls(spans, tracer.GRID_IO_SPAN) == 1
    assert main(["pipeline", *flags, "--out", str(plain)]) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in traced.iterdir()) == names
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
