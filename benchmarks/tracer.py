"""Per-layer spans and counters for one `lidarplan pipeline`, timed from outside.

Run as a script, this is the traced child process:

    python3 benchmarks/tracer.py TRACE.json pipeline --out DIR ...

It imports `lidarplan.cli` inside a `setup.import` span, wraps the public
functions of each layer module in every module that holds a reference to
them (``from .raycast import simulate_sensor`` binds a second name in
`evaluation`, and `cli._STAGES` holds the stage functions in a dict), calls
`lidarplan.cli.main` in this process and writes the spans and counters to
TRACE.json when it returns.  The program's own source is not modified.

`layer_metrics` turns such a trace into the benchmark's per-layer metrics.
`geometry` has no span: the other modules call it below any boundary this
file can wrap, so its time shows inside discretization, scene and
evaluation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

# module -> function name -> span name.
SPANS = {
    "scene": {"load_scene": "scene.load"},
    "discretization": {
        "discretize_roi": "discretization.discretize",
        "enumerate_candidates": "discretization.enumerate",
        "write_targets_csv": "discretization.csv_io",
        "read_targets_csv": "discretization.csv_io",
        "write_candidates_csv": "discretization.csv_io",
        "read_candidates_csv": "discretization.csv_io",
    },
    "raycast": {
        "build_visibility_grid": "raycast.build_grid",
        "simulate_sensor": "raycast.simulate",
        "generate_beams": "raycast.beams",
        "visibility_row": "raycast.visibility_row",
        "eligible_samples": "raycast.eligible",
    },
    "solver": {
        "solve_exact": "solver.exact",
        "solve_greedy": "solver.greedy",
        "verify_solution": "solver.verify",
    },
    "evaluation": {
        "occlusion_monte_carlo": "evaluation.occlusion",
        "sample_density": "evaluation.density",
        "gain_curve": "evaluation.gain_curve",
        "compare_weighted": "evaluation.compare_weighted",
        "render_coverage_map": "evaluation.render",
    },
    "cli": {
        "stage_grid": "cli.grid_stage",
        "stage_solve": "cli.solve_stage",
        "stage_eval": "cli.eval_stage",
        "stage_render": "cli.render_stage",
        "stage_pipeline": "cli.pipeline",
        "main": "cli.main",
    },
}
GRID_IO_SPAN = "raycast.grid_io"  # VisibilityGrid.save / VisibilityGrid.load
STAGE_SPANS = ("cli.grid_stage", "cli.solve_stage", "cli.eval_stage", "cli.render_stage")


class Recorder:
    """Spans and counters kept in memory; thread-safe.

    A span opened in a worker thread with no open span of its own takes
    the innermost open span of the creating thread as its parent, which
    is the call that handed the work to the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self.beams_per_spec: dict = {}

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = value

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident(),
                })


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _observe(rec: Recorder, fn, args, kwargs, result) -> None:
    """Counters taken where the work happens, from a call's inputs and result."""
    name = fn.__name__
    if name == "simulate_sensor":
        rays = _beam_count(rec, _arg(fn, args, kwargs, "candidate").sensor)
        rec.count("raycast.rays", rays)
        rec.count("raycast.ray_obstacle_pairs",
                  rays * len(_arg(fn, args, kwargs, "scene").obstacles))
    elif name == "eligible_samples":
        rec.count("raycast.eligible", len(result))
    elif name == "build_visibility_grid":
        rec.set("raycast.bits", float(result.bits.sum()))
        rec.set("raycast.cells", float(result.bits.size))
    elif name == "save":
        rec.count("raycast.grid_bytes", os.path.getsize(_arg(fn, args, kwargs, "path")))
    elif name == "discretize_roi":
        rec.set("discretization.targets", len(result))
    elif name == "enumerate_candidates":
        rec.set("discretization.candidates", len(result))
    elif name == "occlusion_monte_carlo":
        rec.count("evaluation.trials", _arg(fn, args, kwargs, "trials"))
    elif name == "gain_curve":
        rec.count("evaluation.gain_points_failed",
                  sum(1 for obj in result.objectives if obj is None))
    elif name == "stage_pipeline":
        rec.set("cli.artifact_bytes", sum(os.path.getsize(p) for p in result))


def _beam_count(rec: Recorder, spec) -> int:
    """Beams per revolution of `spec`, from the unwrapped generate_beams."""
    if spec not in rec.beams_per_spec:
        beams = sys.modules["lidarplan.raycast"].generate_beams
        rec.beams_per_spec[spec] = len(getattr(beams, "__wrapped__", beams)(spec))
    return rec.beams_per_spec[spec]


def _wrap(rec: Recorder, span: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        try:
            result = rec.call(span, fn, args, kwargs)
        except Exception as exc:
            if type(exc).__name__ == "InstanceTooLargeError":
                rec.count("solver.refused")
            raise
        _observe(rec, fn, args, kwargs, result)
        return result
    return traced


def install(rec: Recorder) -> None:
    """Replace every reference to a layer function with its traced wrapper."""
    modules = [importlib.import_module("lidarplan")]
    wrappers = {}
    for mod_name, names in SPANS.items():
        mod = importlib.import_module(f"lidarplan.{mod_name}")
        modules.append(mod)
        for fn_name, span in names.items():
            fn = getattr(mod, fn_name)
            wrappers[id(fn)] = _wrap(rec, span, fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
    grid_cls = sys.modules["lidarplan.raycast"].VisibilityGrid
    grid_cls.save = _wrap(rec, GRID_IO_SPAN, grid_cls.save)
    load = grid_cls.load.__func__
    grid_cls.load = classmethod(_wrap(rec, GRID_IO_SPAN, load))


# ---------------------------------------------------------------------------
# Analysis


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def busy(spans, name: str) -> float:
    """Wall time during which at least one span called `name` was open."""
    return _union_length((s["start"], s["end"]) for s in spans if s["name"] == name)


def self_time(spans, name: str) -> float:
    """Summed over spans called `name`: duration minus the union of its
    children's intervals (children of one span may overlap under --jobs).
    Meant for layers that run on one thread."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        inside = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        ]
        total += (s["end"] - s["start"]) - _union_length(i for i in inside if i[0] < i[1])
    return total


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (names as in BENCHMARK.json)."""
    spans, c = trace["spans"], trace["counters"]
    main = [s for s in spans if s["name"] == "cli.main"]
    main_interval = (main[0]["start"], main[0]["end"]) if main else (0.0, 0.0)
    stages = [(s["start"], s["end"]) for s in spans if s["name"] in STAGE_SPANS]
    rays = c.get("raycast.rays", 0)
    cells = c.get("raycast.cells", 0)
    return {
        "setup.import_s": busy(spans, "setup.import"),
        "scene.load_s": busy(spans, "scene.load"),
        "scene.load_calls": calls(spans, "scene.load"),
        "discretization.discretize_s": busy(spans, "discretization.discretize"),
        "discretization.enumerate_s": busy(spans, "discretization.enumerate"),
        "discretization.targets": c.get("discretization.targets", 0),
        "discretization.candidates": c.get("discretization.candidates", 0),
        "discretization.csv_io_s": busy(spans, "discretization.csv_io"),
        "raycast.build_grid_s": busy(spans, "raycast.build_grid"),
        "raycast.simulate_s": busy(spans, "raycast.simulate"),
        "raycast.simulate_calls": calls(spans, "raycast.simulate"),
        "raycast.beams_s": busy(spans, "raycast.beams"),
        "raycast.visibility_row_s": busy(spans, "raycast.visibility_row"),
        "raycast.visibility_row_calls": calls(spans, "raycast.visibility_row"),
        "raycast.rays": rays,
        "raycast.ray_obstacle_pairs": c.get("raycast.ray_obstacle_pairs", 0),
        "raycast.eligible_ratio": c.get("raycast.eligible", 0) / rays if rays else 0.0,
        "raycast.bit_density": c.get("raycast.bits", 0) / cells if cells else 0.0,
        "raycast.grid_io_s": busy(spans, GRID_IO_SPAN),
        "raycast.grid_bytes": c.get("raycast.grid_bytes", 0),
        "solver.exact_s": busy(spans, "solver.exact"),
        "solver.exact_calls": calls(spans, "solver.exact"),
        "solver.greedy_s": busy(spans, "solver.greedy"),
        "solver.greedy_calls": calls(spans, "solver.greedy"),
        "solver.verify_s": busy(spans, "solver.verify"),
        "solver.refused": c.get("solver.refused", 0),
        "evaluation.occlusion_s": busy(spans, "evaluation.occlusion"),
        "evaluation.occlusion_self_s": self_time(spans, "evaluation.occlusion"),
        "evaluation.trials": c.get("evaluation.trials", 0),
        "evaluation.density_s": busy(spans, "evaluation.density"),
        "evaluation.gain_curve_s": busy(spans, "evaluation.gain_curve"),
        "evaluation.gain_points_failed": c.get("evaluation.gain_points_failed", 0),
        "evaluation.compare_weighted_s": busy(spans, "evaluation.compare_weighted"),
        "evaluation.render_s": busy(spans, "evaluation.render"),
        "cli.grid_stage_s": busy(spans, "cli.grid_stage"),
        "cli.solve_stage_s": busy(spans, "cli.solve_stage"),
        "cli.eval_stage_s": busy(spans, "cli.eval_stage"),
        "cli.render_stage_s": busy(spans, "cli.render_stage"),
        "cli.artifact_bytes": c.get("cli.artifact_bytes", 0),
        "cli.self_s": (main_interval[1] - main_interval[0]) - _union_length(stages),
    }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    cli = rec.call("setup.import", importlib.import_module, ("lidarplan.cli",), {})
    install(rec)
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
