"""lidarplan benchmark: the real `lidarplan pipeline` command on fixed workloads.

    python3 benchmarks/run.py --workload dense-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Every pipeline runs as a fresh child process and every run's artifacts are
checked (see check_outputs).  With --trace 0 the last line of stdout holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
traced runs (benchmarks/tracer.py) alternated with untraced ones, whose
artifacts must match byte for byte.  The line before it is a JSON detail
record: environment, workload sizes, per-sample values and quartiles.
See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tiled_scene import write_tiled_scene  # benchmarks/ is sys.path[0]
from tracer import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 5
TILES = 3

# Every flag is pinned, --count included; --jobs never exceeds 2 cores.
# Each pipeline is kept to a few seconds so that one run holds many samples.
WORKLOADS = {
    "exact-small": {
        "scene": "demo",
        "args": ["--types", "type-1", "--spacing", "3", "--candidate-spacing", "6",
                 "--count", "6", "--gain-budgets", "2", "--trials", "4",
                 "--vehicles", "4", "--jobs", "1"],
    },
    "dense-grid": {
        "scene": "demo",
        "args": ["--spacing", "1", "--candidate-spacing", "4", "--count", "8",
                 "--weights", "central=10", "--gain-budgets", "1,2,4,8", "--trials", "2",
                 # With 2 threads the wall time follows how much of the second
                 # core the host gives, not the program; tiled-occlusion keeps
                 # the threaded grid build measured.
                 "--vehicles", "4", "--jobs", "1"],
    },
    "tiled-occlusion": {
        "scene": "tiled",
        # 12 candidates; --exact-limit below that keeps the solves greedy.
        "args": ["--types", "type-2", "--spacing", "3", "--candidate-spacing", "18",
                 "--count", "6", "--exact-limit", "8", "--gain-budgets", "4", "--trials", "6",
                 "--vehicles", "8", "--jobs", "2"],
    },
}
DIGESTED = ("grid.vgrd", "solution.json")  # artifacts that do not depend on --seed

# Layers the CLI stages call directly; their shares of the pipeline show
# which layer a workload stresses.  Nested spans (simulate, beams,
# visibility_row) are parts of build_grid, occlusion and density.
STAGE_LAYERS = (
    "scene.load_s", "discretization.discretize_s", "discretization.enumerate_s",
    "discretization.csv_io_s", "raycast.build_grid_s", "raycast.grid_io_s", "solver.exact_s",
    "solver.greedy_s", "solver.verify_s", "evaluation.occlusion_s", "evaluation.density_s",
    "evaluation.gain_curve_s", "evaluation.compare_weighted_s", "evaluation.render_s",
)

SETUP_CODE = "import sys; import lidarplan.cli as cli; cli.load_scene(sys.argv[1])"


def metric_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per mode ("end_to_end", "per_layer"), from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {mode: {m["name"]: m["unit"] for m in spec[mode]} for mode in ("end_to_end", "per_layer")}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], cwd: Path, log: Path) -> dict:
    """Run one child to completion: wall time from spawn to exit, and the
    child's own CPU time and peak RSS from wait4 (not RUSAGE_CHILDREN,
    which is a maximum over every child so far)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out: Path, reference: dict) -> list[str]:
    """Problems with one pipeline's artifacts; empty when they are correct."""
    try:
        return _check_outputs(out, reference)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]


def _check_outputs(out: Path, reference: dict) -> list[str]:
    from lidarplan.discretization import read_candidates_csv, read_targets_csv
    from lidarplan.raycast import VisibilityGrid
    from lidarplan.solver import Budget, Cardinality, DeploymentProblem, Solution, verify_solution

    problems = []
    for name in DIGESTED:
        if not (out / name).exists():
            return [f"missing {name}"]
        if sha256(out / name) != reference.get(name):
            problems.append(f"{name} digest differs from the reference")
    grid = VisibilityGrid.load(out / "grid.vgrd")
    targets = read_targets_csv(out / "targets.csv")
    costs = [r.cost for r in read_candidates_csv(out / "candidates.csv")]
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    kind = Budget if sol["constraint"]["kind"] == "budget" else Cardinality
    problem = DeploymentProblem(grid, targets.weights, costs, kind(sol["constraint"]["value"]))
    solution = Solution(
        selected=tuple(s["idx"] for s in sol["selected"]), covered=frozenset(sol["covered"]),
        objective=sol["objective"], total_cost=sol["total_cost"], method=sol["method"],
        optimality_bound=sol["optimality_bound"],
    )
    problems += [f"verify_solution: {v}" for v in verify_solution(problem, solution).violations]
    occ = json.loads((out / "report.json").read_text(encoding="utf-8"))["occlusion"]
    if any(c > occ["static_coverage"] for c in occ["per_trial"]):
        problems.append("a trial covers more than the static deployment")
    if occ["static_coverage"] != sol["coverage_fraction"]:
        problems.append("report static_coverage differs from solution coverage_fraction")
    return problems


def digest_self_check(out: Path, reference: dict, scratch: Path) -> bool:
    """True when check_outputs rejects a copy of good artifacts with one
    visibility bit flipped."""
    from lidarplan.raycast import VGRID_HEADER

    bad = scratch / "flipped"
    shutil.copytree(out, bad)
    raw = bytearray((bad / "grid.vgrd").read_bytes())
    raw[VGRID_HEADER.size] ^= 0x80  # candidate 0, target 0 (rows pad at their end)
    (bad / "grid.vgrd").write_bytes(bytes(raw))
    caught = any("grid.vgrd" in p for p in check_outputs(bad, reference))
    shutil.rmtree(bad)
    return caught


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3, "values": values}


def environment(scene_path: Path, workload: dict) -> dict:
    """Machine, versions and the workload's scene sizes.  Candidate and
    target counts come from the checked grid (Runner.sizes)."""
    import numpy
    import scipy
    from lidarplan.raycast import generate_beams
    from lidarplan.scene import load_scene

    args = workload["args"]

    def flag(name: str) -> str | None:
        return args[args.index(name) + 1] if name in args else None

    scene = load_scene(scene_path)
    types = flag("--types")
    specs = [scene.sensor(t) for t in types.split(",")] if types else list(scene.catalog)
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")), platform.processor())
    commit = None
    if (ROOT / ".git").exists():  # benchmark checkouts are often plain file trees
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "jobs": int(flag("--jobs")),
        "obstacles": len(scene.obstacles),
        "mount_zones": len(scene.mount_zones),
        "beams_per_type": {s.type_id: len(generate_beams(s)) for s in specs},
    }


def pipeline_argv(workload: dict, scene: Path, seed: int) -> list[str]:
    return ["pipeline", "--scene", str(scene), "--seed", str(seed), *workload["args"]]


def prepare_scene(workload: dict, work: Path) -> Path:
    from lidarplan.scene import demo_scene_path, load_scene

    if workload["scene"] == "demo":
        return demo_scene_path()
    path = write_tiled_scene(demo_scene_path(), TILES, work / "tiled.scene.json")
    load_scene(path)  # validated before any run uses it
    return path


class Runner:
    """Runs pipelines of one workload in a scratch directory and checks each."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.reference = json.loads(REFERENCES.read_text(encoding="utf-8"))[name]
        self.work = work
        self.scene = prepare_scene(self.workload, work)
        self.argv = pipeline_argv(self.workload, self.scene, seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.self_check_ok: bool | None = None
        self.sizes: dict | None = None  # rows and cols of the first good grid
        self._n = 0

    def record(self, ok: bool, problems: list[str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems += problems[:5]

    def setup_probe(self) -> float:
        self._n += 1
        cmd = [sys.executable, "-c", SETUP_CODE, str(self.scene)]
        res = run_child(cmd, self.work, self.work / f"setup{self._n}.log")
        self.record(res["rc"] == 0, [f"setup probe exit code {res['rc']}"])
        return res["wall_s"]

    def pipeline(self, traced: bool) -> tuple[dict, Path]:
        """One pipeline run into a fresh output directory, checked."""
        self._n += 1
        out = self.work / f"out{self._n}"
        cmd = [sys.executable]
        if traced:
            cmd += [str(BENCH_DIR / "tracer.py"), str(self.work / f"trace{self._n}.json")]
        else:
            cmd += ["-m", "lidarplan.cli"]
        cmd += [*self.argv, "--out", str(out)]
        res = run_child(cmd, self.work, self.work / f"run{self._n}.log")
        if res["rc"] != 0:
            log = (self.work / f"run{self._n}.log").read_text(errors="replace")
            problems = [f"exit code {res['rc']}: {log.strip().splitlines()[-1:]}"]
        else:
            problems = check_outputs(out, self.reference)
            if self.self_check_ok is None:
                self.self_check_ok = digest_self_check(out, self.reference, self.work)
            if not problems and self.sizes is None:
                from lidarplan.raycast import VisibilityGrid

                grid = VisibilityGrid.load(out / "grid.vgrd")
                self.sizes = {"candidates": grid.rows, "targets": grid.cols}
        self.record(not problems, problems)
        res["ok"] = not problems
        if traced and res["rc"] == 0:
            res["trace"] = json.loads(
                (self.work / f"trace{self._n}.json").read_text(encoding="utf-8"))
        return res, out


class RunFailed(Exception):
    """No pipeline run produced artifacts that passed the check."""


def same_artifacts(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # A first probe compiles bytecode and warms the file cache; users pay
    # that once per install, not per run, so it is not timed.
    runner.setup_probe()
    # The machine's speed drifts over seconds, so set-up probes are spread
    # over the whole run instead of timed back to back.
    setup, runs, good_out = [], [], None
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start
                       + statistics.median(r["wall_s"] for r in runs)
                       + statistics.median(setup) <= seconds):
        setup.append(runner.setup_probe())
        res, out = runner.pipeline(traced=False)
        runs.append(res)
        if res["ok"]:
            if good_out is not None:
                shutil.rmtree(good_out)
            good_out = out
    setup += [runner.setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    if good_out is None:
        raise RunFailed(runner.problems)
    sol = json.loads((good_out / "solution.json").read_text(encoding="utf-8"))
    total_w = sol["objective"] / sol["coverage_fraction"]
    metrics = {
        "pipeline_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "coverage_frac": sol["coverage_fraction"],
        # Only a change of method or of the bound moves this; coverage_frac
        # is the gate on solution quality (see README).
        "bound_ratio": sol["optimality_bound"] / sol["objective"],
    }
    detail = {
        "samples": {
            "pipeline_s": quartiles([r["wall_s"] for r in runs]),
            "setup_s": quartiles(setup),
            "cpu_s": quartiles([r["cpu_s"] for r in runs]),
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in runs]),
        },
        "bound_gap": (sol["optimality_bound"] - sol["objective"]) / total_w,
        "method": sol["method"],
    }
    return metrics, detail


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain, traced, identical = [], [], True
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + statistics.median(
            r["wall_s"] for r in plain + traced) * 2 <= seconds:
        a, out_a = runner.pipeline(traced=False)
        b, out_b = runner.pipeline(traced=True)
        if a["rc"] == 0 and b["rc"] == 0 and not same_artifacts(out_a, out_b):
            identical = False
            runner.record(False, ["traced artifacts differ from untraced ones"])
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)
        plain.append(a)
        traced.append(b)
    per_run = [layer_metrics(r["trace"]) for r in traced if r["ok"]]
    if not per_run:
        raise RunFailed(runner.problems)
    layers = {n: statistics.median(m[n] for m in per_run) for n in per_run[0]}
    plain_s = statistics.median(r["wall_s"] for r in plain)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    layers["trace.overhead_s"] = traced_s - plain_s
    shares = {n: layers[n] / traced_s for n in STAGE_LAYERS}
    detail = {
        "untraced_pipeline_s": quartiles([r["wall_s"] for r in plain]),
        "traced_pipeline_s": quartiles([r["wall_s"] for r in traced]),
        "artifacts_identical": identical,
        "largest_layer": max(shares, key=shares.get),
        "share_of_traced_pipeline": shares,
    }
    return layers, detail


def update_references() -> None:
    """Record the digests of the seed-independent artifacts of every workload."""
    refs = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch_root()) as tmp:
            work = Path(tmp)
            scene = prepare_scene(WORKLOADS[name], work)
            out = work / "out"
            cmd = [sys.executable, "-m", "lidarplan.cli",
                   *pipeline_argv(WORKLOADS[name], scene, 0), "--out", str(out)]
            if run_child(cmd, work, work / "log")["rc"] != 0:
                raise SystemExit(f"{name}: pipeline failed")
            refs[name] = {n: sha256(out / n) for n in DIGESTED}
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def scratch_root() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-references", action="store_true",
                        help="rewrite references.json from one run of each workload")
    args = parser.parse_args(argv)
    if not (SRC / "lidarplan" / "cli.py").is_file():
        print(f"error: no lidarplan sources under {SRC}; run from a lidarplan checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.update_references:
        update_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    units = metric_units()["per_layer" if args.trace else "end_to_end"]

    with tempfile.TemporaryDirectory(dir=scratch_root()) as tmp:
        runner = Runner(args.workload, args.seed, Path(tmp))
        env = environment(runner.scene, runner.workload)
        measure = measure_layers if args.trace else measure_end_to_end
        try:
            metrics, detail = measure(runner, args.seconds)
        except RunFailed as exc:
            print(f"error: every pipeline run failed: {exc}", file=sys.stderr)
            return 1
    env.update(runner.sizes)
    correct = runner.failed == 0 and runner.self_check_ok is True
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        # argv without --scene, whose path is a scratch path for tiled scenes
        "environment": env, "argv": runner.argv[:1] + runner.argv[3:], **detail,
        "digest_self_check": runner.self_check_ok, "problems": runner.problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
