"""Command-line pipeline: scene file in, deployment plan and reports out.

Subcommands mirror the stages (grid, solve, eval, render); `pipeline` runs
them all on one `Run`, which hands the scene, artifacts and solution from
stage to stage in memory, and writes a manifest of config and artifact
checksums.  Every stage writes its outputs under `--out`, first as
`<name>.partial`, renamed only when the stage finishes, so interrupted runs
leave no half-written final artifacts.  Identical config and seed give
byte-identical artifacts.  `--jobs` is kept for compatibility (old command
lines and config files) and has no effect: the grid is built in one thread.

Exit codes: 0 success, 1 infeasible stage or solver refusal, 2 input error,
3 internal error (any other exception, a bug), each with one line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

# Before numpy loads: the planner does no BLAS-sized work, so OpenBLAS workers only burn CPU.
# OpenBLAS reads an empty value as unset, so this does too.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

try:  # CPython's own SHA-256: hashlib's would map OpenSSL into every run
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .discretization import (
    Candidate,
    EmptyGridError,
    LatticeTooLargeError,
    TargetGrid,
    discretize_roi,
    enumerate_candidates,
    read_candidates_csv,
    read_targets_csv,
    write_candidates_csv,
    write_targets_csv,
)
from .evaluation import (
    PROXY_NOTE,
    VehicleModel,
    compare_weighted,
    gain_curve,
    occlusion_monte_carlo,
    render_coverage_map,
    write_gain_curve_csv,
)
from .raycast import VisibilityGrid, build_visibility_grid
from .scene import Scene, SceneParseError, SceneValidationError, demo_scene_path, load_scene
from .solver import (
    EXACT_LIMIT_DEFAULT,
    Budget,
    Cardinality,
    Constraint,
    DeploymentProblem,
    InstanceTooLargeError,
    Solution,
    coverage_fraction,
    solve,
    verify_solution,
)

SOLUTION_FORMAT = 1
MANIFEST_FORMAT = 1

EXIT_OK = 0
EXIT_STAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _checked(value, bound: str = "", what: str = ""):
    """`value` if it is finite (an int: within the float range, as the stages
    convert it to float) and meets `bound`, one of "", "> 0", ">= 0" and
    ">= 1"; else ValueError, its message led by `what`."""
    try:
        ok = math.isfinite(value)
    except OverflowError:
        ok = False
    if ok and bound:
        op, limit = bound.split()
        ok = value > float(limit) if op == ">" else value >= float(limit)
    if not ok:
        raise ValueError(f"{what}must be finite{' and ' + bound if bound else ''}, got {value}")
    return value


def _number(convert, bound: str = ""):
    """The parser of one number: `convert` reads it and `_checked` its range."""
    return lambda text: _checked(convert(text), bound)


def _split(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_weights(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in _split(text.replace(";", ",")):
        key, eq, value = (s.strip() for s in part.partition("="))
        if not eq:
            raise ValueError(f"bad weight override {part!r}, expected segment=value")
        out[key] = _checked(float(value), ">= 0", f"{key!r} ")
    return out


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(dict.fromkeys(m.strip() for m in text.split(",")))  # first-seen order
    bad = [m for m in methods if m not in ("auto", "exact", "greedy")]
    if bad:
        raise ValueError(f"unknown method {bad[0]!r}, expected auto, exact or greedy")
    return methods


def _option(default, parse, help: str, key: str | None = None):
    """A RunConfig field that is a run option: `parse` reads its text from a
    flag or config file, raising ValueError on a bad or out-of-range value;
    `help` is its --help line; `key` is its config key, and --key its flag,
    when not the field's name.  A dict default is made afresh per config."""
    default = {"default_factory": dict} if default == {} else {"default": default}
    return field(metadata={"parse": parse, "help": help, "key": key}, **default)


_POSITIVE = _number(float, "> 0")


@dataclass(frozen=True)
class RunConfig:
    """A run's settings, each declared once, as an option with its default."""

    scene: str | None = _option(None, str, "scene JSON path (default: bundled demo scene)")
    spacing: float = _option(3.0, _POSITIVE, "target lattice spacing, meters")
    candidate_spacing: float = _option(6.0, _POSITIVE, "mount lattice spacing, meters")
    delta: float | None = _option(None, _POSITIVE, "visibility radius (default spacing/2)")
    types: tuple[str, ...] = _option((), _split, "comma-separated sensor type ids (default: all)")
    budget: float | None = _option(None, _number(float, ">= 0"),
                                   "cost limit (exclusive with --count)")
    count: int | None = _option(None, _number(int, ">= 0"), "unit limit (exclusive with --budget)")
    weights: dict[str, float] = _option({}, _parse_weights,
                                        "segment weight overrides, e.g. central=10")
    seed: int = _option(0, _number(int, ">= 0"), "RNG seed for stochastic evaluation")
    jobs: int | None = _option(None, _number(int, ">= 1"), "kept for compatibility; no effect")
    out: str = _option("out", str, "output directory (default: out)")
    exact_limit: int = _option(EXACT_LIMIT_DEFAULT, _number(int, ">= 0"),
                               "max candidates for the exact solver")
    methods: tuple[str, ...] = _option(("auto",), _parse_methods, "solver method auto, exact or "
                                       "greedy; repeatable (default: auto)", key="method")
    intensity_min: float | None = _option(None, _number(float),
                                          "minimum sample intensity to count toward visibility")
    trials: int = _option(16, _number(int, ">= 1"), "occlusion Monte-Carlo trials")
    vehicles: int = _option(4, _number(int, ">= 0"), "vehicle boxes per trial")
    gain_budgets: tuple[float, ...] = _option(
        (), lambda text: tuple(_checked(float(b), ">= 0") for b in _split(text)),
        "comma-separated budgets for the gain-curve sweep")

    @property
    def scene_path(self) -> Path:
        return Path(self.scene) if self.scene else demo_scene_path()

    @property
    def resolved_delta(self) -> float:
        return self.delta if self.delta is not None else self.spacing / 2.0

    def constraint(self, limit: float | None = None) -> Constraint:
        """The run's constraint, or one of the same kind at `limit` (a gain-curve point)."""
        if self.budget is not None:
            return Budget(self.budget if limit is None else limit)
        if limit is None:
            limit = self.count if self.count is not None else 3
        return Cardinality(int(limit))


def _constraint_record(constraint: Constraint) -> dict:
    """The constraint as solution.json and manifest.json record it."""
    return {"kind": "budget" if isinstance(constraint, Budget) else "count",
            "value": constraint.limit}


# Every run option by config key; its flag is --key with "-" for "_".
_OPTIONS = {option.metadata["key"] or option.name: option for option in fields(RunConfig)}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_option(key: str, text: str, source: str) -> object:
    try:
        return _OPTIONS[key].metadata["parse"](text)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad value for {source}: {exc}") from None


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value config; '#' starts a comment; keys are the flag names
    with "_" for "-".  Returns the parsed, range-checked values by key."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (s.strip() for s in line.partition("="))
        if not eq:
            raise CliError(EXIT_INPUT, f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _OPTIONS:
            raise CliError(EXIT_INPUT, f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_option(key, value, f"{key!r} in {path}:{lineno}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidarplan",
        description="Plan roadside LiDAR deployments over a scene description.",
    )
    parser.add_argument("--version", action="version", version=f"lidarplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("grid", "discretize the scene and build the visibility matrix"),
        ("solve", "pick a deployment from previously built grid artifacts"),
        ("eval", "evaluate a solved deployment (occlusion proxy, gain curve)"),
        ("render", "draw the coverage map SVG from existing artifacts"),
        ("pipeline", "run grid, solve, eval, and render in sequence"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, option in _OPTIONS.items():
            p.add_argument(_flag(key), help=option.metadata["help"],
                           action="append" if key == "method" else "store")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in _OPTIONS:  # flags override the file
        text = getattr(args, key)
        if text is not None:
            text = ",".join(text) if isinstance(text, list) else text
            values[key] = _parse_option(key, text, _flag(key))
    cfg = replace(RunConfig(), **{_OPTIONS[key].name: v for key, v in values.items()})
    # each value is in its own range; these rules span options
    if cfg.budget is not None and cfg.count is not None:
        raise CliError(EXIT_INPUT, "--budget and --count are mutually exclusive")
    if not cfg.resolved_delta > 0:
        raise CliError(EXIT_INPUT, f"--delta must be > 0, got spacing / 2 = {cfg.resolved_delta}")
    if not all(a < b for a, b in zip(cfg.gain_budgets, cfg.gain_budgets[1:])):
        raise CliError(EXIT_INPUT, "--gain-budgets must be strictly increasing")
    if cfg.budget is None and not all(b.is_integer() for b in cfg.gain_budgets):
        raise CliError(EXIT_INPUT,
                       "--gain-budgets must be whole numbers under a unit cap (--count)")
    return cfg


# ---------------------------------------------------------------------------
# Artifact helpers


def _sha256(path: Path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class StageOutputs:
    """Write-to-partial, rename-on-commit artifact collector.  Used as a
    context manager, it deletes its uncommitted partials when the block
    raises; a commit that fails part way deletes what it renamed as well."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pending: list[tuple[Path, Path]] = []

    def __enter__(self) -> "StageOutputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for partial, _ in self.pending:
                partial.unlink(missing_ok=True)

    def path_for(self, name: str) -> Path:
        partial = self.out_dir / f"{name}.partial"
        self.pending.append((partial, self.out_dir / name))
        return partial

    def commit(self) -> list[Path]:
        done = []
        for partial, final in self.pending:
            try:
                os.replace(partial, final)
            except OSError as exc:  # e.g. a directory where the artifact goes
                for path in done + [partial for partial, _ in self.pending]:
                    path.unlink(missing_ok=True)
                raise CliError(EXIT_INPUT, f"cannot write {final}: {exc}") from exc
            done.append(final)
        self.pending.clear()
        return done


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _select_types(scene: Scene, cfg: RunConfig):
    if not scene.catalog:
        raise CliError(EXIT_INPUT, "scene has no sensor catalog")
    if not cfg.types:
        return list(scene.catalog)
    known = {s.type_id for s in scene.catalog}
    if missing := [t for t in cfg.types if t not in known]:
        raise CliError(EXIT_INPUT, f"unknown sensor types: {', '.join(missing)}")
    return [scene.sensor(t) for t in cfg.types]


def _solution_payload(
    problem: DeploymentProblem, solution: Solution, candidates: Sequence[Candidate],
    weighted: bool,
) -> dict:
    return {
        "format": SOLUTION_FORMAT,
        "method": solution.method,
        "weighted": weighted,
        "constraint": _constraint_record(problem.constraint),
        "objective": solution.objective,
        "total_cost": solution.total_cost,
        "coverage_fraction": coverage_fraction(solution, problem.weights),
        "optimality_bound": solution.optimality_bound,
        "n_targets": int(len(problem.weights)),
        "covered": sorted(solution.covered),
        "selected": [
            {
                "idx": i,
                "x": candidates[i].x,
                "y": candidates[i].y,
                "height": candidates[i].height,
                "type": candidates[i].sensor.type_id,
                "cost": candidates[i].cost,
            }
            for i in solution.selected
        ],
    }


def _solution_name(method: str) -> str:
    return "solution.json" if method == "auto" else f"solution_{method}.json"


class Run:
    """The inputs of one command, shared by the stages it runs.

    A value an earlier stage of this process produced (the grid stage sets
    `artifacts`, the solve stage `solution`, and each solve is kept by
    `solved`) is used as is, so a pipeline never reads back what it wrote,
    nor evaluates a solution it did not write, nor solves a problem twice;
    anything else is read once, on first use, from --scene or --out.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out_dir = Path(cfg.out)
        self._solutions: dict[tuple, Solution] = {}

    @cached_property
    def scene(self) -> Scene:
        path = self.cfg.scene_path
        if not path.exists():
            raise CliError(EXIT_INPUT, f"scene file not found: {path}")
        try:
            return load_scene(path)
        except (SceneParseError, SceneValidationError) as exc:
            raise CliError(EXIT_INPUT, f"invalid scene {path}: {exc}") from exc

    @cached_property
    def artifacts(self) -> tuple[TargetGrid, tuple[Candidate, ...], VisibilityGrid]:
        """(targets, candidates, grid) as the grid stage writes them."""
        catalog = self.scene.catalog  # a bad --scene is reported before a missing artifact
        paths = [self.out_dir / name for name in ("targets.csv", "candidates.csv", "grid.vgrd")]
        for path in paths:
            if not path.exists():
                raise CliError(EXIT_INPUT, f"missing artifact {path}; run the grid stage first")
        try:
            targets = read_targets_csv(paths[0])
            candidates = read_candidates_csv(paths[1], catalog)
            grid = VisibilityGrid.load(paths[2])
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_INPUT, str(exc)) from exc
        if grid.rows != len(candidates) or grid.cols != len(targets):
            raise CliError(
                EXIT_INPUT,
                f"artifact shape mismatch: grid is {grid.rows}x{grid.cols} but there are "
                f"{len(candidates)} candidates and {len(targets)} targets",
            )
        if not targets.weights.sum() > 0:
            raise CliError(EXIT_INPUT, f"{paths[0]}: total target weight must be > 0")
        return targets, candidates, grid

    @property
    def weighted(self) -> bool:
        """Whether some target in targets.csv weighs other than 1 (by --weights or the scene)."""
        return bool((self.artifacts[0].weights != 1).any())

    def problem(self, constraint: Constraint, uniform: bool = False) -> DeploymentProblem:
        """The grid's problem under `constraint`, with unit weights if `uniform`
        and the targets' weights otherwise."""
        targets, candidates, grid = self.artifacts
        weights = np.ones_like(targets.weights) if uniform else targets.weights
        return DeploymentProblem(grid, weights, [c.cost for c in candidates], constraint)

    @cached_property
    def solution(self) -> tuple[Constraint, Solution]:
        """(constraint, solution): the first --method's solution, which eval
        and render evaluate, and the constraint solution.json records, under
        which it must pass verify_solution."""
        path = self.out_dir / _solution_name(self.cfg.methods[0])
        if not path.exists():
            raise CliError(EXIT_INPUT, f"missing artifact {path}; run the solve stage first")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or not UTF-8
            raise CliError(EXIT_INPUT, f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CliError(EXIT_INPUT, f"{path}: expected a JSON object")
        if payload.get("format") != SOLUTION_FORMAT:
            raise CliError(
                EXIT_INPUT,
                f"{path}: format {payload.get('format')!r} not supported "
                f"(expected {SOLUTION_FORMAT})",
            )
        try:
            kind = {"count": Cardinality, "budget": Budget}[payload["constraint"]["kind"]]
            problem = self.problem(kind(float(payload["constraint"]["value"])))
            solution = Solution(
                selected=tuple(entry["idx"] for entry in payload["selected"]),
                covered=tuple(payload["covered"]),  # as a list, so verify_solution sees each entry
                objective=float(payload["objective"]),
                total_cost=float(payload["total_cost"]),
                method=payload["method"],
                optimality_bound=float(payload["optimality_bound"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CliError(
                EXIT_INPUT, f"{path}: malformed solution ({type(exc).__name__}: {exc})"
            ) from exc
        if violations := verify_solution(problem, solution).violations:
            raise CliError(EXIT_INPUT, f"{path}: solution fails verification: "
                           + "; ".join(violations))
        return problem.constraint, replace(solution, covered=frozenset(solution.covered))

    def solved(self, constraint, method: str = "auto", uniform: bool = False) -> Solution:
        """The grid's problem under `constraint`, with unit weights if `uniform`
        and the targets' weights otherwise, solved by `method` once per run
        and verified."""
        key = constraint, method, uniform
        if key not in self._solutions:
            problem = self.problem(constraint, uniform)
            try:
                solution = solve(problem, method, self.cfg.exact_limit)
            except InstanceTooLargeError as exc:
                raise CliError(EXIT_STAGE, str(exc)) from exc
            report = verify_solution(problem, solution)
            if not report.ok:
                raise CliError(
                    EXIT_INTERNAL,
                    "solver output failed verification: " + "; ".join(report.violations),
                )
            self._solutions[key] = solution
        return self._solutions[key]


# ---------------------------------------------------------------------------
# Stages


def stage_grid(run: Run) -> list[Path]:
    cfg, scene = run.cfg, run.scene
    types = _select_types(scene, cfg)
    if unknown := set(cfg.weights) - {seg.id for seg in scene.road_segments}:
        raise CliError(EXIT_INPUT, f"weight overrides for unknown segments: {sorted(unknown)}")
    roads = tuple(replace(seg, priority_weight=cfg.weights.get(seg.id, seg.priority_weight))
                  for seg in scene.road_segments)
    try:
        targets = discretize_roi(replace(scene, road_segments=roads), cfg.spacing)
        candidates = enumerate_candidates(scene, cfg.candidate_spacing, types)
    except EmptyGridError as exc:
        raise CliError(EXIT_STAGE, str(exc)) from exc
    except LatticeTooLargeError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc
    if not targets.weights.sum() > 0:
        raise CliError(EXIT_INPUT, "total target weight must be > 0 (scene and --weights)")
    t0 = time.perf_counter()
    grid = build_visibility_grid(
        candidates, targets, scene, cfg.resolved_delta, intensity_min=cfg.intensity_min
    )
    print(
        f"[grid] {len(targets)} targets, {len(candidates)} candidates, "
        f"{grid.bits.sum()} visibility bits ({time.perf_counter() - t0:.1f}s)"
    )
    with StageOutputs(run.out_dir) as outputs:
        write_targets_csv(targets, outputs.path_for("targets.csv"))
        write_candidates_csv(candidates, outputs.path_for("candidates.csv"))
        grid.save(outputs.path_for("grid.vgrd"))
        run.artifacts = targets, candidates, grid
        return outputs.commit()


def stage_solve(run: Run) -> list[Path]:
    cfg, constraint = run.cfg, run.cfg.constraint()
    _, candidates, _ = run.artifacts
    runs = [(method, _solution_name(method), False) for method in cfg.methods]
    if run.weighted:  # uniform-weight baseline for comparison
        runs.append(("auto", "solution_uniform.json", True))
    payloads = []
    for method, name, uniform in runs:
        problem = run.problem(constraint, uniform)
        t0 = time.perf_counter()
        solution = run.solved(constraint, method, uniform)
        print(
            f"[solve] {name}: {method} -> {solution.method}: objective {solution.objective:g}, "
            f"coverage {coverage_fraction(solution, problem.weights):.4f}, "
            f"cost {solution.total_cost:g}, {len(solution.selected)} sensors "
            f"({time.perf_counter() - t0:.2f}s)"
        )
        payloads.append((name, _solution_payload(problem, solution, candidates,
                                                 run.weighted and not uniform)))
    run.solution = constraint, run.solved(constraint, cfg.methods[0])  # eval and render read it
    with StageOutputs(run.out_dir) as outputs:
        for name, payload in payloads:
            _write_json(outputs.path_for(name), payload)
        return outputs.commit()


def stage_eval(run: Run) -> list[Path]:
    cfg, scene = run.cfg, run.scene
    targets, candidates, grid = run.artifacts
    solved_under, solution = run.solution
    if solved_under != cfg.constraint():
        was, now = ("{kind} {value:g}".format(**_constraint_record(c))
                    for c in (solved_under, cfg.constraint()))
        raise CliError(EXIT_INPUT, f"{run.out_dir / _solution_name(cfg.methods[0])}: solved under "
                       f"{was}, but --budget/--count give {now}; run eval with the solve "
                       f"stage's --budget or --count")
    vehicle = VehicleModel(count=cfg.vehicles)
    t0 = time.perf_counter()
    occlusion = occlusion_monte_carlo(
        solution, scene, targets, candidates, vehicle,
        trials=cfg.trials, seed=cfg.seed, delta=grid.delta,
        intensity_min=cfg.intensity_min,
    )
    if differ := len(occlusion.static_covered ^ solution.covered):
        raise CliError(
            EXIT_INPUT,
            f"{run.out_dir / 'grid.vgrd'}: recast into this --scene with this --intensity-min, "
            f"the selected sensors' coverage differs from the grid's on {differ} of "
            f"{len(targets)} targets; run eval with the grid stage's --scene and --intensity-min",
        )
    density_covered = occlusion.density[sorted(solution.covered)]
    print(
        f"[eval] occlusion proxy over {cfg.trials} trials: mean "
        f"{occlusion.mean_coverage:.4f}, min {occlusion.min_coverage:.4f}, static "
        f"{occlusion.static_coverage:.4f} ({time.perf_counter() - t0:.1f}s)"
    )

    report: dict = {
        "format": 1,
        "note": PROXY_NOTE,
        "occlusion": {
            "trials": cfg.trials,
            "seed": cfg.seed,
            "mean_coverage": occlusion.mean_coverage,
            "min_coverage": occlusion.min_coverage,
            "static_coverage": occlusion.static_coverage,
            "per_trial": list(occlusion.per_trial),
            "vehicle": asdict(vehicle),
        },
        "sample_density": {
            "mean_over_covered": float(density_covered.mean()) if len(density_covered) else 0.0,
            "min_over_covered": int(density_covered.min()) if len(density_covered) else 0,
            "max_over_covered": int(density_covered.max()) if len(density_covered) else 0,
        },
    }
    lines = [
        f"deployment evaluation ({PROXY_NOTE})",
        f"sensors: {len(solution.selected)}, static coverage "
        f"{occlusion.static_coverage:.6f}",
        f"occlusion proxy: {cfg.trials} trials, {vehicle.count} vehicles/trial, "
        f"seed {cfg.seed}",
        f"  mean coverage {occlusion.mean_coverage:.6f}",
        f"  min coverage  {occlusion.min_coverage:.6f}",
        f"sample density over covered targets: "
        f"mean {report['sample_density']['mean_over_covered']:.2f}, "
        f"min {report['sample_density']['min_over_covered']}, "
        f"max {report['sample_density']['max_over_covered']}",
    ]

    if cfg.gain_budgets:
        kind = _constraint_record(cfg.constraint())["kind"]
        curve = gain_curve(
            cfg.gain_budgets, [run.solved(cfg.constraint(b)) for b in cfg.gain_budgets],
            targets.weights,
        )
        report["gain_curve"] = {
            "kind": kind,
            "budgets": list(curve.budgets),
            "objectives": list(curve.objectives),
            "methods": list(curve.methods),
        }
        lines.append(f"gain curve over {kind} budgets {list(cfg.gain_budgets)}:")
        for b, obj, m in zip(curve.budgets, curve.objectives, curve.methods):
            lines.append(f"  {b:g}: objective {obj:g} ({m})")

    if run.weighted and not (targets.weights > 1).any():
        lines.append("weighted comparison skipped: no target weight exceeds 1")
    elif run.weighted:
        comparison = compare_weighted(
            run.solved(cfg.constraint(), uniform=True), run.solved(cfg.constraint()),
            targets.weights,
        )
        report["weighted_comparison"] = {
            "vanilla_overall": comparison.vanilla_overall,
            "weighted_overall": comparison.weighted_overall,
            "vanilla_priority": comparison.vanilla_priority,
            "weighted_priority": comparison.weighted_priority,
            "n_priority_targets": comparison.n_priority,
        }
        lines.append(
            f"priority region ({comparison.n_priority} targets): coverage "
            f"{comparison.vanilla_priority:.4f} with unit weights vs "
            f"{comparison.weighted_priority:.4f} with target weights"
        )

    with StageOutputs(run.out_dir) as outputs:
        if cfg.gain_budgets:
            write_gain_curve_csv(curve, outputs.path_for("gain_curve.csv"))
        _write_json(outputs.path_for("report.json"), report)
        Path(outputs.path_for("report.txt")).write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        return outputs.commit()


def stage_render(run: Run) -> list[Path]:
    targets, candidates, _ = run.artifacts  # missing, reported before a missing solution
    _, solution = run.solution
    with StageOutputs(run.out_dir) as outputs:
        render_coverage_map(run.scene, targets, solution, candidates,
                            outputs.path_for("coverage.svg"))
        print(f"[render] coverage map for {len(solution.selected)} sensors")
        return outputs.commit()


def _manifest_config(cfg: RunConfig) -> dict:
    """The run's settings, with the scene by name and checksum and the delta
    and constraint resolved.  Execution details (jobs, out) are omitted so
    they cannot perturb the manifest."""
    config = {key: value for key, value in asdict(cfg).items()
              if key not in ("scene", "jobs", "out", "budget", "count")}
    return config | {
        "scene_name": cfg.scene_path.name,
        "scene_sha256": _sha256(cfg.scene_path),
        "delta": cfg.resolved_delta,
        "constraint": _constraint_record(cfg.constraint()),
        "version": __version__,
    }


def stage_pipeline(run: Run) -> list[Path]:
    artifacts: list[Path] = []
    for stage in (stage_grid, stage_solve, stage_eval, stage_render):
        artifacts += stage(run)
    config = _manifest_config(run.cfg)
    config_text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "format": MANIFEST_FORMAT,
        "tool": "lidarplan",
        "version": __version__,
        "config": config,
        "config_hash": sha256(config_text.encode()).hexdigest(),
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts)},
    }
    with StageOutputs(run.out_dir) as outputs:
        _write_json(outputs.path_for("manifest.json"), manifest)
        done = outputs.commit()
    print(f"[pipeline] wrote {len(artifacts) + 1} artifacts to {run.out_dir}")
    return artifacts + done


_STAGES = {
    "grid": stage_grid,
    "solve": stage_solve,
    "eval": stage_eval,
    "render": stage_render,
    "pipeline": stage_pipeline,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge_config(args)
        run = Run(cfg)
        try:
            run.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(
                EXIT_INPUT, f"cannot create output directory {run.out_dir}: {exc}"
            ) from exc
        _STAGES[args.command](run)
        return EXIT_OK
    except CliError as exc:
        print(f"[{getattr(args, 'command', '?')}] error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # a bug, not bad input: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
