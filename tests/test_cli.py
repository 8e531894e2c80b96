import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lidarplan import __version__, cli, demo_scene_path, discretization, raycast, solver
from lidarplan.cli import (
    _OPTIONS, RunConfig, StageOutputs, _build_parser, _flag, _merge_config, main,
)
from lidarplan.scene import SceneParseError, scene_from_dict
from lidarplan.solver import Cardinality

FAST = [
    "--types", "type-3",
    "--count", "3",
    "--trials", "3",
    "--vehicles", "2",
    "--jobs", "2",
    "--seed", "7",
]

PIPELINE_FILES = [
    "targets.csv",
    "candidates.csv",
    "grid.vgrd",
    "solution.json",
    "report.json",
    "report.txt",
    "coverage.svg",
    "manifest.json",
]


def run(args):
    return main(args)


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert run(["pipeline", *FAST, "--out", str(out)]) == 0
    return out


def test_pipeline_demo_full_coverage(pipeline_dir):
    for name in PIPELINE_FILES:
        assert (pipeline_dir / name).exists(), name
    assert not list(pipeline_dir.glob("*.partial"))
    sol = read_json(pipeline_dir / "solution.json")
    assert sol["coverage_fraction"] == 1.0
    assert sol["method"] == "exact"
    assert sol["constraint"] == {"kind": "count", "value": 3}
    assert len(sol["selected"]) == 3
    assert all(entry["type"] == "type-3" for entry in sol["selected"])
    report = read_json(pipeline_dir / "report.json")
    assert report["occlusion"]["static_coverage"] == 1.0
    assert report["occlusion"]["mean_coverage"] <= 1.0
    assert "not object-detection accuracy" in report["note"]
    assert "not object-detection accuracy" in (pipeline_dir / "report.txt").read_text()


def test_pipeline_manifest_contents(pipeline_dir):
    manifest = read_json(pipeline_dir / "manifest.json")
    assert manifest["tool"] == "lidarplan"
    assert manifest["config"]["types"] == ["type-3"]
    assert manifest["config"]["constraint"] == {"kind": "count", "value": 3}
    assert manifest["config"]["seed"] == 7
    assert "jobs" not in manifest["config"]
    assert "out" not in manifest["config"]
    listed = set(manifest["artifacts"])
    assert listed == set(PIPELINE_FILES) - {"manifest.json"}
    # the CLI hashes with CPython's built-in SHA-256; hashlib's is OpenSSL's
    for name, digest in manifest["artifacts"].items():
        assert digest == hashlib.sha256((pipeline_dir / name).read_bytes()).hexdigest(), name
    config_text = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
    assert manifest["config_hash"] == hashlib.sha256(config_text.encode()).hexdigest()


def test_package_version_matches_pyproject():
    # the manifest's version and config_hash come from lidarplan.__version__
    # (read with a regex: tomllib is not in Python 3.10)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_text(encoding="utf-8").split("\n[project]\n")[1].split("\n[")[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, flags=re.M)
    assert version == __version__


def test_pipeline_reruns_identically(pipeline_dir, tmp_path):
    again = tmp_path / "again"
    assert run(["pipeline", *FAST, "--jobs", "1", "--out", str(again)]) == 0
    for name in PIPELINE_FILES:
        assert (again / name).read_bytes() == (pipeline_dir / name).read_bytes(), name


def assert_staged_matches_pipeline(work, args, pipeline=None, grid_args=(), later_args=()):
    """grid, solve, eval and render run one by one write the files a
    pipeline with the same args writes, byte for byte, all but its manifest.
    The pipeline and grid also take grid_args; solve, eval and render take
    later_args."""
    if pipeline is None:
        pipeline = work / "pipeline"
        assert run(["pipeline", *args, *grid_args, "--out", str(pipeline)]) == 0
    staged = work / "staged"
    for stage, extra in [("grid", grid_args), ("solve", later_args), ("eval", later_args),
                         ("render", later_args)]:
        assert run([stage, *args, *extra, "--out", str(staged)]) == 0
    names = sorted(p.name for p in pipeline.iterdir() if p.name != "manifest.json")
    assert sorted(p.name for p in staged.iterdir()) == names
    for name in names:
        assert (staged / name).read_bytes() == (pipeline / name).read_bytes(), name


def test_stage_composition_matches_pipeline(pipeline_dir, tmp_path):
    assert_staged_matches_pipeline(tmp_path / "default", FAST, pipeline_dir)
    # Render takes the lattice step from the target points, in a pipeline as
    # in a stand-alone render: at 0.7 the points give 0.6999999999999886,
    # and at 2.0000625 the flag would draw some dots a thousandth of a pixel
    # off the points' step.
    assert_staged_matches_pipeline(tmp_path / "spacing", [*FAST, "--spacing", "0.7"])
    assert_staged_matches_pipeline(tmp_path / "odd-spacing", [*FAST, "--spacing", "2.0000625"])
    # One target gives no step, so both draw 1 m cells, not the flag's 3 m.
    scene = json.loads(demo_scene_path().read_text())
    scene["road_segments"] = [{"id": "central", "polygon": [[-2, -2], [2, -2], [2, 2], [-2, 2]]}]
    (tmp_path / "one.json").write_text(json.dumps(scene))
    assert_staged_matches_pipeline(tmp_path / "one-target",
                                   [*FAST, "--scene", str(tmp_path / "one.json")])
    assert len((tmp_path / "one-target" / "staged" / "targets.csv").read_text().splitlines()) == 2
    # A stand-alone eval re-sums the covered weights read from targets.csv,
    # fractional ones too, and must get solution.json's objective exactly.
    # It also solves the gain curve and the weighted comparison itself, where
    # a pipeline's eval reuses the solve stage's solutions.
    weighted = tmp_path / "weighted"
    args, weights = [*FAST, "--gain-budgets", "1,3"], ["--weights", "central=0.3,ew=2.7"]
    assert_staged_matches_pipeline(weighted, [*args, *weights])
    # Solve and eval take the weights, and whether the run is weighted, from
    # targets.csv alone: --weights is a grid-stage setting.
    for name, later_args in [("grid-only", []), ("other", ["--weights", "central=10,ew=1"])]:
        assert_staged_matches_pipeline(weighted / name, args, weighted / "pipeline",
                                       grid_args=weights, later_args=later_args)


def test_grid_stage_hands_over_what_it_writes(tmp_path):
    # A pipeline's later stages use the grid stage's artifacts in memory; a
    # stand-alone stage reads them from --out.  Both must see the same values.
    args = ["grid", *FAST, "--spacing", "2.0000625", "--weights", "central=0.3,ew=2.7",
            "--out", str(tmp_path)]
    cfg = _merge_config(_build_parser().parse_args(args))
    held = cli.Run(cfg)
    cli.stage_grid(held)
    for kept, read in zip(held.artifacts, cli.Run(cfg).artifacts):
        if isinstance(kept, tuple):  # the candidates
            assert kept == read
            continue
        assert type(kept) is type(read)
        for f in fields(kept):
            want, got = getattr(kept, f.name), getattr(read, f.name)
            if isinstance(want, np.ndarray):
                assert want.dtype == got.dtype and np.array_equal(want, got), f.name
            else:
                assert want == got, f.name


def test_eval_refuses_a_constraint_other_than_the_solutions(tmp_path, capsys):
    # solution.json was solved under --count 1; an eval at the default count
    # of 3, or under a budget, would compare and sweep other problems.
    out = tmp_path / "out"
    assert run(["grid", "--types", "type-1", "--weights", "central=10", "--out", str(out)]) == 0
    assert run(["solve", "--count", "1", "--out", str(out)]) == 0
    before = sorted(out.iterdir())
    for flags, given in [([], "count 3"), (["--budget", "50000"], "budget 50000")]:
        capsys.readouterr()
        assert run(["eval", "--seed", "7", "--trials", "2", "--gain-budgets", "1,2", *flags,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert str(out / "solution.json") in err[0]
        assert "count 1" in err[0] and given in err[0] and "--count" in err[0]
        assert sorted(out.iterdir()) == before
    assert run(["eval", "--seed", "7", "--trials", "2", "--gain-budgets", "1,2", "--count", "1",
                "--out", str(out)]) == 0
    assert "0.6111 with unit weights vs 0.6111 with target weights" in (
        out / "report.txt").read_text()
    assert run(["render", "--out", str(out)]) == 0  # render ignores the constraint


def test_stages_evaluate_the_first_method(tmp_path):
    assert_staged_matches_pipeline(tmp_path, [*FAST, "--method", "exact"])
    pipeline = tmp_path / "pipeline"
    assert not (pipeline / "solution.json").exists()
    assert (read_json(pipeline / "report.json")["occlusion"]["static_coverage"]
            == read_json(pipeline / "solution_exact.json")["coverage_fraction"])


def test_pipeline_evaluates_its_own_solution(pipeline_dir, tmp_path):
    out = tmp_path / "rerun"
    out.mkdir()
    for name in PIPELINE_FILES:  # an earlier --count 3 run, solution.json included
        (out / name).write_bytes((pipeline_dir / name).read_bytes())
    assert run(["pipeline", *FAST, "--count", "2", "--method", "greedy",
                "--out", str(out)]) == 0
    assert len(read_json(out / "solution_greedy.json")["selected"]) == 2
    assert "sensors: 2," in (out / "report.txt").read_text()


def test_pipeline_casts_and_filters_once(monkeypatch, tmp_path):
    # The flags of the exact-small benchmark: 24 candidates, 6 selected.
    # The grid stage casts each candidate once, and the eval stage casts
    # each selected sensor into the static scene once, for both the
    # occlusion trials and the sample density, and hands it each trial's
    # vehicles once.
    calls = {}
    stage = [None]

    def tagged(name, fn):
        def staged(run):
            stage[0] = name
            return fn(run)
        return staged

    def counted(name, fn):
        def counting(*args, **kwargs):
            calls[stage[0], name] = calls.get((stage[0], name), 0) + 1
            return fn(*args, **kwargs)
        return counting

    for name in ("stage_grid", "stage_solve", "stage_eval", "stage_render"):
        monkeypatch.setattr(cli, name, tagged(name, getattr(cli, name)))
    monkeypatch.setattr(raycast.GroundReturns, "__init__",
                        counted("GroundReturns", raycast.GroundReturns.__init__))
    monkeypatch.setattr(raycast.GroundReturns, "blocked",
                        counted("blocked", raycast.GroundReturns.blocked))
    assert run(["pipeline", "--types", "type-1", "--spacing", "3", "--candidate-spacing", "6",
                "--count", "6", "--gain-budgets", "2", "--trials", "4", "--vehicles", "4",
                "--jobs", "1", "--out", str(tmp_path)]) == 0
    selected = len(read_json(tmp_path / "solution.json")["selected"])
    rows = len((tmp_path / "candidates.csv").read_text().splitlines()) - 1
    assert (selected, rows) == (6, 24)
    assert calls["stage_grid", "GroundReturns"] == rows
    assert calls["stage_eval", "GroundReturns"] == selected
    assert calls["stage_eval", "blocked"] == selected * 4
    assert ("stage_grid", "blocked") not in calls


def test_missing_scene_exit_2_names_path(tmp_path, capsys):
    code = run(
        ["pipeline", "--scene", "/nonexistent/road.json", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "/nonexistent/road.json" in capsys.readouterr().err


def test_invalid_scene_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run(["grid", "--scene", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid scene" in capsys.readouterr().err


def test_unknown_type_exit_2(tmp_path, capsys):
    code = run(["grid", "--types", "type-9", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "type-9" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["grid", "pipeline"])
@pytest.mark.parametrize("types", [[], ["--types", "type-1"]], ids=["all-types", "type-1"])
@pytest.mark.parametrize("catalog", ["missing", None, []], ids=["missing", "null", "empty"])
def test_scene_without_catalog_exit_2(stage, types, catalog, tmp_path, capsys):
    scene = json.loads(demo_scene_path().read_text())
    if catalog == "missing":
        del scene["catalog"]
    else:
        scene["catalog"] = catalog
    path = tmp_path / "road.json"
    path.write_text(json.dumps(scene))
    code = run([stage, "--scene", str(path), *types, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [f"[{stage}] error: scene has no sensor catalog"]


def test_conflicting_constraints_exit_2(tmp_path, capsys):
    code = run(["solve", "--budget", "100", "--count", "2", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_pipeline_solves_each_problem_once(monkeypatch, tmp_path):
    # Three distinct problems: the weighted and the unit-weight count-3
    # deployments, and the gain curve's count-1 point.  The curve's count-3
    # point and the weighted comparison reuse the solve stage's two.
    calls = []

    def counted(fn):
        def counting(problem, *args):
            calls.append((problem.constraint, problem.weights.tolist()))
            return fn(problem, *args)
        return counting

    for name in ("solve_exact", "solve_greedy"):
        monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
    assert run(["pipeline", *FAST, "--weights", "central=10", "--gain-budgets", "1,3",
                "--out", str(tmp_path)]) == 0
    assert len(calls) == 3
    assert sorted(map(str, calls)) == sorted(set(map(str, calls)))
    assert "weighted_comparison" in read_json(tmp_path / "report.json")


def test_nonpositive_spacing_exit_2(tmp_path, capsys):
    code = run(["grid", "--spacing", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--spacing" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    "--count=-1", "--weights=central=-1", "--spacing=nan", "--gain-budgets=3,2",
    "--delta=inf", "--jobs=0", "--budget=-5", "--budget=inf", "--seed=-1",
    "--intensity-min=nan", "--count=three", "--method=bogus", "--weights=central",
    "--gain-budgets=1,x", "--exact-limit=-5",
    # the default constraint is a unit cap, which takes whole budgets only
    "--gain-budgets=1.2,1.5", "--count=2 --gain-budgets=2.5",
    # gain-curve budgets are checked here, before any stage
    "--gain-budgets=1,-1", "--budget=5 --gain-budgets=-0.5", "--gain-budgets=1,inf",
    "--budget=5 --gain-budgets=nan", "--gain-budgets=2,2",
    # an int beyond the float range would overflow float() in a stage
    pytest.param(f"--count={10**400}", id="--count=10**400"),
])
def test_bad_numeric_flag_exit_2(flag, tmp_path, capsys):
    code = run(["pipeline", "--types", "type-3", *flag.split(), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "usage:" not in err
    assert len(err.strip().splitlines()) == 1


def test_underflowing_spacing_exit_2(tmp_path, capsys):
    # spacing / 2, the default delta, rounds to 0
    code = run(["grid", "--spacing", "5e-324", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "--delta must be > 0" in err


def test_spacing_past_the_roi_exit_1_without_partials(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["grid", "--spacing", "1000", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "not smaller than the ROI extent" in err
    assert not list(out.glob("*.partial"))


def test_default_constraint_is_count_3():
    cfg = _merge_config(_build_parser().parse_args(["solve"]))
    assert cfg.constraint() == Cardinality(3)


def test_solve_without_grid_artifacts_exit_2(tmp_path, capsys):
    code = run(["solve", "--out", str(tmp_path / "empty")])
    assert code == 2
    assert "run the grid stage first" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["eval", "render"])
def test_stage_without_solution_exit_2(pipeline_dir, tmp_path, capsys, stage):
    out = tmp_path / "no-solution"
    out.mkdir()
    for name in ("targets.csv", "candidates.csv", "grid.vgrd"):
        (out / name).write_bytes((pipeline_dir / name).read_bytes())
    code = run([stage, *FAST, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert str(out / "solution.json") in err and "run the solve stage first" in err


def test_candidates_short_of_the_grid_exit_2(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "short"
    out.mkdir()
    for name in ("targets.csv", "grid.vgrd"):
        (out / name).write_bytes((pipeline_dir / name).read_bytes())
    rows = (pipeline_dir / "candidates.csv").read_text().splitlines(keepends=True)
    (out / "candidates.csv").write_text("".join(rows[:-1]))
    code = run(["solve", *FAST, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "artifact shape mismatch" in err


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
def test_bad_grid_delta_exit_2(pipeline_dir, tmp_path, capsys, delta):
    out = tmp_path / "bad-delta"
    out.mkdir()
    for name in ("targets.csv", "candidates.csv", "solution.json"):
        (out / name).write_bytes((pipeline_dir / name).read_bytes())
    raw = bytearray((pipeline_dir / "grid.vgrd").read_bytes())
    magic, rows, cols, _ = raycast.VGRID_HEADER.unpack_from(raw)
    raycast.VGRID_HEADER.pack_into(raw, 0, magic, rows, cols, delta)
    (out / "grid.vgrd").write_bytes(bytes(raw))
    code = run(["eval", *FAST, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert str(out / "grid.vgrd") in err and "delta" in err


def test_corrupt_grid_header_exit_2(pipeline_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("targets.csv", "candidates.csv"):
        (broken / name).write_bytes((pipeline_dir / name).read_bytes())
    raw = bytearray((pipeline_dir / "grid.vgrd").read_bytes())
    raw[:4] = b"XXXX"
    (broken / "grid.vgrd").write_bytes(bytes(raw))
    code = run(["solve", *FAST, "--out", str(broken)])
    assert code == 2
    err = capsys.readouterr().err
    assert "magic" in err and "XXXX" in err


def test_oversized_exact_request_exit_1(tmp_path, capsys):
    out = tmp_path / "big"
    # all three types: 72 candidates, over the default exact limit of 25
    assert run(["grid", "--count", "3", "--out", str(out)]) == 0
    code = run(["solve", "--count", "3", "--method", "exact", "--out", str(out)])
    assert code == 1
    assert "exact-solver limit" in capsys.readouterr().err


def test_repeated_method_solves_once(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "repeat"
    out.mkdir()
    for name in ("targets.csv", "candidates.csv", "grid.vgrd"):
        (out / name).write_bytes((pipeline_dir / name).read_bytes())
    capsys.readouterr()
    assert run(["solve", *FAST, "--method", "greedy", "--method", "greedy",
                "--out", str(out)]) == 0
    solve_lines = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[solve]")]
    assert len(solve_lines) == 1
    assert sorted(p.name for p in out.glob("solution*")) == ["solution_greedy.json"]
    assert not list(out.glob("*.partial"))


def test_solve_both_methods(pipeline_dir, tmp_path):
    out = tmp_path / "methods"
    assert run(["grid", *FAST, "--out", str(out)]) == 0
    assert run(
        ["solve", *FAST, "--method", "exact", "--method", "greedy", "--out", str(out)]
    ) == 0
    exact = read_json(out / "solution_exact.json")
    greedy = read_json(out / "solution_greedy.json")
    assert exact["method"] == "exact"
    assert greedy["method"] == "greedy"
    assert exact["objective"] >= greedy["objective"]
    assert greedy["objective"] >= exact["objective"] * (1 - 1 / 2.718281828)


def test_weights_produce_baseline_and_comparison(tmp_path):
    out = tmp_path / "weighted"
    args = [
        "pipeline", "--types", "type-1", "--count", "4", "--weights", "central=10",
        "--trials", "2", "--vehicles", "2", "--jobs", "2", "--out", str(out),
    ]
    assert run(args) == 0
    assert (out / "solution_uniform.json").exists()
    weighted = read_json(out / "solution.json")
    uniform = read_json(out / "solution_uniform.json")
    assert weighted["weighted"] is True
    assert uniform["weighted"] is False
    report = read_json(out / "report.json")
    cw = report["weighted_comparison"]
    assert cw["weighted_priority"] >= cw["vanilla_priority"]
    assert cw["n_priority_targets"] == 36


def test_weights_without_priority_skip_comparison(tmp_path, capsys):
    out = tmp_path / "low"
    args = [
        "pipeline", "--types", "type-1", "--count", "2", "--weights", "central=0.5",
        "--trials", "1", "--vehicles", "1", "--jobs", "1", "--out", str(out),
    ]
    assert run(args) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert "weighted_comparison" not in read_json(out / "report.json")
    assert "weighted comparison skipped: no target weight exceeds 1" in (
        out / "report.txt"
    ).read_text()


def test_scene_priority_weights_make_a_weighted_run(tmp_path):
    scene = json.loads(demo_scene_path().read_text())
    next(seg for seg in scene["road_segments"] if seg["id"] == "central")["priority_weight"] = 3
    (tmp_path / "priority.json").write_text(json.dumps(scene))
    out = tmp_path / "o"
    assert run(["pipeline", *FAST, "--scene", str(tmp_path / "priority.json"),
                "--out", str(out)]) == 0
    assert read_json(out / "solution.json")["weighted"] is True
    assert read_json(out / "solution_uniform.json")["weighted"] is False
    assert "weighted_comparison" in read_json(out / "report.json")
    # the weights are the scene's own, not overrides
    assert re.search(r"^priority region \(\d+ targets\): coverage [\d.]+ with unit weights "
                     r"vs [\d.]+ with target weights$", (out / "report.txt").read_text(), re.M)


def test_unit_weight_overrides_make_an_unweighted_run(tmp_path):
    out = tmp_path / "o"
    assert run(["pipeline", *FAST, "--weights", "central=1", "--out", str(out)]) == 0
    assert not (out / "solution_uniform.json").exists()
    assert read_json(out / "solution.json")["weighted"] is False
    assert "weighted_comparison" not in read_json(out / "report.json")
    assert "weighted comparison" not in (out / "report.txt").read_text()


@pytest.mark.parametrize("other", ["floor", "scene"])
def test_eval_refuses_a_floor_or_scene_other_than_the_grids(tmp_path, capsys, other):
    # The grid counts only returns of intensity >= 0.9.  An eval without that
    # floor, or in a scene without obstacles, recasts the selected sensors to
    # other coverage than the solution's, so its trials would score against it.
    out = tmp_path / "out"
    floor = ["--intensity-min", "0.9"]
    assert run(["grid", *FAST, *floor, "--out", str(out)]) == 0
    assert run(["solve", *FAST, *floor, "--out", str(out)]) == 0
    if other == "floor":
        flags = []
    else:
        scene = json.loads(demo_scene_path().read_text())
        scene["obstacles"] = []
        (tmp_path / "open.json").write_text(json.dumps(scene))
        flags = [*floor, "--scene", str(tmp_path / "open.json")]
    before = sorted(out.iterdir())
    capsys.readouterr()
    assert run(["eval", *FAST, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert str(out / "grid.vgrd") in err[0]
    assert "--scene" in err[0] and "--intensity-min" in err[0]
    assert sorted(out.iterdir()) == before
    assert run(["eval", *FAST, *floor, "--out", str(out)]) == 0


def test_non_finite_scene_number_exit_2(tmp_path, capsys):
    scene = json.loads(demo_scene_path().read_text())
    scene["obstacles"][0]["height"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(scene))  # writes the bare token NaN
    code = run(["grid", "--scene", str(bad), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "obstacles[0]: field 'height'" in err


@pytest.mark.parametrize("key,index,value,message", [
    *[pytest.param(key, 0, value, f"{key}[0]: expected a JSON object",
                   id=f"{key}[0]={json.dumps(value)}")
      for key in ("road_segments", "obstacles", "mount_zones", "catalog")
      for value in (5, [1, 2], None, "abc")],
    *[pytest.param(key, None, value, f"top level: field {key!r} has wrong type (expected list)",
                   id=f"{key}={json.dumps(value)}")
      for key in ("obstacles", "catalog") for value in ({"a": 1}, "abc", 3)],
])
def test_malformed_scene_entry_exit_2(tmp_path, capsys, key, index, value, message):
    scene = json.loads(demo_scene_path().read_text())
    if index is None:
        scene[key] = value
    else:
        scene[key][index] = value
    with pytest.raises(SceneParseError) as info:
        scene_from_dict(scene)
    assert str(info.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scene))
    code = run(["grid", "--scene", str(path), "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].endswith(message)


@pytest.mark.parametrize("field,value", [("channels", 10**12), ("azimuth_step", 1e-9)])
def test_too_many_beams_exit_2(monkeypatch, tmp_path, capsys, field, value):
    def no_beams(*args, **kwargs):
        raise AssertionError("generate_beams called")

    monkeypatch.setattr("lidarplan.raycast.generate_beams", no_beams)
    scene = json.loads(demo_scene_path().read_text())
    scene["catalog"][0][field] = value
    path = tmp_path / "beams.json"
    path.write_text(json.dumps(scene))
    code = run(["grid", "--scene", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "sensor 'type-1'" in err and "beams per revolution" in err


def _curb(x0, x1):
    """Scene edit: one straight horizontal mount zone, a box of zero height."""
    zone = {"id": "curb", "kind": "polyline", "geometry": [[x0, 10.0], [x1, 10.0]],
            "allowed_heights": [5.0]}
    return lambda scene: scene.__setitem__("mount_zones", [zone])


@pytest.mark.parametrize("edit,flags", [
    (lambda scene: scene["road_segments"][1]["polygon"][1].__setitem__(0, 1e300), []),
    (lambda scene: None, ["--spacing", "1e-6"]),
    (lambda scene: None, ["--candidate-spacing", "1e-6"]),
    # the empty y axis must not let the x axis through unbounded, nor an
    # x extent that overflows to inf
    (_curb(-50.0, 50.0), ["--candidate-spacing", "1e-6"]),
    (_curb(-1e308, 1e308), []),
])
def test_huge_lattice_exit_2(monkeypatch, tmp_path, capsys, edit, flags):
    real = discretization.lattice_coords

    def small_lattice_coords(lo, hi, spacing):
        assert (hi - lo) / spacing < 1e4, "huge lattice allocated"
        return real(lo, hi, spacing)

    monkeypatch.setattr(discretization, "lattice_coords", small_lattice_coords)
    scene = json.loads(demo_scene_path().read_text())
    edit(scene)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scene))
    code = run(["grid", "--scene", str(path), *flags, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "lattice at spacing" in err and "points, more than 4194304" in err


def test_zero_total_weight_exit_2_before_the_grid(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "build_visibility_grid", None)  # the grid is never built
    code = run(["pipeline", "--types", "type-1", "--count", "2", "--trials", "1",
                "--weights", "central=0,ew=0,ns_north=0,ns_south=0",
                "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "total target weight must be > 0" in err


def test_fractional_gain_budgets_under_a_budget(tmp_path):
    out = tmp_path / "o"
    assert run(["pipeline", *FAST[4:], "--types", "type-3", "--budget", "200000",
                "--gain-budgets", "80000.5,160000.5", "--out", str(out)]) == 0
    assert read_json(out / "report.json")["gain_curve"]["budgets"] == [80000.5, 160000.5]


def test_unknown_weight_segment_exit_2(tmp_path, capsys):
    code = run(["grid", "--weights", "nowhere=4", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nowhere" in capsys.readouterr().err


def test_gain_budgets_write_curve(tmp_path):
    out = tmp_path / "curve"
    args = [
        "pipeline", *FAST, "--gain-budgets", "1,2,3,4", "--out", str(out),
    ]
    assert run(args) == 0
    lines = (out / "gain_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "budget,objective,coverage,method"
    assert len(lines) == 5
    report = read_json(out / "report.json")
    objs = report["gain_curve"]["objectives"]
    assert objs == sorted(objs)
    manifest = read_json(out / "manifest.json")
    assert "gain_curve.csv" in manifest["artifacts"]


def test_config_file_with_flag_override(tmp_path):
    out = tmp_path / "cfgrun"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo run\n"
        "types = type-3\n"
        "count = 2\n"
        "trials = 2\n"
        "vehicles = 0\n"
        "seed = 9\n"
    )
    assert run(["pipeline", "--config", str(cfg), "--count", "3",
                "--jobs", "2", "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["constraint"] == {"kind": "count", "value": 3}
    assert manifest["config"]["seed"] == 9
    report = read_json(out / "report.json")
    assert report["occlusion"]["mean_coverage"] == report["occlusion"]["static_coverage"]


def test_config_file_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("spacing = 3\nwibble = 1\n")
    code = run(["grid", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err and "wibble" in err


def test_config_file_bad_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("count = three\n")
    code = run(["grid", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bad value" in capsys.readouterr().err


@pytest.mark.parametrize("override", [[], ["--spacing", "2"]], ids=["alone", "overridden"])
def test_config_file_out_of_range_value_exit_2(tmp_path, capsys, override):
    # each value is range-checked as it is read, so a flag does not hide a bad file value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("spacing = -1\n")
    code = run(["grid", "--config", str(cfg), *override, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "'spacing' in " in err and "bad.cfg:1" in err and "> 0" in err
    assert not (tmp_path / "o" / "grid.vgrd").exists()


def test_readme_lists_every_option():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI options\n")[1].split("\n## ")[0]
    # the first line of each option's list item, e.g. "- `--count N` | `--budget C` ..."
    listed = " ".join(line for line in section.splitlines() if line.startswith("- `--"))
    assert [_flag(key) for key in _OPTIONS if f"`{_flag(key)}" not in listed] == []


# one valid non-default text value per config key; a new key needs one here
OPTION_SAMPLES = {
    "scene": "road.json", "spacing": "2.5", "candidate_spacing": "5", "delta": "1.25",
    "types": "type-1, type-3", "budget": "40000", "count": "4",
    "weights": "central=3, ew=2", "seed": "9", "jobs": "2", "out": "elsewhere",
    "exact_limit": "12", "method": "exact, greedy", "intensity_min": "0.1",
    "trials": "5", "vehicles": "2", "gain_budgets": "1, 2",
}


@pytest.mark.parametrize("key", sorted(_OPTIONS))
def test_flag_and_config_key_parse_alike(key, tmp_path):
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text(f"{key} = {OPTION_SAMPLES[key]}\n")
    flag = "--" + key.replace("_", "-")
    parse = _build_parser().parse_args
    from_flag = _merge_config(parse(["solve", flag, OPTION_SAMPLES[key]]))
    from_file = _merge_config(parse(["solve", "--config", str(cfg_file)]))
    assert from_flag == from_file
    assert from_flag != RunConfig()


def test_non_utf8_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bom16.cfg"
    cfg.write_bytes(b"\xff\xfecount = 3\n")
    code = run(["grid", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "bom16.cfg" in err


def test_non_utf8_scene_exit_2(tmp_path, capsys):
    scene = tmp_path / "bom16.json"
    scene.write_bytes(b"\xff\xfe{}")
    code = run(["grid", "--scene", str(scene), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "bom16.json" in err


def _short_row(text):
    return text + "7,1.5\n"


def _without_selected(text):
    payload = json.loads(text)
    del payload["selected"]
    return json.dumps(payload)


def _first_selected_idx(idx):
    def damage(text):
        payload = json.loads(text)
        payload["selected"][0]["idx"] = idx
        return json.dumps(payload)
    return damage


def _extra_covered(idx):
    def damage(text):
        payload = json.loads(text)
        payload["covered"].append(idx)
        return json.dumps(payload)
    return damage


def _set_field(key, value):
    def damage(text):
        payload = json.loads(text)
        payload[key] = value
        return json.dumps(payload)
    return damage


def _set_first_column(col, value):
    def damage(text):
        header, first, rest = text.split("\n", 2)
        fields = first.split(",")
        fields[col] = value
        return "\n".join([header, ",".join(fields), rest])
    return damage


def _zero_weights(text):
    header, *rows = text.strip().split("\n")
    fields = [row.split(",") for row in rows]
    return "\n".join([header] + [",".join(f[:3] + ["0.0", f[4]]) for f in fields]) + "\n"


def _selected_indices(*indices):
    def damage(text):
        payload = json.loads(text)
        payload["selected"] = [{**payload["selected"][0], "idx": i} for i in indices]
        return json.dumps(payload)
    return damage


def _nan_first_x(text):
    header, first, rest = text.split("\n", 2)
    fields = first.split(",")
    fields[1] = "nan"
    return "\n".join([header, ",".join(fields), rest])


@pytest.mark.parametrize("name,damage,stage", [
    ("targets.csv", _short_row, "solve"),
    ("candidates.csv", _short_row, "solve"),
    ("solution.json", lambda text: "[]", "eval"),
    ("solution.json", _without_selected, "render"),
    ("solution.json", _first_selected_idx(999), "eval"),
    ("solution.json", _first_selected_idx(-1), "eval"),
    ("solution.json", _first_selected_idx(1.0), "render"),
    ("solution.json", _extra_covered(10**6), "eval"),
    ("solution.json", _set_field("objective", math.nan), "eval"),
    ("solution.json", _set_field("objective", math.inf), "eval"),
    ("solution.json", _set_field("objective", 1e308), "eval"),
    ("solution.json", _set_field("objective", 0.5), "render"),  # sums of unit weights
    ("solution.json", _set_field("total_cost", math.nan), "eval"),
    ("solution.json", _set_field("total_cost", -math.inf), "eval"),
    ("solution.json", _set_field("optimality_bound", math.nan), "eval"),
    ("solution.json", _set_field("optimality_bound", math.inf), "render"),
    ("targets.csv", _nan_first_x, "eval"),
    ("candidates.csv", _nan_first_x, "eval"),
    ("targets.csv", None, "solve"),
    ("solution.json", None, "eval"),
    ("targets.csv", _set_first_column(3, "-1.0"), "solve"),
    ("candidates.csv", _set_first_column(5, "-0.5"), "solve"),
    ("targets.csv", _zero_weights, "solve"),
    ("solution.json", _selected_indices(3, 7, 3), "eval"),
    ("solution.json", _selected_indices(3, 7, 3), "render"),
    ("solution.json", _set_field("constraint", {"kind": "count", "value": -1}), "eval"),
    ("solution.json", _set_field("constraint", {"kind": "price", "value": 2}), "render"),
    ("solution.json", _first_selected_idx(True), "eval"),
    ("solution.json", _extra_covered(1.0), "eval"),
    ("solution.json", _extra_covered(True), "render"),
    ("solution.json", _set_field("constraint", {"kind": "budget", "value": math.inf}), "eval"),
    ("solution.json", _set_field("constraint", {"kind": "count", "value": 3.5}), "render"),
    ("solution.json", lambda text: "{ not json", "eval"),
    ("solution.json", _set_field("format", 2), "render"),
    ("candidates.csv", _set_first_column(0, "banana"), "solve"),
    ("targets.csv", _set_first_column(0, "1"), "eval"),
], ids=["targets-short-row", "candidates-short-row", "solution-list", "solution-no-selected",
        "solution-selected-past-end", "solution-selected-negative", "solution-selected-float",
        "solution-covered-past-end", "solution-objective-nan", "solution-objective-inf",
        "solution-objective-huge", "solution-objective-wrong", "solution-cost-nan",
        "solution-cost-inf", "solution-bound-nan", "solution-bound-inf", "targets-nan",
        "candidates-nan", "targets-directory", "solution-directory", "targets-negative-weight",
        "candidates-negative-cost", "targets-zero-total", "solution-unverified-eval",
        "solution-unverified-render", "solution-constraint-negative",
        "solution-constraint-kind", "solution-selected-bool", "solution-covered-float",
        "solution-covered-bool", "solution-constraint-inf", "solution-constraint-fractional",
        "solution-not-json", "solution-format-2", "candidates-idx-text", "targets-idx-repeated"])
def test_malformed_artifact_exit_2_names_file(pipeline_dir, tmp_path, capsys,
                                              name, damage, stage):
    out = tmp_path / "damaged"
    out.mkdir()
    for artifact in ("targets.csv", "candidates.csv", "grid.vgrd", "solution.json"):
        (out / artifact).write_bytes((pipeline_dir / artifact).read_bytes())
    if damage is None:  # a directory where the artifact should be
        (out / name).unlink()
        (out / name).mkdir()
    else:
        (out / name).write_text(damage((out / name).read_text()))
    code = run([stage, *FAST, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert str(out / name) in err


@pytest.mark.parametrize("out_name,directory", [
    ("file", None),  # --out names an existing file
    ("file/sub", None),  # --out lies under a file
    ("o", "targets.csv"),  # a directory where the grid stage writes an artifact
])
def test_bad_out_exit_2(tmp_path, capsys, out_name, directory):
    (tmp_path / "file").write_text("not a directory")
    out = tmp_path / out_name
    if directory is not None:
        (out / directory).mkdir(parents=True)
    code = run(["grid", *FAST, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert str(out / directory if directory else out) in err
    if out.is_dir():
        assert not list(out.glob("*.partial"))


def test_failed_commit_leaves_no_mixed_artifacts(tmp_path, capsys):
    # A finished --spacing 3 grid and solve, then a --spacing 2 grid whose
    # second rename fails: the targets it renamed first must not stay next
    # to the old grid, and the solve that follows finds no grid artifacts.
    out = tmp_path / "o"
    assert run(["grid", *FAST, "--spacing", "3", "--out", str(out)]) == 0
    assert run(["solve", *FAST, "--spacing", "3", "--out", str(out)]) == 0
    (out / "candidates.csv").unlink()
    (out / "candidates.csv").mkdir()
    capsys.readouterr()
    assert run(["grid", *FAST, "--spacing", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "candidates.csv") in err
    assert not (out / "targets.csv").exists()
    assert not list(out.glob("*.partial"))
    assert run(["solve", *FAST, "--spacing", "2", "--out", str(out)]) == 2


def test_stage_outputs_partial_retention(tmp_path):
    outputs = StageOutputs(tmp_path)
    partial = outputs.path_for("data.txt")
    partial.write_text("half-finished")
    # stage failed before commit: the partial survives, the final never lands
    assert partial.exists()
    assert partial.name == "data.txt.partial"
    assert not (tmp_path / "data.txt").exists()
    done = outputs.commit()
    assert done == [tmp_path / "data.txt"]
    assert not partial.exists()
    assert (tmp_path / "data.txt").read_text() == "half-finished"


def test_stage_outputs_drop_partials_when_the_block_raises(tmp_path):
    with pytest.raises(RuntimeError):
        with StageOutputs(tmp_path) as outputs:
            outputs.path_for("a.txt").write_text("written")
            outputs.path_for("b.txt")  # never written
            raise RuntimeError("stage failed")
    assert list(tmp_path.iterdir()) == []


def test_failed_solve_leaves_no_partial(tmp_path, capsys):
    # 108 candidates: greedy solves, then exact refuses the instance
    out = tmp_path / "o"
    code = run(["pipeline", "--spacing", "3", "--candidate-spacing", "4", "--count", "4",
                "--method", "greedy", "--method", "exact", "--jobs", "1", "--trials", "1",
                "--out", str(out)])
    assert code == 1
    assert "exact-solver limit" in capsys.readouterr().err
    assert not list(out.glob("*.partial"))
    assert not (out / "solution_greedy.json").exists()


def test_failed_render_leaves_no_partial(monkeypatch, tmp_path, pipeline_dir):
    def half_render(scene, targets, solution, candidates, path):
        Path(path).write_text("<svg")
        raise RuntimeError("render failed")

    out = tmp_path / "o"
    shutil.copytree(pipeline_dir, out)
    (out / "coverage.svg").unlink()
    monkeypatch.setattr(cli, "render_coverage_map", half_render)
    assert run(["render", *FAST, "--out", str(out)]) == 3
    assert not list(out.glob("*.partial"))
    assert not (out / "coverage.svg").exists()


def test_solver_output_that_fails_verification_exit_3(monkeypatch, tmp_path, capsys):
    # verify_solution judges the solver's output as it judges solution.json,
    # but a solver that breaks its own rules is a bug, not bad input.
    def bragging(problem, method, exact_limit):
        solution = solver.solve(problem, method, exact_limit)
        return replace(solution, objective=solution.objective + 1e-10)

    out = tmp_path / "o"
    assert run(["grid", *FAST, "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "solve", bragging)
    capsys.readouterr()
    assert run(["solve", *FAST, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "solver output failed verification: objective" in err[0]
    assert not (out / "solution.json").exists()


def test_internal_error_exit_3_one_line(monkeypatch, tmp_path, capsys):
    def broken_stage(run):
        raise RuntimeError("stage blew up")

    monkeypatch.setitem(cli._STAGES, "grid", broken_stage)
    code = run(["grid", *FAST, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["internal error: RuntimeError: stage blew up"]


def _fresh_python(code, env_overrides=None, args=()):
    """Run `code` in a new interpreter on this checkout's sources, with the
    caller's OPENBLAS_NUM_THREADS unset unless `env_overrides` sets it."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_overrides or {}, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures"])
def test_cli_import_leaves_scipy_out(module):
    assert _fresh_python(f"import sys, lidarplan.cli; print({module!r} in sys.modules)") == "False"


def test_cli_import_pins_one_openblas_thread():
    # an empty value counts as unset: OpenBLAS would start its full pool
    envs = [{}, {"OPENBLAS_NUM_THREADS": ""}]
    runs = [_fresh_python(
        "import os, lidarplan.cli; print(os.environ['OPENBLAS_NUM_THREADS'],"
        " len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0)",
        env,
    ).split() for env in envs]
    assert [pinned for pinned, _ in runs] == ["1", "1"]
    if any(threads == "0" for _, threads in runs):
        pytest.skip("no /proc/self/task to count threads in")
    assert [threads for _, threads in runs] == ["1", "1"]


def test_cli_import_keeps_the_callers_openblas_threads():
    code = "import os, lidarplan.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, {"OPENBLAS_NUM_THREADS": "2"}) == "2"


def test_pipeline_artifacts_do_not_depend_on_openblas_threads(tmp_path):
    outs = []
    for name, env in [("unset", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})]:
        out = tmp_path / name
        _fresh_python("import sys, lidarplan.cli as c; sys.exit(c.main(sys.argv[1:]))", env,
                      ["pipeline", *FAST, "--out", str(out)])
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy<2 imports numpy.random, and through it OpenSSL, in its own __init__")
def test_pipeline_leaves_numpy_random_out(tmp_path):
    # the occlusion trials draw from Python's random, already loaded by numpy,
    # and the manifest hashes with CPython's SHA-256, which maps no OpenSSL
    modules = ("numpy.random", "secrets", "hmac", "_hashlib", "hashlib")
    code = ("import sys, lidarplan.cli as c; code = c.main(sys.argv[1:]);"
            f"print(code, *(m in sys.modules for m in {modules!r}))")
    out = _fresh_python(code, args=["pipeline", *FAST, "--out", str(tmp_path / "o")])
    assert out.splitlines()[-1] == "0" + " False" * len(modules)


def test_package_import_is_lazy():
    code = (
        "import sys, lidarplan; print('numpy' in sys.modules);"
        "print(set(lidarplan.__all__) <= set(dir(lidarplan)));"
        "print(lidarplan.raycast.__name__, 'numpy' in sys.modules)"
    )
    assert _fresh_python(code).splitlines() == ["False", "True", "lidarplan.raycast True"]


def test_console_entry_point():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "lidarplan.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "lidarplan" in proc.stdout


# Option text as a user might mistype it: numbers of every size and form,
# lists, segment=value pairs and arbitrary text (no surrogates, which a
# UTF-8 config file cannot hold).
PARSER = _build_parser()
NUMBER_TEXT = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e309", "-1", "-0", "0", "1_000", "0x10",
                     "5e-324", str(10**400), str(-(10**400)), "9" * 5000]),
    st.floats().map(repr),
    st.integers().map(str),
)
OPTION_TEXT = st.one_of(
    NUMBER_TEXT,
    st.lists(NUMBER_TEXT, max_size=4).map(",".join),
    st.lists(st.tuples(st.text(st.sampled_from("ab =,;#\n\t\x0b\u2028"), max_size=4),
                       NUMBER_TEXT), max_size=3).map(
        lambda pairs: ",".join(f"{k}={v}" for k, v in pairs)
    ),
    st.lists(st.sampled_from(["auto", "exact", "greedy", "", " x"]), max_size=3).map(",".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@pytest.mark.parametrize("key", sorted(_OPTIONS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# a seed beyond the float range once overflowed math.isfinite (exit 3), a
# count beyond it once passed validation, and a line break in a weight
# override's segment once split the message
@example(text=str(10**400), others={}, in_file=[False] * 3)
@example(text="a\nb=-1", others={}, in_file=[False] * 3)
@given(text=OPTION_TEXT, others=st.dictionaries(st.sampled_from(sorted(_OPTIONS)), OPTION_TEXT,
                                                max_size=2),
       in_file=st.lists(st.booleans(), min_size=3, max_size=3))
def test_option_values_parse_or_exit_2(tmp_path, key, text, others, in_file):
    # Only parsing and validation run, no stage: main() reports a CliError
    # as its exit code and one line, and any other exception as exit 3.
    argv, lines = ["grid"], []
    for (name, value), to_file in zip({**others, key: text}.items(), in_file):
        if to_file:
            lines.append(f"{name} = {value}\n")
        else:
            argv.append(f"{_flag(name)}={value}")
    if lines:
        cfg_file = tmp_path / "fuzz.cfg"
        cfg_file.write_text("".join(lines), encoding="utf-8")
        argv += ["--config", str(cfg_file)]
    try:
        cfg = _merge_config(PARSER.parse_args(argv))
    except cli.CliError as exc:
        assert exc.code == 2
        assert len(str(exc).splitlines()) == 1
    else:
        # what validation lets through is a float-range number, so no stage
        # can overflow converting it
        numbers = [cfg.spacing, cfg.candidate_spacing, cfg.resolved_delta, cfg.budget,
                   cfg.count, cfg.seed, cfg.jobs, cfg.exact_limit, cfg.intensity_min,
                   cfg.trials, cfg.vehicles, *cfg.weights.values(), *cfg.gain_budgets]
        assert all(math.isfinite(x) for x in numbers if x is not None)
