"""Roadside LiDAR placement planning: simulate sensor visibility over a
discretized road scene and pick deployments that maximize covered target
weight under a budget or unit cap.

The public names below load their submodule, and so numpy, on first use
(PEP 562), so that `lidarplan.cli` can pin numpy's thread pool before
numpy starts."""

import importlib

__version__ = "0.3.2"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ["Candidate", "EmptyGridError", "LatticeTooLargeError", "TargetGrid",
         "discretize_roi", "enumerate_candidates"],
        "discretization",
    ),
    **dict.fromkeys(
        ["GainCurve", "OcclusionReport", "VehicleModel", "WeightedComparison",
         "compare_weighted", "gain_curve", "occlusion_monte_carlo", "render_coverage_map",
         "sample_density"],
        "evaluation",
    ),
    **dict.fromkeys(
        ["VisibilityGrid", "build_visibility_grid", "generate_beams"],
        "raycast",
    ),
    **dict.fromkeys(
        ["MountZone", "Obstacle", "RoadSegment", "Scene", "SceneParseError",
         "SceneValidationError", "SensorSpec", "demo_scene_path", "load_scene",
         "scene_bounds", "validate_scene"],
        "scene",
    ),
    **dict.fromkeys(
        ["Budget", "Cardinality", "DeploymentProblem", "InstanceTooLargeError", "Solution",
         "VerificationReport", "coverage_fraction", "solve", "solve_exact", "solve_greedy",
         "verify_solution"],
        "solver",
    ),
}
_SUBMODULES = {*_EXPORTS.values(), "cli", "geometry"}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
