from dataclasses import replace

import numpy as np
import pytest

from lidarplan import (
    build_visibility_grid,
    demo_scene_path,
    discretize_roi,
    enumerate_candidates,
    load_scene,
)

_ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def demo_scene():
    return load_scene(demo_scene_path())


@pytest.fixture(scope="session")
def demo_targets(demo_scene):
    return discretize_roi(demo_scene, spacing=3.0)


@pytest.fixture(scope="session")
def demo_weights_central10(demo_scene):
    """demo_targets' weights with the central segment's priority weight at
    10, as the grid stage applies --weights central=10."""
    roads = tuple(replace(seg, priority_weight=10.0) if seg.id == "central" else seg
                  for seg in demo_scene.road_segments)
    return discretize_roi(replace(demo_scene, road_segments=roads), spacing=3.0).weights


@pytest.fixture(scope="session")
def demo_candidates_t3(demo_scene):
    return enumerate_candidates(
        demo_scene, spacing=6.0, types=[demo_scene.sensor("type-3")]
    )


@pytest.fixture(scope="session")
def demo_candidates_t1(demo_scene):
    return enumerate_candidates(
        demo_scene, spacing=6.0, types=[demo_scene.sensor("type-1")]
    )


@pytest.fixture(scope="session")
def demo_grid_t3(demo_candidates_t3, demo_targets, demo_scene):
    return build_visibility_grid(
        demo_candidates_t3, demo_targets, demo_scene, delta=1.5
    )


@pytest.fixture(scope="session")
def demo_grid_t1(demo_candidates_t1, demo_targets, demo_scene):
    return build_visibility_grid(
        demo_candidates_t1, demo_targets, demo_scene, delta=1.5
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
