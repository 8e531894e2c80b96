"""Synthetic k x k tiling of the bundled demo intersection.

Tile (i, j) is the demo scene shifted by (PERIOD * i, PERIOD * j), with i
and j centred on zero.  The demo's arms end at +-50 m, so with a 100 m
period the roads of adjacent tiles abut exactly and the tiling is one
connected street grid.  Every id gets a tile prefix so ids stay unique.
The output depends on k alone: there is no seed.
"""

from __future__ import annotations

import json
from pathlib import Path

PERIOD = 100.0


def _shift(points, dx: float, dy: float) -> list[list[float]]:
    return [[x + dx, y + dy] for x, y in points]


def tiled_scene_dict(demo: dict, k: int) -> dict:
    """Scene dict of the demo scene tiled k x k at PERIOD metres."""
    if k < 1:
        raise ValueError("k must be >= 1")
    offsets = [PERIOD * (i - (k - 1) / 2.0) for i in range(k)]
    tiled = {
        "comment": f"{k}x{k} tiling of the demo intersection at {PERIOD:g} m",
        "ground_elevation": demo.get("ground_elevation", 0.0),
        "catalog": demo["catalog"],
        "road_segments": [],
        "obstacles": [],
        "mount_zones": [],
    }
    for row, dy in enumerate(offsets):
        for col, dx in enumerate(offsets):
            tag = f"t{row}{col}_"
            for seg in demo["road_segments"]:
                tiled["road_segments"].append(
                    {**seg, "id": tag + seg["id"], "polygon": _shift(seg["polygon"], dx, dy)}
                )
            for obs in demo["obstacles"]:
                tiled["obstacles"].append(
                    {**obs, "id": tag + obs["id"], "footprint": _shift(obs["footprint"], dx, dy)}
                )
            for zone in demo["mount_zones"]:
                tiled["mount_zones"].append(
                    {**zone, "id": tag + zone["id"], "geometry": _shift(zone["geometry"], dx, dy)}
                )
    return tiled


def write_tiled_scene(demo_path: Path, k: int, out_path: Path) -> Path:
    """Write the k x k tiling of the scene at demo_path to out_path."""
    demo = json.loads(Path(demo_path).read_text(encoding="utf-8"))
    out_path.write_text(json.dumps(tiled_scene_dict(demo, k), indent=1) + "\n", encoding="utf-8")
    return out_path
