"""Static world model: roads, obstacles, mount zones, and the sensor catalog.

Scenes are loaded from UTF-8 JSON files.  Top-level keys: ``road_segments``,
``obstacles``, ``mount_zones``, ``catalog``, ``ground_elevation``.  All
lengths are meters, angles degrees, costs abstract currency units.  A scene
is immutable after load and safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

from .geometry import (
    Point,
    polygon_area,
    polygon_bounds,
    polygon_is_convex,
    polygon_is_simple,
)

# Default vertical resolution of one spinning-head revolution (degrees per step).
DEFAULT_AZIMUTH_STEP = 0.4
# Most beams one revolution may have; the demo's largest type has 23,040.
# A finite but huge channels or a tiny azimuth_step is refused at load
# instead of asking the raycaster for billions of beams.
MAX_BEAMS = 1 << 22


class SceneParseError(ValueError):
    """Malformed scene file: bad JSON or a missing/ill-typed field."""


class SceneValidationError(ValueError):
    """Well-formed scene that violates model invariants.

    Carries every violation found, not just the first.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class SensorSpec:
    """One catalog entry describing a spinning LiDAR model."""

    type_id: str
    channels: int
    vertical_fov_min: float  # degrees, negative = below horizontal
    vertical_fov_max: float
    horizontal_fov: float  # degrees, 360 = full sweep
    range_m: float
    unit_cost: float
    azimuth_step: float = DEFAULT_AZIMUTH_STEP
    # Recorded for reporting only; the static coverage model ignores them.
    capture_frequency_hz: float | None = None
    accuracy_m: float | None = None

    @property
    def azimuth_count(self) -> int:
        """Azimuths per channel: the multiples of azimuth_step in
        [0, horizontal_fov), i.e. ceil(horizontal_fov / azimuth_step).  The
        1e-9 keeps a step that divides the FOV up to rounding from adding
        one; the 2**62 cap (past any valid count) keeps a subnormal step
        from making the ratio infinite."""
        return math.ceil(min(self.horizontal_fov / self.azimuth_step, 2.0**62) - 1e-9)

    @property
    def beam_count(self) -> int:
        """Beams per revolution, as generate_beams casts them."""
        return self.channels * self.azimuth_count


@dataclass(frozen=True)
class RoadSegment:
    id: str
    polygon: tuple[Point, ...]
    priority_weight: float = 1.0


@dataclass(frozen=True)
class Obstacle:
    """Convex prism extruded from the ground plane up to `height`."""

    id: str
    footprint: tuple[Point, ...]
    height: float


@dataclass(frozen=True)
class MountZone:
    """Region where sensors may be installed, at discrete heights.

    `kind` is "polygon" (sidewalk patch) or "polyline" (pole run along a
    curb); polylines are treated as a corridor half a lattice spacing wide
    when candidates are enumerated.
    """

    id: str
    geometry: tuple[Point, ...]
    allowed_heights: tuple[float, ...]
    kind: str = "polygon"
    install_surcharge: float = 0.0


@dataclass(frozen=True)
class Scene:
    road_segments: tuple[RoadSegment, ...]
    obstacles: tuple[Obstacle, ...] = ()
    mount_zones: tuple[MountZone, ...] = ()
    catalog: tuple[SensorSpec, ...] = ()
    ground_elevation: float = 0.0

    def sensor(self, type_id: str) -> SensorSpec:
        for spec in self.catalog:
            if spec.type_id == type_id:
                return spec
        raise KeyError(f"unknown sensor type {type_id!r}")

    def with_extra_obstacles(self, extra: Sequence[Obstacle]) -> "Scene":
        """Copy of this scene with obstacles appended (e.g. sampled vehicles)."""
        return replace(self, obstacles=self.obstacles + tuple(extra))


def validate_scene(scene: Scene) -> list[str]:
    """Collect every violated model invariant; empty list means valid."""
    bad: list[str] = []
    if not scene.road_segments:
        bad.append("no road segments")
    if not scene.mount_zones:
        bad.append("no mount zones")
    for seg in scene.road_segments:
        if len(seg.polygon) < 3:
            bad.append(f"road segment {seg.id!r}: polygon needs >=3 vertices")
        elif not polygon_is_simple(seg.polygon):
            bad.append(f"road segment {seg.id!r}: polygon is self-intersecting")
        elif polygon_area(seg.polygon) <= 0:
            bad.append(f"road segment {seg.id!r}: polygon area must be > 0")
        if seg.priority_weight < 0:
            bad.append(f"road segment {seg.id!r}: priority_weight must be >= 0")
    for obs in scene.obstacles:
        if len(obs.footprint) < 3:
            bad.append(f"obstacle {obs.id!r}: footprint needs >=3 vertices")
        elif not polygon_is_simple(obs.footprint):
            bad.append(f"obstacle {obs.id!r}: footprint is self-intersecting")
        elif polygon_area(obs.footprint) <= 0:
            bad.append(f"obstacle {obs.id!r}: footprint area must be > 0")
        elif not polygon_is_convex(obs.footprint):
            bad.append(f"obstacle {obs.id!r}: footprint must be convex")
        if obs.height <= 0:
            bad.append(f"obstacle {obs.id!r}: height must be > 0")
    for zone in scene.mount_zones:
        if zone.kind not in ("polygon", "polyline"):
            bad.append(f"mount zone {zone.id!r}: kind must be polygon or polyline")
        min_pts = 3 if zone.kind == "polygon" else 2
        if len(zone.geometry) < min_pts:
            bad.append(f"mount zone {zone.id!r}: needs >={min_pts} vertices")
        elif zone.kind == "polygon" and not polygon_is_simple(zone.geometry):
            bad.append(f"mount zone {zone.id!r}: polygon is self-intersecting")
        if not zone.allowed_heights:
            bad.append(f"mount zone {zone.id!r}: allowed_heights is empty")
        elif any(h <= 0 for h in zone.allowed_heights):
            bad.append(f"mount zone {zone.id!r}: allowed_heights must all be > 0")
        if zone.install_surcharge < 0:
            bad.append(f"mount zone {zone.id!r}: install_surcharge must be >= 0")
    for spec in scene.catalog:
        if spec.channels < 1:
            bad.append(f"sensor {spec.type_id!r}: channels must be >= 1")
        if not spec.vertical_fov_min < spec.vertical_fov_max:
            bad.append(f"sensor {spec.type_id!r}: vertical FOV min must be < max")
        if not 0 < spec.horizontal_fov <= 360:
            bad.append(f"sensor {spec.type_id!r}: horizontal FOV must be in (0, 360]")
        if spec.range_m <= 0:
            bad.append(f"sensor {spec.type_id!r}: range must be > 0")
        if spec.unit_cost <= 0:
            bad.append(f"sensor {spec.type_id!r}: unit_cost must be > 0")
        if spec.azimuth_step <= 0:
            bad.append(f"sensor {spec.type_id!r}: azimuth_step must be > 0")
        elif spec.beam_count > MAX_BEAMS:
            bad.append(f"sensor {spec.type_id!r}: {spec.beam_count} beams per revolution "
                       f"exceed the limit of {MAX_BEAMS}")
    return bad


def _finite(value: int | float, where: str) -> float:
    """JSON allows NaN, Infinity and integers too large for a float; the
    model takes none of them."""
    try:
        number = float(value)
    except OverflowError:
        number = float("inf")
    if not abs(number) < float("inf"):  # also true for NaN
        raise SceneParseError(f"{where}: expected a finite number")
    return number


def _points(raw: Any, where: str) -> tuple[Point, ...]:
    if not isinstance(raw, list):
        raise SceneParseError(f"{where}: expected a list of [x, y] pairs")
    pts = []
    for k, item in enumerate(raw):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(v, (int, float)) for v in item)
        ):
            raise SceneParseError(f"{where}[{k}]: expected an [x, y] number pair")
        pts.append((_finite(item[0], f"{where}[{k}]"), _finite(item[1], f"{where}[{k}]")))
    return tuple(pts)


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SceneParseError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(value, f"{where}: field {key!r}")
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise SceneParseError(f"{where}: field {key!r} has wrong type (expected {kind.__name__})")


def _optional_float(obj: dict, key: str, default, where: str):
    if key not in obj or obj[key] is None:
        return default
    return _require(obj, key, float, where)


def scene_from_dict(data: dict) -> Scene:
    """Build and validate a Scene from already-parsed JSON data."""
    if not isinstance(data, dict):
        raise SceneParseError("top level: expected a JSON object")
    segments = []
    for k, raw in enumerate(_require(data, "road_segments", list, "top level")):
        where = f"road_segments[{k}]"
        segments.append(
            RoadSegment(
                id=_require(raw, "id", str, where),
                polygon=_points(_require(raw, "polygon", list, where), f"{where}.polygon"),
                priority_weight=_optional_float(raw, "priority_weight", 1.0, where),
            )
        )
    obstacles = []
    for k, raw in enumerate(data.get("obstacles", []) or []):
        where = f"obstacles[{k}]"
        obstacles.append(
            Obstacle(
                id=_require(raw, "id", str, where),
                footprint=_points(_require(raw, "footprint", list, where), f"{where}.footprint"),
                height=_require(raw, "height", float, where),
            )
        )
    zones = []
    for k, raw in enumerate(_require(data, "mount_zones", list, "top level")):
        where = f"mount_zones[{k}]"
        heights = _require(raw, "allowed_heights", list, where)
        if not all(isinstance(h, (int, float)) and not isinstance(h, bool) for h in heights):
            raise SceneParseError(f"{where}.allowed_heights: expected numbers")
        kind = raw.get("kind", "polygon")
        if not isinstance(kind, str):
            raise SceneParseError(f"{where}: field 'kind' has wrong type (expected str)")
        zones.append(
            MountZone(
                id=_require(raw, "id", str, where),
                geometry=_points(_require(raw, "geometry", list, where), f"{where}.geometry"),
                allowed_heights=tuple(
                    _finite(h, f"{where}.allowed_heights[{j}]") for j, h in enumerate(heights)
                ),
                kind=kind,
                install_surcharge=_optional_float(raw, "install_surcharge", 0.0, where),
            )
        )
    catalog = []
    for k, raw in enumerate(data.get("catalog", []) or []):
        where = f"catalog[{k}]"
        catalog.append(
            SensorSpec(
                type_id=_require(raw, "type_id", str, where),
                channels=_require(raw, "channels", int, where),
                vertical_fov_min=_require(raw, "vertical_fov_min", float, where),
                vertical_fov_max=_require(raw, "vertical_fov_max", float, where),
                horizontal_fov=_require(raw, "horizontal_fov", float, where),
                range_m=_require(raw, "range_m", float, where),
                unit_cost=_require(raw, "unit_cost", float, where),
                azimuth_step=_optional_float(raw, "azimuth_step", DEFAULT_AZIMUTH_STEP, where),
                capture_frequency_hz=_optional_float(raw, "capture_frequency_hz", None, where),
                accuracy_m=_optional_float(raw, "accuracy_m", None, where),
            )
        )
    scene = Scene(
        road_segments=tuple(segments),
        obstacles=tuple(obstacles),
        mount_zones=tuple(zones),
        catalog=tuple(catalog),
        ground_elevation=_optional_float(data, "ground_elevation", 0.0, "top level"),
    )
    violations = validate_scene(scene)
    if violations:
        raise SceneValidationError(violations)
    return scene


def load_scene(path: str | Path) -> Scene:
    """Load and validate a scene JSON file.

    Raises SceneParseError with line/field context for malformed input and
    SceneValidationError listing every violated invariant for bad models.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SceneParseError(f"cannot read scene file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal past Python's digit limit
        raise SceneParseError(f"{path}: invalid JSON: {exc}") from exc
    return scene_from_dict(data)


def scene_to_dict(scene: Scene) -> dict:
    """Plain-JSON form of a scene; inverse of scene_from_dict."""
    data: dict[str, Any] = {
        "road_segments": [
            {
                "id": s.id,
                "polygon": [[x, y] for x, y in s.polygon],
                "priority_weight": s.priority_weight,
            }
            for s in scene.road_segments
        ],
        "obstacles": [
            {"id": o.id, "footprint": [[x, y] for x, y in o.footprint], "height": o.height}
            for o in scene.obstacles
        ],
        "mount_zones": [
            {
                "id": z.id,
                "geometry": [[x, y] for x, y in z.geometry],
                "allowed_heights": list(z.allowed_heights),
                "kind": z.kind,
                "install_surcharge": z.install_surcharge,
            }
            for z in scene.mount_zones
        ],
        "catalog": [],
        "ground_elevation": scene.ground_elevation,
    }
    for spec in scene.catalog:
        entry: dict[str, Any] = {
            "type_id": spec.type_id,
            "channels": spec.channels,
            "vertical_fov_min": spec.vertical_fov_min,
            "vertical_fov_max": spec.vertical_fov_max,
            "horizontal_fov": spec.horizontal_fov,
            "range_m": spec.range_m,
            "unit_cost": spec.unit_cost,
            "azimuth_step": spec.azimuth_step,
        }
        if spec.capture_frequency_hz is not None:
            entry["capture_frequency_hz"] = spec.capture_frequency_hz
        if spec.accuracy_m is not None:
            entry["accuracy_m"] = spec.accuracy_m
        data["catalog"].append(entry)
    return data


def save_scene(scene: Scene, path: str | Path) -> None:
    """Write a scene back to JSON; load_scene(save_scene(s)) == s."""
    Path(path).write_text(
        json.dumps(scene_to_dict(scene), indent=2) + "\n", encoding="utf-8"
    )


def scene_bounds(scene: Scene) -> tuple[float, float, float, float]:
    """Tight (xmin, ymin, xmax, ymax) over all road-segment vertices."""
    all_pts = [p for seg in scene.road_segments for p in seg.polygon]
    return polygon_bounds(all_pts)


def demo_scene_path() -> Path:
    """Path of the bundled four-segment intersection scene."""
    with resources.as_file(
        resources.files("lidarplan.data") / "town05_intersection.scene.json"
    ) as p:
        return Path(p)
