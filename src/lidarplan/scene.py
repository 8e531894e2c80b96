"""Static world model: roads, obstacles, mount zones, and the sensor catalog.

Scenes are loaded from UTF-8 JSON files.  Each record's dataclass fields
declare its JSON fields, in the order they are read, with their reader and
whether a file must give them (see ``_json``).  All lengths are meters,
angles degrees, costs abstract currency units.  A scene is immutable after
load.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Sequence

from .geometry import (
    Point,
    polygon_area,
    polygon_bounds,
    polygon_is_convex,
    polygon_is_simple,
)

# Default horizontal step between the beams of one channel (degrees).
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


# JSON types, by the name a wrong-type message gives; a bool is none of them.
_TYPES = {"str": str, "int": int, "float": (int, float), "list": list}


def _is(expected: str, value: Any) -> bool:
    return isinstance(value, _TYPES[expected]) and not isinstance(value, bool)


def _typed(expected: str, value: Any, where: str, key: str) -> Any:
    if not _is(expected, value):
        raise SceneParseError(f"{where}: field {key!r} has wrong type (expected {expected})")
    return value


_str = partial(_typed, "str")
_int = partial(_typed, "int")


def _float(value: Any, where: str, key: str) -> float:
    return _finite(_typed("float", value, where, key), f"{where}: field {key!r}")


def _points(value: Any, where: str, key: str) -> tuple[Point, ...]:
    pts = []
    for k, item in enumerate(_typed("list", value, where, key)):
        at = f"{where}.{key}[{k}]"
        if not (_is("list", item) and len(item) == 2 and all(_is("float", v) for v in item)):
            raise SceneParseError(f"{at}: expected an [x, y] number pair")
        pts.append((_finite(item[0], at), _finite(item[1], at)))
    return tuple(pts)


def _numbers(value: Any, where: str, key: str) -> tuple[float, ...]:
    if not all(_is("float", v) for v in _typed("list", value, where, key)):
        raise SceneParseError(f"{where}.{key}: expected numbers")
    return tuple(_finite(v, f"{where}.{key}[{k}]") for k, v in enumerate(value))


def _records(cls: type, value: Any, where: str, key: str) -> tuple:
    # Entries are named from the top level, the only one with record lists.
    entries = _typed("list", value, where, key)
    return tuple(_record(cls, raw, f"{key}[{k}]") for k, raw in enumerate(entries))


def _record(cls: type, raw: Any, where: str):
    """Parse a `cls` record field by field in dataclass order; raises the first fault."""
    if not isinstance(raw, dict):
        raise SceneParseError(f"{where}: expected a JSON object")
    values = {}
    for f in fields(cls):
        read, presence = f.metadata["read"], f.metadata["presence"]
        if f.name in raw and (raw[f.name] is not None or presence != "nullable"):
            values[f.name] = read(raw[f.name], where, f.name)
        elif presence == "required":
            raise SceneParseError(f"{where}: missing required field {f.name!r}")
    return cls(**values)


def _json(read, default: Any = MISSING, *, required: bool = False, null: bool = True):
    """A record field as a scene file gives it: `read(value, where, key)` parses
    its JSON value.  A file must give the field when it has no default or is
    `required`; otherwise leaving it out, or (when `null`) giving null, means
    the default.  Its presence is "required", "nullable" or "optional"."""
    presence = "required" if required or default is MISSING else "nullable" if null else "optional"
    return field(default=default, metadata={"read": read, "presence": presence})


@dataclass(frozen=True)
class SensorSpec:
    """One catalog entry describing a spinning LiDAR model."""

    type_id: str = _json(_str)
    channels: int = _json(_int)
    vertical_fov_min: float = _json(_float)  # degrees, negative = below horizontal
    vertical_fov_max: float = _json(_float)
    horizontal_fov: float = _json(_float)  # degrees, 360 = full sweep
    range_m: float = _json(_float)
    unit_cost: float = _json(_float)
    azimuth_step: float = _json(_float, DEFAULT_AZIMUTH_STEP)
    # Recorded for reporting only; the static coverage model ignores them.
    capture_frequency_hz: float | None = _json(_float, None)
    accuracy_m: float | None = _json(_float, None)

    @property
    def azimuth_count(self) -> int:
        """Azimuths per channel: the multiples of azimuth_step in
        [0, horizontal_fov), i.e. ceil(horizontal_fov / azimuth_step).  The
        1e-9 keeps a step that divides the FOV up to rounding from adding
        one; clamping the ratio to [0, 2**62] (past any valid count) keeps
        a subnormal step or a huge negative FOV from making it infinite."""
        return math.ceil(min(max(self.horizontal_fov / self.azimuth_step, 0.0), 2.0**62) - 1e-9)

    @property
    def beam_count(self) -> int:
        """Beams per revolution, as generate_beams casts them."""
        return self.channels * self.azimuth_count


@dataclass(frozen=True)
class RoadSegment:
    id: str = _json(_str)
    polygon: tuple[Point, ...] = _json(_points)
    priority_weight: float = _json(_float, 1.0)


@dataclass(frozen=True)
class Obstacle:
    """Convex prism extruded from the ground plane up to `height`."""

    id: str = _json(_str)
    footprint: tuple[Point, ...] = _json(_points)
    height: float = _json(_float)


@dataclass(frozen=True)
class MountZone:
    """Region where sensors may be installed, at discrete heights.

    `kind` is "polygon" (sidewalk patch) or "polyline" (pole run along a
    curb); polylines are treated as a corridor half a lattice spacing wide
    when candidates are enumerated.
    """

    id: str = _json(_str)
    geometry: tuple[Point, ...] = _json(_points)
    allowed_heights: tuple[float, ...] = _json(_numbers)
    kind: str = _json(_str, "polygon", null=False)
    install_surcharge: float = _json(_float, 0.0)


@dataclass(frozen=True)
class Scene:
    road_segments: tuple[RoadSegment, ...] = _json(partial(_records, RoadSegment))
    obstacles: tuple[Obstacle, ...] = _json(partial(_records, Obstacle), ())
    # The library default lets a scene be built without zones; a file must list them.
    mount_zones: tuple[MountZone, ...] = _json(partial(_records, MountZone), (), required=True)
    catalog: tuple[SensorSpec, ...] = _json(partial(_records, SensorSpec), ())
    ground_elevation: float = _json(_float, 0.0)

    def sensor(self, type_id: str) -> SensorSpec:
        for spec in self.catalog:
            if spec.type_id == type_id:
                return spec
        raise KeyError(f"unknown sensor type {type_id!r}")


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
    for what, ids in (("road segment", [seg.id for seg in scene.road_segments]),
                      ("obstacle", [obs.id for obs in scene.obstacles]),
                      ("mount zone", [zone.id for zone in scene.mount_zones]),
                      ("sensor", [spec.type_id for spec in scene.catalog])):
        bad += [f"{what} {i!r}: id is used {n} times" for i, n in Counter(ids).items() if n > 1]
    return bad


def scene_from_dict(data: dict) -> Scene:
    """Build and validate a Scene from already-parsed JSON data."""
    scene = _record(Scene, data, "top level")
    if violations := validate_scene(scene):
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


def scene_bounds(scene: Scene) -> tuple[float, float, float, float]:
    """Tight (xmin, ymin, xmax, ymax) over all road-segment vertices."""
    all_pts = [p for seg in scene.road_segments for p in seg.polygon]
    return polygon_bounds(all_pts)


def demo_scene_path() -> Path:
    """Path of the bundled four-segment intersection scene."""
    return Path(__file__).parent / "data" / "town05_intersection.scene.json"
