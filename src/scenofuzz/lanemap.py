"""Lane-graph maps: loading, routing, and route sampling.

A map document is JSON::

    {"name": "...", "lanes": [{"id": "...", "width": 3.5,
                               "centerline": [[x, y], ...],
                               "successors": ["..."], "predecessors": ["..."]}]}

Lanes are directed: traffic flows from the first centerline point to the
last.  Successor links express which lanes can be entered when the current
one ends; geometry is not required to be contiguous, although the bundled
maps are.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from . import canonical
from .canonical import Cursor
from .geometry import MAX_COORDINATE, Polyline, Pose

log = logging.getLogger(__name__)

# names accepted for bundled maps that are served by another bundled file
BUNDLED_ALIASES = {"borregas_ave": "borregas_ave_lite"}

# m; the longest lane centerline: a bundled lane is at most 100 m, and a
# template's conflict search costs time in proportion to lane length
MAX_LANE_LENGTH = 1.0e4


class MapFormatError(ValueError):
    """Raised when a map document violates the schema or its invariants."""


@dataclass(frozen=True)
class Lane:
    lane_id: str
    width: float
    centerline: tuple[tuple[float, float], ...]
    successors: tuple[str, ...]
    predecessors: tuple[str, ...]
    path: Polyline = field(compare=False, repr=False, default=None)  # type: ignore[assignment]

    @property
    def length(self) -> float:
        return self.path.length


@dataclass(frozen=True)
class LaneMap:
    name: str
    lanes: dict[str, Lane]

    def lane(self, lane_id: str) -> Lane:
        try:
            return self.lanes[lane_id]
        except KeyError:
            raise MapFormatError(f"unknown lane id {lane_id!r} in map {self.name!r}") from None


@dataclass(frozen=True)
class Route:
    lane_sequence: tuple[str, ...]
    path: Polyline = field(compare=False, repr=False)


def _build_lane(cur: Cursor) -> Lane:
    cur.keys({"id", "width", "centerline"}, {"successors", "predecessors"})
    lane_id, width = cur["id"].text(), cur["width"].number(above=0.0)
    points = []
    for point in cur["centerline"].items(2):
        x, y = point.numbers(2)
        if not (abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE):
            raise point.fail(f"expected |x| and |y| <= {MAX_COORDINATE}")
        points.append((x, y))
    try:
        path = Polyline(points)
    except ValueError as exc:
        raise cur["centerline"].fail(str(exc)) from None
    if path.length > MAX_LANE_LENGTH:
        raise cur["centerline"].fail(
            f"expected a length <= {MAX_LANE_LENGTH:g} m, got {path.length:g}")
    succ, pred = (tuple(ref.text() for ref in cur[key].items())
                  if key in cur.doc else ()
                  for key in ("successors", "predecessors"))
    return Lane(lane_id, width, tuple(points), succ, pred, path)


def load_map_document(doc: dict) -> LaneMap:
    root = Cursor(doc, MapFormatError).keys({"name", "lanes"})
    name = root["name"].text()
    lanes: dict[str, Lane] = {}
    for cur in root["lanes"].items(1):
        lane = _build_lane(cur)
        if lane.lane_id in lanes:
            raise cur["id"].fail(f"duplicate lane id {lane.lane_id!r}")
        lanes[lane.lane_id] = lane
    for lane in lanes.values():
        for ref in (*lane.successors, *lane.predecessors):
            if ref not in lanes:
                raise MapFormatError(
                    f"lane {lane.lane_id!r} references missing lane {ref!r}")
    return LaneMap(name, lanes)


def _load_map_bytes(data: bytes, source) -> LaneMap:
    try:
        doc = canonical.loads(data)
    except ValueError as exc:  # includes bad UTF-8
        raise MapFormatError(f"{source}: invalid JSON: {exc}") from None
    return load_map_document(doc)


def load_map(path: str | Path) -> LaneMap:
    path = Path(path)
    return _load_map_bytes(path.read_bytes(), path)


def bundled_map_names() -> list[str]:
    files = resources.files("scenofuzz.maps")
    names = sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))
    return names


def load_bundled_map(name: str) -> LaneMap:
    """Load one of the maps shipped with the package by registry name."""
    actual = BUNDLED_ALIASES.get(name, name)
    if actual != name:
        log.info("map name %r served by bundled map %r", name, actual)
    res = resources.files("scenofuzz.maps").joinpath(f"{actual}.json")
    if not res.is_file():
        raise MapFormatError(
            f"no bundled map named {name!r}; available: {bundled_map_names()}")
    return _load_map_bytes(res.read_bytes(), res)


def _stitch(lanes: Iterable[Lane]) -> Polyline:
    points: list[tuple[float, float]] = []
    for lane in lanes:
        for pt in lane.centerline:
            if points:
                last = points[-1]
                if abs(pt[0] - last[0]) < 1e-3 and abs(pt[1] - last[1]) < 1e-3:
                    continue
            points.append(pt)
    return Polyline(points)


def route(lane_map: LaneMap, start_lane_id: str, end_lane_id: str) -> Route:
    """Shortest route by total lane arc length over the successor graph.

    Ties are broken toward the lexicographically smallest lane-id sequence,
    which makes the result independent of dict ordering and platform.
    """
    start = lane_map.lane(start_lane_id)
    lane_map.lane(end_lane_id)
    # heap of (cost, lane_sequence); a lane is settled at its first pop
    heap: list[tuple[float, tuple[str, ...]]] = [(start.length, (start_lane_id,))]
    settled: set[str] = set()
    while heap:
        cost, seq = heapq.heappop(heap)
        current = seq[-1]
        if current in settled:
            continue
        settled.add(current)
        if current == end_lane_id:
            path = _stitch(lane_map.lanes[lid] for lid in seq)
            return Route(seq, path)
        for nxt in sorted(lane_map.lanes[current].successors):
            if nxt not in settled:
                heapq.heappush(heap, (cost + lane_map.lanes[nxt].length, seq + (nxt,)))
    raise ValueError(
        f"no route from {start_lane_id!r} to {end_lane_id!r} in map {lane_map.name!r}")


def sample_route(rt: Route, spacing: float) -> list[Pose]:
    """Poses along the route at ``spacing`` intervals plus the route end."""
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    poses = []
    s = 0.0
    while s < rt.path.length - 1e-9:
        poses.append(rt.path.pose_at(s))
        s += spacing
    poses.append(rt.path.pose_at(rt.path.length))
    return poses
