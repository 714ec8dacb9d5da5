"""Scenario documents: the unit every search algorithm mutates and executes.

A scenario pins one ego mission on a named map plus a concrete cast of NPC
vehicles and static obstacles.  Scenarios serialize to canonical JSON
(``schema_version`` 1) so equal configs always hash identically.

The mutable view of a scenario is a flat ``ParameterVector``: ``flatten``
lays out the genes of a template config with the template's own values, and
``unflatten`` instantiates a concrete scenario from a vector over that
template.

``validate`` checks each actor once, taking its spawn box in the same pass,
and then measures the boxes pairwise with the simulator's ``obb_distance``:
scenario imports the simulator, never the reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .canonical import Cursor
from .geometry import MAX_COORDINATE, MIN_SPACING, Pose, left_normal
from .lanemap import LaneMap
from .simulator import obb_distance

SCHEMA_VERSION = 1

# actor kinds the format reserves; only vehicles are simulated today
KNOWN_ACTOR_KINDS = ("vehicle",)


@dataclass(frozen=True)
class BodyDims:
    length: float = 4.8
    width: float = 2.0


@dataclass(frozen=True)
class EgoSpec:
    start_lane_id: str
    start_station: float
    end_lane_id: str
    end_station: float
    body: BodyDims = field(default_factory=BodyDims)


@dataclass(frozen=True)
class NpcSpec:
    actor_id: str
    waypoints: tuple[Pose, ...]
    target_speeds: tuple[float, ...]
    spawn_delay: float = 0.0
    body: BodyDims = field(default_factory=BodyDims)


@dataclass(frozen=True)
class ObstacleSpec:
    actor_id: str
    pose: Pose
    body: BodyDims = field(default_factory=BodyDims)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    map_name: str
    ego: EgoSpec
    npc_vehicles: tuple[NpcSpec, ...] = ()
    obstacles: tuple[ObstacleSpec, ...] = ()
    duration_limit: float = 45.0


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


# ---------------------------------------------------------------------------
# validation

# a body narrower than this has box edges that round to nothing far out
MIN_BODY_DIM = 0.01  # m
MAX_BODY_DIM = 20.0
MAX_TARGET_SPEED = 30.0


def _body_ok(body: BodyDims) -> bool:
    return MIN_BODY_DIM <= body.width <= body.length <= MAX_BODY_DIM


def _pose_ok(pose: Pose) -> bool:
    return abs(pose.x) <= MAX_COORDINATE and abs(pose.y) <= MAX_COORDINATE


def _check_pose(pose: Pose, subject: str, out: list[Violation]) -> None:
    if not _pose_ok(pose):
        out.append(Violation(
            "CoordinateOutOfRange", subject,
            f"require |x| and |y| <= {MAX_COORDINATE}, "
            f"got x={pose.x} y={pose.y}"))


def _check_body(body: BodyDims, subject: str, out: list[Violation]) -> None:
    if not _body_ok(body):
        out.append(Violation(
            "BadBody", subject,
            f"require {MIN_BODY_DIM} <= width <= length <= {MAX_BODY_DIM}, "
            f"got length={body.length} width={body.width}"))


def validate(config: ScenarioConfig, lane_map: LaneMap) -> list[Violation]:
    """All invariant violations of a scenario against a map; empty == valid."""
    out: list[Violation] = []
    if config.duration_limit <= 0:
        out.append(Violation("NonPositiveDuration", config.scenario_id,
                             f"duration_limit={config.duration_limit}"))

    ids = ["ego"] + [n.actor_id for n in config.npc_vehicles] + \
        [o.actor_id for o in config.obstacles]
    seen: set[str] = set()
    for actor_id in ids:
        if actor_id in seen:
            out.append(Violation("DuplicateActorId", actor_id, "actor id used twice"))
        seen.add(actor_id)

    boxes: list[tuple[str, Pose, BodyDims]] = []
    ego = config.ego
    _check_body(ego.body, "ego", out)
    for which, lane_id, station in (("start", ego.start_lane_id, ego.start_station),
                                    ("end", ego.end_lane_id, ego.end_station)):
        if lane_id not in lane_map.lanes:
            out.append(Violation("UnknownLane", "ego", f"{which} lane {lane_id!r}"))
            continue
        lane = lane_map.lanes[lane_id]
        if not (0.0 <= station <= lane.length):
            out.append(Violation(
                "StationOutOfRange", "ego",
                f"{which}_station={station} outside [0, {lane.length:.3f}] of {lane_id!r}"))
        elif which == "start":
            boxes.append(("ego", lane.path.pose_at(station), ego.body))

    for npc in config.npc_vehicles:
        _check_body(npc.body, npc.actor_id, out)
        for wp in npc.waypoints:
            _check_pose(wp, npc.actor_id, out)
        if len(npc.waypoints) < 2:
            out.append(Violation("TooFewWaypoints", npc.actor_id,
                                 f"{len(npc.waypoints)} waypoints, need >= 2"))
        else:
            for a, b in zip(npc.waypoints, npc.waypoints[1:]):
                if math.hypot(b.x - a.x, b.y - a.y) < MIN_SPACING:
                    out.append(Violation("WaypointSpacing", npc.actor_id,
                                         "consecutive waypoints coincide"))
                    break
        if npc.waypoints:
            boxes.append((npc.actor_id, npc.waypoints[0], npc.body))
        if len(npc.target_speeds) != max(len(npc.waypoints) - 1, 0):
            out.append(Violation(
                "SpeedCountMismatch", npc.actor_id,
                f"{len(npc.target_speeds)} speeds for {len(npc.waypoints)} waypoints"))
        for v in npc.target_speeds:
            if not (0.0 <= v <= MAX_TARGET_SPEED):
                out.append(Violation("SpeedOutOfRange", npc.actor_id,
                                     f"target speed {v} outside [0, {MAX_TARGET_SPEED}]"))
                break
        if npc.spawn_delay < 0:
            out.append(Violation("NegativeSpawnDelay", npc.actor_id,
                                 f"spawn_delay={npc.spawn_delay}"))
    for obs in config.obstacles:
        _check_body(obs.body, obs.actor_id, out)
        _check_pose(obs.pose, obs.actor_id, out)
        boxes.append((obs.actor_id, obs.pose, obs.body))

    # a bad body or a far pose has its own violation, and a flat box has no
    # distance
    boxes = [box for box in boxes if _body_ok(box[2]) and _pose_ok(box[1])]
    for i, (id_a, a, body_a) in enumerate(boxes):
        for id_b, b, body_b in boxes[i + 1:]:
            if obb_distance(a.x, a.y, a.heading, body_a.length, body_a.width,
                            b.x, b.y, b.heading, body_b.length, body_b.width) <= 0.0:
                out.append(Violation("InitialOverlap", f"{id_a}/{id_b}",
                                     "actors overlap at spawn"))
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def _pose_doc(pose: Pose) -> dict:
    return {"x": pose.x, "y": pose.y, "heading": pose.heading}


def _body_doc(body: BodyDims) -> dict:
    return {"length": body.length, "width": body.width}


def to_document(config: ScenarioConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": config.scenario_id,
        "map_name": config.map_name,
        "duration_limit": config.duration_limit,
        "ego": {
            "start_lane_id": config.ego.start_lane_id,
            "start_station": config.ego.start_station,
            "end_lane_id": config.ego.end_lane_id,
            "end_station": config.ego.end_station,
            "body": _body_doc(config.ego.body),
        },
        "npc_vehicles": [
            {
                "actor_id": n.actor_id,
                "kind": "vehicle",
                "waypoints": [_pose_doc(p) for p in n.waypoints],
                "target_speeds": list(n.target_speeds),
                "spawn_delay": n.spawn_delay,
                "body": _body_doc(n.body),
            }
            for n in config.npc_vehicles
        ],
        "obstacles": [
            {"actor_id": o.actor_id, "pose": _pose_doc(o.pose), "body": _body_doc(o.body)}
            for o in config.obstacles
        ],
    }


def _parse_pose(cur: Cursor) -> Pose:
    cur.keys({"x", "y", "heading"})
    return Pose(cur["x"].number(), cur["y"].number(), cur["heading"].number())


def _parse_body(cur: Cursor) -> BodyDims:
    cur.keys({"length", "width"})
    return BodyDims(cur["length"].number(), cur["width"].number())


def from_cursor(root: Cursor) -> ScenarioConfig:
    """The scenario at ``root``; faults raise the cursor's error."""
    root.keys({"schema_version", "scenario_id", "map_name", "duration_limit",
               "ego", "npc_vehicles", "obstacles"})
    version = root["schema_version"]
    if version.integer() != SCHEMA_VERSION:
        raise version.fail(f"unsupported schema_version {version.doc!r}")

    ego_cur = root["ego"].keys({"start_lane_id", "start_station",
                                "end_lane_id", "end_station", "body"})
    ego = EgoSpec(
        start_lane_id=ego_cur["start_lane_id"].text(),
        start_station=ego_cur["start_station"].number(),
        end_lane_id=ego_cur["end_lane_id"].text(),
        end_station=ego_cur["end_station"].number(),
        body=_parse_body(ego_cur["body"]),
    )

    npcs = []
    for cur in root["npc_vehicles"].items():
        cur.keys({"actor_id", "waypoints", "target_speeds", "spawn_delay",
                  "body"}, optional={"kind"})
        if "kind" in cur.doc:
            kind = cur["kind"].text()
            if kind not in KNOWN_ACTOR_KINDS:
                raise cur["kind"].fail(
                    f"unsupported actor kind {kind!r}; known: {list(KNOWN_ACTOR_KINDS)}")
        npcs.append(NpcSpec(
            actor_id=cur["actor_id"].text(),
            waypoints=tuple(_parse_pose(p) for p in cur["waypoints"].items()),
            target_speeds=tuple(s.number() for s in cur["target_speeds"].items()),
            spawn_delay=cur["spawn_delay"].number(),
            body=_parse_body(cur["body"]),
        ))

    obstacles = []
    for cur in root["obstacles"].items():
        cur.keys({"actor_id", "pose", "body"})
        obstacles.append(ObstacleSpec(
            actor_id=cur["actor_id"].text(),
            pose=_parse_pose(cur["pose"]),
            body=_parse_body(cur["body"]),
        ))

    return ScenarioConfig(
        scenario_id=root["scenario_id"].text(),
        map_name=root["map_name"].text(),
        ego=ego,
        npc_vehicles=tuple(npcs),
        obstacles=tuple(obstacles),
        duration_limit=root["duration_limit"].number(),
    )


# ---------------------------------------------------------------------------
# parameter vectors


@dataclass(frozen=True)
class Gene:
    actor_id: str
    field: str  # "speed" | "offset" | "delay" | "presence"
    index: int
    low: float
    high: float


@dataclass(frozen=True)
class MutationSpace:
    """Which scenario fields the search may touch, and their bounds."""
    speeds: bool = True
    offsets: bool = True
    delays: bool = True
    presence: bool = True
    speed_low: float = 0.0
    speed_high: float = 20.0
    offset_limit: float = 2.0
    delay_low: float = 0.0
    delay_high: float = 10.0


@dataclass(frozen=True)
class ParameterVector:
    values: tuple[float, ...]
    genes: tuple[Gene, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.genes):
            raise ValueError("values/genes length mismatch")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def bounds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (tuple(g.low for g in self.genes), tuple(g.high for g in self.genes))

    def with_values(self, values) -> "ParameterVector":
        return ParameterVector(tuple(float(v) for v in values), self.genes)


def flatten(template: ScenarioConfig, space: MutationSpace) -> ParameterVector:
    """The genes ``space`` declares over ``template``, at the template's values.

    Offsets are measured to the left of each waypoint's heading, so the
    template's own are zero, signed as the projection of a waypoint onto
    itself along the normal ``(nx, ny)`` is.
    """
    genes: list[Gene] = []
    values: list[float] = []
    for npc in template.npc_vehicles:
        if space.speeds:
            for i, speed in enumerate(npc.target_speeds):
                genes.append(Gene(npc.actor_id, "speed", i, space.speed_low, space.speed_high))
                values.append(speed)
        if space.offsets:
            for i, wp in enumerate(npc.waypoints):
                genes.append(Gene(npc.actor_id, "offset", i,
                                  -space.offset_limit, space.offset_limit))
                nx, ny = left_normal(wp.heading)
                values.append(0.0 * nx + 0.0 * ny)
        if space.delays:
            genes.append(Gene(npc.actor_id, "delay", 0, space.delay_low, space.delay_high))
            values.append(npc.spawn_delay)
        if space.presence:
            genes.append(Gene(npc.actor_id, "presence", 0, 0.0, 1.0))
            values.append(1.0)
    return ParameterVector(tuple(values), tuple(genes))


def unflatten(vector: ParameterVector, template: ScenarioConfig
              ) -> tuple[ScenarioConfig, list[str]]:
    """Instantiate a concrete scenario from ``vector`` over ``template``.

    Out-of-bounds genes are clamped and reported in the second return value
    (one ``"actor/field[index]"`` entry per repaired gene).
    """
    repairs: list[str] = []
    genes: dict[tuple[str, str, int], float] = {}
    for gene, value in zip(vector.genes, vector.values):
        if value < gene.low or value > gene.high:
            repairs.append(f"{gene.actor_id}/{gene.field}[{gene.index}]")
            value = min(max(value, gene.low), gene.high)
        genes[gene.actor_id, gene.field, gene.index] = value

    npcs: list[NpcSpec] = []
    for npc in template.npc_vehicles:
        name = npc.actor_id
        if genes.get((name, "presence", 0), 1.0) < 0.5:
            continue
        speeds = tuple(genes.get((name, "speed", i), v)
                       for i, v in enumerate(npc.target_speeds))
        waypoints = list(npc.waypoints)
        for i, ref in enumerate(npc.waypoints):
            off = genes.get((name, "offset", i))
            if off is not None:
                nx, ny = left_normal(ref.heading)
                waypoints[i] = Pose(ref.x + off * nx, ref.y + off * ny, ref.heading)
        delay = genes.get((name, "delay", 0), npc.spawn_delay)
        npcs.append(replace(npc, waypoints=tuple(waypoints),
                            target_speeds=speeds, spawn_delay=delay))
    return replace(template, npc_vehicles=tuple(npcs)), repairs
