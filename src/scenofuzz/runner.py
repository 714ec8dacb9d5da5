"""Closed-loop scenario execution with violation oracles and trace recording.

One run drives the world until an oracle fires or the duration limit lapses.
Oracle precedence inside a step is fixed: collision, then destination, then
stuck, then timeout.  The recording keeps every frame up to and including the
deciding one and nothing after it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import canonical
from .bridge import (AgentTimeoutError, BridgeSession, ControlMessage,
                     PerceptionMessage, _actor_fields, _actor_text,
                     _parse_actor, _require_number)
from .geometry import Polyline
from .lanemap import LaneMap, route
from .scenario import ScenarioConfig, from_document, to_document, validate
from .simulator import (ActorState, ControlCommand, WaypointPolicy,
                        WorldState, actor_distance, actor_distance_lower_bound,
                        step_world)

RECORDING_SCHEMA_VERSION = 1

COLLISION = "CollisionViolation"
DESTINATION = "DestinationReached"
TIMEOUT = "Timeout"
STUCK = "Stuck"
AGENT_TIMEOUT = "AgentTimeout"

OUTCOMES = (COLLISION, DESTINATION, TIMEOUT, STUCK, AGENT_TIMEOUT)

# actor_distance_lower_bound can round a few ulps above actor_distance when
# two boxes face each other corner to corner, so a pair is skipped only when
# its bound clears the contact threshold by more than this.
BOUND_ROUNDING_MARGIN = 1e-9  # m

STOP_SPEED = 0.5  # m/s; below it the ego counts as stopped at the destination


class RunnerError(RuntimeError):
    pass


class RecordingFormatError(ValueError):
    pass


@dataclass(frozen=True)
class OracleConfig:
    collision_threshold: float = 0.01   # m
    destination_tolerance: float = 3.0  # m
    stuck_speed: float = 0.3            # m/s
    stuck_duration: float = 30.0        # s


@dataclass(frozen=True)
class Verdict:
    outcome: str
    time_of_decision: float
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")


@dataclass(frozen=True)
class Frame:
    sim_time: float
    actors: tuple[ActorState, ...]
    ego_command: ControlCommand


@dataclass(frozen=True)
class ScenarioRecording:
    scenario_id: str
    config_snapshot: ScenarioConfig
    frames: tuple[Frame, ...]
    verdict: Verdict
    rng_seed: int
    annotations: tuple[dict, ...] = ()
    wall_clock: float = field(default=0.0, compare=False)


# ---------------------------------------------------------------------------
# oracles


def check_collision(world: WorldState, threshold: float):
    """Closest ego-involved contact at or under the threshold, if any.

    Returns ``(pair, distance)`` for the minimizing pair or ``None``.
    """
    ego = world.ego
    best = None
    skip_above = threshold + BOUND_ROUNDING_MARGIN
    for other in world.actors:
        if other.actor_id == "ego":
            continue
        if actor_distance_lower_bound(ego, other) > skip_above:
            continue
        d = actor_distance(ego, other)
        if d <= threshold and (best is None or d < best[1]):
            best = (("ego", other.actor_id), d)
    return best


def check_destination(ego: ActorState, end_point: tuple[float, float],
                      tolerance: float) -> bool:
    """Arrived means close to the mission end AND essentially stopped."""
    dist = math.hypot(ego.x - end_point[0], ego.y - end_point[1])
    return dist <= tolerance and ego.speed < STOP_SPEED


def mission_end_point(config: ScenarioConfig, lane_map: LaneMap) -> tuple[float, float]:
    lane = lane_map.lane(config.ego.end_lane_id)
    return lane.path.point_at(config.ego.end_station)


def mission_path(config: ScenarioConfig, lane_map: LaneMap) -> Polyline:
    """Route geometry from the ego start station to the end station.

    This is what a route-following agent should drive: it begins at the spawn
    pose and terminates at the destination, so a stop-at-end profile stops
    exactly where the destination oracle looks.
    """
    rt = route(lane_map, config.ego.start_lane_id, config.ego.end_lane_id)
    end_lane = lane_map.lane(config.ego.end_lane_id)
    s_end = rt.path.length - (end_lane.path.length - config.ego.end_station)
    return rt.path.sub_path(config.ego.start_station, s_end)


def initial_world(config: ScenarioConfig, lane_map: LaneMap) -> WorldState:
    """Spawn the cast: ego first, then NPCs in config order, then obstacles."""
    start_lane = lane_map.lane(config.ego.start_lane_id)
    ego_pose = start_lane.path.pose_at(config.ego.start_station)
    actors = [ActorState("ego", "ego", ego_pose.x, ego_pose.y, ego_pose.heading,
                         length=config.ego.body.length, width=config.ego.body.width)]
    for npc in config.npc_vehicles:
        wp = npc.waypoints[0]
        actors.append(ActorState(npc.actor_id, "npc", wp.x, wp.y, wp.heading,
                                 length=npc.body.length, width=npc.body.width))
    for obs in config.obstacles:
        actors.append(ActorState(obs.actor_id, "static", obs.pose.x, obs.pose.y,
                                 obs.pose.heading, length=obs.body.length,
                                 width=obs.body.width))
    return WorldState(0.0, tuple(actors))


# ---------------------------------------------------------------------------
# execution


def run_scenario(config: ScenarioConfig, lane_map: LaneMap,
                 session_factory: Callable[[], BridgeSession],
                 oracles: OracleConfig = OracleConfig(),
                 seed: int = 0,
                 dt: float = 0.1) -> ScenarioRecording:
    problems = validate(config, lane_map)
    if problems:
        raise RunnerError(
            f"scenario {config.scenario_id!r} invalid: "
            + "; ".join(f"{v.code}({v.subject})" for v in problems))

    started = time.perf_counter()
    end_point = mission_end_point(config, lane_map)
    world = initial_world(config, lane_map)
    policies = {npc.actor_id: WaypointPolicy(npc)
                for npc in config.npc_vehicles}

    session = session_factory()
    frames: list[Frame] = []
    annotations: list[dict] = []
    contact_pairs: set[tuple[str, str]] = set()
    last_command = ControlCommand()
    low_since: float | None = None
    verdict: Verdict | None = None

    try:
        while verdict is None:
            t = world.sim_time
            hit = check_collision(world, oracles.collision_threshold)
            if hit is not None:
                verdict = Verdict(COLLISION, t, {"pair": list(hit[0]),
                                                 "distance": hit[1]})
                break
            if check_destination(world.ego, end_point, oracles.destination_tolerance):
                verdict = Verdict(DESTINATION, t)
                break
            if world.ego.speed < oracles.stuck_speed:
                if low_since is None:
                    low_since = t
                if t - low_since >= oracles.stuck_duration:
                    verdict = Verdict(STUCK, t)
                    break
            else:
                low_since = None
            if t >= config.duration_limit - 1e-9:
                verdict = Verdict(TIMEOUT, t)
                break

            _annotate_npc_contacts(world, oracles.collision_threshold,
                                   contact_pairs, annotations)

            others = tuple(a for a in world.actors if a.actor_id != "ego")
            perception = PerceptionMessage(t, world.ego, others)
            try:
                control = session.request(perception)
            except AgentTimeoutError:
                verdict = Verdict(AGENT_TIMEOUT, t)
                break
            if session.in_flight != 0:
                raise RunnerError("bridge lockstep violated: request left "
                                  f"{session.in_flight} frames in flight")
            _check_reply(control, t)

            controls = {"ego": control.command}
            for actor_id, policy in policies.items():
                controls[actor_id] = policy.step(world.actor(actor_id), t, dt)
            frames.append(Frame(t, world.actors, control.command))
            last_command = control.command
            world = step_world(world, controls, dt)
    finally:
        session.close()

    frames.append(Frame(world.sim_time, world.actors, last_command))
    return ScenarioRecording(
        scenario_id=config.scenario_id,
        config_snapshot=config,
        frames=tuple(frames),
        verdict=verdict,
        rng_seed=seed,
        annotations=tuple(annotations),
        wall_clock=time.perf_counter() - started,
    )


def _check_reply(control: ControlMessage, t: float) -> None:
    if abs(control.sim_time - t) > 1e-6:
        raise RunnerError(
            f"agent answered for t={control.sim_time}, expected t={t}")


def _annotate_npc_contacts(world: WorldState, threshold: float,
                           seen: set, annotations: list) -> None:
    npcs = [a for a in world.actors if a.kind == "npc"]
    skip_above = threshold + BOUND_ROUNDING_MARGIN
    for i in range(len(npcs)):
        for j in range(i + 1, len(npcs)):
            pair = (npcs[i].actor_id, npcs[j].actor_id)
            if pair in seen:
                continue
            if actor_distance_lower_bound(npcs[i], npcs[j]) > skip_above:
                continue
            if actor_distance(npcs[i], npcs[j]) <= threshold:
                seen.add(pair)
                annotations.append({"type": "npc_contact", "sim_time": world.sim_time,
                                    "pair": list(pair)})


# ---------------------------------------------------------------------------
# persistence


def _actor_doc(state: ActorState) -> dict:
    return {"actor_id": state.actor_id, "kind": state.kind,
            "x": state.x, "y": state.y, "heading": state.heading,
            "speed": state.speed, "acceleration": state.acceleration,
            "length": state.length, "width": state.width}


def _frame_doc(frame: Frame) -> dict:
    return {
        "sim_time": frame.sim_time,
        "ego_command": {"throttle": frame.ego_command.throttle,
                        "brake": frame.ego_command.brake,
                        "steering": frame.ego_command.steering},
        "actors": [_actor_doc(a) for a in frame.actors],
    }


def recording_document(rec: ScenarioRecording, include_wall_clock: bool = True,
                       include_frames: bool = True) -> dict:
    return {
        "schema_version": RECORDING_SCHEMA_VERSION,
        "scenario_id": rec.scenario_id,
        "rng_seed": rec.rng_seed,
        "wall_clock": rec.wall_clock if include_wall_clock else 0.0,
        "config": to_document(rec.config_snapshot),
        "verdict": {"outcome": rec.verdict.outcome,
                    "time_of_decision": rec.verdict.time_of_decision,
                    "details": rec.verdict.details},
        "annotations": list(rec.annotations),
        "frames": [_frame_doc(f) for f in rec.frames] if include_frames else [],
    }


def recording_digest(rec: ScenarioRecording) -> str:
    """Content hash over everything deterministic (wall clock zeroed)."""
    return canonical.sha256(recording_document(rec, include_wall_clock=False))


def _frame_fields(frame: Frame) -> tuple:
    return (frame.sim_time, frame.ego_command.throttle,
            frame.ego_command.brake, frame.ego_command.steering,
            [_actor_fields(a) for a in frame.actors])


def _frame_text(fields: tuple) -> str:
    sim_time, throttle, brake, steering, actors = fields
    return ('{"actors":[' + ",".join([_actor_text(a) for a in actors])
            + '],"ego_command":{"brake":' + canonical.dump_value(brake)
            + ',"steering":' + canonical.dump_value(steering)
            + ',"throttle":' + canonical.dump_value(throttle)
            + '},"sim_time":' + canonical.dump_value(sim_time) + "}")


def recording_bytes(rec: ScenarioRecording, include_frames: bool = True) -> bytes:
    """``canonical.dump_bytes(recording_document(rec, include_frames=...))``,
    with the frames written by shape.

    The keys that sort before ``"frames"`` and those after it are dumped as
    two canonical objects, and the frames' text is joined between them.
    """
    doc = recording_document(rec, include_frames=False)
    del doc["frames"]
    frames = [_frame_fields(f) for f in rec.frames] if include_frames else []
    head = canonical.dumps({key: doc.pop(key)
                            for key in ("annotations", "config")})
    text = ",".join([_frame_text(f) for f in frames])
    return (head[:-1] + ',"frames":[' + text + "],"
            + canonical.dumps(doc)[1:]).encode("utf-8")


def write_recording(rec: ScenarioRecording, directory: str | Path,
                    include_frames: bool = True) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{rec.scenario_id}.record.json"
    path.write_bytes(recording_bytes(rec, include_frames))
    return path


def read_recording(path: str | Path) -> ScenarioRecording:
    path = Path(path)
    try:
        doc = canonical.loads(path.read_bytes())
    except ValueError as exc:
        raise RecordingFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RecordingFormatError(f"{path}: expected an object")
    required = {"schema_version", "scenario_id", "rng_seed", "wall_clock",
                "config", "verdict", "annotations", "frames"}
    if set(doc) != required:
        raise RecordingFormatError(f"{path}: wrong top-level keys {sorted(doc)}")
    version = doc["schema_version"]
    if isinstance(version, bool) or version != RECORDING_SCHEMA_VERSION:
        raise RecordingFormatError(
            f"{path}: unsupported schema_version {version!r}")
    rng_seed = doc["rng_seed"]
    if isinstance(rng_seed, bool) or not isinstance(rng_seed, int):
        raise RecordingFormatError(f"{path}: rng_seed must be an integer")
    if not isinstance(doc["scenario_id"], str):
        raise RecordingFormatError(f"{path}: scenario_id must be a string")
    if not isinstance(doc["annotations"], list):
        raise RecordingFormatError(f"{path}: annotations must be an array")
    # a FrameError from the actor codec is a ValueError too
    try:
        config = from_document(doc["config"])
        vdoc = doc["verdict"]
        verdict = Verdict(vdoc["outcome"],
                          _require_number(vdoc, "time_of_decision", "/verdict"),
                          vdoc.get("details", {}))
        frames = []
        for i, fdoc in enumerate(doc["frames"]):
            where = f"/frames/{i}"
            cmd = fdoc["ego_command"]
            command = ControlCommand(
                *(_require_number(cmd, key, f"{where}/ego_command")
                  for key in ("throttle", "brake", "steering")))
            actors = tuple(_parse_actor(a, f"{where}/actors/{j}")
                           for j, a in enumerate(fdoc["actors"]))
            frames.append(Frame(_require_number(fdoc, "sim_time", where),
                                actors, command))
        wall_clock = _require_number(doc, "wall_clock")
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordingFormatError(f"{path}: malformed recording: {exc}") from None
    return ScenarioRecording(
        scenario_id=doc["scenario_id"],
        config_snapshot=config,
        frames=tuple(frames),
        verdict=verdict,
        rng_seed=rng_seed,
        annotations=tuple(doc["annotations"]),
        wall_clock=wall_clock,
    )
