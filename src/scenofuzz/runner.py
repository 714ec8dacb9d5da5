"""Closed-loop scenario execution with violation oracles and trace recording.

One run drives the world until an oracle fires or the duration limit lapses.
Oracle precedence inside a step is fixed: collision, then destination, then
stuck, then timeout.  The recording keeps every frame up to and including the
deciding one and nothing after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import canonical
from .bridge import (AgentTimeoutError, BridgeSession, ControlMessage,
                     PerceptionMessage, _parse_actor, actor_text)
from .canonical import Cursor
from .geometry import Polyline
from .lanemap import LaneMap, route
from .scenario import (MAX_BODY_DIM, MAX_COORDINATE, MIN_BODY_DIM,
                       ScenarioConfig, from_cursor, to_document, validate)
from .simulator import (STEER_MAX, ActorState, ControlCommand,
                        WaypointPolicy, WorldState, actor_distance,
                        actor_distance_lower_bound, step_world)

RECORDING_SCHEMA_VERSION = 2

COLLISION = "CollisionViolation"
DESTINATION = "DestinationReached"
TIMEOUT = "Timeout"
STUCK = "Stuck"
AGENT_TIMEOUT = "AgentTimeout"
INVALID_SCENARIO = "InvalidScenario"  # not simulated; see InvalidScenarioError

OUTCOMES = (COLLISION, DESTINATION, TIMEOUT, STUCK, AGENT_TIMEOUT,
            INVALID_SCENARIO)

STOP_SPEED = 0.5  # m/s; below it the ego counts as stopped at the destination


class RunnerError(RuntimeError):
    pass


class InvalidScenarioError(RunnerError):
    """The scenario fails ``scenario.validate``; ``violations`` lists how."""

    def __init__(self, message: str, violations: list) -> None:
        super().__init__(message)
        self.violations = violations


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


@dataclass(frozen=True, init=False)
class Frame:
    sim_time: float
    actors: tuple[ActorState, ...]
    ego_command: ControlCommand

    def __init__(self, sim_time: float, actors: tuple[ActorState, ...],
                 ego_command: ControlCommand) -> None:
        fields = self.__dict__
        fields["sim_time"] = sim_time
        fields["actors"] = actors
        fields["ego_command"] = ego_command


@dataclass(frozen=True)
class ScenarioRecording:
    scenario_id: str
    config_snapshot: ScenarioConfig
    frames: tuple[Frame, ...]
    verdict: Verdict
    rng_seed: int
    annotations: tuple[dict, ...] = ()


# ---------------------------------------------------------------------------
# oracles


def check_collision(world: WorldState, threshold: float):
    """Closest ego-involved contact at or under the threshold, if any:
    ``(pair, distance)`` for the minimizing pair, or ``None``.

    The ego is ``world.actors[0]``; a world without the ego first raises
    ``ValueError``.  A pair whose ``actor_distance_lower_bound`` clears the
    threshold is skipped unmeasured.
    """
    actors = iter(world.actors)
    ego = next(actors, None)
    if ego is None or ego.actor_id != "ego":
        found = repr(ego.actor_id) if ego is not None else "no actors"
        raise ValueError(f"expected the ego first, got {found}")
    best = None
    for other in actors:
        if actor_distance_lower_bound(ego, other) > threshold:
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
        raise InvalidScenarioError(
            f"scenario {config.scenario_id!r} invalid: "
            + "; ".join(f"{v.code}({v.subject})" for v in problems), problems)

    end_point = mission_end_point(config, lane_map)
    world = initial_world(config, lane_map)
    policies = {npc.actor_id: WaypointPolicy(npc)
                for npc in config.npc_vehicles}
    npc_pairs = len(config.npc_vehicles) > 1  # an NPC pair can touch

    session = session_factory()
    frames: list[Frame] = []
    annotations: list[dict] = []
    contact_pairs: set[tuple[str, str]] = set()
    last_command = ControlCommand()
    low_since: float | None = None
    verdict: Verdict | None = None
    # loop invariants: the same float expression gives the same bits
    threshold = oracles.collision_threshold
    tolerance = oracles.destination_tolerance
    stuck_speed = oracles.stuck_speed
    stuck_duration = oracles.stuck_duration
    time_limit = config.duration_limit - 1e-9
    request = session.request
    record = frames.append

    try:
        while verdict is None:
            t = world.sim_time
            ego = world.actors[0]  # initial_world spawns it first
            hit = check_collision(world, threshold)
            if hit is not None:
                verdict = Verdict(COLLISION, t, {"pair": list(hit[0]),
                                                 "distance": hit[1]})
                break
            if check_destination(ego, end_point, tolerance):
                verdict = Verdict(DESTINATION, t)
                break
            if ego.speed < stuck_speed:
                if low_since is None:
                    low_since = t
                if t - low_since >= stuck_duration:
                    verdict = Verdict(STUCK, t)
                    break
            else:
                low_since = None
            if t >= time_limit:
                verdict = Verdict(TIMEOUT, t)
                break

            if npc_pairs:
                _annotate_npc_contacts(world, threshold, contact_pairs,
                                       annotations)

            others = world.actors[1:]
            try:
                control = request(PerceptionMessage(t, ego, others))
            except AgentTimeoutError:
                verdict = Verdict(AGENT_TIMEOUT, t)
                break
            if session.in_flight != 0:
                raise RunnerError("bridge lockstep violated: request left "
                                  f"{session.in_flight} frames in flight")
            _check_reply(control, t)

            last_command = control.command
            controls = {"ego": last_command}
            for actor in others:
                policy = policies.get(actor.actor_id)
                if policy is not None:
                    controls[actor.actor_id] = policy.step(actor, t, dt)
            record(Frame(t, world.actors, last_command))
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
    )


def _check_reply(control: ControlMessage, t: float) -> None:
    if abs(control.sim_time - t) > 1e-6:
        raise RunnerError(
            f"agent answered for t={control.sim_time}, expected t={t}")


def _annotate_npc_contacts(world: WorldState, threshold: float,
                           seen: set, annotations: list) -> None:
    npcs = [a for a in world.actors if a.kind == "npc"]
    for i in range(len(npcs)):
        for j in range(i + 1, len(npcs)):
            pair = (npcs[i].actor_id, npcs[j].actor_id)
            if pair in seen:
                continue
            if actor_distance_lower_bound(npcs[i], npcs[j]) > threshold:
                continue
            if actor_distance(npcs[i], npcs[j]) <= threshold:
                seen.add(pair)
                annotations.append({"type": "npc_contact", "sim_time": world.sim_time,
                                    "pair": list(pair)})


# ---------------------------------------------------------------------------
# persistence


def _frame_text(frame: Frame) -> str:
    sim_time, command = frame.sim_time, frame.ego_command
    throttle, brake, steering = \
        command.throttle, command.brake, command.steering
    return ('{"actors":[' + ",".join([actor_text(a) for a in frame.actors])
            + '],"ego_command":{"brake":' + canonical.dump_value(brake)
            + ',"steering":' + canonical.dump_value(steering)
            + ',"throttle":' + canonical.dump_value(throttle)
            + '},"sim_time":' + canonical.dump_value(sim_time) + "}")


def recording_bytes(rec: ScenarioRecording) -> bytes:
    """The recording's canonical JSON, written by shape with its keys in
    sorted order: the bytes of ``canonical.dump_bytes`` of the dict-building
    encoder that ``tests/oracles.py`` keeps as the reference.  A recording
    with one fault raises what the reference raises; with several, the
    first fault met while writing raises, and the config document, built
    first, is met first.
    """
    config = to_document(rec.config_snapshot)
    verdict = rec.verdict
    dump = canonical.dump_value
    return ('{"annotations":' + dump(list(rec.annotations))
            + ',"config":' + dump(config)
            + ',"frames":[' + ",".join([_frame_text(f) for f in rec.frames])
            + '],"rng_seed":' + dump(rec.rng_seed)
            + ',"scenario_id":' + dump(rec.scenario_id)
            + ',"schema_version":' + dump(RECORDING_SCHEMA_VERSION)
            + ',"verdict":{"details":' + dump(verdict.details)
            + ',"outcome":' + dump(verdict.outcome)
            + ',"time_of_decision":' + dump(verdict.time_of_decision)
            + "}}").encode("utf-8")


def recording_path(directory: str | Path, scenario_id: str) -> Path:
    """Where :func:`write_recording` puts the recording of ``scenario_id``."""
    return Path(directory) / f"{scenario_id}.record.json"


def write_recording(rec: ScenarioRecording, directory: str | Path) -> Path:
    """Write ``rec`` to ``recording_path(directory, rec.scenario_id)`` and
    return that path."""
    path = recording_path(directory, rec.scenario_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(recording_bytes(rec))
    return path


def copy_recording(directory: str | Path, source_id: str, scenario_id: str,
                   size: int) -> bool:
    """Write the recording of ``source_id`` in ``directory`` again as the
    recording of ``scenario_id``: the same bytes with both of its
    ``"scenario_id"`` values, the top-level one and the config's, replaced.

    False, with nothing written, when the source file is gone, is no longer
    ``size`` bytes long, or does not hold ``"scenario_id":`` followed by the
    canonical text of ``source_id`` exactly twice.  Canonical JSON escapes
    every quote inside a string, so that text can only be one of those two
    keys and its value.
    """
    try:
        data = recording_path(directory, source_id).read_bytes()
    except FileNotFoundError:
        return False
    old, new = (b'"scenario_id":' + canonical.dump_value(i).encode("utf-8")
                for i in (source_id, scenario_id))
    if len(data) != size or data.count(old) != 2:
        return False
    recording_path(directory, scenario_id).write_bytes(data.replace(old, new))
    return True


def read_recording(path: str | Path) -> ScenarioRecording:
    """The recording at ``path``, checked against the recording schema."""
    path = Path(path)
    try:
        doc = canonical.loads(path.read_bytes())
    except ValueError as exc:
        raise RecordingFormatError(f"{path}: invalid JSON: {exc}") from None
    # the actor codec's FrameError and Verdict's outcome check are
    # ValueErrors too
    try:
        root = Cursor(doc, RecordingFormatError)
        # the version first: an older version's keys are not this one's
        version = root.keys({"schema_version"}, closed=False)["schema_version"]
        if version.integer() != RECORDING_SCHEMA_VERSION:
            raise version.fail(f"unsupported schema_version {version.doc!r}")
        root.keys({"schema_version", "scenario_id", "rng_seed", "config",
                   "verdict", "annotations", "frames"})
        for annotation in root["annotations"].items():
            annotation.keys({"type"}, closed=False)["type"].text()
        vcur = root["verdict"].keys({"outcome", "time_of_decision", "details"})
        verdict = Verdict(vcur["outcome"].text(),
                          vcur["time_of_decision"].number(0.0),
                          vcur["details"].keys(frozenset(), closed=False).doc)
        frames = tuple(_parse_frame(f) for f in root["frames"].items())
        return ScenarioRecording(
            scenario_id=root["scenario_id"].text(),
            config_snapshot=from_cursor(root["config"]),
            frames=frames,
            verdict=verdict,
            rng_seed=root["rng_seed"].integer(),
            annotations=tuple(doc["annotations"]),
        )
    except ValueError as exc:
        raise RecordingFormatError(f"{path}: {exc}") from None


def _parse_frame(cur: Cursor) -> Frame:
    cur.keys({"sim_time", "ego_command", "actors"})
    cmd = cur["ego_command"].keys({"throttle", "brake", "steering"})
    command = ControlCommand(cmd["throttle"].number(0.0, 1.0),
                             cmd["brake"].number(0.0, 1.0),
                             cmd["steering"].number(-STEER_MAX, STEER_MAX))
    actors = []
    ids = set()
    for item in cur["actors"].items(1):
        actor = _parse_actor(item.doc, item.path)
        if not actor.actor_id or actor.speed < 0.0 or actor.length <= 0.0 \
                or actor.width <= 0.0:
            raise item.fail("expected a non-empty actor_id, speed >= 0, "
                            "length > 0 and width > 0")
        if not actor.width <= actor.length <= MAX_BODY_DIM:  # as validate
            raise item.fail(f"expected width <= length <= {MAX_BODY_DIM}")
        if actor.width < MIN_BODY_DIM:  # as validate
            raise item.fail(f"expected width >= {MIN_BODY_DIM}")
        if not (abs(actor.x) <= MAX_COORDINATE
                and abs(actor.y) <= MAX_COORDINATE):
            raise item.fail(f"expected |x| and |y| <= {MAX_COORDINATE}")
        if not actors and (actor.actor_id, actor.kind) != ("ego", "ego"):
            raise item.fail('expected the ego first: actor_id "ego" and '
                            'kind "ego"')
        if actor.actor_id in ids:
            raise item.fail(f"actor_id {actor.actor_id!r} is repeated")
        ids.add(actor.actor_id)
        actors.append(actor)
    return Frame(cur["sim_time"].number(0.0), tuple(actors), command)
