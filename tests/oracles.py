"""Independent reference implementations used to cross-check the package.

Nothing in here calls the code under test for the quantity being checked:
the bicycle integrator is a standalone loop run at a much finer step, the
OBB distance is dense boundary sampling, routing is exhaustive path
enumeration, projection is a brute-force scan, the closest approach of two
polylines projects every sample, the recording document is built as plain
dicts for ``canonical.dumps`` to encode, the reference agent's step
computes its route guidance afresh on every call, the scenarios of a
campaign log are told apart by their documents, not by the campaign's memo
key, and the step loop is the one that built a frozen dataclass per frame
and world state through the generated ``__init__`` and checked the controls
with two sets before stepping.  The parameter vector of a config is its
general projection onto a template, which reads every gene back from the
config's own fields.  A scenario is validated in two passes, the second of
which works out every spawn box again, the ego's from its lane, to find the
actors that overlap at spawn.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from scenofuzz.bridge import (COMFORT_BRAKE, HARD_STOP_GAP, LAT_ACCEL_MAX,
                              OFF_ROUTE_LIMIT, TIME_HEADWAY, AgentTimeoutError,
                              ControlMessage, PerceptionMessage)
from scenofuzz.geometry import (SAMPLE_STEP, Polyline, left_normal,
                                normalize_angle)
from scenofuzz.runner import (AGENT_TIMEOUT, COLLISION, DESTINATION,
                              RECORDING_SCHEMA_VERSION, STUCK, TIMEOUT,
                              OracleConfig, RunnerError, ScenarioRecording,
                              Verdict, _annotate_npc_contacts, _check_reply,
                              check_collision, check_destination,
                              initial_world, mission_end_point)
from scenofuzz import canonical
from scenofuzz.scenario import (MAX_TARGET_SPEED, Gene, MutationSpace,
                                ParameterVector, ScenarioConfig, Violation,
                                _body_ok, _check_body, _check_pose, _pose_ok,
                                to_document, unflatten, validate)
from scenofuzz.simulator import (BRAKE_COMMAND, ControlCommand,
                                 SpeedController, obb_distance,
                                 pure_pursuit_steering, step_kinematic)


# --- kinematic bicycle, fine-step explicit Euler ---------------------------

def integrate_bicycle(x, y, heading, speed, throttle, brake, steering,
                      duration, dt, wheelbase=2.8, a_max=3.0, b_max=6.0,
                      drag=0.01, v_max=30.0):
    """Plain-float Euler integration of the bicycle model at step ``dt``."""
    steps = int(round(duration / dt))
    tan_steer = math.tan(steering)
    for _ in range(steps):
        accel = throttle * a_max - brake * b_max - drag * speed
        new_speed = min(max(speed + accel * dt, 0.0), v_max)
        new_heading = heading + (speed / wheelbase) * tan_steer * dt
        x += speed * math.cos(heading) * dt
        y += speed * math.sin(heading) * dt
        speed = new_speed
        heading = new_heading
    # keep heading wrapped like the implementation does
    heading = math.remainder(heading, 2.0 * math.pi)
    if heading <= -math.pi:
        heading = math.pi
    return x, y, heading, speed


# --- oriented rectangles: dense boundary sampling ---------------------------

def _boundary_points(x, y, heading, length, width, n):
    """n points spread along the rectangle perimeter, plus the 4 corners."""
    hl, hw = length / 2.0, width / 2.0
    per = 2.0 * (length + width)
    t = np.linspace(0.0, per, n, endpoint=False)
    lx = np.empty(n)
    ly = np.empty(n)
    for i, ti in enumerate(t):
        if ti < length:
            lx[i], ly[i] = -hl + ti, -hw
        elif ti < length + width:
            lx[i], ly[i] = hl, -hw + (ti - length)
        elif ti < 2 * length + width:
            lx[i], ly[i] = hl - (ti - length - width), hw
        else:
            lx[i], ly[i] = -hl, hw - (ti - 2 * length - width)
    corners = np.array([[-hl, -hw], [hl, -hw], [hl, hw], [-hl, hw]])
    lx = np.concatenate([lx, corners[:, 0]])
    ly = np.concatenate([ly, corners[:, 1]])
    c, s = math.cos(heading), math.sin(heading)
    return x + c * lx - s * ly, y + s * lx + c * ly


def _points_to_box_distance(px, py, x, y, heading, length, width):
    """Distance from each point to the solid rectangle (0 inside)."""
    c, s = math.cos(heading), math.sin(heading)
    rx = c * (px - x) + s * (py - y)
    ry = -s * (px - x) + c * (py - y)
    dx = np.maximum(np.abs(rx) - length / 2.0, 0.0)
    dy = np.maximum(np.abs(ry) - width / 2.0, 0.0)
    return np.hypot(dx, dy)


def obb_distance_sampled(box_a, box_b, n=10_000):
    """Min distance between two oriented rectangles via boundary sampling.

    Each box is (x, y, heading, length, width).  Exact to roughly half the
    sample spacing; containment is handled by checking box centers.
    """
    ax, ay = _boundary_points(*box_a, n)
    bx, by = _boundary_points(*box_b, n)
    d_ab = _points_to_box_distance(ax, ay, *box_b).min()
    d_ba = _points_to_box_distance(bx, by, *box_a).min()
    center_a = _points_to_box_distance(np.array([box_a[0]]), np.array([box_a[1]]), *box_b)
    center_b = _points_to_box_distance(np.array([box_b[0]]), np.array([box_b[1]]), *box_a)
    if center_a[0] == 0.0 or center_b[0] == 0.0:
        return 0.0
    return float(min(d_ab, d_ba))


# --- routing: exhaustive enumeration ----------------------------------------

def all_simple_paths(successors, start, end, limit=32):
    """Every simple lane sequence from start to end (small maps only)."""
    paths = []

    def walk(seq):
        if len(seq) > limit:
            raise RuntimeError("path explosion; oracle is for small fixtures")
        if seq[-1] == end:
            paths.append(tuple(seq))
            return
        for nxt in successors.get(seq[-1], ()):
            if nxt not in seq:
                walk(seq + [nxt])

    walk([start])
    return paths


def best_route_by_enumeration(lane_lengths, successors, start, end):
    """(cost, sequence) minimizing total arc length, ties by lexicographic seq."""
    paths = all_simple_paths(successors, start, end)
    if not paths:
        return None
    scored = [(sum(lane_lengths[lid] for lid in p), p) for p in paths]
    scored.sort()
    return scored[0]


# --- polyline projection: dense sampling ------------------------------------

def project_point_sampled(points, x, y, step=0.01):
    """(s, distance) of the closest densely sampled point on a polyline."""
    best = (math.inf, 0.0)
    s_base = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        seg = math.hypot(x1 - x0, y1 - y0)
        n = max(int(seg / step), 1)
        for k in range(n + 1):
            t = k / n
            px, py = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
            d = math.hypot(x - px, y - py)
            if d < best[0]:
                best = (d, s_base + t * seg)
        s_base += seg
    return best[1], best[0]


# --- closest approach of two polylines: every sample projected --------------

def sample_distances(line, other):
    """``(distance, s_line, s_other)`` of each sample ``min_distance_to``
    takes along ``line``, in order."""
    n = max(2, int(line.length / SAMPLE_STEP) + 1)
    samples = []
    for k in range(n + 1):
        s = min(line.length, k * line.length / n)
        x, y = line.point_at(s)
        s_other, _, d = other.project(x, y)
        samples.append((d, s, s_other))
    return samples


def min_distance_every_sample(line, other):
    """The first of the closest samples: ``Polyline.min_distance_to``
    without skipping."""
    best = (math.inf, 0.0, 0.0)
    for sample in sample_distances(line, other):
        if sample[0] < best[0]:
            best = sample
    return best


# --- recordings: the dict-building encoder ---------------------------------

def _actor_doc(state):
    return {"actor_id": state.actor_id, "kind": state.kind,
            "x": state.x, "y": state.y, "heading": state.heading,
            "speed": state.speed, "acceleration": state.acceleration,
            "length": state.length, "width": state.width}


def _frame_doc(frame):
    return {
        "sim_time": frame.sim_time,
        "ego_command": {"throttle": frame.ego_command.throttle,
                        "brake": frame.ego_command.brake,
                        "steering": frame.ego_command.steering},
        "actors": [_actor_doc(a) for a in frame.actors],
    }


def recording_document(rec):
    """The document ``runner.recording_bytes`` must encode byte for byte."""
    return {
        "schema_version": RECORDING_SCHEMA_VERSION,
        "scenario_id": rec.scenario_id,
        "rng_seed": rec.rng_seed,
        "config": to_document(rec.config_snapshot),
        "verdict": {"outcome": rec.verdict.outcome,
                    "time_of_decision": rec.verdict.time_of_decision,
                    "details": rec.verdict.details},
        "annotations": list(rec.annotations),
        "frames": [_frame_doc(f) for f in rec.frames],
    }


# --- reference agent: route guidance computed on every step ----------------

def agent_step(agent, perception):
    """``ReferenceEgoAgent.step`` as it was before the guidance memo: the
    projection, steering and speed target are worked out on every call.
    Updates ``agent`` (its speed controller and off-route latch) as
    ``step`` does."""
    route = agent.route
    ego = perception.ego
    s, _, dist = route.project(ego.x, ego.y)

    if dist > OFF_ROUTE_LIMIT:
        agent.off_route = True
        return ControlMessage(perception.sim_time, ControlCommand(0.0, 1.0, 0.0))

    steering = pure_pursuit_steering(ego, route, s)

    remaining = max(route.length - s, 0.0)
    target = min(agent.settings.cruise_speed,
                 math.sqrt(2.0 * COMFORT_BRAKE * remaining))
    probe = 12.0
    if remaining > 1.0:
        dh = abs(normalize_angle(
            route.heading_at(min(s + probe, route.length))
            - route.heading_at(s)))
        curvature = dh / probe
        if curvature > 1e-4:
            target = min(target, math.sqrt(LAT_ACCEL_MAX / curvature))

    gap = None
    if not agent.settings.fault_ignore_obstacles:
        gap = agent._corridor_gap(ego, perception.obstacles)
    if gap is not None:
        if gap < HARD_STOP_GAP:
            return ControlMessage(perception.sim_time,
                                  ControlCommand(0.0, 1.0, steering))
        headway = gap / max(ego.speed, 0.1)
        if headway < TIME_HEADWAY:
            brake = min((TIME_HEADWAY - headway) / TIME_HEADWAY, 1.0)
            return ControlMessage(perception.sim_time,
                                  ControlCommand(0.0, brake, steering))

    throttle, brake = agent.speed_ctl.pedals(ego.speed, target, agent.dt)
    return ControlMessage(perception.sim_time,
                          ControlCommand(throttle, brake, steering))


# --- distinct scenarios of a campaign log -----------------------------------

def distinct_scenarios(records, ctx) -> int:
    """How many distinct scenarios the logged evaluations of ``ctx`` ran:
    each record's values unflattened on the context's template, compared as
    canonical documents with the scenario id left out."""
    template = ctx.settings.template
    return len({canonical.dumps(to_document(dataclasses.replace(
        unflatten(ctx.prototype.with_values(r["values"]), template)[0],
        scenario_id=""))) for r in records})


# --- parameter vectors: a config projected onto a template -----------------

def _layout(template: ScenarioConfig, space: MutationSpace) -> tuple[Gene, ...]:
    genes: list[Gene] = []
    for npc in template.npc_vehicles:
        if space.speeds:
            for i in range(len(npc.target_speeds)):
                genes.append(Gene(npc.actor_id, "speed", i, space.speed_low, space.speed_high))
        if space.offsets:
            for i in range(len(npc.waypoints)):
                genes.append(Gene(npc.actor_id, "offset", i,
                                  -space.offset_limit, space.offset_limit))
        if space.delays:
            genes.append(Gene(npc.actor_id, "delay", 0, space.delay_low, space.delay_high))
        if space.presence:
            genes.append(Gene(npc.actor_id, "presence", 0, 0.0, 1.0))
    return tuple(genes)


def flatten_onto(config: ScenarioConfig, space: MutationSpace,
                 template: ScenarioConfig | None = None) -> ParameterVector:
    """Project a config onto the mutable subspace declared by ``space``.

    Offsets are measured relative to ``template`` waypoints (the config itself
    by default), positive to the left of each template waypoint's heading.
    The inverse of ``unflatten`` on vectors whose NPCs are all present, and
    ``scenario.flatten(template, space)`` must equal
    ``flatten_onto(template, space)`` bit for bit.
    """
    template = template or config
    genes = _layout(template, space)
    by_id = {n.actor_id: n for n in config.npc_vehicles}
    unknown = set(by_id) - {n.actor_id for n in template.npc_vehicles}
    if unknown:
        raise ValueError(f"config has NPCs not in template: {sorted(unknown)}")
    tmpl_by_id = {n.actor_id: n for n in template.npc_vehicles}

    values: list[float] = []
    for gene in genes:
        tmpl_npc = tmpl_by_id[gene.actor_id]
        npc = by_id.get(gene.actor_id)
        if gene.field == "presence":
            values.append(1.0 if npc is not None else 0.0)
            continue
        if npc is None:
            npc = tmpl_npc  # inactive slot: genes fall back to template values
        if gene.field == "speed":
            if len(npc.target_speeds) != len(tmpl_npc.target_speeds):
                raise ValueError(f"{gene.actor_id}: speed count differs from template")
            values.append(npc.target_speeds[gene.index])
        elif gene.field == "offset":
            if len(npc.waypoints) != len(tmpl_npc.waypoints):
                raise ValueError(f"{gene.actor_id}: waypoint count differs from template")
            ref = tmpl_npc.waypoints[gene.index]
            wp = npc.waypoints[gene.index]
            nx, ny = left_normal(ref.heading)
            values.append((wp.x - ref.x) * nx + (wp.y - ref.y) * ny)
        elif gene.field == "delay":
            values.append(npc.spawn_delay)
        else:  # pragma: no cover - layout only emits known fields
            raise AssertionError(gene.field)
    return ParameterVector(tuple(values), genes)


# --- scenario checks: spawn boxes worked out in a second pass --------------

def validate_in_two_passes(config, lane_map):
    """``scenario.validate`` as it was before it took each spawn box in its
    one pass over the actors: the per-actor checks first, then
    :func:`initial_overlaps`."""
    out = []
    if config.duration_limit <= 0:
        out.append(Violation("NonPositiveDuration", config.scenario_id,
                             f"duration_limit={config.duration_limit}"))

    ids = ["ego"] + [n.actor_id for n in config.npc_vehicles] + \
        [o.actor_id for o in config.obstacles]
    seen = set()
    for actor_id in ids:
        if actor_id in seen:
            out.append(Violation("DuplicateActorId", actor_id,
                                 "actor id used twice"))
        seen.add(actor_id)

    ego = config.ego
    _check_body(ego.body, "ego", out)
    for which, lane_id, station in (
            ("start", ego.start_lane_id, ego.start_station),
            ("end", ego.end_lane_id, ego.end_station)):
        if lane_id not in lane_map.lanes:
            out.append(Violation("UnknownLane", "ego",
                                 f"{which} lane {lane_id!r}"))
        else:
            length = lane_map.lanes[lane_id].length
            if not (0.0 <= station <= length):
                out.append(Violation(
                    "StationOutOfRange", "ego",
                    f"{which}_station={station} outside [0, {length:.3f}] "
                    f"of {lane_id!r}"))

    for npc in config.npc_vehicles:
        _check_body(npc.body, npc.actor_id, out)
        for wp in npc.waypoints:
            _check_pose(wp, npc.actor_id, out)
        if len(npc.waypoints) < 2:
            out.append(Violation("TooFewWaypoints", npc.actor_id,
                                 f"{len(npc.waypoints)} waypoints, need >= 2"))
        else:
            for a, b in zip(npc.waypoints, npc.waypoints[1:]):
                if math.hypot(b.x - a.x, b.y - a.y) < 1e-3:
                    out.append(Violation("WaypointSpacing", npc.actor_id,
                                         "consecutive waypoints coincide"))
                    break
        if len(npc.target_speeds) != max(len(npc.waypoints) - 1, 0):
            out.append(Violation(
                "SpeedCountMismatch", npc.actor_id,
                f"{len(npc.target_speeds)} speeds for "
                f"{len(npc.waypoints)} waypoints"))
        for v in npc.target_speeds:
            if not (0.0 <= v <= MAX_TARGET_SPEED):
                out.append(Violation(
                    "SpeedOutOfRange", npc.actor_id,
                    f"target speed {v} outside [0, {MAX_TARGET_SPEED}]"))
                break
        if npc.spawn_delay < 0:
            out.append(Violation("NegativeSpawnDelay", npc.actor_id,
                                 f"spawn_delay={npc.spawn_delay}"))
    for obs in config.obstacles:
        _check_body(obs.body, obs.actor_id, out)
        _check_pose(obs.pose, obs.actor_id, out)

    out.extend(initial_overlaps(config, lane_map))
    return out


def initial_overlaps(config, lane_map):
    """``InitialOverlap`` for each pair of spawn boxes that touch, the ego's
    spawn worked out from its start lane once more."""
    boxes = []
    ego = config.ego
    if ego.start_lane_id in lane_map.lanes:
        lane = lane_map.lanes[ego.start_lane_id]
        if 0.0 <= ego.start_station <= lane.length:
            boxes.append(("ego", lane.path.pose_at(ego.start_station),
                          ego.body))
    for npc in config.npc_vehicles:
        if npc.waypoints:
            boxes.append((npc.actor_id, npc.waypoints[0], npc.body))
    for obs in config.obstacles:
        boxes.append((obs.actor_id, obs.pose, obs.body))
    # a bad body or a far pose has its own violation, and a flat box has no
    # distance
    boxes = [box for box in boxes if _body_ok(box[2]) and _pose_ok(box[1])]

    out = []
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            id_a, pose_a, body_a = boxes[i]
            id_b, pose_b, body_b = boxes[j]
            d = obb_distance(pose_a.x, pose_a.y, pose_a.heading,
                             body_a.length, body_a.width,
                             pose_b.x, pose_b.y, pose_b.heading,
                             body_b.length, body_b.width)
            if d <= 0.0:
                out.append(Violation("InitialOverlap", f"{id_a}/{id_b}",
                                     "actors overlap at spawn"))
    return out


# --- the step loop: a dataclass per frame and world, two sets per step ------

@dataclasses.dataclass(frozen=True)
class ReferenceWorld:
    sim_time: float
    actors: tuple


@dataclasses.dataclass(frozen=True)
class ReferenceFrame:
    sim_time: float
    actors: tuple
    ego_command: ControlCommand


def step_world(world, controls, dt):
    """``simulator.step_world`` as it checked the controls before stepping:
    the set of movable ids against the set of controls."""
    movable = {a.actor_id for a in world.actors if a.kind != "static"}
    if set(controls) != movable:
        raise ValueError(
            f"controls must cover exactly the movable actors; "
            f"expected {sorted(movable)}, got {sorted(controls)}")
    actors = tuple(
        a if a.kind == "static" else step_kinematic(a, controls[a.actor_id], dt)
        for a in world.actors)
    return ReferenceWorld(world.sim_time + dt, actors)


class ReferencePolicy:
    """``simulator.WaypointPolicy`` computing its thresholds on every step."""

    def __init__(self, spec):
        self.path = Polyline([(p.x, p.y) for p in spec.waypoints])
        self.target_speeds = spec.target_speeds
        self.spawn_delay = spec.spawn_delay
        self.speed_ctl = SpeedController()
        self.finished = False

    def step(self, state, sim_time, dt):
        if self.finished or sim_time < self.spawn_delay - 1e-9:
            return BRAKE_COMMAND
        s, _, _ = self.path.project(state.x, state.y)
        if s >= self.path.length - 0.3:
            self.finished = True
            return BRAKE_COMMAND
        segment = min(self.path._segment_index(s), len(self.target_speeds) - 1)
        throttle, brake = self.speed_ctl.pedals(
            state.speed, self.target_speeds[segment], dt)
        steering = pure_pursuit_steering(state, self.path, s)
        return ControlCommand(throttle, brake, steering)


def run_scenario(config, lane_map, session_factory, oracles=OracleConfig(),
                 seed=0, dt=0.1):
    """``runner.run_scenario`` reading every oracle setting and bound method
    on every step, with the reference world, frames, step and policy."""
    problems = validate(config, lane_map)
    if problems:
        raise RunnerError(f"scenario {config.scenario_id!r} invalid")

    end_point = mission_end_point(config, lane_map)
    world = ReferenceWorld(0.0, initial_world(config, lane_map).actors)
    policies = {npc.actor_id: ReferencePolicy(npc)
                for npc in config.npc_vehicles}
    npc_pairs = len(config.npc_vehicles) > 1

    session = session_factory()
    frames = []
    annotations = []
    contact_pairs = set()
    last_command = ControlCommand()
    low_since = None
    verdict = None

    try:
        while verdict is None:
            t = world.sim_time
            ego = world.actors[0]
            hit = check_collision(world, oracles.collision_threshold)
            if hit is not None:
                verdict = Verdict(COLLISION, t, {"pair": list(hit[0]),
                                                 "distance": hit[1]})
                break
            if check_destination(ego, end_point, oracles.destination_tolerance):
                verdict = Verdict(DESTINATION, t)
                break
            if ego.speed < oracles.stuck_speed:
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

            if npc_pairs:
                _annotate_npc_contacts(world, oracles.collision_threshold,
                                       contact_pairs, annotations)

            others = world.actors[1:]
            perception = PerceptionMessage(t, ego, others)
            try:
                control = session.request(perception)
            except AgentTimeoutError:
                verdict = Verdict(AGENT_TIMEOUT, t)
                break
            if session.in_flight != 0:
                raise RunnerError("bridge lockstep violated")
            _check_reply(control, t)

            controls = {"ego": control.command}
            for actor in others:
                policy = policies.get(actor.actor_id)
                if policy is not None:
                    controls[actor.actor_id] = policy.step(actor, t, dt)
            frames.append(ReferenceFrame(t, world.actors, control.command))
            last_command = control.command
            world = step_world(world, controls, dt)
    finally:
        session.close()

    frames.append(ReferenceFrame(world.sim_time, world.actors, last_command))
    return ScenarioRecording(
        scenario_id=config.scenario_id,
        config_snapshot=config,
        frames=tuple(frames),
        verdict=verdict,
        rng_seed=seed,
        annotations=tuple(annotations),
    )
