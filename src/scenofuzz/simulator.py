"""Rendering-free traffic simulation: kinematics, collision geometry, NPC policy.

The vehicle model is a kinematic bicycle integrated with explicit Euler.  All
state updates read the pre-step snapshot, so actor iteration order can never
change a step's outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .geometry import Polyline, normalize_angle
from .scenario import NpcSpec

STEER_MAX = 0.61  # rad, mechanical steering stop


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 2.8      # m
    a_max: float = 3.0          # m/s^2 at full throttle
    b_max: float = 6.0          # m/s^2 at full brake
    drag: float = 0.01          # 1/s, linear speed decay
    v_max: float = 30.0         # m/s
    steer_max: float = STEER_MAX


@dataclass(frozen=True)
class ControlCommand:
    throttle: float = 0.0
    brake: float = 0.0
    steering: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "throttle", min(max(float(self.throttle), 0.0), 1.0))
        object.__setattr__(self, "brake", min(max(float(self.brake), 0.0), 1.0))
        object.__setattr__(self, "steering",
                           min(max(float(self.steering), -STEER_MAX), STEER_MAX))


BRAKE_COMMAND = ControlCommand(0.0, 1.0, 0.0)

ACTOR_KINDS = ("ego", "npc", "static")


@dataclass(frozen=True)
class ActorState:
    actor_id: str
    kind: str
    x: float
    y: float
    heading: float
    speed: float = 0.0
    acceleration: float = 0.0
    length: float = 4.8
    width: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ACTOR_KINDS:
            raise ValueError(f"unknown actor kind {self.kind!r}")
        object.__setattr__(self, "heading", normalize_angle(self.heading))


@dataclass(frozen=True)
class WorldState:
    sim_time: float
    actors: tuple[ActorState, ...]

    def actor(self, actor_id: str) -> ActorState:
        for a in self.actors:
            if a.actor_id == actor_id:
                return a
        raise KeyError(actor_id)

    @property
    def ego(self) -> ActorState:
        return self.actor("ego")


def step_kinematic(state: ActorState, cmd: ControlCommand,
                   params: VehicleParams, dt: float) -> ActorState:
    """One explicit-Euler step of the kinematic bicycle model.

    Position and heading advance with the speed at the start of the step;
    speed is clamped to [0, v_max] after applying net acceleration.
    """
    steering = min(max(cmd.steering, -params.steer_max), params.steer_max)
    accel = cmd.throttle * params.a_max - cmd.brake * params.b_max - params.drag * state.speed
    speed = min(max(state.speed + accel * dt, 0.0), params.v_max)
    heading = normalize_angle(
        state.heading + (state.speed / params.wheelbase) * math.tan(steering) * dt)
    x = state.x + state.speed * math.cos(state.heading) * dt
    y = state.y + state.speed * math.sin(state.heading) * dt
    return ActorState(state.actor_id, state.kind, x, y, heading, speed, accel,
                      state.length, state.width)


def step_world(world: WorldState, controls: Mapping[str, ControlCommand],
               params: VehicleParams, dt: float) -> WorldState:
    """Advance every actor one step from the same pre-step snapshot."""
    movable = {a.actor_id for a in world.actors if a.kind != "static"}
    if set(controls) != movable:
        raise ValueError(
            f"controls must cover exactly the movable actors; "
            f"expected {sorted(movable)}, got {sorted(controls)}")
    actors = tuple(
        a if a.kind == "static" else step_kinematic(a, controls[a.actor_id], params, dt)
        for a in world.actors)
    return WorldState(world.sim_time + dt, actors)


# ---------------------------------------------------------------------------
# oriented bounding boxes


def obb_corners(x: float, y: float, heading: float,
                length: float, width: float) -> list[tuple[float, float]]:
    """Corners of an oriented rectangle centered at (x, y)."""
    hl, hw = length / 2.0, width / 2.0
    c, s = math.cos(heading), math.sin(heading)
    return [
        (x + c * hl - s * hw, y + s * hl + c * hw),
        (x + c * hl + s * hw, y + s * hl - c * hw),
        (x - c * hl + s * hw, y - s * hl - c * hw),
        (x - c * hl - s * hw, y - s * hl + c * hw),
    ]


def _project_interval(corners, ax: float, ay: float) -> tuple[float, float]:
    lo = hi = corners[0][0] * ax + corners[0][1] * ay
    for cx, cy in corners[1:]:
        p = cx * ax + cy * ay
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
    return lo, hi


def _boxes_overlap(ca, cb, ha: float, hb: float) -> bool:
    for heading in (ha, hb):
        c, s = math.cos(heading), math.sin(heading)
        for ax, ay in ((c, s), (-s, c)):
            lo_a, hi_a = _project_interval(ca, ax, ay)
            lo_b, hi_b = _project_interval(cb, ax, ay)
            if hi_a < lo_b or hi_b < lo_a:
                return False
    return True


def _point_segment_d2(px, py, x0, y0, x1, y1) -> float:
    dx, dy = x1 - x0, y1 - y0
    denom = dx * dx + dy * dy
    t = ((px - x0) * dx + (py - y0) * dy) / denom
    t = min(max(t, 0.0), 1.0)
    ex, ey = x0 + t * dx - px, y0 + t * dy - py
    return ex * ex + ey * ey


def obb_distance(ax: float, ay: float, ah: float, alen: float, awid: float,
                 bx: float, by: float, bh: float, blen: float, bwid: float) -> float:
    """Euclidean gap between two oriented rectangles; 0 iff they touch/overlap.

    Disjoint boxes realize their minimum distance between boundary edges, and
    the closest points of two segments include an endpoint of one of them, so
    after a separating-axis test the minimum over every corner of each box
    against every edge of the other is exact.  Each of those 32 corner/edge
    distances is computed once, with the edge taken in corner order, so the
    result equals the minimum over all edge pairs bit for bit.
    """
    ca = obb_corners(ax, ay, ah, alen, awid)
    cb = obb_corners(bx, by, bh, blen, bwid)
    if _boxes_overlap(ca, cb, ah, bh):
        return 0.0
    best = math.inf
    for corners, edges in ((ca, cb), (cb, ca)):
        for j in range(4):
            u0, v0 = edges[j]
            u1, v1 = edges[(j + 1) % 4]
            for px, py in corners:
                d2 = _point_segment_d2(px, py, u0, v0, u1, v1)
                if d2 < best:
                    best = d2
    return math.sqrt(best)


def actor_distance(a: ActorState, b: ActorState) -> float:
    return obb_distance(a.x, a.y, a.heading, a.length, a.width,
                        b.x, b.y, b.heading, b.length, b.width)


def actor_distance_lower_bound(a: ActorState, b: ActorState) -> float:
    """Cheap lower bound on actor_distance (circumscribed circles)."""
    ra = math.hypot(a.length, a.width) / 2.0
    rb = math.hypot(b.length, b.width) / 2.0
    return math.hypot(a.x - b.x, a.y - b.y) - ra - rb


# ---------------------------------------------------------------------------
# controllers


class SpeedController:
    """PID speed tracking with drag feedforward and anti-windup.

    Output is a signed pedal command: positive values map to throttle,
    negative to brake, both saturated at 1.
    """

    def __init__(self, params: VehicleParams,
                 kp: float = 0.8, ki: float = 0.05, kd: float = 0.0,
                 integral_limit: float = 2.0):
        self.params = params
        self.kp, self.ki, self.kd = kp, ki, kd
        self.integral_limit = integral_limit
        self.integral = 0.0
        self.prev_error: float | None = None

    def pedals(self, speed: float, target: float, dt: float) -> tuple[float, float]:
        error = target - speed
        self.integral = min(max(self.integral + error * dt, -self.integral_limit),
                            self.integral_limit)
        derivative = 0.0 if self.prev_error is None or dt <= 0 \
            else (error - self.prev_error) / dt
        self.prev_error = error
        feedforward = self.params.drag * target / self.params.a_max
        u = self.kp * error + self.ki * self.integral + self.kd * derivative + feedforward
        if u >= 0.0:
            return min(u, 1.0), 0.0
        return 0.0, min(-u, 1.0)


def pure_pursuit_steering(state: ActorState, path: Polyline, s: float,
                          params: VehicleParams) -> float:
    """Classic pure-pursuit steering toward a speed-scaled lookahead point."""
    lookahead = max(3.0, 1.5 * state.speed)
    tx, ty = path.point_at(min(s + lookahead, path.length))
    dx, dy = tx - state.x, ty - state.y
    chord = math.hypot(dx, dy)
    if chord < 0.5:
        return 0.0
    alpha = normalize_angle(math.atan2(dy, dx) - state.heading)
    steer = math.atan2(2.0 * params.wheelbase * math.sin(alpha), chord)
    return min(max(steer, -params.steer_max), params.steer_max)


class WaypointPolicy:
    """Scripted NPC driver: pure pursuit along the waypoint polyline with
    per-segment PID speed tracking.

    Holds full brake until the spawn delay has elapsed and again once the
    final waypoint is reached (latched).
    """

    def __init__(self, spec: NpcSpec, params: VehicleParams | None = None):
        self.params = params or VehicleParams()
        self.path = Polyline([(p.x, p.y) for p in spec.waypoints])
        self.target_speeds = spec.target_speeds
        self.spawn_delay = spec.spawn_delay
        self.speed_ctl = SpeedController(self.params)
        self.finished = False

    def step(self, state: ActorState, sim_time: float, dt: float) -> ControlCommand:
        if self.finished or sim_time < self.spawn_delay - 1e-9:
            return BRAKE_COMMAND
        s, _, _ = self.path.project(state.x, state.y)
        if s >= self.path.length - 0.3:
            self.finished = True
            return BRAKE_COMMAND
        segment = min(self.path._segment_index(s), len(self.target_speeds) - 1)
        throttle, brake = self.speed_ctl.pedals(
            state.speed, self.target_speeds[segment], dt)
        steering = pure_pursuit_steering(state, self.path, s, self.params)
        return ControlCommand(throttle, brake, steering)
