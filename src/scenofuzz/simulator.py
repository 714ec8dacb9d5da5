"""Rendering-free traffic simulation: kinematics, collision geometry, NPC policy.

The vehicle model is a kinematic bicycle integrated with explicit Euler.  All
state updates read the pre-step snapshot, so actor iteration order can never
change a step's outcome.  The ego and every NPC share one vehicle, fixed in the
module constants ``WHEELBASE``, ``A_MAX``, ``B_MAX``, ``DRAG``, ``V_MAX`` and
``STEER_MAX``.

The value objects ``ActorState`` and ``ControlCommand`` are validated once, in
their ``__init__``, and stored straight into the instance.  A heading that is
an exact ``float`` in (-pi, pi] is kept as given, because ``normalize_angle``
is exact there and would return the same bits; a command whose fields are
exact floats inside their clamp ranges is kept as given for the same reason.
Every other value takes the full normalize or check-and-clamp path.

Speed tracking has fixed gains, the constants ``KP``, ``KI``, ``KD`` and
``INTEGRAL_LIMIT``.  ``KD`` is 0.0 but its term stays in the pedal sum: for a
rising error it adds +0.0, which turns a sum of -0.0 into +0.0, so dropping
it would flip the sign of a zero throttle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .geometry import Polyline, normalize_angle
from .scenario import NpcSpec

# vehicle model
WHEELBASE = 2.8   # m
A_MAX = 3.0       # m/s^2 at full throttle
B_MAX = 6.0       # m/s^2 at full brake
DRAG = 0.01       # 1/s, linear speed decay
V_MAX = 30.0      # m/s
STEER_MAX = 0.61  # rad, mechanical steering stop

# SpeedController gains and anti-windup bound
KP = 0.8
KI = 0.05
KD = 0.0  # kept in the pedal sum: it sets the sign of a zero pedal
INTEGRAL_LIMIT = 2.0


@dataclass(frozen=True, init=False)
class ControlCommand:
    throttle: float = 0.0
    brake: float = 0.0
    steering: float = 0.0

    def __init__(self, throttle: float = 0.0, brake: float = 0.0,
                 steering: float = 0.0) -> None:
        # for exact floats in range the clamps return the argument itself
        if not (type(throttle) is float and 0.0 <= throttle <= 1.0
                and type(brake) is float and 0.0 <= brake <= 1.0
                and type(steering) is float
                and -STEER_MAX <= steering <= STEER_MAX):
            throttle = _finite_command(throttle, "throttle")
            brake = _finite_command(brake, "brake")
            steering = _finite_command(steering, "steering")
            throttle = min(max(throttle, 0.0), 1.0)
            brake = min(max(brake, 0.0), 1.0)
            steering = min(max(steering, -STEER_MAX), STEER_MAX)
        fields = self.__dict__
        fields["throttle"] = throttle
        fields["brake"] = brake
        fields["steering"] = steering


def _finite_command(value, name: str) -> float:
    # min/max pass NaN through, so a non-finite input cannot be clamped
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"ControlCommand.{name} is not finite: {number!r}")
    return number


BRAKE_COMMAND = ControlCommand(0.0, 1.0, 0.0)

ACTOR_KINDS = ("ego", "npc", "static")


@dataclass(frozen=True, init=False)
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

    def __init__(self, actor_id: str, kind: str, x: float, y: float,
                 heading: float, speed: float = 0.0, acceleration: float = 0.0,
                 length: float = 4.8, width: float = 2.0) -> None:
        if kind not in ACTOR_KINDS:
            raise ValueError(f"unknown actor kind {kind!r}")
        # math.remainder is exact, so normalize_angle returns these unchanged
        if type(heading) is not float or not -math.pi < heading <= math.pi:
            heading = normalize_angle(heading)
        fields = self.__dict__
        fields["actor_id"] = actor_id
        fields["kind"] = kind
        fields["x"] = x
        fields["y"] = y
        fields["heading"] = heading
        fields["speed"] = speed
        fields["acceleration"] = acceleration
        fields["length"] = length
        fields["width"] = width


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
                   dt: float) -> ActorState:
    """One explicit-Euler step of the kinematic bicycle model.

    Position and heading advance with the speed at the start of the step;
    speed is clamped to [0, V_MAX] after applying net acceleration.
    """
    steering = min(max(cmd.steering, -STEER_MAX), STEER_MAX)
    accel = cmd.throttle * A_MAX - cmd.brake * B_MAX - DRAG * state.speed
    speed = min(max(state.speed + accel * dt, 0.0), V_MAX)
    heading = normalize_angle(
        state.heading + (state.speed / WHEELBASE) * math.tan(steering) * dt)
    x = state.x + state.speed * math.cos(state.heading) * dt
    y = state.y + state.speed * math.sin(state.heading) * dt
    return ActorState(state.actor_id, state.kind, x, y, heading, speed, accel,
                      state.length, state.width)


def step_world(world: WorldState, controls: Mapping[str, ControlCommand],
               dt: float) -> WorldState:
    """Advance every actor one step from the same pre-step snapshot."""
    movable = {a.actor_id for a in world.actors if a.kind != "static"}
    if set(controls) != movable:
        raise ValueError(
            f"controls must cover exactly the movable actors; "
            f"expected {sorted(movable)}, got {sorted(controls)}")
    actors = tuple(
        a if a.kind == "static" else step_kinematic(a, controls[a.actor_id], dt)
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

    def __init__(self) -> None:
        self.integral = 0.0
        self.prev_error: float | None = None

    def pedals(self, speed: float, target: float, dt: float) -> tuple[float, float]:
        error = target - speed
        self.integral = min(max(self.integral + error * dt, -INTEGRAL_LIMIT),
                            INTEGRAL_LIMIT)
        derivative = 0.0 if self.prev_error is None or dt <= 0 \
            else (error - self.prev_error) / dt
        self.prev_error = error
        feedforward = DRAG * target / A_MAX
        u = KP * error + KI * self.integral + KD * derivative + feedforward
        if u >= 0.0:
            return min(u, 1.0), 0.0
        return 0.0, min(-u, 1.0)


def pure_pursuit_steering(state: ActorState, path: Polyline,
                          s: float) -> float:
    """Classic pure-pursuit steering toward a speed-scaled lookahead point."""
    lookahead = max(3.0, 1.5 * state.speed)
    tx, ty = path.point_at(min(s + lookahead, path.length))
    dx, dy = tx - state.x, ty - state.y
    chord = math.hypot(dx, dy)
    if chord < 0.5:
        return 0.0
    alpha = normalize_angle(math.atan2(dy, dx) - state.heading)
    steer = math.atan2(2.0 * WHEELBASE * math.sin(alpha), chord)
    return min(max(steer, -STEER_MAX), STEER_MAX)


class WaypointPolicy:
    """Scripted NPC driver: pure pursuit along the waypoint polyline with
    per-segment PID speed tracking.

    Holds full brake until the spawn delay has elapsed and again once the
    final waypoint is reached (latched).
    """

    def __init__(self, spec: NpcSpec):
        self.path = Polyline([(p.x, p.y) for p in spec.waypoints])
        self.target_speeds = spec.target_speeds
        self.spawn_delay = spec.spawn_delay
        self.speed_ctl = SpeedController()
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
        steering = pure_pursuit_steering(state, self.path, s)
        return ControlCommand(throttle, brake, steering)
