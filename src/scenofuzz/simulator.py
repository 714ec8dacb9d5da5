"""Rendering-free traffic simulation: kinematics, collision geometry, NPC policy.

The vehicle model is a kinematic bicycle integrated with explicit Euler.  All
state updates read the pre-step snapshot, so actor iteration order can never
change a step's outcome.  The ego and every NPC share one vehicle, fixed in the
module constants ``WHEELBASE``, ``A_MAX``, ``B_MAX``, ``DRAG``, ``V_MAX`` and
``STEER_MAX``.  The module imports no package module but ``geometry``, so
``scenario`` can import its ``ActorState`` and distances to measure spawn
overlaps.

The value objects ``ActorState`` and ``ControlCommand`` are validated once, in
their ``__init__``, and stored straight into the instance.  A heading that is
an exact ``float`` in (-pi, pi] is kept as given, because ``normalize_angle``
is exact there and would return the same bits; a command whose fields are
exact floats inside their clamp ranges is kept as given for the same reason.
Every other value takes the full normalize or check-and-clamp path.
``WorldState`` stores its two fields the same way, unchecked.

``step_kinematic`` keeps a memo of steps under one rule: a step that changes
no bit returns its input.  It holds the ego's steps, because every evaluation
of a campaign starts the ego from the same pose on the same route with the
same agent and only the traffic around it changes, so the ego drives the same
trajectory again and again.  It also holds the steps of a state at rest under
``BRAKE_COMMAND`` itself (an NPC waiting for its spawn delay or parked at its
last waypoint, or a stopped ego): once its first such step has set the
acceleration to ``-B_MAX``, the next ones change no bit, so it keeps one
object, and with it its ``_text``, for as long as it is held.  Moving NPCs are
left out: their motion is what the search mutates, so their states seldom come
back.  The memo is keyed on the actor id and kind and the IEEE bits of x, y,
heading, speed, acceleration, length, width, throttle, brake, steering and
``dt``, never on the floats themselves: as dict keys ``0.0`` equals ``-0.0``
and a NaN equals nothing.  A miss whose new state packs to the key's bits
stores and returns the input itself; a hit returns the stored ``ActorState``
itself, so the physics is skipped, the bridge frame and recording reuse its
``_text`` and the reference agent its ``_guide`` and ``_reply``.  The step
is a function of those bits alone, so a hit gives what a fresh step would.
The memo's answer for a state is also kept on the state: when it is another
state, ``(cmd, dt, new)`` goes into the state's ``_next`` slot, and a later
step of the state with the very same command and ``dt`` objects returns
``new`` before packing any bits.  The agent returns its kept reply, so the
ego's repeated trajectory hands the same command object to each step.  A
held state stores no link, so no state links to itself, and a state links
only to the state it was last stepped to, so a trajectory the memo has
cleared lives only as long as something else holds its states.  Only an
exact ``ActorState`` with an exact ``str`` id and kind, exact ``float``
fields, an exact ``ControlCommand`` and a ``float`` ``dt`` is looked up and
stored: an int or bool packs like a float but writes other text.  The memo
is cleared whenever it holds ``STEP_MEMO_LIMIT`` states, about 1.6 KB each
with their slots filled (measured on avfuzzer campaigns), so a full memo
holds about 1.2 MB.  Worker threads share it; a dict's get, set and clear
each hold the interpreter lock, so two threads that race on one key each get
an exact state, and threads that race past the size check leave at most one
extra entry each; a link is one dict store too.  ``tests/test_simulator.py``
checks the memo and the links against the uncached step (the
``test_step_memo_*``, ``test_next_step_*`` and ``test_held_step_*`` tests).

Speed tracking has fixed gains, the constants ``KP``, ``KI``, ``KD`` and
``INTEGRAL_LIMIT``.  ``KD`` is 0.0 but its term stays in the pedal sum: for a
rising error it adds +0.0, which turns a sum of -0.0 into +0.0, so dropping
it would flip the sign of a zero throttle.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping

from .geometry import Polyline, normalize_angle

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
    """One actor's pose and motion at one instant.

    Besides its fields, every instance holds four slots that are ``None``
    until filled, and stay ``None`` in a subclass:

    - ``_text``, the canonical JSON ``bridge.actor_text`` writes for every
      frame and recording holding this object;
    - ``_guide``, ``(route, cruise_speed, guidance, lateral)``: the route
      guidance ``bridge.route_guidance`` computes, with the route and
      cruise-speed objects it was computed for and the signed lateral
      offset from the route that search feedback reads;
    - ``_reply``, the reference agent's speed-tracking reply with the
      inputs it was computed from (see ``bridge``);
    - ``_next``, ``(cmd, dt, new)``: the state the step memo gave for this
      state under these very command and ``dt`` objects (see
      ``step_kinematic``).

    None is a field, so equality, hashing, ``repr`` and
    ``dataclasses.replace`` (which starts a new object with ``None``) ignore
    them.  Each holds a pure function of the frozen fields and of the
    objects or values stored with it, so reusing a slot cannot change a
    byte.
    """

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
        fields["_text"] = None
        fields["_guide"] = None
        fields["_next"] = None
        fields["_reply"] = None


@dataclass(frozen=True, init=False)
class WorldState:
    sim_time: float
    actors: tuple[ActorState, ...]

    def __init__(self, sim_time: float,
                 actors: tuple[ActorState, ...]) -> None:
        fields = self.__dict__
        fields["sim_time"] = sim_time
        fields["actors"] = actors


STEP_MEMO_LIMIT = 768  # ego and parked steps held before a clear: ~1.2 MB
_steps: dict[tuple[str, str, bytes], ActorState] = {}
_step = _steps.get
_step_bits = struct.Struct("<11d").pack
_step_inputs = attrgetter("actor_id", "kind", "x", "y", "heading", "speed",
                          "acceleration", "length", "width")


def step_kinematic(state: ActorState, cmd: ControlCommand,
                   dt: float) -> ActorState:
    """One explicit-Euler step of the kinematic bicycle model.

    Position and heading advance with the speed at the start of the step;
    speed is clamped to [0, V_MAX] after applying net acceleration.  An ego
    step, or a step at rest under ``BRAKE_COMMAND``, is looked up in the
    step memo, and a step that changes no bit returns ``state`` itself; a
    state's ``_next`` slot gives back the memo's last answer for the same
    command and ``dt`` objects (see the module docstring).
    """
    if type(state) is ActorState:
        last = state._next
        if last is not None and last[0] is cmd and last[1] is dt:
            return last[2]
        if type(cmd) is ControlCommand and (
                state.kind == "ego"
                or cmd is BRAKE_COMMAND and state.speed == 0.0):
            (actor_id, kind, x, y, heading, speed, acceleration, length,
             width) = _step_inputs(state)
            throttle, brake, steering = cmd.throttle, cmd.brake, cmd.steering
            if (type(actor_id) is type(kind) is str
                    and type(x) is type(y) is type(heading) is type(speed)
                    is type(acceleration) is type(length) is type(width)
                    is type(throttle) is type(brake) is type(steering)
                    is type(dt) is float):
                bits = _step_bits(x, y, heading, speed, acceleration, length,
                                  width, throttle, brake, steering, dt)
                key = (actor_id, kind, bits)
                new = _step(key)
                if new is None:
                    new = _step_kinematic(state, cmd, dt)
                    if _step_bits(new.x, new.y, new.heading, new.speed,
                                  new.acceleration, length, width, throttle,
                                  brake, steering, dt) == bits:
                        new = state
                    if len(_steps) >= STEP_MEMO_LIMIT:
                        _steps.clear()
                    _steps[key] = new
                if new is not state:  # a held state keeps no link to itself
                    state.__dict__["_next"] = (cmd, dt, new)
                return new
    return _step_kinematic(state, cmd, dt)


def _step_kinematic(state: ActorState, cmd: ControlCommand,
                    dt: float) -> ActorState:
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
    """Advance every actor one step from the same pre-step snapshot.

    ``controls`` must hold one command for each movable actor and nothing
    else, and the movable actors' ids must be distinct; otherwise
    ``ValueError``.  Static actors come back as the same objects.  The
    check runs in the same pass that steps the actors, each command taken
    out of a copy of ``controls`` as its actor is stepped, so a refused
    call may already have stepped some actors.  A step is a pure function
    of its inputs, so the only effect is a filled step memo, which cannot
    move a byte (``tests/test_caches_off.py``).
    """
    unused = dict(controls)
    take = unused.pop
    actors = []
    for a in world.actors:
        if a.kind == "static":
            actors.append(a)
            continue
        try:
            cmd = take(a.actor_id)
        except KeyError:  # not in controls, or a repeated id already taken
            break
        actors.append(step_kinematic(a, cmd, dt))
    else:
        if not unused:
            return WorldState(world.sim_time + dt, tuple(actors))
    raise _controls_error(world, controls)


def _controls_error(world: WorldState, controls) -> ValueError:
    movable = [a.actor_id for a in world.actors if a.kind != "static"]
    if set(controls) != set(movable):
        return ValueError(
            f"controls must cover exactly the movable actors; "
            f"expected {sorted(set(movable))}, got {sorted(controls)}")
    repeated = next(i for i in movable if movable.count(i) > 1)
    return ValueError(f"movable actor_id {repeated!r} is repeated")


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


# the circle gap of two boxes whose corners face each other along the line
# of centres rounds above obb_distance, by up to some 5e-9 m near
# geometry.MAX_COORDINATE, where a corner rounds by about 1e-9 m; the bound
# subtracts this to stay below it
BOUND_ROUNDING_MARGIN = 1e-6  # m


def actor_distance_lower_bound(a: ActorState, b: ActorState) -> float:
    """Cheap lower bound on actor_distance: the gap between the boxes'
    circumscribed circles less ``BOUND_ROUNDING_MARGIN``, so that it is at
    most the distance for every coordinate within
    ``geometry.MAX_COORDINATE``; a test may skip unmeasured a pair whose
    bound clears the distance it tests for.
    """
    ra = math.hypot(a.length, a.width) / 2.0
    rb = math.hypot(b.length, b.width) / 2.0
    return math.hypot(a.x - b.x, a.y - b.y) - (ra + rb + BOUND_ROUNDING_MARGIN)


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
    final waypoint is reached (latched).  ``spec`` is a ``scenario.NpcSpec``.
    """

    def __init__(self, spec):
        self.path = Polyline([(p.x, p.y) for p in spec.waypoints])
        self.target_speeds = spec.target_speeds
        # the step's thresholds, computed once with the same operations
        self.hold_before = spec.spawn_delay - 1e-9
        self.finish_at = self.path.length - 0.3
        self.last_segment = len(spec.target_speeds) - 1
        self.speed_ctl = SpeedController()
        self.finished = False

    def step(self, state: ActorState, sim_time: float, dt: float) -> ControlCommand:
        if self.finished or sim_time < self.hold_before:
            return BRAKE_COMMAND
        s, _, _ = self.path.project(state.x, state.y)
        if s >= self.finish_at:
            self.finished = True
            return BRAKE_COMMAND
        segment = min(self.path._segment_index(s), self.last_segment)
        throttle, brake = self.speed_ctl.pedals(
            state.speed, self.target_speeds[segment], dt)
        steering = pure_pursuit_steering(state, self.path, s)
        return ControlCommand(throttle, brake, steering)
