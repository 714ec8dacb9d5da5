from __future__ import annotations

import inspect
import math
from dataclasses import (MISSING, FrozenInstanceError, dataclass, fields,
                         replace)

import numpy as np
import pytest

from oracles import integrate_bicycle, obb_distance_sampled
from scenofuzz import canonical
from scenofuzz.geometry import Pose
from scenofuzz.scenario import NpcSpec
from scenofuzz.geometry import normalize_angle
from scenofuzz.simulator import (A_MAX, B_MAX, DRAG, STEER_MAX, V_MAX,
                                 WHEELBASE, ActorState, BRAKE_COMMAND,
                                 ControlCommand, SpeedController,
                                 WaypointPolicy, WorldState, _boxes_overlap,
                                 _point_segment_d2, actor_distance,
                                 actor_distance_lower_bound, obb_corners,
                                 obb_distance, step_kinematic, step_world)

DT = 0.1


def _actor(x=0.0, y=0.0, heading=0.0, speed=0.0, kind="npc", actor_id="a",
           length=4.8, width=2.0):
    return ActorState(actor_id, kind, x, y, heading, speed, 0.0, length, width)


def test_command_clamped_on_entry():
    cmd = ControlCommand(throttle=2.0, brake=-1.0, steering=5.0)
    assert (cmd.throttle, cmd.brake, cmd.steering) == (1.0, 0.0, STEER_MAX)


@pytest.mark.parametrize("field", ["throttle", "brake", "steering"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan",
                                 np.float64("inf")],
                         ids=["nan", "inf", "-inf", "nan-text", "np-inf"])
def test_command_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=f"ControlCommand.{field} is not"):
        ControlCommand(**{field: bad})
    # huge finite values are still clamped
    cmd = ControlCommand(**{field: 1e308})
    assert math.isfinite(getattr(cmd, field))


def test_rest_stays_at_rest():
    state = _actor()
    nxt = step_kinematic(state, ControlCommand(), DT)
    assert (nxt.x, nxt.y, nxt.heading, nxt.speed) == (0.0, 0.0, 0.0, 0.0)
    assert nxt.acceleration == 0.0


def test_speed_never_negative_and_capped():
    state = _actor(speed=0.3)
    for _ in range(20):
        state = step_kinematic(state, BRAKE_COMMAND, DT)
    assert state.speed == 0.0

    state = _actor(speed=29.9)
    for _ in range(200):
        state = step_kinematic(state, ControlCommand(throttle=1.0), DT)
        assert state.speed <= V_MAX


def test_acceleration_field_records_net_accel():
    state = _actor(speed=10.0)
    nxt = step_kinematic(state, ControlCommand(throttle=0.5), DT)
    assert nxt.acceleration == pytest.approx(0.5 * 3.0 - 0.01 * 10.0)


def test_straight_line_matches_fine_integration():
    state = _actor(speed=0.0)
    for _ in range(300):
        state = step_kinematic(state, ControlCommand(throttle=0.8), DT)
    x_ref, _, _, v_ref = integrate_bicycle(0, 0, 0, 0, 0.8, 0.0, 0.0,
                                           duration=30.0, dt=1e-4)
    # explicit Euler at dt=0.1 drifts O(dt): ~0.2% over 700 m
    assert state.x == pytest.approx(x_ref, rel=5e-3)
    assert state.speed == pytest.approx(v_ref, abs=0.05)


def _drive_circle(dt, steering=0.1, speed=5.0, duration=120.0):
    # throttle exactly cancels drag so speed stays constant
    throttle = DRAG * speed / A_MAX
    state = _actor(speed=speed)
    cmd = ControlCommand(throttle=throttle, steering=steering)
    xs, ys = [], []
    for _ in range(int(round(duration / dt))):
        state = step_kinematic(state, cmd, dt)
        xs.append(state.x)
        ys.append(state.y)
    return np.array(xs), np.array(ys), state


def test_constant_steering_circle_radius():
    xs, ys, _ = _drive_circle(DT)
    cx, cy = xs.mean(), ys.mean()
    radii = np.hypot(xs - cx, ys - cy)
    expected = WHEELBASE / math.tan(0.1)
    assert abs(radii.mean() - expected) / expected < 0.02
    # same check against the fine-step oracle trajectory
    x, y = 0.0, 0.0
    fine = []
    state = (0.0, 0.0, 0.0, 5.0)
    throttle = DRAG * 5.0 / A_MAX
    x, y, h, v = 0.0, 0.0, 0.0, 5.0
    for _ in range(1200):
        x, y, h, v = integrate_bicycle(x, y, h, v, throttle, 0.0, 0.1,
                                       duration=0.1, dt=1e-4)
        fine.append((x, y))
    fine = np.array(fine)
    fcx, fcy = fine.mean(axis=0)
    fine_radius = np.hypot(fine[:, 0] - fcx, fine[:, 1] - fcy).mean()
    assert abs(radii.mean() - fine_radius) / fine_radius < 0.02


def test_full_circle_returns_near_start():
    # one full revolution: yaw rate = v * tan(d) / L
    omega = 5.0 * math.tan(0.1) / WHEELBASE
    period = 2 * math.pi / omega
    xs, ys, _ = _drive_circle(DT, duration=period)
    assert math.hypot(xs[-1], ys[-1]) < 0.5


def test_halving_dt_barely_moves_endpoint():
    xs1, ys1, _ = _drive_circle(0.1, duration=30.0)
    xs2, ys2, _ = _drive_circle(0.05, duration=30.0)
    assert math.hypot(xs1[-1] - xs2[-1], ys1[-1] - ys2[-1]) < 0.2


# ---------------------------------------------------------------------------
# OBB distance


def test_obb_axis_aligned_gap():
    # two 4x2 boxes side by side along x: gap = centers - lengths
    d = obb_distance(0, 0, 0, 4, 2, 10, 0, 0, 4, 2)
    assert d == pytest.approx(6.0)
    d = obb_distance(0, 0, 0, 4, 2, 0, 5, 0, 4, 2)
    assert d == pytest.approx(3.0)


def test_obb_touching_and_overlap_are_zero():
    assert obb_distance(0, 0, 0, 4, 2, 4, 0, 0, 4, 2) == 0.0  # edge contact
    assert obb_distance(0, 0, 0, 4, 2, 1, 0.5, 0.3, 4, 2) == 0.0
    assert obb_distance(0, 0, 0, 10, 10, 1, 1, 0.7, 1, 1) == 0.0  # containment


def test_obb_rotated_corner_case():
    # unit squares, one rotated 45 degrees, far apart on x
    d = obb_distance(0, 0, 0, 2, 2, 6, 0, math.pi / 4, 2, 2)
    # closest: right edge of A at x=1; left corner of B at 6 - sqrt(2)
    assert d == pytest.approx(5.0 - math.sqrt(2.0))


def test_obb_symmetry_exact():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = (rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-4, 4),
             rng.uniform(2, 6), rng.uniform(1, 2.5))
        b = (rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-4, 4),
             rng.uniform(2, 6), rng.uniform(1, 2.5))
        assert obb_distance(*a, *b) == obb_distance(*b, *a)


def test_obb_matches_sampling_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a = (rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(-4, 4),
             rng.uniform(2, 6), rng.uniform(1, 2.5))
        b = (rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(-4, 4),
             rng.uniform(2, 6), rng.uniform(1, 2.5))
        assert obb_distance(*a, *b) == pytest.approx(
            obb_distance_sampled(a, b), abs=1e-3)


def test_actor_distance_lower_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = _actor(x=rng.uniform(-20, 20), y=rng.uniform(-20, 20),
                   heading=rng.uniform(-3, 3))
        b = _actor(x=rng.uniform(-20, 20), y=rng.uniform(-20, 20),
                   heading=rng.uniform(-3, 3), actor_id="b")
        assert actor_distance_lower_bound(a, b) <= actor_distance(a, b) + 1e-12


# ---------------------------------------------------------------------------
# reference implementations: the forms that obb_distance and step_kinematic
# replaced.  The faster forms must give the same floats, bit for bit, or the
# pinned campaign logs would move.


def _bits(*values):
    """Exact identity of floats: hex tells 0.0 from -0.0, unlike ==."""
    return tuple(float(v).hex() for v in values)


def _reference_obb_distance(ax, ay, ah, alen, awid, bx, by, bh, blen, bwid):
    """Every edge pair, each with its four corner/edge distances."""
    ca = obb_corners(ax, ay, ah, alen, awid)
    cb = obb_corners(bx, by, bh, blen, bwid)
    if _boxes_overlap(ca, cb, ah, bh):
        return 0.0
    best = math.inf
    for i in range(4):
        x0, y0 = ca[i]
        x1, y1 = ca[(i + 1) % 4]
        for j in range(4):
            u0, v0 = cb[j]
            u1, v1 = cb[(j + 1) % 4]
            d2 = min(_point_segment_d2(x0, y0, u0, v0, u1, v1),
                     _point_segment_d2(x1, y1, u0, v0, u1, v1),
                     _point_segment_d2(u0, v0, x0, y0, x1, y1),
                     _point_segment_d2(u1, v1, x0, y0, x1, y1))
            if d2 < best:
                best = d2
    return math.sqrt(best)


def _reference_step_kinematic(state, cmd, dt):
    """The step built through dataclasses.replace."""
    steering = min(max(cmd.steering, -STEER_MAX), STEER_MAX)
    accel = cmd.throttle * A_MAX - cmd.brake * B_MAX - DRAG * state.speed
    speed = min(max(state.speed + accel * dt, 0.0), V_MAX)
    heading = normalize_angle(
        state.heading + (state.speed / WHEELBASE) * math.tan(steering) * dt)
    x = state.x + state.speed * math.cos(state.heading) * dt
    y = state.y + state.speed * math.sin(state.heading) * dt
    return replace(state, x=x, y=y, heading=heading, speed=speed, acceleration=accel)


def _obb_special_cases():
    """Touching, overlapping, containing, parallel-edge and identical boxes."""
    cases = [
        ((0, 0, 0, 4, 2), (4, 0, 0, 4, 2)),            # end faces touch
        ((0, 0, 0, 4, 2), (0, 2, 0, 4, 2)),            # long sides touch
        ((0, 0, 0, 2, 2), (2, 2, 0, 2, 2)),            # corners touch
        ((0, 0, 0, 2, 2), (1 + math.sqrt(2), 0, math.pi / 4, 2, 2)),  # corner on edge
        ((0, 0, 0, 4, 2), (1, 0.5, 0.3, 4, 2)),        # overlap
        ((0, 0, 0, 10, 10), (1, 1, 0.7, 1, 1)),        # containment
        ((0, 0, 0.4, 4.8, 2.0), (0, 0, 0.4, 4.8, 2.0)),  # identical
        ((3, -2, 0.0, 4.8, 2.0), (3, -2, math.pi, 4.8, 2.0)),  # same box turned
        ((0, 0, 0, 4, 2), (4 + 1e-12, 0, 0, 4, 2)),    # just apart
    ]
    for k in range(24):
        h = -math.pi + k * math.pi / 12   # includes multiples of pi/2
        c, s = math.cos(h), math.sin(h)
        for gap, slide in ((0.5, 0.0), (0.5, 3.0), (7.25, -1.5), (1e-9, 0.7)):
            # same heading, offset along the normal: parallel long sides
            off = 2.0 + gap
            cases.append(((1.0, -2.0, h, 4.8, 2.0),
                          (1.0 - s * off + c * slide, -2.0 + c * off + s * slide,
                           h, 4.8, 2.0)))
            # quarter turn: the side of one parallel to the end of the other
            cases.append(((1.0, -2.0, h, 4.8, 2.0),
                          (1.0 + c * (3.4 + gap) - s * slide,
                           -2.0 + s * (3.4 + gap) + c * slide,
                           h + math.pi / 2, 4.8, 2.0)))
    return cases


def test_obb_distance_equals_reference_on_special_cases():
    for a, b in _obb_special_cases():
        for p, q in ((a, b), (b, a)):
            assert _bits(obb_distance(*p, *q)) == \
                _bits(_reference_obb_distance(*p, *q)), (p, q)


def test_obb_distance_equals_reference_on_seeded_boxes():
    rng = np.random.default_rng(4404)
    n = 20_000
    centers = rng.uniform(-15.0, 15.0, size=(n, 4))
    headings = rng.uniform(-math.pi, math.pi, size=(n, 2))
    # every fourth pair shares a heading, so edges are parallel
    headings[::4, 1] = headings[::4, 0]
    sizes = rng.uniform(0.3, 6.0, size=(n, 4))
    apart = 0
    for (ax, ay, bx, by), (ah, bh), (al, aw, bl, bw) in zip(
            centers.tolist(), headings.tolist(), sizes.tolist()):
        a = (ax, ay, ah, al, aw)
        b = (bx, by, bh, bl, bw)
        d = obb_distance(*a, *b)
        assert _bits(d) == _bits(_reference_obb_distance(*a, *b)), (a, b)
        apart += d > 0.0
    assert apart > n // 2  # most pairs reach the corner/edge scan


def test_step_kinematic_equals_replace_form():
    rng = np.random.default_rng(96)
    headings = [math.pi, -math.pi + 1e-12, 0.0, -0.0, math.pi / 2]
    for k in range(5000):
        heading = headings[k] if k < len(headings) else rng.uniform(-math.pi, math.pi)
        state = ActorState("npc_3", "npc" if k % 2 else "ego",
                           rng.uniform(-200, 200), rng.uniform(-200, 200),
                           heading, 0.0 if k % 3 == 0 else rng.uniform(0, 35),
                           rng.uniform(-8, 4), rng.uniform(2, 6), rng.uniform(1, 3))
        cmd = ControlCommand(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2),
                             rng.uniform(-0.8, 0.8))
        dt = (0.1, 0.05, 1 / 30, rng.uniform(0.001, 0.5))[k % 4]
        new = step_kinematic(state, cmd, dt)
        ref = _reference_step_kinematic(state, cmd, dt)
        assert type(new) is ActorState
        assert (new.actor_id, new.kind) == (ref.actor_id, ref.kind)
        fields = ("x", "y", "heading", "speed", "acceleration", "length", "width")
        assert _bits(*(getattr(new, f) for f in fields)) == \
            _bits(*(getattr(ref, f) for f in fields))


# ---------------------------------------------------------------------------
# references: the value objects as the generated dataclass __init__ and a
# __post_init__ built them.  The explicit __init__ must store the same values
# with the same types, and raise the same exceptions with the same messages.


def _reference_finite_command(value, name):
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"ControlCommand.{name} is not finite: {number!r}")
    return number


@dataclass(frozen=True)
class _ReferenceControlCommand:
    throttle: float = 0.0
    brake: float = 0.0
    steering: float = 0.0

    def __post_init__(self) -> None:
        throttle = _reference_finite_command(self.throttle, "throttle")
        brake = _reference_finite_command(self.brake, "brake")
        steering = _reference_finite_command(self.steering, "steering")
        object.__setattr__(self, "throttle", min(max(throttle, 0.0), 1.0))
        object.__setattr__(self, "brake", min(max(brake, 0.0), 1.0))
        object.__setattr__(self, "steering",
                           min(max(steering, -STEER_MAX), STEER_MAX))


@dataclass(frozen=True)
class _ReferenceActorState:
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
        if self.kind not in ("ego", "npc", "static"):
            raise ValueError(f"unknown actor kind {self.kind!r}")
        object.__setattr__(self, "heading", normalize_angle(self.heading))


def _fields_of(obj):
    """Each field's name, type and exact value (hex tells 0.0 from -0.0)."""
    return tuple((f.name, type(value),
                  float.hex(value) if isinstance(value, float) else repr(value))
                 for f in fields(obj)
                 for value in (getattr(obj, f.name),))


def _built(cls, *args, **kwargs):
    """The fields a construction stores, or its exception type and message."""
    try:
        obj = cls(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return ("raises", type(exc), str(exc))
    return ("builds", _fields_of(obj))


def _ulps(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


EDGE_HEADINGS = (
    *_ulps(math.pi), *_ulps(-math.pi), 0.0, -0.0, 3 * math.pi, -3 * math.pi,
    2 * math.pi, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf, 0, 1,
    -4, True, False, np.float64(0.5), np.float64(math.pi),
    np.float64(-math.pi), np.float64(-0.0), np.float64(7.0), np.float32(0.25),
    "0.5", None)

EDGE_COMMAND_VALUES = (
    -0.0, 0.0, 0, 1, 1.0, *_ulps(0.0), *_ulps(1.0), *_ulps(STEER_MAX),
    *_ulps(-STEER_MAX), 0.5, -0.3, 2.0, -1e300, 1e300, True, False, -2,
    np.float64(0.5), np.float64(-0.0), np.float64(1.5), "0.5", math.nan,
    math.inf, -math.inf, object(), None)


@pytest.mark.parametrize("kind", ["ego", "static", "truck"])
def test_actor_state_equals_reference_on_edge_headings(kind):
    for heading in EDGE_HEADINGS:
        args = ("npc_1", kind, 1.0, -2.0, heading, 3.0, -0.5, 4.5, 1.8)
        assert _built(ActorState, *args) == \
            _built(_ReferenceActorState, *args), heading
        assert _built(ActorState, "npc_1", kind, 0, 0, heading=heading) == \
            _built(_ReferenceActorState, "npc_1", kind, 0, 0,
                   heading=heading), heading


def test_actor_state_equals_reference_on_seeded_values():
    rng = np.random.default_rng(2718)
    for k in range(3000):
        heading = float(rng.uniform(-4 * math.pi, 4 * math.pi)) if k % 2 \
            else float(rng.uniform(-math.pi, math.pi))
        args = (f"npc_{k}", ("ego", "npc", "static")[k % 3],
                float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)),
                heading, float(rng.uniform(0, 30)), float(rng.uniform(-6, 3)),
                float(rng.uniform(2, 6)), float(rng.uniform(1, 3)))
        assert _built(ActorState, *args) == \
            _built(_ReferenceActorState, *args), args


@pytest.mark.parametrize("field", ["throttle", "brake", "steering"])
def test_control_command_equals_reference_on_edge_values(field):
    for value in EDGE_COMMAND_VALUES:
        assert _built(ControlCommand, **{field: value}) == \
            _built(_ReferenceControlCommand, **{field: value}), value


def test_control_command_equals_reference_on_edge_combinations():
    # with several bad fields, the first one checked names the error
    values = EDGE_COMMAND_VALUES[::3]
    for throttle in values:
        for brake in values:
            for steering in values:
                args = (throttle, brake, steering)
                assert _built(ControlCommand, *args) == \
                    _built(_ReferenceControlCommand, *args), args


def test_control_command_equals_reference_on_seeded_values():
    rng = np.random.default_rng(1618)
    for _ in range(3000):
        args = (float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)),
                float(rng.uniform(-1.0, 1.0)))
        assert _built(ControlCommand, *args) == \
            _built(_ReferenceControlCommand, *args), args


@pytest.mark.parametrize("cls", [ActorState, ControlCommand])
def test_explicit_init_signature_equals_the_fields(cls):
    parameters = list(inspect.signature(cls.__init__).parameters.values())
    assert parameters[0].name == "self"
    assert [(p.name, p.kind, p.default) for p in parameters[1:]] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(cls)]


@pytest.mark.parametrize("obj,reference,change", [
    (ActorState("npc_1", "npc", 1.0, 2.0, 7.0, 3.0),
     _ReferenceActorState("npc_1", "npc", 1.0, 2.0, 7.0, 3.0),
     {"heading": -9.5}),
    (ControlCommand(0.5, 2, -1.0), _ReferenceControlCommand(0.5, 2, -1.0),
     {"steering": 9.5}),
], ids=["actor", "command"])
def test_value_objects_stay_frozen_dataclasses(obj, reference, change):
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, 0.0)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
    assert _fields_of(obj) == _fields_of(reference)
    assert hash(obj) == hash(reference)
    assert repr(obj) == repr(reference).replace(type(reference).__name__,
                                                type(obj).__name__)
    assert obj == replace(obj)
    # replace builds through __init__: the new value is normalized or clamped
    assert _fields_of(replace(obj, **change)) == \
        _fields_of(replace(reference, **change))


# ---------------------------------------------------------------------------
# world stepping


def test_step_world_requires_exact_control_cover():
    world = WorldState(0.0, (_actor(kind="ego", actor_id="ego"),
                             _actor(x=30, actor_id="npc_1"),
                             _actor(x=60, kind="static", actor_id="rock")))
    with pytest.raises(ValueError):
        step_world(world, {"ego": ControlCommand()}, DT)
    with pytest.raises(ValueError):
        step_world(world, {"ego": ControlCommand(), "npc_1": ControlCommand(),
                           "rock": ControlCommand()}, DT)
    nxt = step_world(world, {"ego": ControlCommand(throttle=1.0),
                             "npc_1": ControlCommand()}, DT)
    assert nxt.sim_time == pytest.approx(0.1)
    assert nxt.actor("rock") is world.actor("rock")


def test_step_world_order_independent():
    actors = (_actor(kind="ego", actor_id="ego", speed=5.0),
              _actor(x=30, actor_id="npc_1", speed=3.0),
              _actor(x=60, actor_id="npc_2", speed=1.0))
    controls = {"ego": ControlCommand(throttle=0.5, steering=0.1),
                "npc_1": ControlCommand(brake=0.2),
                "npc_2": ControlCommand(throttle=1.0)}
    a = step_world(WorldState(0.0, actors), controls, DT)
    b = step_world(WorldState(0.0, actors[::-1]), controls, DT)
    by_id_a = {s.actor_id: s for s in a.actors}
    by_id_b = {s.actor_id: s for s in b.actors}
    assert by_id_a == by_id_b


# ---------------------------------------------------------------------------
# NPC waypoint policy


def _policy_npc(delay=0.0, speeds=(8.0, 8.0, 8.0)):
    waypoints = tuple(Pose(30.0 * i, 0.0, 0.0) for i in range(len(speeds) + 1))
    return NpcSpec("npc_1", waypoints, tuple(speeds), spawn_delay=delay)


def test_policy_brakes_before_spawn_delay():
    policy = WaypointPolicy(_policy_npc(delay=5.0))
    cmd = policy.step(_actor(speed=0.0), sim_time=1.0, dt=DT)
    assert cmd == BRAKE_COMMAND


def test_policy_equilibrium_on_path():
    policy = WaypointPolicy(_policy_npc())
    cmd = policy.step(_actor(x=10.0, speed=8.0), sim_time=1.0, dt=DT)
    assert abs(cmd.steering) < 1e-3
    drag_comp = DRAG * 8.0 / A_MAX
    assert cmd.throttle == pytest.approx(drag_comp, abs=0.01)
    assert cmd.brake == 0.0


def test_policy_steers_left_when_right_of_path():
    policy = WaypointPolicy(_policy_npc())
    cmd = policy.step(_actor(x=10.0, y=-1.0, speed=8.0), sim_time=1.0, dt=DT)
    assert cmd.steering > 0.0


def test_policy_converges_to_path():
    policy = WaypointPolicy(_policy_npc())
    state = _actor(x=5.0, y=-1.0, speed=8.0)
    t = 0.0
    for _ in range(100):  # 10 s
        cmd = policy.step(state, t, DT)
        state = step_kinematic(state, cmd, DT)
        t += DT
    assert abs(state.y) < 0.2


def test_policy_tracks_segment_speed_and_stops_at_end():
    policy = WaypointPolicy(_policy_npc(speeds=(6.0, 6.0)))
    state = _actor(speed=0.0)
    t = 0.0
    speeds = []
    for _ in range(300):
        cmd = policy.step(state, t, DT)
        state = step_kinematic(state, cmd, DT)
        speeds.append(state.speed)
        t += DT
    assert max(speeds) == pytest.approx(6.0, abs=1.0)
    assert state.speed < 0.2  # latched stop at the final waypoint
    assert policy.finished
    # stop latch fires 0.3 m early, then braking from 6 m/s takes ~3 m
    assert state.x == pytest.approx(60.0, abs=4.0)


def test_speed_controller_zero_pedal_is_positive_zero():
    # every other term of the pedal sum is -0.0 here; the KD term, 0.0 times
    # a rising error, makes it +0.0, so a zero throttle keeps its sign
    ctl = SpeedController()
    ctl.integral, ctl.prev_error = -5e-324, -1.0
    throttle, brake = ctl.pedals(0.0, -0.0, DT)
    assert (throttle, brake) == (0.0, 0.0)
    assert math.copysign(1.0, throttle) == 1.0


# ---------------------------------------------------------------------------
# golden trace


def test_golden_trace_hash():
    state = _actor(kind="ego", actor_id="ego", speed=0.0)
    trace = []
    for k in range(100):
        cmd = ControlCommand(throttle=0.7 if k < 60 else 0.0,
                             brake=0.0 if k < 60 else 0.6,
                             steering=0.05 * math.sin(k / 10.0))
        state = step_kinematic(state, cmd, DT)
        trace.append({"x": state.x, "y": state.y, "heading": state.heading,
                      "speed": state.speed, "acceleration": state.acceleration})
    digest = canonical.sha256(trace)
    assert digest == canonical.sha256(trace)  # stable within a run
    assert digest == GOLDEN_TRACE_SHA256


# frozen from the first verified run of the model above
GOLDEN_TRACE_SHA256 = "c4c456a2e9ec653c837405c1ee30b6c8d60ecd78ca53b4eb43108ff37cd1745e"
