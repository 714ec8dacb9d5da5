from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import integrate_bicycle, obb_distance_sampled
from scenofuzz import canonical
from scenofuzz.geometry import Pose
from scenofuzz.scenario import NpcSpec
from scenofuzz.geometry import normalize_angle
from scenofuzz.simulator import (ActorState, BRAKE_COMMAND, ControlCommand,
                                 STEER_MAX, SpeedController, VehicleParams,
                                 WaypointPolicy, WorldState, _boxes_overlap,
                                 _point_segment_d2, actor_distance,
                                 actor_distance_lower_bound, obb_corners,
                                 obb_distance, step_kinematic, step_world)

PARAMS = VehicleParams()
DT = 0.1


def _actor(x=0.0, y=0.0, heading=0.0, speed=0.0, kind="npc", actor_id="a",
           length=4.8, width=2.0):
    return ActorState(actor_id, kind, x, y, heading, speed, 0.0, length, width)


def test_command_clamped_on_entry():
    cmd = ControlCommand(throttle=2.0, brake=-1.0, steering=5.0)
    assert (cmd.throttle, cmd.brake, cmd.steering) == (1.0, 0.0, STEER_MAX)


def test_rest_stays_at_rest():
    state = _actor()
    nxt = step_kinematic(state, ControlCommand(), PARAMS, DT)
    assert (nxt.x, nxt.y, nxt.heading, nxt.speed) == (0.0, 0.0, 0.0, 0.0)
    assert nxt.acceleration == 0.0


def test_speed_never_negative_and_capped():
    state = _actor(speed=0.3)
    for _ in range(20):
        state = step_kinematic(state, BRAKE_COMMAND, PARAMS, DT)
    assert state.speed == 0.0

    state = _actor(speed=29.9)
    for _ in range(200):
        state = step_kinematic(state, ControlCommand(throttle=1.0), PARAMS, DT)
        assert state.speed <= PARAMS.v_max


def test_acceleration_field_records_net_accel():
    state = _actor(speed=10.0)
    nxt = step_kinematic(state, ControlCommand(throttle=0.5), PARAMS, DT)
    assert nxt.acceleration == pytest.approx(0.5 * 3.0 - 0.01 * 10.0)


def test_straight_line_matches_fine_integration():
    state = _actor(speed=0.0)
    for _ in range(300):
        state = step_kinematic(state, ControlCommand(throttle=0.8), PARAMS, DT)
    x_ref, _, _, v_ref = integrate_bicycle(0, 0, 0, 0, 0.8, 0.0, 0.0,
                                           duration=30.0, dt=1e-4)
    # explicit Euler at dt=0.1 drifts O(dt): ~0.2% over 700 m
    assert state.x == pytest.approx(x_ref, rel=5e-3)
    assert state.speed == pytest.approx(v_ref, abs=0.05)


def _drive_circle(dt, steering=0.1, speed=5.0, duration=120.0):
    # throttle exactly cancels drag so speed stays constant
    throttle = PARAMS.drag * speed / PARAMS.a_max
    state = _actor(speed=speed)
    cmd = ControlCommand(throttle=throttle, steering=steering)
    xs, ys = [], []
    for _ in range(int(round(duration / dt))):
        state = step_kinematic(state, cmd, PARAMS, dt)
        xs.append(state.x)
        ys.append(state.y)
    return np.array(xs), np.array(ys), state


def test_constant_steering_circle_radius():
    xs, ys, _ = _drive_circle(DT)
    cx, cy = xs.mean(), ys.mean()
    radii = np.hypot(xs - cx, ys - cy)
    expected = PARAMS.wheelbase / math.tan(0.1)
    assert abs(radii.mean() - expected) / expected < 0.02
    # same check against the fine-step oracle trajectory
    x, y = 0.0, 0.0
    fine = []
    state = (0.0, 0.0, 0.0, 5.0)
    throttle = PARAMS.drag * 5.0 / PARAMS.a_max
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
    omega = 5.0 * math.tan(0.1) / PARAMS.wheelbase
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


def _reference_step_kinematic(state, cmd, params, dt):
    """The step built through dataclasses.replace."""
    steering = min(max(cmd.steering, -params.steer_max), params.steer_max)
    accel = cmd.throttle * params.a_max - cmd.brake * params.b_max - params.drag * state.speed
    speed = min(max(state.speed + accel * dt, 0.0), params.v_max)
    heading = normalize_angle(
        state.heading + (state.speed / params.wheelbase) * math.tan(steering) * dt)
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
    params_set = (PARAMS, VehicleParams(wheelbase=2.1, a_max=4.5, b_max=8.0,
                                        drag=0.05, v_max=20.0, steer_max=0.4))
    headings = [math.pi, -math.pi + 1e-12, 0.0, -0.0, math.pi / 2]
    for k in range(5000):
        heading = headings[k] if k < len(headings) else rng.uniform(-math.pi, math.pi)
        state = ActorState("npc_3", "npc" if k % 2 else "ego",
                           rng.uniform(-200, 200), rng.uniform(-200, 200),
                           heading, 0.0 if k % 3 == 0 else rng.uniform(0, 35),
                           rng.uniform(-8, 4), rng.uniform(2, 6), rng.uniform(1, 3))
        cmd = ControlCommand(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2),
                             rng.uniform(-0.8, 0.8))
        params = params_set[k % 2]
        dt = (0.1, 0.05, 1 / 30, rng.uniform(0.001, 0.5))[k % 4]
        new = step_kinematic(state, cmd, params, dt)
        ref = _reference_step_kinematic(state, cmd, params, dt)
        assert type(new) is ActorState
        assert (new.actor_id, new.kind) == (ref.actor_id, ref.kind)
        fields = ("x", "y", "heading", "speed", "acceleration", "length", "width")
        assert _bits(*(getattr(new, f) for f in fields)) == \
            _bits(*(getattr(ref, f) for f in fields))


# ---------------------------------------------------------------------------
# world stepping


def test_step_world_requires_exact_control_cover():
    world = WorldState(0.0, (_actor(kind="ego", actor_id="ego"),
                             _actor(x=30, actor_id="npc_1"),
                             _actor(x=60, kind="static", actor_id="rock")))
    with pytest.raises(ValueError):
        step_world(world, {"ego": ControlCommand()}, PARAMS, DT)
    with pytest.raises(ValueError):
        step_world(world, {"ego": ControlCommand(), "npc_1": ControlCommand(),
                           "rock": ControlCommand()}, PARAMS, DT)
    nxt = step_world(world, {"ego": ControlCommand(throttle=1.0),
                             "npc_1": ControlCommand()}, PARAMS, DT)
    assert nxt.sim_time == pytest.approx(0.1)
    assert nxt.actor("rock") is world.actor("rock")


def test_step_world_order_independent():
    actors = (_actor(kind="ego", actor_id="ego", speed=5.0),
              _actor(x=30, actor_id="npc_1", speed=3.0),
              _actor(x=60, actor_id="npc_2", speed=1.0))
    controls = {"ego": ControlCommand(throttle=0.5, steering=0.1),
                "npc_1": ControlCommand(brake=0.2),
                "npc_2": ControlCommand(throttle=1.0)}
    a = step_world(WorldState(0.0, actors), controls, PARAMS, DT)
    b = step_world(WorldState(0.0, actors[::-1]), controls, PARAMS, DT)
    by_id_a = {s.actor_id: s for s in a.actors}
    by_id_b = {s.actor_id: s for s in b.actors}
    assert by_id_a == by_id_b


# ---------------------------------------------------------------------------
# NPC waypoint policy


def _policy_npc(delay=0.0, speeds=(8.0, 8.0, 8.0)):
    waypoints = tuple(Pose(30.0 * i, 0.0, 0.0) for i in range(len(speeds) + 1))
    return NpcSpec("npc_1", waypoints, tuple(speeds), spawn_delay=delay)


def test_policy_brakes_before_spawn_delay():
    policy = WaypointPolicy(_policy_npc(delay=5.0), PARAMS)
    cmd = policy.step(_actor(speed=0.0), sim_time=1.0, dt=DT)
    assert cmd == BRAKE_COMMAND


def test_policy_equilibrium_on_path():
    policy = WaypointPolicy(_policy_npc(), PARAMS)
    cmd = policy.step(_actor(x=10.0, speed=8.0), sim_time=1.0, dt=DT)
    assert abs(cmd.steering) < 1e-3
    drag_comp = PARAMS.drag * 8.0 / PARAMS.a_max
    assert cmd.throttle == pytest.approx(drag_comp, abs=0.01)
    assert cmd.brake == 0.0


def test_policy_steers_left_when_right_of_path():
    policy = WaypointPolicy(_policy_npc(), PARAMS)
    cmd = policy.step(_actor(x=10.0, y=-1.0, speed=8.0), sim_time=1.0, dt=DT)
    assert cmd.steering > 0.0


def test_policy_converges_to_path():
    policy = WaypointPolicy(_policy_npc(), PARAMS)
    state = _actor(x=5.0, y=-1.0, speed=8.0)
    t = 0.0
    for _ in range(100):  # 10 s
        cmd = policy.step(state, t, DT)
        state = step_kinematic(state, cmd, PARAMS, DT)
        t += DT
    assert abs(state.y) < 0.2


def test_policy_tracks_segment_speed_and_stops_at_end():
    policy = WaypointPolicy(_policy_npc(speeds=(6.0, 6.0)), PARAMS)
    state = _actor(speed=0.0)
    t = 0.0
    speeds = []
    for _ in range(300):
        cmd = policy.step(state, t, DT)
        state = step_kinematic(state, cmd, PARAMS, DT)
        speeds.append(state.speed)
        t += DT
    assert max(speeds) == pytest.approx(6.0, abs=1.0)
    assert state.speed < 0.2  # latched stop at the final waypoint
    assert policy.finished
    # stop latch fires 0.3 m early, then braking from 6 m/s takes ~3 m
    assert state.x == pytest.approx(60.0, abs=4.0)


# ---------------------------------------------------------------------------
# golden trace


def test_golden_trace_hash():
    state = _actor(kind="ego", actor_id="ego", speed=0.0)
    trace = []
    for k in range(100):
        cmd = ControlCommand(throttle=0.7 if k < 60 else 0.0,
                             brake=0.0 if k < 60 else 0.6,
                             steering=0.05 * math.sin(k / 10.0))
        state = step_kinematic(state, cmd, PARAMS, DT)
        trace.append({"x": state.x, "y": state.y, "heading": state.heading,
                      "speed": state.speed, "acceleration": state.acceleration})
    digest = canonical.sha256(trace)
    assert digest == canonical.sha256(trace)  # stable within a run
    assert digest == GOLDEN_TRACE_SHA256


# frozen from the first verified run of the model above
GOLDEN_TRACE_SHA256 = "c4c456a2e9ec653c837405c1ee30b6c8d60ecd78ca53b4eb43108ff37cd1745e"
