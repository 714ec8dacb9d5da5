"""Independent reference implementations used to cross-check the package.

Nothing in here calls the code under test for the quantity being checked:
the bicycle integrator is a standalone loop run at a much finer step, the
OBB distance is dense boundary sampling, routing is exhaustive path
enumeration, projection is a brute-force scan, the closest approach of two
polylines projects every sample, the recording document is built as plain
dicts for ``canonical.dumps`` to encode, and the reference agent's step
computes its route guidance afresh on every call.
"""

from __future__ import annotations

import math

import numpy as np

from scenofuzz.bridge import (COMFORT_BRAKE, HARD_STOP_GAP, LAT_ACCEL_MAX,
                              OFF_ROUTE_LIMIT, TIME_HEADWAY, ControlMessage)
from scenofuzz.geometry import SAMPLE_STEP, normalize_angle
from scenofuzz.runner import RECORDING_SCHEMA_VERSION
from scenofuzz.scenario import to_document
from scenofuzz.simulator import ControlCommand, pure_pursuit_steering


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


def recording_document(rec, include_wall_clock=True, include_frames=True):
    """The document ``runner.recording_bytes`` must encode byte for byte."""
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
