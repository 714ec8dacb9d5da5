"""Per-scenario search feedback extracted from a trace recording.

Three signals drive the algorithms:

* ``fitness``: the closest the ego ever came to another actor (smaller is
  more dangerous; collisions reach zero).  Minimized.
* ``behavior_vector``: 24 numbers summarizing how the ego drove, three
  8-bin histograms over speed, acceleration, and heading rate.  Used for
  novelty search.
* ``quality_score``: how rough the drive was on a 0..1 scale, the mean of
  four normalized components (proximity, harsh acceleration, harsh steering,
  route deviation).  Maximized by quality-guided search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..geometry import Polyline, normalize_angle
from ..runner import ScenarioRecording
from ..simulator import (A_MAX, STEER_MAX, WHEELBASE, actor_distance,
                         actor_distance_lower_bound)

NO_OBSTACLE_FITNESS = 1.0e9
FITNESS_SATURATION = 10.0  # m; anything farther scores as "safe"

SPEED_RANGE = (0.0, 30.0)
ACCEL_RANGE = (-8.0, 4.0)
HEADING_RATE_RANGE = (-2.0, 2.0)
BINS = 8

MOVING_SPEED = 0.5  # m/s; steering harshness is undefined at a standstill


@dataclass(frozen=True)
class Feedback:
    fitness: float
    behavior_vector: tuple[float, ...]
    quality_score: float
    outcome: str
    time_of_decision: float


def trace_min_distance(recording: ScenarioRecording) -> float:
    """Smallest ego-to-other OBB distance across all frames.

    Every ego/other pair is ranked by its circumscribed-circle lower bound,
    and exact distances are computed in that order until a bound reaches the
    best distance so far.  A frame-order scan skips a pair by the same rule
    (bound at or above the best so far), and a pair skipped by either scan
    has a distance no smaller than its bound, so both return the same
    minimum; ranking only makes the cut-off come sooner.  (Rounding can lift
    the bound of two boxes whose corners face each other along the line of
    centres a few ulps above their distance; the scans could then differ
    only if another pair's distance fell inside those few ulps.)
    """
    pairs = []
    for frame in recording.frames:
        ego = next(a for a in frame.actors if a.actor_id == "ego")
        for other in frame.actors:
            if other.actor_id != "ego":
                pairs.append((actor_distance_lower_bound(ego, other), ego, other))
    pairs.sort(key=itemgetter(0))
    best = NO_OBSTACLE_FITNESS
    for bound, ego, other in pairs:
        if bound >= best:
            break
        d = actor_distance(ego, other)
        if d < best:
            best = d
    return best


def _histogram(values, lo: float, hi: float) -> np.ndarray:
    if len(values) == 0:
        return np.zeros(BINS)
    clipped = np.clip(np.asarray(values, dtype=float), lo, hi)
    counts, _ = np.histogram(clipped, bins=BINS, range=(lo, hi))
    return counts / counts.sum()


def behavior_vector(recording: ScenarioRecording) -> tuple[float, ...]:
    egos = [next(a for a in f.actors if a.actor_id == "ego")
            for f in recording.frames]
    times = [f.sim_time for f in recording.frames]
    speeds = [e.speed for e in egos]
    accels = [e.acceleration for e in egos]
    rates = []
    for i in range(len(egos) - 1):
        dt = times[i + 1] - times[i]
        if dt > 0.0:
            rates.append(normalize_angle(egos[i + 1].heading - egos[i].heading) / dt)
    parts = [_histogram(speeds, *SPEED_RANGE),
             _histogram(accels, *ACCEL_RANGE),
             _histogram(rates, *HEADING_RATE_RANGE)]
    return tuple(float(v) for v in np.concatenate(parts))


def quality_score(recording: ScenarioRecording, mission: Polyline,
                  lane_width: float, fitness: float) -> float:
    egos = [next(a for a in f.actors if a.actor_id == "ego")
            for f in recording.frames]
    times = [f.sim_time for f in recording.frames]

    closeness = 1.0 - min(fitness, FITNESS_SATURATION) / FITNESS_SATURATION

    harsh_accel = min(max(abs(e.acceleration) for e in egos) / A_MAX, 1.0)

    harsh_steer = 0.0
    for i in range(len(egos) - 1):
        dt = times[i + 1] - times[i]
        v = egos[i].speed
        if dt <= 0.0 or v < MOVING_SPEED:
            continue
        omega = abs(normalize_angle(egos[i + 1].heading - egos[i].heading)) / dt
        ratio = omega * WHEELBASE / (v * math.tan(STEER_MAX))
        harsh_steer = max(harsh_steer, min(ratio, 1.0))

    half_width = lane_width / 2.0
    off = sum(1 for e in egos
              if abs(mission.project(e.x, e.y)[1]) > half_width)
    deviation = off / len(egos)

    return (closeness + harsh_accel + harsh_steer + deviation) / 4.0


def compute_feedback(recording: ScenarioRecording, mission: Polyline,
                     lane_width: float = 3.5) -> Feedback:
    fitness = trace_min_distance(recording)
    return Feedback(
        fitness=fitness,
        behavior_vector=behavior_vector(recording),
        quality_score=quality_score(recording, mission, lane_width, fitness),
        outcome=recording.verdict.outcome,
        time_of_decision=recording.verdict.time_of_decision,
    )
