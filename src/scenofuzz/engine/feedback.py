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

Every frame holds the ego first (``runner.initial_world`` spawns it first,
``simulator.step_world`` keeps the order, ``runner.read_recording`` checks
it), so both walks read it as ``frame.actors[0]`` and refuse a frame that
breaks this with a ``ValueError`` naming the frame's index.

``compute_feedback`` gets the last two from one walk over the ego's frames,
and each heading rate is computed once, for the histogram signed and for
harsh steering as ``abs(rate)``.  That equals ``abs(angle) / dt`` to the
bit, because IEEE division rounds the same for either sign.  Each ego's
lateral offset from the mission comes from ``bridge.route_lateral``: the
offset the reference agent kept when it projected the state onto the
mission object itself (the same call on the same object and floats gives
the same bits), or, for an external agent, a recording read from disk or
the last frame, which no agent saw, a projection made there.

The histograms count in plain Python against ``np.linspace`` edges, with
``np.histogram``'s bin rule: bin ``i`` holds ``edges[i] <= x < edges[i+1]``,
the upper limit falls in the last bin, and a value outside the range counts
in the nearest end bin, as it did after ``np.clip``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..bridge import route_lateral
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
    minimum; ranking only makes the cut-off come sooner.  The bound is
    ``simulator.actor_distance_lower_bound``, which is at most the distance
    for every coordinate within ``geometry.MAX_COORDINATE``.
    """
    pairs = []
    for index, frame in enumerate(recording.frames):
        actors = frame.actors
        if not actors or actors[0].actor_id != "ego":
            found = repr(actors[0].actor_id) if actors else "no actors"
            raise ValueError(f"frame {index}: expected the ego first, "
                             f"got {found}")
        ego = actors[0]
        for other in actors[1:]:
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


def _inner_edges(lo: float, hi: float) -> tuple[float, ...]:
    """np.histogram's bin edges for ``BINS`` bins over lo..hi, ends dropped."""
    return tuple(np.linspace(lo, hi, BINS + 1)[1:-1].tolist())


SPEED_EDGES = _inner_edges(*SPEED_RANGE)
ACCEL_EDGES = _inner_edges(*ACCEL_RANGE)
HEADING_RATE_EDGES = _inner_edges(*HEADING_RATE_RANGE)


def _histogram(values: list[float], inner_edges: tuple[float, ...]) -> list[float]:
    """Share of the finite ``values`` in each bin between ``inner_edges``."""
    if not values:
        return [0.0] * BINS
    counts = [0] * BINS
    for x in values:
        counts[bisect_right(inner_edges, x)] += 1
    total = len(values)
    return [count / total for count in counts]


def compute_feedback(recording: ScenarioRecording, mission: Polyline,
                     lane_width: float = 3.5) -> Feedback:
    if not recording.frames:  # a summary-only recording read back
        raise ValueError("recording has no frames")
    # trace_min_distance has refused a frame whose first actor is not the ego
    fitness = trace_min_distance(recording)
    half_width = lane_width / 2.0
    speeds, accels, rates = [], [], []
    harsh_steer = 0.0
    off_lane = 0
    before = before_time = None  # the previous frame's ego and time
    for frame in recording.frames:
        ego = frame.actors[0]
        speeds.append(ego.speed)
        accels.append(ego.acceleration)
        if abs(route_lateral(mission, ego)) > half_width:
            off_lane += 1
        if before is not None:
            dt = frame.sim_time - before_time
            if dt > 0.0:
                rate = normalize_angle(ego.heading - before.heading) / dt
                rates.append(rate)
                v = before.speed
                if v >= MOVING_SPEED:
                    ratio = abs(rate) * WHEELBASE / (v * math.tan(STEER_MAX))
                    harsh_steer = max(harsh_steer, min(ratio, 1.0))
        before, before_time = ego, frame.sim_time

    behavior = (_histogram(speeds, SPEED_EDGES) + _histogram(accels, ACCEL_EDGES)
                + _histogram(rates, HEADING_RATE_EDGES))
    closeness = 1.0 - min(fitness, FITNESS_SATURATION) / FITNESS_SATURATION
    harsh_accel = min(max(map(abs, accels)) / A_MAX, 1.0)
    deviation = off_lane / len(speeds)
    return Feedback(
        fitness=fitness,
        behavior_vector=tuple(behavior),
        quality_score=(closeness + harsh_accel + harsh_steer + deviation) / 4.0,
        outcome=recording.verdict.outcome,
        time_of_decision=recording.verdict.time_of_decision,
    )
