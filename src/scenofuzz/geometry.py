"""Planar geometry primitives shared by the map, simulator, and agents.

Coordinates are meters in a fixed world frame; headings are radians measured
counter-clockwise from the +x axis and normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

TWO_PI = 2.0 * math.pi
MIN_SPACING = 1e-3  # m; least distance between consecutive polyline points
SAMPLE_STEP = 0.5   # m; Polyline.min_distance_to's sampling interval
COARSE_STRIDE = 16  # samples; min_distance_to's first pass takes every 16th
# m; more than the rounding error of a distance between lane-scale points, so
# a search may drop a candidate that is farther than its best by this much
PRUNE_MARGIN = 1e-6
# the largest |x| and |y| of a map's centerline point, an NPC waypoint, an
# obstacle or a recorded actor: far beyond any bundled map (a few hundred
# metres across), and far below about 1.3e154, where the squares in
# Polyline.project overflow; a box much further out has edges too short to
# measure
MAX_COORDINATE = 1.0e7  # m


def normalize_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", normalize_angle(self.heading))


def left_normal(heading: float) -> tuple[float, float]:
    """Unit vector pointing 90 degrees to the left of ``heading``."""
    return (-math.sin(heading), math.cos(heading))


class Polyline:
    """A piecewise-linear path with arc-length queries.

    Construction validates that consecutive points are at least ``MIN_SPACING``
    apart; degenerate (zero-length) segments break projection and tangent
    queries, so they are rejected up front.
    """

    __slots__ = ("points", "cumlen", "length", "_segments")

    def __init__(self, points: Sequence[tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("polyline needs at least 2 points")
        pts = [(float(x), float(y)) for x, y in points]
        cum = [0.0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            d = math.hypot(x1 - x0, y1 - y0)
            if d < MIN_SPACING:
                raise ValueError(
                    f"consecutive points closer than {MIN_SPACING} m: "
                    f"({x0}, {y0}) -> ({x1}, {y1})"
                )
            cum.append(cum[-1] + d)
        self.points = pts
        self.cumlen = cum
        self.length = cum[-1]
        # per segment, the terms the path queries need, each computed with the
        # float operations a query would apply to the points:
        # (x0, y0, dx, dy, seg_len**2, s0, seg_len, left normal x, y)
        segments = []
        for i in range(len(pts) - 1):
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            dx, dy = x1 - x0, y1 - y0
            seg_len = cum[i + 1] - cum[i]
            segments.append((x0, y0, dx, dy, seg_len * seg_len, cum[i], seg_len,
                             -dy / seg_len, dx / seg_len))
        self._segments = segments

    def _segment_index(self, s: float) -> int:
        """Index i such that s falls on segment [points[i], points[i+1])."""
        if not s > 0.0:  # also NaN, which bisect would send past the end
            return 0
        if s >= self.length:
            return len(self.points) - 2
        return bisect_right(self.cumlen, s) - 1

    def point_at(self, s: float) -> tuple[float, float]:
        # -0.0 and NaN pass through unchanged
        if s < 0.0:
            s = 0.0
        elif s > self.length:
            s = self.length
        x0, y0, dx, dy, _, s0, seg_len, _, _ = \
            self._segments[self._segment_index(s)]
        t = (s - s0) / seg_len
        return (x0 + t * dx, y0 + t * dy)

    def heading_at(self, s: float) -> float:
        # _segment_index already maps s outside [0, length] to an end segment
        _, _, dx, dy, _, _, _, _, _ = self._segments[self._segment_index(s)]
        return math.atan2(dy, dx)

    def pose_at(self, s: float) -> Pose:
        x, y = self.point_at(s)
        return Pose(x, y, self.heading_at(s))

    def project(self, x: float, y: float) -> tuple[float, float, float]:
        """Project a point onto the polyline.

        Returns ``(s, lateral, distance)`` where ``s`` is the arc length of the
        closest point, ``lateral`` the signed offset (positive to the left of
        the travel direction), and ``distance`` the unsigned distance.  Among
        equally distant segments the smallest ``s`` wins.

        The per-segment terms that do not depend on the point come from
        ``__init__``; they and the per-point terms are computed with the same
        float operations in the same order as from the points each call, so
        the result is the same to the bit.
        """
        best_d2 = math.inf
        best_s = 0.0
        best_lat = 0.0
        for x0, y0, dx, dy, len2, s0, seg_len, nx, ny in self._segments:
            t = ((x - x0) * dx + (y - y0) * dy) / len2
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            px, py = x0 + t * dx, y0 + t * dy
            d2 = (x - px) ** 2 + (y - py) ** 2
            if d2 < best_d2 - 1e-15:
                best_d2 = d2
                best_s = s0 + t * seg_len
                best_lat = (x - px) * nx + (y - py) * ny
        return best_s, best_lat, math.sqrt(best_d2)

    def min_distance_to(self, other: "Polyline") -> tuple[float, float, float]:
        """Coarse closest approach between two polylines.

        Samples ``self`` every ``SAMPLE_STEP`` meters and projects onto ``other``.
        Returns ``(distance, s_self, s_other)`` of the first closest sample.
        Good enough for conflict screening on lane-scale geometry; not an
        exact segment-pair solver.

        Samples that cannot beat the best distance so far are skipped, and
        the result is the same as projecting every sample.  Consecutive
        samples lie one arc step ``length / n`` apart along ``self``, so no
        more than that apart in the plane, and a point's distance to
        ``other`` changes by no more than the point moves.  After a sample at
        distance ``d`` with the best so far ``best``, each of the next
        ``floor((d - best - PRUNE_MARGIN) / step)`` samples is therefore
        farther than ``best`` and can neither beat nor tie it;
        ``PRUNE_MARGIN`` covers the rounding of the distances and sample
        positions.

        A first pass over every ``COARSE_STRIDE``-th sample, pruned by the
        same rule, finds a near sample to start from, so the in-order pass
        that follows skips far samples from its start.  That pass replaces
        the seed with an earlier sample at the same distance, so the first
        closest sample still wins.
        """
        n = max(2, int(self.length / SAMPLE_STEP) + 1)
        step = self.length / n
        best_d, best_k, best = math.inf, 0, (math.inf, 0.0, 0.0)
        for stride in (COARSE_STRIDE, 1):
            k = 0
            while k <= n:
                s = min(self.length, k * self.length / n)
                x, y = self.point_at(s)
                s_o, _, d = other.project(x, y)
                if d < best_d or (d == best_d and k < best_k):
                    best_d, best_k, best = d, k, (d, s, s_o)
                slack = d - best_d - PRUNE_MARGIN
                k += stride * (1 + (int(slack / step) // stride
                                    if slack > 0.0 else 0))
        return best

    def sub_path(self, s_start: float, s_end: float) -> "Polyline":
        """Extract the sub-polyline between two arc lengths (s_start < s_end)."""
        s_start = min(max(s_start, 0.0), self.length)
        s_end = min(max(s_end, 0.0), self.length)
        if s_end - s_start < 1e-3:
            raise ValueError("sub-path too short")
        pts = [self.point_at(s_start)]
        for i, p in enumerate(self.points):
            if s_start + 1e-3 < self.cumlen[i] < s_end - 1e-3:
                pts.append(p)
        pts.append(self.point_at(s_end))
        return Polyline(pts)
