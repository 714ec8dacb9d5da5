"""Planar geometry primitives shared by the map, simulator, and agents.

Coordinates are meters in a fixed world frame; headings are radians measured
counter-clockwise from the +x axis and normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

TWO_PI = 2.0 * math.pi


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

    Construction validates that consecutive points are at least ``min_spacing``
    apart; degenerate (zero-length) segments break projection and tangent
    queries, so they are rejected up front.
    """

    __slots__ = ("points", "cumlen", "length", "_segments")

    def __init__(self, points: Sequence[tuple[float, float]], min_spacing: float = 1e-3):
        if len(points) < 2:
            raise ValueError("polyline needs at least 2 points")
        pts = [(float(x), float(y)) for x, y in points]
        cum = [0.0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            d = math.hypot(x1 - x0, y1 - y0)
            if d < min_spacing:
                raise ValueError(
                    f"consecutive points closer than {min_spacing} m: "
                    f"({x0}, {y0}) -> ({x1}, {y1})"
                )
            cum.append(cum[-1] + d)
        self.points = pts
        self.cumlen = cum
        self.length = cum[-1]
        # per segment, the terms project() needs, each computed as it would be
        # there: (x0, y0, dx, dy, seg_len**2, s0, seg_len, left normal x, y)
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
        if s <= 0.0:
            return 0
        if s >= self.length:
            return len(self.points) - 2
        lo, hi = 0, len(self.cumlen) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.cumlen[mid] <= s:
                lo = mid
            else:
                hi = mid
        return lo

    def point_at(self, s: float) -> tuple[float, float]:
        s = min(max(s, 0.0), self.length)
        i = self._segment_index(s)
        (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
        seg = self.cumlen[i + 1] - self.cumlen[i]
        t = (s - self.cumlen[i]) / seg
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    def heading_at(self, s: float) -> float:
        i = self._segment_index(min(max(s, 0.0), self.length))
        (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
        return math.atan2(y1 - y0, x1 - x0)

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
            t = min(max(t, 0.0), 1.0)
            px, py = x0 + t * dx, y0 + t * dy
            d2 = (x - px) ** 2 + (y - py) ** 2
            if d2 < best_d2 - 1e-15:
                best_d2 = d2
                best_s = s0 + t * seg_len
                best_lat = (x - px) * nx + (y - py) * ny
        return best_s, best_lat, math.sqrt(best_d2)

    def min_distance_to(self, other: "Polyline", step: float = 0.5) -> tuple[float, float, float]:
        """Coarse closest approach between two polylines.

        Samples ``self`` every ``step`` meters and projects onto ``other``.
        Returns ``(distance, s_self, s_other)``.  Good enough for conflict
        screening on lane-scale geometry; not an exact segment-pair solver.
        """
        best = (math.inf, 0.0, 0.0)
        n = max(2, int(self.length / step) + 1)
        for k in range(n + 1):
            s = min(self.length, k * self.length / n)
            x, y = self.point_at(s)
            s_o, _, d = other.project(x, y)
            if d < best[0]:
                best = (d, s, s_o)
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
