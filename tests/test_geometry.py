from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import (min_distance_every_sample, project_point_sampled,
                     sample_distances)
from scenofuzz.engine.template import onward_route
from scenofuzz.geometry import (COARSE_STRIDE, Polyline, Pose, left_normal,
                                normalize_angle)


def test_normalize_angle_range():
    rng = np.random.default_rng(7)
    for a in rng.uniform(-50, 50, size=500):
        w = normalize_angle(float(a))
        assert -math.pi < w <= math.pi
        # same direction
        assert abs(math.sin(w) - math.sin(a)) < 1e-12
        assert abs(math.cos(w) - math.cos(a)) < 1e-12


def test_normalize_angle_boundary():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi
    assert normalize_angle(3 * math.pi) == math.pi
    assert normalize_angle(0.0) == 0.0


def test_pose_normalizes_heading():
    assert Pose(0, 0, 2 * math.pi + 0.25).heading == pytest.approx(0.25)


def test_left_normal():
    nx, ny = left_normal(0.0)  # heading east -> left is +y
    assert (nx, ny) == pytest.approx((0.0, 1.0))
    nx, ny = left_normal(math.pi / 2)  # heading north -> left is -x
    assert (nx, ny) == pytest.approx((-1.0, 0.0))


def test_polyline_basics():
    line = Polyline([(0, 0), (3, 0), (3, 4)])
    assert line.length == pytest.approx(7.0)
    assert line.point_at(0.0) == (0.0, 0.0)
    assert line.point_at(3.0) == pytest.approx((3.0, 0.0))
    assert line.point_at(5.0) == pytest.approx((3.0, 2.0))
    assert line.point_at(100.0) == pytest.approx((3.0, 4.0))  # clamps
    assert line.heading_at(1.0) == pytest.approx(0.0)
    assert line.heading_at(5.0) == pytest.approx(math.pi / 2)


def test_polyline_rejects_degenerate():
    with pytest.raises(ValueError):
        Polyline([(0, 0)])
    with pytest.raises(ValueError):
        Polyline([(0, 0), (0, 0), (1, 0)])


def test_project_signed_lateral():
    line = Polyline([(0, 0), (10, 0)])  # west to east
    s, lat, dist = line.project(4.0, 1.5)
    assert s == pytest.approx(4.0)
    assert lat == pytest.approx(1.5)  # left of travel
    assert dist == pytest.approx(1.5)
    s, lat, dist = line.project(4.0, -2.0)
    assert lat == pytest.approx(-2.0)


def test_project_matches_dense_sampling_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = rng.integers(2, 6)
        pts = np.cumsum(rng.uniform(-5, 5, size=(n, 2)), axis=0)
        # enforce min spacing
        pts[:, 0] += np.arange(n) * 6.0
        line = Polyline([tuple(p) for p in pts])
        for _ in range(10):
            x, y = rng.uniform(-10, 40), rng.uniform(-15, 15)
            s, _, dist = line.project(x, y)
            s_ref, d_ref = project_point_sampled(line.points, x, y, step=0.005)
            assert dist == pytest.approx(d_ref, abs=5e-3)
            # s may legitimately differ when two segments are near-equidistant
            if abs(dist - d_ref) < 1e-6:
                assert abs(s - s_ref) < 1e-2 or abs(dist - d_ref) < 1e-9


# ---------------------------------------------------------------------------
# reference: the projection that recomputed every segment's terms from the
# points on each call.  Polyline.project must give the same floats.


def _reference_project(line, x, y):
    best_d2 = math.inf
    best_s = 0.0
    best_lat = 0.0
    for i in range(len(line.points) - 1):
        x0, y0 = line.points[i]
        x1, y1 = line.points[i + 1]
        dx, dy = x1 - x0, y1 - y0
        seg_len = line.cumlen[i + 1] - line.cumlen[i]
        t = ((x - x0) * dx + (y - y0) * dy) / (seg_len * seg_len)
        t = min(max(t, 0.0), 1.0)
        px, py = x0 + t * dx, y0 + t * dy
        d2 = (x - px) ** 2 + (y - py) ** 2
        if d2 < best_d2 - 1e-15:
            best_d2 = d2
            best_s = line.cumlen[i] + t * seg_len
            best_lat = (x - px) * (-dy / seg_len) + (y - py) * (dx / seg_len)
    return best_s, best_lat, math.sqrt(best_d2)


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _seeded_polyline(rng):
    n = int(rng.integers(2, 14))
    steps = rng.uniform(0.5, 10.0, size=n - 1)
    turns = np.cumsum(rng.uniform(-2.0, 2.0, size=n - 1))
    pts = [(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))]
    for step, turn in zip(steps.tolist(), turns.tolist()):
        x, y = pts[-1]
        pts.append((x + step * math.cos(turn), y + step * math.sin(turn)))
    return pts


def test_project_equals_reference_on_seeded_points():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        pts = _seeded_polyline(rng)
        line = Polyline(pts)
        xs, ys = zip(*pts)
        queries = [(float(rng.uniform(min(xs) - 10, max(xs) + 10)),
                    float(rng.uniform(min(ys) - 10, max(ys) + 10)))
                   for _ in range(50)]
        queries += pts  # on the vertices
        queries += [((xa + xb) / 2, (ya + yb) / 2)
                    for (xa, ya), (xb, yb) in zip(pts, pts[1:])]
        for x, y in queries:
            assert _bits(line.project(x, y)) == \
                _bits(_reference_project(line, x, y)), (pts, x, y)


# ---------------------------------------------------------------------------
# references: the arc-length lookups as a hand-written binary search and
# min/max clamps, reading the points on each call.  The lookups must return
# the same index and the same floats.


def _reference_segment_index(line, s):
    if s <= 0.0:
        return 0
    if s >= line.length:
        return len(line.points) - 2
    lo, hi = 0, len(line.cumlen) - 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if line.cumlen[mid] <= s:
            lo = mid
        else:
            hi = mid
    return lo


def _reference_point_at(line, s):
    s = min(max(s, 0.0), line.length)
    i = _reference_segment_index(line, s)
    (x0, y0), (x1, y1) = line.points[i], line.points[i + 1]
    seg = line.cumlen[i + 1] - line.cumlen[i]
    t = (s - line.cumlen[i]) / seg
    return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))


def _reference_heading_at(line, s):
    i = _reference_segment_index(line, min(max(s, 0.0), line.length))
    (x0, y0), (x1, y1) = line.points[i], line.points[i + 1]
    return math.atan2(y1 - y0, x1 - x0)


def _arc_lengths(line):
    """Every vertex of cumlen and its neighbouring floats, both ends, beyond
    both ends, signed zeros, NaN, infinities and non-float numbers."""
    values = [0.0, -0.0, line.length, -1.0, -1e-300, line.length + 1.0,
              2 * line.length, math.nan, math.inf, -math.inf, 0, 1, True,
              np.float64(line.length / 3), np.float64(math.nan)]
    for c in line.cumlen:
        values += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
    values += [(a + b) / 2 for a, b in zip(line.cumlen, line.cumlen[1:])]
    return values


def _assert_lookups_equal_reference(line, values):
    for s in values:
        assert line._segment_index(s) == _reference_segment_index(line, s), s
        assert _bits(line.point_at(s)) == _bits(_reference_point_at(line, s)), s
        assert _bits([line.heading_at(s)]) == \
            _bits([_reference_heading_at(line, s)]), s


@pytest.mark.parametrize("points", [
    [(0, 0), (10, 0)],
    [(0, 0), (10, 0), (10, 10)],
    [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)],
    [(0.0, 0.0), (1e-3, 0.0), (1e-3, 5e-3), (7.25, 5e-3)],
    [(-0.0, -0.0), (5.0, 3.0), (-2.0, 8.0)],  # x0 + (-0.0) keeps the sign
], ids=["one-segment", "corner", "zigzag", "short-segments", "signed-zero"])
def test_lookups_equal_reference_at_edges(points):
    line = Polyline(points)
    _assert_lookups_equal_reference(line, _arc_lengths(line))


def test_lookups_equal_reference_on_seeded_paths():
    rng = np.random.default_rng(4242)
    for _ in range(200):
        line = Polyline(_seeded_polyline(rng))
        values = _arc_lengths(line)
        values += [float(v) for v in
                   rng.uniform(-5.0, line.length + 5.0, size=30)]
        _assert_lookups_equal_reference(line, values)


def test_project_equals_reference_at_nan_coordinates():
    line = Polyline([(0, 0), (10, 0), (10, 10)])
    for x, y in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
                 (math.inf, 0.0), (-0.0, -0.0), (5.0, -0.0)):
        assert _bits(line.project(x, y)) == \
            _bits(_reference_project(line, x, y)), (x, y)


def test_project_ties_keep_the_smallest_s():
    # a U turn: (5, 1) is 1 m from the first and the last segment
    u_turn = Polyline([(0, 0), (10, 0), (10, 2), (0, 2)])
    assert u_turn.project(5.0, 1.0) == (5.0, 1.0, 1.0)
    # beyond a corner: the same closest point ends one segment, starts the next
    corner = Polyline([(0, 0), (10, 0), (10, 10)])
    assert corner.project(11.0, -1.0)[0] == 10.0
    # a zigzag whose every vertex is equidistant from a point far below it
    zigzag = Polyline([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)])
    for line, (x, y) in ((u_turn, (5.0, 1.0)), (u_turn, (10.5, 1.0)),
                         (u_turn, (-3.0, 1.0)), (corner, (11.0, -1.0)),
                         (zigzag, (2.0, -5.0)), (zigzag, (1.0, 0.5))):
        assert _bits(line.project(x, y)) == _bits(_reference_project(line, x, y))


def test_sub_path():
    line = Polyline([(0, 0), (10, 0), (10, 10)])
    sub = line.sub_path(2.0, 14.0)
    assert sub.length == pytest.approx(12.0)
    assert sub.points[0] == pytest.approx((2.0, 0.0))
    assert sub.points[-1] == pytest.approx((10.0, 4.0))
    assert (10.0, 0.0) in [(round(x, 9), round(y, 9)) for x, y in sub.points]


def test_min_distance_between_crossing_polylines():
    a = Polyline([(0, -50), (0, 50)])
    b = Polyline([(-50, 0), (50, 0)])
    d, s_a, s_b = a.min_distance_to(b)
    assert d < 0.5
    assert s_a == pytest.approx(50.0, abs=1.0)
    assert s_b == pytest.approx(50.0, abs=1.0)


def _grid_pair(rng):
    """Integer points and a shifted copy: samples along a segment and its
    copy tie at the least distance."""
    pts = [(int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))]
    while len(pts) < 2 or rng.random() < 0.7:
        p = (int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
        if p != pts[-1]:
            pts.append(p)
    dx, dy = (int(v) for v in rng.integers(-3, 4, size=2))
    return pts, [(x + dx, y + dy) for x, y in pts]


def test_min_distance_ties_keep_the_first_sample():
    parallel = Polyline([(0, 0), (10, 0)])
    assert parallel.min_distance_to(Polyline([(0, 3), (10, 3)])) == \
        (3.0, 0.0, 0.0)
    # both ends tie, with farther samples between them
    roof = Polyline([(0, 0), (5, 5), (10, 0)])
    assert roof.min_distance_to(Polyline([(-5, -1), (15, -1)])) == \
        (1.0, 0.0, 5.0)


def test_min_distance_ties_off_the_coarse_grid_keep_the_first_sample():
    # above two flat stretches of other, each holding one sample: the first
    # is off every COARSE_STRIDE-th sample, the second on it
    line = Polyline([(0, 0), (40, 0)])
    other = Polyline([(2.3, -1), (2.6, -1), (9, -5), (15.6, -1), (16, -1)])
    samples = sample_distances(line, other)
    ties = [k for k, (d, _, _) in enumerate(samples) if d == 1.0]
    assert min(d for d, _, _ in samples) == 1.0
    assert ties[0] % COARSE_STRIDE and not ties[1] % COARSE_STRIDE
    assert line.min_distance_to(other) == samples[ties[0]]


def test_min_distance_equals_every_sample_on_seeded_polylines():
    rng = np.random.default_rng(4711)
    ties = 0
    for i in range(400):
        if i % 2:
            pair = _seeded_polyline(rng), _seeded_polyline(rng)
        else:
            pair = _grid_pair(rng)
        line, other = Polyline(pair[0]), Polyline(pair[1])
        samples = sample_distances(line, other)
        expected = min_distance_every_sample(line, other)
        assert _bits(line.min_distance_to(other)) == _bits(expected), pair
        ties += [d for d, _, _ in samples].count(expected[0]) > 1
    assert ties > 50  # the first of several closest samples must win


def test_min_distance_equals_every_sample_on_bundled_maps(bundled_missions):
    cases = 0
    for lane_map, mission in bundled_missions:
        for lane_id in sorted(lane_map.lanes):
            path = onward_route(lane_map, lane_id).path
            assert _bits(path.min_distance_to(mission.path)) == \
                _bits(min_distance_every_sample(path, mission.path))
            cases += 1
    assert cases == 190
