from __future__ import annotations

import json
import math

import numpy as np
import pytest

from oracles import best_route_by_enumeration, project_point_sampled
from scenofuzz.lanemap import (MapFormatError, load_bundled_map, load_map,
                               load_map_document, project, route, sample_route)


def _doc(lanes):
    return {"name": "test", "lanes": lanes}


def _lane(lid, pts, succ=(), pred=(), width=3.5):
    return {"id": lid, "width": width, "centerline": [list(p) for p in pts],
            "successors": list(succ), "predecessors": list(pred)}


def test_bundled_chain_has_three_lanes(chain_map):
    assert len(chain_map.lanes) == 3
    assert set(chain_map.lanes) == {"lane_a", "lane_b", "lane_c"}
    assert chain_map.lanes["lane_a"].length == pytest.approx(100.0)


def test_minimal_single_lane_document():
    m = load_map_document(_doc([_lane("only", [(0, 0), (5, 0)])]))
    assert m.lanes["only"].length == pytest.approx(5.0)


def test_dangling_successor_rejected():
    with pytest.raises(MapFormatError, match="missing lane"):
        load_map_document(_doc([_lane("a", [(0, 0), (5, 0)], succ=["ghost"])]))


def test_bad_documents_rejected():
    with pytest.raises(MapFormatError):
        load_map_document(_doc([_lane("a", [(0, 0)])]))  # one point
    with pytest.raises(MapFormatError):
        load_map_document(_doc([_lane("a", [(0, 0), (0, 0)])]))  # zero spacing
    with pytest.raises(MapFormatError):
        load_map_document(_doc([_lane("a", [(0, 0), (1, 0)], width=0.0)]))
    with pytest.raises(MapFormatError):
        load_map_document(_doc([_lane("a", [(0, 0), (1, 0)]),
                                _lane("a", [(2, 0), (3, 0)])]))
    with pytest.raises(MapFormatError):
        load_map_document({"name": "x", "lanes": []})


@pytest.mark.parametrize("lane", [
    _lane("a", [(0, 0), (1, 0)], width=True),
    _lane("a", [(0, 0), (1, 0)], width=float("nan")),
    _lane("a", [(0, 0), (1, 0)], width=float("inf")),
    _lane("a", [(0, 0), (1, 0)], width="3.5"),
    _lane("a", [(0, 0), (float("nan"), 0)]),
    _lane("a", [(0, 0), (1, float("inf"))]),
    _lane("a", [(0, 0), (1, True)]),
    _lane("a", [(0, 0), (1, 10**400)]),
], ids=["bool-width", "nan-width", "inf-width", "string-width", "nan-x",
        "inf-y", "bool-y", "huge-y"])
def test_non_finite_numbers_rejected(lane):
    with pytest.raises(MapFormatError, match="finite"):
        load_map_document(_doc([lane]))


def test_load_map_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_doc([_lane("a", [(0, 0), (9, 0)])])))
    assert load_map(path).lanes["a"].length == pytest.approx(9.0)
    path.write_text("{broken")
    with pytest.raises(MapFormatError, match="invalid JSON"):
        load_map(path)
    path.write_bytes('{"name": "caf\u00e9", "lanes": []}'.encode("latin-1"))
    with pytest.raises(MapFormatError, match="m.json: .*utf-8"):
        load_map(path)


def test_route_chain(chain_map):
    rt = route(chain_map, "lane_a", "lane_c")
    assert rt.lane_sequence == ("lane_a", "lane_b", "lane_c")
    assert rt.path.length == pytest.approx(300.0, abs=1e-6)


def test_route_single_lane(chain_map):
    rt = route(chain_map, "lane_b", "lane_b")
    assert rt.lane_sequence == ("lane_b",)
    assert rt.path.length == pytest.approx(100.0)


def test_route_no_path(chain_map):
    with pytest.raises(ValueError, match="no route"):
        route(chain_map, "lane_c", "lane_a")


def test_route_tie_break_is_lexicographic(diamond_map):
    rt = route(diamond_map, "lane_a", "lane_c")
    assert rt.lane_sequence == ("lane_a", "lane_b1", "lane_c")


def test_route_matches_exhaustive_enumeration(diamond_map, junction_map):
    for m in (diamond_map, junction_map):
        lengths = {lid: lane.length for lid, lane in m.lanes.items()}
        succ = {lid: sorted(lane.successors) for lid, lane in m.lanes.items()}
        ids = sorted(m.lanes)
        for start in ids:
            for end in ids:
                expected = best_route_by_enumeration(lengths, succ, start, end)
                if expected is None:
                    with pytest.raises(ValueError):
                        route(m, start, end)
                    continue
                rt = route(m, start, end)
                assert rt.lane_sequence == expected[1]
                assert rt.path.length == pytest.approx(expected[0], abs=1e-6)


def test_project_analytic(chain_map):
    lane_id, s, lat = project(chain_map, 50.0, 1.5)
    assert lane_id == "lane_a"
    assert s == pytest.approx(50.0)
    assert lat == pytest.approx(1.5)
    lane_id, s, lat = project(chain_map, 150.0, -0.25)
    assert (lane_id, s) == ("lane_b", pytest.approx(50.0))
    assert lat == pytest.approx(-0.25)


def test_project_matches_bruteforce_scan(junction_map):
    rng = np.random.default_rng(42)
    for _ in range(40):
        x, y = rng.uniform(-110, 110), rng.uniform(-110, 110)
        lane_id, s, lat = project(junction_map, x, y)
        # oracle: densely sample every lane, take the best
        best = (math.inf, None, 0.0)
        for lid in sorted(junction_map.lanes):
            s_ref, d_ref = project_point_sampled(
                junction_map.lanes[lid].path.points, x, y, step=0.01)
            if d_ref < best[0] - 1e-9:
                best = (d_ref, lid, s_ref)
        assert math.hypot(lat, 0) == pytest.approx(abs(lat))
        d_impl = junction_map.lanes[lane_id].path.project(x, y)[2]
        assert d_impl <= best[0] + 1e-3
        if best[0] > 1e-6 and d_impl < best[0] - 1e-3:
            pytest.fail("implementation found a closer lane than the oracle scan")
        if lane_id == best[1]:
            assert s == pytest.approx(best[2], abs=2e-2)


def test_sample_route_counts(chain_map):
    # 10 m stretch: spacing 5 -> poses at s = 0, 5, 10
    sub = route(chain_map, "lane_a", "lane_a")
    poses = sample_route(sub, 5.0)
    assert len(poses) == 21  # 100 m lane: 0,5,...,95 plus the end
    assert poses[0].x == pytest.approx(0.0)
    assert poses[-1].x == pytest.approx(100.0)
    huge = sample_route(sub, 500.0)
    assert len(huge) == 2  # start and end only


def test_sample_route_heading_follows_arc(junction_map):
    rt = route(junction_map, "lane_11", "lane_11")  # quarter circle, r = 10
    poses = sample_route(rt, 1.0)
    # headings advance like s / r; tolerance of one polyline facet
    for i, pose in enumerate(poses[:-1]):
        s = min(i * 1.0, rt.path.length)
        expected = math.pi / 2 + s / 10.0
        assert pose.heading == pytest.approx(expected, abs=0.12)
    # chord tangents at the two ends each sit half a facet inward
    total_turn = poses[-1].heading - poses[0].heading
    assert total_turn == pytest.approx(math.pi / 2, abs=0.11)


def test_junction_map_archetypes(junction_map):
    crossing = route(junction_map, "lane_31", "lane_15")
    assert crossing.lane_sequence == ("lane_31", "lane_10", "lane_15")
    left_turn = route(junction_map, "lane_31", "lane_16")
    assert left_turn.lane_sequence == ("lane_31", "lane_11", "lane_16")


def test_bundled_alias():
    m = load_bundled_map("borregas_ave")
    assert "lane_31" in m.lanes and "lane_15" in m.lanes
    with pytest.raises(MapFormatError, match="no bundled map"):
        load_bundled_map("nowhere")
