from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from oracles import best_route_by_enumeration
from scenofuzz import lanemap
from scenofuzz.geometry import MAX_COORDINATE
from scenofuzz.lanemap import (MAX_LANE_LENGTH, MapFormatError,
                               load_bundled_map, load_map_document, route,
                               sample_route)


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


def test_load_bundled_map_file(tmp_path, monkeypatch):
    # the bundled maps are read from tmp_path
    monkeypatch.setattr(lanemap, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_doc([_lane("a", [(0, 0), (9, 0)])])))
    assert load_bundled_map("m").lanes["a"].length == pytest.approx(9.0)
    path.write_text("{broken")
    with pytest.raises(MapFormatError, match="m.json: invalid JSON"):
        load_bundled_map("m")
    path.write_bytes('{"name": "caf\u00e9", "lanes": []}'.encode("latin-1"))
    with pytest.raises(MapFormatError, match="m.json: .*utf-8"):
        load_bundled_map("m")


@pytest.mark.parametrize("lanes,message", [
    ([_lane("a", [(0, 0), (1, 0)], width=0.0)],
     "/lanes/0/width: expected a finite number > 0"),
    ([_lane("a", [(0, 0), (1, True)])],
     "/lanes/0/centerline/1: expected an array of 2 finite numbers"),
    ([_lane("a", [(0, 0)])], "/lanes/0/centerline: expected at least 2 items"),
    ([_lane("a", [(0, 0), (1, 0)]), _lane("a", [(2, 0), (3, 0)])],
     "/lanes/1/id: duplicate lane id 'a'"),
    ([dict(_lane("a", [(0, 0), (1, 0)]), colour="red")],
     "/lanes/0: unknown keys ['colour']"),
    ([_lane("a", [(0, 0), (1, 0)], succ=[""])],
     "/lanes/0/successors/0: expected a non-empty string"),
    # past MAX_COORDINATE: a segment's length rounds away or overflows
    ([_lane("a", [(0, 0), (1, 2**70)])],
     "/lanes/0/centerline/1: expected |x| and |y| <= 10000000.0"),
    ([_lane("a", [(0, 0), (1, 0)]), _lane("b", [(-1e308, 0), (1, 0)])],
     "/lanes/1/centerline/0: expected |x| and |y| <= 10000000.0"),
    ([_lane("a", [(0, 0), (1, 0), (1, -1.0000001e7)])],
     "/lanes/0/centerline/2: expected |x| and |y| <= 10000000.0"),
])
def test_faults_are_named_by_json_pointer(lanes, message):
    with pytest.raises(MapFormatError) as caught:
        load_map_document(_doc(lanes))
    assert str(caught.value) == message


@pytest.mark.parametrize("points,length", [
    ([(0, 0), (MAX_LANE_LENGTH + 0.5, 0)], "10000.5"),
    ([(-MAX_COORDINATE, 0), (MAX_COORDINATE, 0)], "2e+07"),
    ([(0, 0), (6000, 0), (0, 0.5)], "12000"),
])
def test_a_lane_longer_than_the_bound_is_refused(points, length):
    """A template's conflict search is linear in lane length, so a lane
    the coordinate bound admits could cost seconds to search."""
    with pytest.raises(MapFormatError) as caught:
        load_map_document(_doc([_lane("a", [(0, 0), (1, 0)]),
                                _lane("b", points)]))
    assert str(caught.value) == (
        f"/lanes/1/centerline: expected a length <= 10000 m, got {length}")


def test_a_lane_at_the_length_bound_loads():
    lane_map = load_map_document(_doc([_lane("a", [(0, 0),
                                                   (MAX_LANE_LENGTH, 0)])]))
    assert lane_map.lanes["a"].length == MAX_LANE_LENGTH


def test_a_point_at_the_coordinate_bound_loads():
    far = MAX_COORDINATE
    lane_map = load_map_document(_doc([_lane("a", [(far - 9, -far),
                                                   (far, -far)])]))
    assert lane_map.lanes["a"].length == pytest.approx(9.0)


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
