from __future__ import annotations

import dataclasses
import math
import random
import struct

import numpy as np
import pytest

from oracles import flatten_onto, validate_in_two_passes
from scenofuzz import canonical
from scenofuzz.canonical import Cursor
from scenofuzz.engine.template import MissionSpec, build_template
from scenofuzz.geometry import MIN_SPACING, Pose
from scenofuzz.lanemap import bundled_map_names, load_bundled_map
from scenofuzz.runner import RunnerError, run_scenario
from scenofuzz.scenario import (MAX_BODY_DIM, MAX_COORDINATE, MIN_BODY_DIM,
                                BodyDims, EgoSpec, MutationSpace, NpcSpec,
                                ObstacleSpec, ScenarioConfig, flatten,
                                from_cursor, to_document, unflatten, validate)
from scenofuzz.simulator import BOUND_ROUNDING_MARGIN, WaypointPolicy

SPAWN_SEED = 45
SPAWN_CASES = 2000
# a good body, one wider than long and one thinner than MIN_BODY_DIM
SPAWN_BODIES = (BodyDims(), BodyDims(2.0, 4.8), BodyDims(4.8, MIN_BODY_DIM / 2))


class DocumentError(ValueError):
    """What the cursor these tests read scenario documents with raises."""


def _read(doc) -> ScenarioConfig:
    return from_cursor(Cursor(doc, DocumentError))


def _text(config: ScenarioConfig) -> str:
    return canonical.dumps(to_document(config))


def _npc(actor_id="npc_1", x0=150.0, y0=0.0, n_wp=3, speed=8.0, delay=0.0):
    waypoints = tuple(Pose(x0 + 20.0 * i, y0, 0.0) for i in range(n_wp))
    return NpcSpec(actor_id=actor_id, waypoints=waypoints,
                   target_speeds=tuple([speed] * (n_wp - 1)), spawn_delay=delay)


def _scenario(npcs=(), obstacles=(), start_station=10.0):
    return ScenarioConfig(
        scenario_id="fixture_chain",
        map_name="chain_3",
        ego=EgoSpec("lane_a", start_station, "lane_c", 50.0),
        npc_vehicles=tuple(npcs),
        obstacles=tuple(obstacles),
        duration_limit=45.0,
    )


def test_json_round_trip_identity():
    config = _scenario(npcs=[_npc(), _npc("npc_2", y0=30.0, delay=2.5)],
                       obstacles=[ObstacleSpec("rock", Pose(40.0, 12.0, 1.0),
                                               BodyDims(3.0, 2.0))])
    assert _read(canonical.loads(_text(config))) == config


def test_serialization_is_stable():
    config = _scenario(npcs=[_npc(), _npc("npc_2", y0=30.0),
                             _npc("npc_3", y0=60.0, speed=1.0 / 3.0)])
    first, second = _text(config), _text(config)
    assert first == second
    # awkward floats survive the trip exactly
    assert _read(canonical.loads(first)).npc_vehicles[2].target_speeds[0] == 1.0 / 3.0


def test_format_errors_carry_paths():
    config = _scenario(npcs=[_npc()])
    doc = canonical.loads(_text(config))

    broken = dict(doc)
    del broken["ego"]
    with pytest.raises(DocumentError, match=r"missing keys.*ego"):
        _read(broken)

    broken = canonical.loads(_text(config))
    broken["ego"]["start_station"] = "ten"
    with pytest.raises(DocumentError, match=r"/ego/start_station"):
        _read(broken)

    broken = canonical.loads(_text(config))
    broken["npc_vehicles"][0]["waypoints"][1]["x"] = None
    with pytest.raises(DocumentError, match=r"/npc_vehicles/0/waypoints/1"):
        _read(broken)

    broken = canonical.loads(_text(config))
    broken["extra"] = 1
    with pytest.raises(DocumentError, match="unknown keys"):
        _read(broken)

    broken = canonical.loads(_text(config))
    broken["schema_version"] = 99
    with pytest.raises(DocumentError, match="schema_version"):
        _read(broken)

    broken = canonical.loads(_text(config))
    broken["schema_version"] = True  # equal to 1 in Python, not in JSON
    with pytest.raises(DocumentError,
                       match="/schema_version: expected an integer"):
        _read(broken)

    broken = canonical.loads(_text(config))
    broken["npc_vehicles"][0]["kind"] = "pedestrian"
    with pytest.raises(DocumentError, match="actor kind"):
        _read(broken)


@pytest.mark.parametrize("number", ["1" + "0" * 400, "1e400", "NaN",
                                    "-Infinity"],
                         ids=["huge-integer", "huge-float", "nan", "-inf"])
def test_non_finite_numbers_are_format_errors(number):
    text = _text(_scenario())
    broken = text.replace('"duration_limit":45.0',
                          f'"duration_limit":{number}')
    assert broken != text
    with pytest.raises(DocumentError,
                       match="/duration_limit: expected a finite number"):
        _read(canonical.loads(broken))


def test_validate_accepts_fixture(chain_map):
    assert validate(_scenario(npcs=[_npc()]), chain_map) == []


def test_validate_catches_violations(chain_map):
    # ego spawn on top of an obstacle
    config = _scenario(obstacles=[ObstacleSpec("rock", Pose(10.0, 0.0, 0.0))])
    codes = {v.code for v in validate(config, chain_map)}
    assert "InitialOverlap" in codes

    config = _scenario(npcs=[_npc("ego")])  # reserved id
    assert any(v.code == "DuplicateActorId" for v in validate(config, chain_map))

    config = ScenarioConfig("s", "chain_3", EgoSpec("lane_zz", 0.0, "lane_c", 5.0))
    assert any(v.code == "UnknownLane" for v in validate(config, chain_map))

    config = ScenarioConfig("s", "chain_3", EgoSpec("lane_a", 500.0, "lane_c", 5.0))
    assert any(v.code == "StationOutOfRange" for v in validate(config, chain_map))

    bad_speeds = NpcSpec("npc_1", (Pose(150, 0, 0), Pose(170, 0, 0)),
                         (8.0, 8.0))  # two speeds for one segment
    config = _scenario(npcs=[bad_speeds])
    assert any(v.code == "SpeedCountMismatch" for v in validate(config, chain_map))

    fast = NpcSpec("npc_1", (Pose(150, 0, 0), Pose(170, 0, 0)), (99.0,))
    assert any(v.code == "SpeedOutOfRange"
               for v in validate(_scenario(npcs=[fast]), chain_map))

    lone = NpcSpec("npc_1", (Pose(150, 0, 0),), ())
    assert any(v.code == "TooFewWaypoints"
               for v in validate(_scenario(npcs=[lone]), chain_map))

    late = NpcSpec("npc_1", (Pose(150, 0, 0), Pose(170, 0, 0)), (8.0,),
                   spawn_delay=-1.0)
    assert any(v.code == "NegativeSpawnDelay"
               for v in validate(_scenario(npcs=[late]), chain_map))

    config = ScenarioConfig("s", "chain_3", EgoSpec("lane_a", 0.0, "lane_c", 5.0),
                            duration_limit=0.0)
    assert any(v.code == "NonPositiveDuration" for v in validate(config, chain_map))


def _two_waypoints(gap: float) -> NpcSpec:
    # along y from 0.0, so the waypoints lie exactly ``gap`` apart
    return NpcSpec("npc_1", (Pose(150.0, 0.0, 0.0), Pose(150.0, gap, 0.0)),
                   (8.0,))


def test_waypoints_min_spacing_apart_pass_and_build(chain_map):
    npc = _two_waypoints(MIN_SPACING)
    assert validate(_scenario(npcs=[npc]), chain_map) == []
    assert WaypointPolicy(npc).path.length == MIN_SPACING


def test_waypoints_closer_than_min_spacing_are_refused(chain_map):
    npc = _two_waypoints(math.nextafter(MIN_SPACING, 0.0))
    assert [v.code for v in validate(_scenario(npcs=[npc]), chain_map)] == \
        ["WaypointSpacing"]


@pytest.mark.parametrize("length,width", [(0.0, 0.0), (4.8, 0.0),
                                          (-0.0, -0.0), (4.8, -0.0),
                                          (4.8, 5e-324)])
@pytest.mark.parametrize("who", ["ego", "npc_1", "rock"])
def test_validate_refuses_a_flat_body(chain_map, who, length, width):
    """A flat box, or one so thin that its edges round to nothing, has no
    distance to another box; its body is refused with BadBody, and the
    spawn-overlap check leaves it out."""
    flat = BodyDims(length, width)
    config = _scenario(npcs=[_npc()],
                       obstacles=[ObstacleSpec("rock", Pose(40.0, 0.0, 0.0))])
    if who == "ego":
        config = dataclasses.replace(
            config, ego=dataclasses.replace(config.ego, body=flat))
    elif who == "npc_1":
        config = dataclasses.replace(
            config, npc_vehicles=(dataclasses.replace(_npc(), body=flat),))
    else:
        config = dataclasses.replace(config, obstacles=(ObstacleSpec(
            "rock", Pose(40.0, 0.0, 0.0), flat),))
    assert [(v.code, v.subject) for v in validate(config, chain_map)] == \
        [("BadBody", who)]

    def unreachable():
        raise AssertionError("an invalid scenario opened a session")

    with pytest.raises(RunnerError, match=rf"BadBody\({who}\)"):
        run_scenario(config, chain_map, unreachable)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("far", [1e8, 1e200, 1e308, -1e308])
@pytest.mark.parametrize("where", ["first-waypoint", "later-waypoint",
                                   "obstacle"])
def test_validate_refuses_a_far_pose(chain_map, where, far, axis):
    """A pose past MAX_COORDINATE is refused with CoordinateOutOfRange, and
    the spawn-overlap check, whose box edges would round to nothing there,
    leaves it out."""
    npc = _npc()
    rock = ObstacleSpec("rock", Pose(40.0, 12.0, 0.0))
    if where == "obstacle":
        rock = dataclasses.replace(
            rock, pose=dataclasses.replace(rock.pose, **{axis: far}))
        who = "rock"
    else:
        at = 0 if where == "first-waypoint" else 2
        waypoints = list(npc.waypoints)
        waypoints[at] = dataclasses.replace(waypoints[at], **{axis: far})
        npc = dataclasses.replace(npc, waypoints=tuple(waypoints))
        who = "npc_1"
    config = _scenario(npcs=[npc], obstacles=[rock])
    assert abs(far) > MAX_COORDINATE
    assert [(v.code, v.subject) for v in validate(config, chain_map)] == \
        [("CoordinateOutOfRange", who)]

    def unreachable():
        raise AssertionError("an invalid scenario opened a session")

    with pytest.raises(RunnerError, match=rf"CoordinateOutOfRange\({who}\)"):
        run_scenario(config, chain_map, unreachable)


def _spawn_case(template: ScenarioConfig, lane_map, rng: random.Random
                ) -> ScenarioConfig:
    """The template with 0-2 obstacles added and each actor's body good,
    wider than long or too thin; each NPC's first waypoint and each
    obstacle near the ego's spawn or past ``MAX_COORDINATE``, where the far
    ones crowd each other; the start lane known or not, and the start
    station on its lane or beyond it."""
    ego = template.ego
    lane = lane_map.lanes[ego.start_lane_id]
    spawn = lane.path.pose_at(ego.start_station)

    def pose() -> Pose:
        x = spawn.x if rng.random() < 0.7 else \
            rng.choice((-2.0, 2.0)) * MAX_COORDINATE
        return Pose(x + rng.uniform(-6.0, 6.0), spawn.y + rng.uniform(-6.0, 6.0),
                    rng.uniform(-math.pi, math.pi))

    station = rng.uniform(0.0, lane.length) if rng.random() < 0.7 else \
        lane.length + rng.uniform(0.1, 50.0)
    ego = dataclasses.replace(
        ego, body=rng.choice(SPAWN_BODIES), start_station=station,
        start_lane_id=ego.start_lane_id if rng.random() < 0.8 else "lane_nowhere")
    npcs = tuple(dataclasses.replace(
        npc, body=rng.choice(SPAWN_BODIES),
        waypoints=(pose(),) + npc.waypoints[1:])
        for npc in template.npc_vehicles)
    obstacles = tuple(ObstacleSpec(f"rock_{i}", pose(), rng.choice(SPAWN_BODIES))
                      for i in range(rng.randint(0, 2)))
    return dataclasses.replace(template, ego=ego, npc_vehicles=npcs,
                               obstacles=obstacles)


def test_validate_equals_the_two_pass_reference(junction_settings):
    """``validate`` takes each spawn box in its one pass over the actors and
    lists the violations, in order, that the two-pass reference does."""
    template, lane_map = junction_settings.template, junction_settings.lane_map
    rng = random.Random(SPAWN_SEED)
    seen = set()
    for case in range(SPAWN_CASES):
        config = _spawn_case(template, lane_map, rng)
        expected = validate_in_two_passes(config, lane_map)
        assert validate(config, lane_map) == expected, (case, config)
        seen.update(v.code for v in expected)
    # the set reaches every check the spawn boxes pass through
    assert {"InitialOverlap", "BadBody", "CoordinateOutOfRange",
            "UnknownLane", "StationOutOfRange"} <= seen


def test_validate_equals_the_two_pass_reference_on_corner_facing_boxes(
        chain_map):
    """Boxes whose corners face each other along the line of centres, from
    just overlapping to just apart, on the map and near ``MAX_COORDINATE``:
    their circle gap lies within ``BOUND_ROUNDING_MARGIN`` of zero, where
    rounding decides whether they touch, and ``validate`` must not skip a
    pair the reference finds touching."""
    rng = random.Random(SPAWN_SEED)
    margin = BOUND_ROUNDING_MARGIN
    gaps = (-0.5 * margin, -1e-9, 0.0, 1e-9, 2e-9, 4e-9, 8e-9, 0.5 * margin)
    touching_above_zero = 0
    for case in range(800):
        base = (15.0, 80.0) if case % 2 else \
            (rng.choice((-1.0, 1.0)) * (MAX_COORDINATE - 30.0), 80.0)
        bodies = []
        for _ in range(2):
            length = rng.uniform(MIN_BODY_DIM, MAX_BODY_DIM)
            bodies.append(BodyDims(length, rng.uniform(MIN_BODY_DIM, length)))
        (la, wa), (lb, wb) = ((body.length, body.width) for body in bodies)
        ra, rb = math.hypot(la, wa) / 2.0, math.hypot(lb, wb) / 2.0
        heading = rng.uniform(-math.pi, math.pi)
        centres = heading + math.atan2(wa, la)  # through a corner of a
        gap = ra + rb + rng.choice(gaps)
        a = Pose(*base, heading)
        b = Pose(a.x + gap * math.cos(centres), a.y + gap * math.sin(centres),
                 centres - math.atan2(wb, lb))  # a corner of b faces a's
        config = _scenario(obstacles=[ObstacleSpec("rock_a", a, bodies[0]),
                                      ObstacleSpec("rock_b", b, bodies[1])])
        expected = validate_in_two_passes(config, chain_map)
        assert validate(config, chain_map) == expected, (case, config)
        circle_gap = math.hypot(a.x - b.x, a.y - b.y) - ra - rb
        touching = [v.subject for v in expected] == ["rock_a/rock_b"]
        touching_above_zero += touching and circle_gap > 0.0
    # rounding lifts the circle gap of touching boxes above zero
    assert touching_above_zero > 10


def test_flatten_speeds_only_layout():
    config = _scenario(npcs=[_npc(n_wp=3)])  # 3 waypoints -> 2 segments
    vec = flatten(config, MutationSpace(speeds=True, offsets=False,
                                        delays=False, presence=False))
    assert len(vec) == 2
    assert all(g.field == "speed" for g in vec.genes)
    assert vec.values == (8.0, 8.0)


def _bits(values) -> list[int]:
    return [struct.unpack("<q", struct.pack("<d", v))[0] for v in values]


def test_flatten_equals_the_general_projection_on_every_bundled_template():
    """``flatten`` writes a template's own values as the projection of the
    template onto itself does: equal genes and equal IEEE bits, so a zero
    offset keeps the sign ``0.0 * nx + 0.0 * ny`` gives it."""
    spaces = (MutationSpace(), MutationSpace(speeds=False),
              MutationSpace(presence=False, delays=False))
    templates = negative_zeros = 0
    for name in bundled_map_names():
        lane_map = load_bundled_map(name)
        for start in sorted(lane_map.lanes):
            for end in sorted(lane_map.lanes):
                mission = MissionSpec(name, start, 0.0, end,
                                      lane_map.lanes[end].length)
                try:
                    template = build_template(lane_map, mission)
                except ValueError:  # no route from start to end
                    continue
                templates += 1
                for space in spaces:
                    vec = flatten(template, space)
                    expected = flatten_onto(template, space)
                    assert vec.genes == expected.genes
                    assert _bits(vec.values) == _bits(expected.values)
                    negative_zeros += sum(
                        1 for v in vec.values
                        if v == 0.0 and math.copysign(1.0, v) < 0.0)
    assert templates == 32
    assert negative_zeros > 0  # the sign of a zero offset is compared


def test_flatten_unflatten_round_trip():
    config = _scenario(npcs=[_npc(), _npc("npc_2", y0=30.0, delay=3.0)])
    space = MutationSpace()
    vec = flatten(config, space)
    rebuilt, repairs = unflatten(vec, config)
    assert repairs == []
    assert rebuilt == config


def test_vector_round_trip_on_active_vectors():
    template = _scenario(npcs=[_npc(), _npc("npc_2", y0=30.0)])
    space = MutationSpace()
    base = flatten(template, space)
    rng = np.random.default_rng(5)
    low, high = base.bounds
    for _ in range(25):
        values = [rng.uniform(lo, hi) for lo, hi in zip(low, high)]
        # keep every NPC present so all genes stay observable
        values = [1.0 if g.field == "presence" else v
                  for g, v in zip(base.genes, values)]
        vec = base.with_values(values)
        config, repairs = unflatten(vec, template)
        assert repairs == []
        assert validate_roundtrip(vec, flatten_onto(config, space, template))


def validate_roundtrip(vec_a, vec_b, tol=1e-9):
    assert vec_a.genes == vec_b.genes
    for a, b in zip(vec_a.values, vec_b.values):
        assert a == pytest.approx(b, abs=tol)
    return True


def test_offset_gene_shifts_waypoint_normal_to_heading():
    npc = NpcSpec("npc_1", (Pose(0, 0, 0), Pose(20, 0, 0), Pose(40, 0, 0)), (8.0, 8.0))
    template = _scenario(npcs=[npc])
    space = MutationSpace()
    vec = flatten(template, space)
    values = list(vec.values)
    idx = next(i for i, g in enumerate(vec.genes)
               if g.field == "offset" and g.index == 1)
    values[idx] = 0.5
    config, repairs = unflatten(vec.with_values(values), template)
    assert repairs == []
    moved = config.npc_vehicles[0].waypoints[1]
    # heading east: +0.5 normal means 0.5 m to the left (+y), same x
    assert (moved.x, moved.y) == pytest.approx((20.0, 0.5))
    assert moved.heading == 0.0
    # other waypoints untouched
    assert config.npc_vehicles[0].waypoints[0] == npc.waypoints[0]


def test_unflatten_clamps_and_reports():
    template = _scenario(npcs=[_npc()])
    space = MutationSpace()
    vec = flatten(template, space)
    values = list(vec.values)
    speed_idx = next(i for i, g in enumerate(vec.genes) if g.field == "speed")
    values[speed_idx] = 1e9
    config, repairs = unflatten(vec.with_values(values), template)
    assert repairs == ["npc_1/speed[0]"]
    assert config.npc_vehicles[0].target_speeds[0] == space.speed_high


def test_presence_gene_drops_npc():
    template = _scenario(npcs=[_npc(), _npc("npc_2", y0=30.0)])
    space = MutationSpace()
    vec = flatten(template, space)
    values = [0.0 if (g.field == "presence" and g.actor_id == "npc_2") else v
              for g, v in zip(vec.genes, vec.values)]
    config, _ = unflatten(vec.with_values(values), template)
    assert [n.actor_id for n in config.npc_vehicles] == ["npc_1"]
    # projecting onto the template recovers the dropped flag
    vec2 = flatten_onto(config, space, template)
    presence = {g.actor_id: v for g, v in zip(vec2.genes, vec2.values)
                if g.field == "presence"}
    assert presence == {"npc_1": 1.0, "npc_2": 0.0}


def test_unflatten_deterministic():
    template = _scenario(npcs=[_npc()])
    vec = flatten(template, MutationSpace())
    a, _ = unflatten(vec, template)
    b, _ = unflatten(vec, template)
    assert a == b and _text(a) == _text(b)
