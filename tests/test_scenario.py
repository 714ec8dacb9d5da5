from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from scenofuzz import canonical
from scenofuzz.geometry import Pose
from scenofuzz.runner import RunnerError, run_scenario
from scenofuzz.scenario import (MAX_COORDINATE, BodyDims, EgoSpec,
                                MutationSpace, NpcSpec, ObstacleSpec,
                                ScenarioConfig, ScenarioFormatError, flatten,
                                from_json, to_json, unflatten, validate)


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
    assert from_json(to_json(config)) == config


def test_serialization_is_stable():
    config = _scenario(npcs=[_npc(), _npc("npc_2", y0=30.0),
                             _npc("npc_3", y0=60.0, speed=1.0 / 3.0)])
    first, second = to_json(config), to_json(config)
    assert first == second
    # awkward floats survive the trip exactly
    assert from_json(first).npc_vehicles[2].target_speeds[0] == 1.0 / 3.0


def test_format_errors_carry_paths():
    config = _scenario(npcs=[_npc()])
    doc = canonical.loads(to_json(config))

    broken = dict(doc)
    del broken["ego"]
    with pytest.raises(ScenarioFormatError, match=r"missing keys.*ego"):
        from_json(canonical.dumps(broken))

    broken = canonical.loads(to_json(config))
    broken["ego"]["start_station"] = "ten"
    with pytest.raises(ScenarioFormatError, match=r"/ego/start_station"):
        from_json(canonical.dumps(broken))

    broken = canonical.loads(to_json(config))
    broken["npc_vehicles"][0]["waypoints"][1]["x"] = None
    with pytest.raises(ScenarioFormatError, match=r"/npc_vehicles/0/waypoints/1"):
        from_json(canonical.dumps(broken))

    broken = canonical.loads(to_json(config))
    broken["extra"] = 1
    with pytest.raises(ScenarioFormatError, match="unknown keys"):
        from_json(canonical.dumps(broken))

    broken = canonical.loads(to_json(config))
    broken["schema_version"] = 99
    with pytest.raises(ScenarioFormatError, match="schema_version"):
        from_json(canonical.dumps(broken))

    broken = canonical.loads(to_json(config))
    broken["schema_version"] = True  # equal to 1 in Python, not in JSON
    with pytest.raises(ScenarioFormatError,
                       match="/schema_version: expected an integer"):
        from_json(canonical.dumps(broken))

    broken = canonical.loads(to_json(config))
    broken["npc_vehicles"][0]["kind"] = "pedestrian"
    with pytest.raises(ScenarioFormatError, match="actor kind"):
        from_json(canonical.dumps(broken))

    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        from_json("{truncated")


@pytest.mark.parametrize("number", ["1" + "0" * 400, "1e400", "NaN",
                                    "-Infinity"],
                         ids=["huge-integer", "huge-float", "nan", "-inf"])
def test_non_finite_numbers_are_format_errors(number):
    text = to_json(_scenario())
    broken = text.replace('"duration_limit":45.0',
                          f'"duration_limit":{number}')
    assert broken != text
    with pytest.raises(ScenarioFormatError,
                       match="/duration_limit: expected a finite number"):
        from_json(broken)


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


def test_flatten_speeds_only_layout():
    config = _scenario(npcs=[_npc(n_wp=3)])  # 3 waypoints -> 2 segments
    vec = flatten(config, MutationSpace(speeds=True, offsets=False,
                                        delays=False, presence=False))
    assert len(vec) == 2
    assert all(g.field == "speed" for g in vec.genes)
    assert vec.values == (8.0, 8.0)


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
        assert validate_roundtrip(vec, flatten(config, space, template))


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
    # flatten against the template recovers the dropped flag
    vec2 = flatten(config, space, template)
    presence = {g.actor_id: v for g, v in zip(vec2.genes, vec2.values)
                if g.field == "presence"}
    assert presence == {"npc_1": 1.0, "npc_2": 0.0}


def test_unflatten_deterministic():
    template = _scenario(npcs=[_npc()])
    vec = flatten(template, MutationSpace())
    a, _ = unflatten(vec, template)
    b, _ = unflatten(vec, template)
    assert a == b and to_json(a) == to_json(b)
