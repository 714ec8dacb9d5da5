"""Closed-loop scenario execution, oracles, and recording persistence."""

import dataclasses
import json
import math

import pytest

from scenofuzz import canonical
from scenofuzz.bridge import (AgentSettings, AgentTimeoutError, BridgeSession,
                              ControlMessage, InProcessSession,
                              ReferenceEgoAgent)
from scenofuzz.geometry import Pose
from scenofuzz.runner import (AGENT_TIMEOUT, COLLISION, DESTINATION, STUCK,
                              TIMEOUT, OracleConfig, RecordingFormatError,
                              RunnerError, Verdict, _annotate_npc_contacts,
                              check_collision, check_destination,
                              initial_world, mission_end_point, mission_path,
                              read_recording, recording_bytes,
                              recording_digest, recording_document,
                              run_scenario, write_recording)
from scenofuzz.scenario import (BodyDims, EgoSpec, NpcSpec, ObstacleSpec,
                                ScenarioConfig)
from scenofuzz.simulator import (BRAKE_COMMAND, ActorState, ControlCommand,
                                 WorldState, actor_distance,
                                 actor_distance_lower_bound)

GOLDEN_RECORDING_SHA256 = \
    "7b2a9356dd6873880664d3bc0214bad1ee097deb439f394d94dda7e377d96e17"


class BrakeAgent:
    """Ego stand-in that never moves."""

    def step(self, perception):
        return ControlMessage(perception.sim_time, BRAKE_COMMAND)


def _outcome(function, value):
    try:
        return "ok", function(value)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def brake_session():
    return InProcessSession(BrakeAgent)


def reference_session(lane_map, config, dt=0.1, **settings):
    mission = mission_path(config, lane_map)

    def factory():
        return ReferenceEgoAgent(mission, AgentSettings(**settings), dt)

    return lambda: InProcessSession(factory)


def chain_scenario(**overrides):
    base = dict(
        scenario_id="chain_drive",
        map_name="chain_3",
        ego=EgoSpec("lane_a", 0.0, "lane_a", 60.0),
        duration_limit=30.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestOracles:
    def test_destination_requires_stop(self):
        moving = ActorState("ego", "ego", 59.0, 0.0, 0.0, speed=4.0)
        stopped = ActorState("ego", "ego", 59.0, 0.0, 0.0, speed=0.1)
        far = ActorState("ego", "ego", 50.0, 0.0, 0.0, speed=0.0)
        end = (60.0, 0.0)
        assert not check_destination(moving, end, 3.0)
        assert check_destination(stopped, end, 3.0)
        assert not check_destination(far, end, 3.0)

    def test_collision_reports_minimizing_pair(self):
        from scenofuzz.simulator import WorldState
        ego = ActorState("ego", "ego", 0.0, 0.0, 0.0)
        near = ActorState("npc_1", "npc", 4.8, 0.0, 0.0)   # touching
        apart = ActorState("npc_2", "npc", 30.0, 0.0, 0.0)
        world = WorldState(0.0, (ego, near, apart))
        hit = check_collision(world, 0.01)
        assert hit is not None
        assert hit[0] == ("ego", "npc_1")
        assert hit[1] <= 0.01
        assert check_collision(WorldState(0.0, (ego, apart)), 0.01) is None

    def test_verdict_rejects_unknown_outcome(self):
        with pytest.raises(ValueError):
            Verdict("Mystery", 0.0)

    def test_contact_at_threshold_between_facing_corners(self):
        # Boxes placed corner to corner along their diagonal: for some
        # headings the circle bound rounds a few ulps above the exact
        # distance, which is still within the threshold.
        threshold = 0.01
        length, width = 4.8, 2.0
        centres = math.hypot(length, width) + threshold
        pairs = []
        for step in range(720):
            heading = step * math.pi / 360 - math.pi + 0.001
            diagonal = heading + math.atan2(width, length)
            for ulps in range(-3, 4):
                gap = centres + ulps * 2e-16
                x, y = gap * math.cos(diagonal), gap * math.sin(diagonal)
                a = ActorState("npc_0", "npc", 0.0, 0.0, heading)
                b = ActorState("npc_1", "npc", x, y, heading)
                if actor_distance(a, b) <= threshold < \
                        actor_distance_lower_bound(a, b):
                    pairs.append((a, b))
        assert len(pairs) >= 5
        for a, b in pairs:
            ego = ActorState("ego", "ego", a.x, a.y, a.heading)
            hit = check_collision(WorldState(0.0, (ego, b)), threshold)
            assert hit == (("ego", "npc_1"), actor_distance(ego, b))
            annotations = []
            _annotate_npc_contacts(WorldState(0.0, (a, b)), threshold,
                                   set(), annotations)
            assert annotations == [{"type": "npc_contact", "sim_time": 0.0,
                                    "pair": ["npc_0", "npc_1"]}]


class TestRunScenario:
    def test_reference_drive_reaches_destination(self, chain_map):
        config = chain_scenario()
        rec = run_scenario(config, chain_map,
                           reference_session(chain_map, config))
        assert rec.verdict.outcome == DESTINATION
        last = rec.frames[-1]
        ego = next(a for a in last.actors if a.actor_id == "ego")
        end = mission_end_point(config, chain_map)
        assert math.hypot(ego.x - end[0], ego.y - end[1]) <= 3.0
        assert ego.speed < 0.5
        assert rec.verdict.time_of_decision == last.sim_time
        assert rec.wall_clock > 0.0

    def test_halving_dt_keeps_verdict_and_final_position(self, chain_map):
        # Tolerance fixed before the first run: the ego stops within 0.5 m
        # of where it stops at the default step.
        config = chain_scenario()
        ends = {}
        for dt in (0.1, 0.05):
            rec = run_scenario(config, chain_map,
                               reference_session(chain_map, config, dt=dt),
                               dt=dt)
            ego = next(a for a in rec.frames[-1].actors if a.actor_id == "ego")
            ends[dt] = (rec.verdict.outcome, ego.x, ego.y)
        assert ends[0.05][0] == ends[0.1][0] == DESTINATION
        assert math.hypot(ends[0.05][1] - ends[0.1][1],
                          ends[0.05][2] - ends[0.1][2]) <= 0.5

    def test_timeout_fires_at_duration_limit(self, chain_map):
        config = chain_scenario(duration_limit=1.0)
        rec = run_scenario(config, chain_map,
                           reference_session(chain_map, config))
        assert rec.verdict.outcome == TIMEOUT
        assert rec.verdict.time_of_decision == pytest.approx(1.0, abs=1e-6)
        # ten advanced frames plus the deciding one
        assert len(rec.frames) == 11
        assert rec.frames[-1].sim_time == pytest.approx(1.0, abs=1e-6)

    def test_stuck_fires_after_sustained_low_speed(self, chain_map):
        config = chain_scenario(duration_limit=30.0)
        oracles = OracleConfig(stuck_duration=2.0)
        rec = run_scenario(config, chain_map, brake_session, oracles)
        assert rec.verdict.outcome == STUCK
        assert rec.verdict.time_of_decision == pytest.approx(2.0, abs=0.11)

    def test_collision_with_blocking_obstacle(self, chain_map):
        block = ObstacleSpec("rock", Pose(30.0, 0.0, 0.0), BodyDims(4.8, 2.0))
        config = chain_scenario(obstacles=(block,))
        rec = run_scenario(config, chain_map,
                           reference_session(chain_map, config,
                                             fault_ignore_obstacles=True))
        assert rec.verdict.outcome == COLLISION
        assert rec.verdict.details["pair"] == ["ego", "rock"]

        # the deciding frame is the last one and the contact is recomputable
        last = rec.frames[-1]
        assert last.sim_time == rec.verdict.time_of_decision
        actors = {a.actor_id: a for a in last.actors}
        assert actor_distance(actors["ego"], actors["rock"]) <= 0.01

        # no earlier frame is in contact: the run stopped at first violation
        for frame in rec.frames[:-1]:
            byid = {a.actor_id: a for a in frame.actors}
            assert actor_distance(byid["ego"], byid["rock"]) > 0.01

    def test_sound_agent_brakes_for_the_same_obstacle(self, chain_map):
        block = ObstacleSpec("rock", Pose(30.0, 0.0, 0.0), BodyDims(4.8, 2.0))
        config = chain_scenario(obstacles=(block,), duration_limit=12.0)
        rec = run_scenario(config, chain_map,
                           reference_session(chain_map, config))
        assert rec.verdict.outcome in (TIMEOUT, STUCK)

    def test_immediate_destination_yields_single_frame(self, chain_map):
        config = chain_scenario(ego=EgoSpec("lane_a", 59.0, "lane_a", 60.0))
        rec = run_scenario(config, chain_map, brake_session)
        assert rec.verdict.outcome == DESTINATION
        assert rec.verdict.time_of_decision == 0.0
        assert len(rec.frames) == 1
        assert rec.frames[0].ego_command == ControlCommand()

    def test_agent_timeout_becomes_verdict(self, chain_map):
        class FlakySession(BridgeSession):
            def request(self, perception):
                self.sent += 1
                if self.sent >= 3:
                    raise AgentTimeoutError("agent stalled")
                self.received += 1
                return ControlMessage(perception.sim_time, BRAKE_COMMAND)

        config = chain_scenario()
        rec = run_scenario(config, chain_map, FlakySession)
        assert rec.verdict.outcome == AGENT_TIMEOUT
        assert rec.verdict.time_of_decision == pytest.approx(0.2, abs=1e-9)
        # two advanced frames plus the deciding one, nothing after
        assert len(rec.frames) == 3

    def test_npc_contact_is_annotated_not_fatal(self, chain_map):
        east = NpcSpec("npc_1", (Pose(30.0, 0.0, 0.0), Pose(50.0, 0.0, 0.0)),
                       (5.0,))
        west = NpcSpec("npc_2",
                       (Pose(52.0, 0.0, math.pi), Pose(32.0, 0.0, math.pi)),
                       (5.0,))
        config = chain_scenario(npc_vehicles=(east, west), duration_limit=8.0)
        rec = run_scenario(config, chain_map, brake_session)
        assert rec.verdict.outcome == TIMEOUT
        assert len(rec.annotations) == 1
        note = rec.annotations[0]
        assert note["type"] == "npc_contact"
        assert note["pair"] == ["npc_1", "npc_2"]

    def test_invalid_scenario_is_rejected(self, chain_map):
        config = chain_scenario(duration_limit=-1.0)
        with pytest.raises(RunnerError):
            run_scenario(config, chain_map, brake_session)

    def test_npc_spawn_delay_holds_vehicle(self, chain_map):
        npc = NpcSpec("npc_1", (Pose(30.0, 0.0, 0.0), Pose(50.0, 0.0, 0.0)),
                      (5.0,), spawn_delay=5.0)
        config = chain_scenario(npc_vehicles=(npc,), duration_limit=4.0)
        rec = run_scenario(config, chain_map, brake_session)
        for frame in rec.frames:
            npc_state = next(a for a in frame.actors if a.actor_id == "npc_1")
            assert npc_state.x == pytest.approx(30.0, abs=1e-9)
            assert npc_state.speed == 0.0


class TestPersistence:
    def make_recording(self, chain_map):
        east = NpcSpec("npc_1", (Pose(30.0, 3.5, 0.0), Pose(50.0, 3.5, 0.0)),
                       (5.0,))
        config = chain_scenario(npc_vehicles=(east,), duration_limit=2.0)
        return run_scenario(config, chain_map,
                            reference_session(chain_map, config), seed=7)

    def test_round_trip(self, chain_map, tmp_path):
        rec = self.make_recording(chain_map)
        path = write_recording(rec, tmp_path)
        assert path.name == "chain_drive.record.json"
        assert path.read_bytes() == \
            canonical.dump_bytes(recording_document(rec))
        again = read_recording(path)
        assert again == rec  # wall_clock is excluded from equality
        assert recording_digest(again) == recording_digest(rec)

    def test_digest_ignores_wall_clock(self, chain_map):
        rec = self.make_recording(chain_map)
        import dataclasses
        other = dataclasses.replace(rec, wall_clock=rec.wall_clock + 100.0)
        assert recording_digest(other) == recording_digest(rec)

    def test_repeated_runs_are_byte_identical(self, chain_map):
        a = self.make_recording(chain_map)
        b = self.make_recording(chain_map)
        assert recording_digest(a) == recording_digest(b)

    def test_golden_recording_digest(self, chain_map):
        rec = self.make_recording(chain_map)
        assert recording_digest(rec) == GOLDEN_RECORDING_SHA256

    def test_recording_bytes_raise_like_the_reference(self, chain_map):
        rec = self.make_recording(chain_map)
        frame = rec.frames[3]
        bad_actor = dataclasses.replace(frame.actors[1])
        object.__setattr__(bad_actor, "speed", float("nan"))
        bad_frame = dataclasses.replace(
            frame, actors=(frame.actors[0], bad_actor),
            ego_command=ControlCommand(0.5, 0.0, 0.0))
        object.__setattr__(bad_frame.ego_command, "brake", float("inf"))
        frames = rec.frames[:3] + (bad_frame,) + rec.frames[4:]
        cases = [
            dataclasses.replace(rec, frames=frames),
            dataclasses.replace(rec, frames=frames, annotations=(
                {"type": "note", "value": float("-inf")},)),
            dataclasses.replace(rec, frames=frames, scenario_id="\ud800"),
            dataclasses.replace(rec, frames=rec.frames + (None,)),
            # an unreadable frame fails before any value is written
            dataclasses.replace(rec, frames=frames + (None,)),
            dataclasses.replace(rec, wall_clock=float("nan")),
        ]
        failures = 0
        for case in cases:
            for include_frames in (True, False):
                expected = _outcome(lambda r: canonical.dump_bytes(
                    recording_document(r, include_frames=include_frames)),
                    case)
                assert _outcome(lambda r: recording_bytes(r, include_frames),
                                case) == expected
                failures += expected[0] != "ok"
        # only the frame faults pass when frames are left out
        assert failures == 9

    def test_summary_only_persistence(self, chain_map, tmp_path):
        rec = self.make_recording(chain_map)
        path = write_recording(rec, tmp_path, include_frames=False)
        summary = read_recording(path)
        assert summary.frames == ()
        assert summary.verdict == rec.verdict
        assert summary.scenario_id == rec.scenario_id

    def test_read_rejects_malformed_documents(self, tmp_path):
        bad = tmp_path / "x.record.json"
        bad.write_text("not json")
        with pytest.raises(RecordingFormatError):
            read_recording(bad)
        bad.write_text('{"schema_version": 1}')
        with pytest.raises(RecordingFormatError):
            read_recording(bad)
        bad.write_text('[1, 2]')
        with pytest.raises(RecordingFormatError):
            read_recording(bad)
        bad.write_bytes(b'{"scenario_id": "\xff"}')  # not UTF-8
        with pytest.raises(RecordingFormatError):
            read_recording(bad)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["frames"][0]["actors"][0].update(x="1.5"),
        lambda doc: doc["frames"][0]["actors"][1].update(speed=True),
        lambda doc: doc["frames"][0]["actors"][1].update(length=1e400),
        lambda doc: doc["frames"][1].update(sim_time="0.1"),
        lambda doc: doc["frames"][0]["ego_command"].update(brake="0.5"),
        lambda doc: doc["verdict"].update(time_of_decision=True),
        lambda doc: doc.update(wall_clock="soon"),
        lambda doc: doc.update(schema_version=True),
        lambda doc: doc.update(rng_seed=2.7),
        lambda doc: doc.update(rng_seed=False),
        lambda doc: doc.update(scenario_id=7),
        lambda doc: doc.update(annotations=5),
    ], ids=["string-x", "bool-speed", "huge-length", "string-sim-time",
            "string-brake", "bool-decision-time", "string-wall-clock",
            "bool-schema-version", "float-seed", "bool-seed", "int-id",
            "int-annotations"])
    def test_read_rejects_mistyped_fields(self, chain_map, tmp_path, edit):
        doc = recording_document(self.make_recording(chain_map))
        edit(doc)
        path = tmp_path / "x.record.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RecordingFormatError, match="x.record.json"):
            read_recording(path)

    def test_initial_world_layout(self, chain_map):
        block = ObstacleSpec("rock", Pose(80.0, 0.0, 1.0))
        east = NpcSpec("npc_1", (Pose(30.0, 3.5, 0.5), Pose(50.0, 3.5, 0.5)),
                       (5.0,))
        config = chain_scenario(npc_vehicles=(east,), obstacles=(block,))
        world = initial_world(config, chain_map)
        assert [a.actor_id for a in world.actors] == ["ego", "npc_1", "rock"]
        assert world.actors[0].kind == "ego"
        assert world.actors[1].kind == "npc"
        assert world.actors[2].kind == "static"
        assert world.actors[1].heading == 0.5
