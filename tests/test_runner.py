"""Closed-loop scenario execution, oracles, and recording persistence."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from facing_corners import (FAR_OUT, FAR_OUT_STEPS, THRESHOLD, circle_gap,
                            facing_corner_pairs)
from oracles import recording_document
from oracles import run_scenario as reference_run_scenario
from scenofuzz import bridge, canonical
from scenofuzz.bridge import (AgentSettings, AgentTimeoutError, BridgeSession,
                              ControlMessage, InProcessSession,
                              ReferenceEgoAgent)
from scenofuzz.config import build_execution, load_config
from scenofuzz.geometry import Pose
from scenofuzz.runner import (AGENT_TIMEOUT, COLLISION, DESTINATION, STUCK,
                              TIMEOUT, OracleConfig, RecordingFormatError,
                              RunnerError, Verdict, _annotate_npc_contacts,
                              check_collision, check_destination,
                              copy_recording,
                              initial_world, mission_end_point, mission_path,
                              read_recording, recording_bytes,
                              recording_path, run_scenario, write_recording)
from scenofuzz.scenario import (BodyDims, EgoSpec, NpcSpec, ObstacleSpec,
                                ScenarioConfig, flatten, unflatten)
from scenofuzz.simulator import (BRAKE_COMMAND, ActorState, ControlCommand,
                                 WaypointPolicy, WorldState, actor_distance,
                                 actor_distance_lower_bound)

GOLDEN_RECORDING_SHA256 = \
    "67dcf38d4b0a6fa0f505b698aa371d31d3bc48a589276d658a135449877ff435"


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

    def test_collision_refuses_a_world_without_the_ego_first(self):
        """The ego is read as the first actor, as ``initial_world`` spawns
        it; a world that breaks this is refused, not checked by id."""
        ego = ActorState("ego", "ego", 0.0, 0.0, 0.0)
        near = ActorState("npc_1", "npc", 4.8, 0.0, 0.0)   # touching
        rock = ActorState("rock", "static", 30.0, 0.0, 0.0)
        for actors, found in (((near, ego, rock), "'npc_1'"),
                              ((rock, near, ego), "'rock'"),
                              ((near, rock), "'npc_1'"),
                              ((), "no actors")):
            with pytest.raises(ValueError,
                               match=f"^expected the ego first, got {found}$"):
                check_collision(WorldState(0.0, actors), 0.01)

    def test_verdict_rejects_unknown_outcome(self):
        with pytest.raises(ValueError):
            Verdict("Mystery", 0.0)

    @staticmethod
    def _check_contacts(x0, steps, lifted_by):
        """Boxes placed corner to corner along their diagonal from
        ``(x0, 0)``, each of ``steps`` beyond the threshold apart: there are
        pairs within the threshold whose circle gap clears it by more than
        ``lifted_by``, their bound is at most their distance, and both
        contact checks find each of them."""
        pairs = [(a, b) for a, b in facing_corner_pairs(x0, steps)
                 if actor_distance(a, b) <= THRESHOLD
                 < circle_gap(a, b) - lifted_by]
        assert len(pairs) >= 5
        for a, b in pairs:
            assert actor_distance_lower_bound(a, b) <= actor_distance(a, b)
            ego = ActorState("ego", "ego", a.x, a.y, a.heading)
            hit = check_collision(WorldState(0.0, (ego, b)), THRESHOLD)
            assert hit == (("ego", "npc_1"), actor_distance(ego, b))
            annotations = []
            _annotate_npc_contacts(WorldState(0.0, (a, b)), THRESHOLD,
                                   set(), annotations)
            assert annotations == [{"type": "npc_contact", "sim_time": 0.0,
                                    "pair": ["npc_0", "npc_1"]}]

    def test_contact_at_threshold_between_facing_corners(self):
        # for some headings the circle gap rounds a few ulps above the
        # exact distance, which is still within the threshold
        self._check_contacts(0.0, [k * 2e-16 for k in range(-3, 4)], 0.0)

    def test_contact_at_threshold_between_facing_corners_far_out(self):
        # near MAX_COORDINATE the circle gap can clear the threshold by
        # nanometres
        self._check_contacts(FAR_OUT, FAR_OUT_STEPS, 1e-9)


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

    def test_inprocess_agent_gets_the_runners_own_messages(self, chain_map,
                                                           monkeypatch):
        def no_decode(frame):
            raise AssertionError("an in-process frame was decoded")

        monkeypatch.setattr("scenofuzz.bridge.decode", no_decode)
        npc = NpcSpec("npc_1", (Pose(20.0, 0.0, 0.0), Pose(55.0, 0.0, 0.0)),
                      (4.0,))
        config = chain_scenario(npc_vehicles=(npc,), duration_limit=6.0)
        mission = mission_path(config, chain_map)
        sent, received, replies, sessions = [], [], [], []

        class SpyAgent(ReferenceEgoAgent):
            def step(self, perception):
                received.append(perception)
                replies.append(super().step(perception))
                return replies[-1]

        class SpySession(InProcessSession):
            def request(self, perception):
                sent.append(perception)
                return super().request(perception)

        def factory():
            sessions.append(SpySession(lambda: SpyAgent(mission)))
            return sessions[-1]

        rec = run_scenario(config, chain_map, factory)
        assert len(sessions) == 1
        assert sessions[0].sent == sessions[0].received == len(sent) > 10
        assert len(received) == len(sent) == len(rec.frames) - 1
        assert all(got is made for got, made in zip(received, sent))
        assert all(frame.ego_command is reply.command
                   for frame, reply in zip(rec.frames, replies))

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

    def test_a_reply_left_uncounted_violates_the_lockstep(self, chain_map):
        class UncountedSession(BridgeSession):
            def request(self, perception):
                self.sent += 1  # and never counts it received
                return ControlMessage(perception.sim_time, BRAKE_COMMAND)

        with pytest.raises(RunnerError, match="^bridge lockstep violated: "
                           "request left 1 frames in flight$"):
            run_scenario(chain_scenario(), chain_map, UncountedSession)

    def test_a_reply_for_another_time_is_refused(self, chain_map):
        class LateAgent:
            def step(self, perception):
                return ControlMessage(perception.sim_time + 1.0,
                                      BRAKE_COMMAND)

        with pytest.raises(RunnerError, match=r"^agent answered for t=1\.0, "
                           r"expected t=0\.0$"):
            run_scenario(chain_scenario(), chain_map,
                         lambda: InProcessSession(LateAgent))

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


# Recordings the schema rejects, one edit each, that read_recording must
# reject too; tests/test_schemas.py checks the schema side.
SCHEMA_FAULTS = {
    "negative-sim-time": lambda doc: doc["frames"][1].update(sim_time=-0.1),
    # version 2 has no wall clock: a writer that put it back is refused
    "wall-clock-key": lambda doc: doc.update(wall_clock=0.0),
    "negative-decision-time":
        lambda doc: doc["verdict"].update(time_of_decision=-1.0),
    "frame-extra-key": lambda doc: doc["frames"][0].update(note="extra"),
    "command-extra-key":
        lambda doc: doc["frames"][0]["ego_command"].update(gear=1.0),
    "negative-speed":
        lambda doc: doc["frames"][0]["actors"][1].update(speed=-0.1),
    "zero-length":
        lambda doc: doc["frames"][0]["actors"][1].update(length=0.0),
    "negative-width":
        lambda doc: doc["frames"][0]["actors"][1].update(width=-1.0),
    "length-above-max":
        lambda doc: doc["frames"][0]["actors"][1].update(length=1e308),
    "width-above-max":
        lambda doc: doc["frames"][0]["actors"][1].update(width=1e200),
    "width-below-min":
        lambda doc: doc["frames"][0]["actors"][1].update(width=5e-324),
    "empty-scenario-id": lambda doc: doc.update(scenario_id=""),
    "empty-actor-id":
        lambda doc: doc["frames"][0]["actors"][1].update(actor_id=""),
    "throttle-above-1":
        lambda doc: doc["frames"][0]["ego_command"].update(throttle=2.0),
    "negative-brake":
        lambda doc: doc["frames"][0]["ego_command"].update(brake=-0.5),
    "steering-past-stop":
        lambda doc: doc["frames"][0]["ego_command"].update(steering=1.0),
    "frame-without-ego": lambda doc: doc["frames"][1]["actors"].pop(0),
    "ego-second": lambda doc: doc["frames"][0]["actors"].reverse(),
    "first-actor-ego-id-npc-kind":
        lambda doc: doc["frames"][0]["actors"][0].update(kind="npc"),
    "frame-without-actors": lambda doc: doc["frames"][0].update(actors=[]),
    "ego-x-past-bound":
        lambda doc: doc["frames"][1]["actors"][0].update(x=1e308),
    "npc-y-past-bound":
        lambda doc: doc["frames"][0]["actors"][1].update(y=-1.0000001e7),
}


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
        assert again == rec

    def test_repeated_runs_are_byte_identical(self, chain_map):
        a = self.make_recording(chain_map)
        b = self.make_recording(chain_map)
        assert recording_bytes(a) == recording_bytes(b)

    def test_golden_recording_digest(self, chain_map):
        rec = self.make_recording(chain_map)
        assert hashlib.sha256(recording_bytes(rec)).hexdigest() == \
            GOLDEN_RECORDING_SHA256

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
        ]
        failures = 0
        for case in cases:
            for written in (case, dataclasses.replace(case, frames=())):
                expected = _outcome(lambda r: canonical.dump_bytes(
                    recording_document(r)), written)
                assert _outcome(recording_bytes, written) == expected
                failures += expected[0] != "ok"
        # only the frame faults pass when frames are left out
        assert failures == 6

    def test_recording_bytes_raise_the_first_fault_in_write_order(
            self, chain_map):
        # an unwritable value, then an unreadable frame or actor: the first
        # fault met while writing raises, where the reference, which reads
        # every frame before it writes, raises the unreadable one's
        rec = self.make_recording(chain_map)
        frame = rec.frames[3]
        bad_actor = dataclasses.replace(frame.actors[1])
        object.__setattr__(bad_actor, "speed", float("nan"))
        # a NaN speed, then an infinite brake: actors are written first
        bad_frame = dataclasses.replace(
            frame, actors=(frame.actors[0], bad_actor),
            ego_command=ControlCommand(0.5, 0.0, 0.0))
        object.__setattr__(bad_frame.ego_command, "brake", float("inf"))
        first = (canonical.CanonicalError,
                 "non-finite float not allowed: nan")
        nan_then_none = dataclasses.replace(frame, actors=(bad_actor, None))
        for frames, unreadable in (
                (rec.frames[:3] + (bad_frame, None),
                 "'NoneType' object has no attribute 'sim_time'"),
                (rec.frames[:3] + (nan_then_none,),
                 "'NoneType' object has no attribute 'actor_id'")):
            case = dataclasses.replace(rec, frames=frames)
            assert _outcome(lambda r: canonical.dump_bytes(
                recording_document(r)), case) == (AttributeError, unreadable)
            assert _outcome(recording_bytes, case) == first
            assert _outcome(recording_bytes, dataclasses.replace(
                case, frames=()))[0] == "ok"

    @staticmethod
    def counted_writes(monkeypatch):
        """The actors written from now on: a write reads the fields once."""
        writes = []
        read = bridge._actor_fields

        def counted(actor):
            writes.append(actor)
            return read(actor)

        monkeypatch.setattr(bridge, "_actor_fields", counted)
        return writes

    def test_each_actor_text_is_written_once(self, chain_map, tmp_path,
                                             monkeypatch, step_memo):
        # an empty step memo: no ego state was stepped, or written, before
        writes = self.counted_writes(monkeypatch)
        rec = self.make_recording(chain_map)
        states = {id(a) for frame in rec.frames for a in frame.actors}
        sent = {id(a) for frame in rec.frames[:-1] for a in frame.actors}
        # the bridge wrote each state it sent once; the last frame is not sent
        assert len(writes) == len(sent) < len(states)
        path = write_recording(rec, tmp_path)
        assert len(writes) == len(states)
        assert path.read_bytes() == \
            canonical.dump_bytes(recording_document(rec))
        write_recording(rec, tmp_path)
        assert len(writes) == len(states)

    def test_warm_step_memo_writes_only_the_spawned_ego(
            self, chain_map, tmp_path, monkeypatch, step_memo):
        (tmp_path / "cold").mkdir()
        (tmp_path / "warm").mkdir()
        cold = write_recording(self.make_recording(chain_map),
                               tmp_path / "cold").read_bytes()
        writes = self.counted_writes(monkeypatch)
        rec = self.make_recording(chain_map)
        egos = [a for a in writes if a.kind == "ego"]
        # every later ego state, one per frame, is the one the first run
        # stepped and wrote; only the spawned state is new
        assert len(egos) == 1 and egos[0] is rec.frames[0].actors[0]
        assert len({id(f.actors[0]) for f in rec.frames}) == len(rec.frames)
        assert write_recording(rec, tmp_path / "warm").read_bytes() == cold
        assert [a for a in writes if a.kind == "ego"] == egos

    def test_held_npc_states_are_shared_and_written_once(
            self, chain_map, tmp_path, monkeypatch, step_memo):
        npc = NpcSpec("npc_1", (Pose(30.0, 3.5, 0.0), Pose(80.0, 3.5, 0.0)),
                      (5.0,), spawn_delay=2.0)
        config = chain_scenario(npc_vehicles=(npc,), duration_limit=5.0)
        commands = []
        policy_step = WaypointPolicy.step

        def spied(policy, state, sim_time, dt):
            commands.append(policy_step(policy, state, sim_time, dt))
            return commands[-1]

        monkeypatch.setattr(WaypointPolicy, "step", spied)
        writes = self.counted_writes(monkeypatch)
        rec = run_scenario(config, chain_map,
                           reference_session(chain_map, config))
        brakes = [cmd is BRAKE_COMMAND for cmd in commands]
        moving = brakes.count(False)
        # it waits for 2 s, then drives on without reaching its last waypoint
        assert brakes == [True] * 20 + [False] * moving and moving >= 20
        npcs = [a for f in rec.frames for a in f.actors if a.kind == "npc"]
        assert len(npcs) == len(commands) + 1
        # the spawned state, the first brake (which sets the acceleration)
        # and one state per moving step: every later brake holds its state
        assert len({id(a) for a in npcs}) == moving + 2
        write_recording(rec, tmp_path)
        assert len([a for a in writes if a.kind == "npc"]) == moving + 2
        cold = recording_path(tmp_path, rec.scenario_id).read_bytes()
        assert cold == canonical.dump_bytes(recording_document(rec))
        # a second run takes its first parked state, already written, from
        # the step memo
        writes.clear()
        warm = run_scenario(config, chain_map,
                            reference_session(chain_map, config))
        npcs = [a for f in warm.frames for a in f.actors if a.kind == "npc"]
        assert len({id(a) for a in npcs}) == moving + 2
        (tmp_path / "warm").mkdir()
        write_recording(warm, tmp_path / "warm")
        assert len([a for a in writes if a.kind == "npc"]) == moving + 1
        assert recording_path(tmp_path / "warm",
                              rec.scenario_id).read_bytes() == cold

    def test_read_back_recording_writes_the_same_bytes(self, chain_map,
                                                       tmp_path):
        path = write_recording(self.make_recording(chain_map), tmp_path)
        again = read_recording(path)
        assert all(a._text is None for f in again.frames for a in f.actors)
        assert recording_bytes(again) == path.read_bytes()

    def test_summary_only_persistence(self, chain_map, tmp_path):
        rec = self.make_recording(chain_map)
        path = write_recording(dataclasses.replace(rec, frames=()), tmp_path)
        summary = read_recording(path)
        assert summary.frames == ()
        assert summary.verdict == rec.verdict
        assert summary.scenario_id == rec.scenario_id

    @pytest.mark.parametrize("frames", [True, False],
                             ids=["frames", "summary"])
    def test_copy_equals_the_recording_of_a_rerun(self, chain_map, tmp_path,
                                                  frames):
        def written(rec):  # what a campaign writes of a run
            return rec if frames else dataclasses.replace(rec, frames=())

        rec = self.make_recording(chain_map)
        source = write_recording(written(rec), tmp_path)
        data = source.read_bytes()
        # an id of another length: the copy need not keep the file's size
        assert copy_recording(tmp_path, "chain_drive", "copy", len(data))
        config = dataclasses.replace(rec.config_snapshot, scenario_id="copy")
        rerun = run_scenario(config, chain_map,
                             reference_session(chain_map, config), seed=7)
        expected = write_recording(written(rerun),
                                   tmp_path / "rerun").read_bytes()
        assert recording_path(tmp_path, "copy").read_bytes() == expected
        assert source.read_bytes() == data

    @pytest.mark.parametrize("change", ["gone", "grown", "id-edited"])
    def test_copy_of_a_changed_source_writes_nothing(self, chain_map,
                                                     tmp_path, change):
        source = write_recording(self.make_recording(chain_map), tmp_path)
        data = source.read_bytes()
        if change == "gone":
            source.unlink()
        elif change == "grown":
            source.write_bytes(data + b" ")
        else:  # one of the two ids, at the same size
            source.write_bytes(data.replace(b'"chain_drive"',
                                            b'"chain_drivX"', 1))
        assert not copy_recording(tmp_path, "chain_drive", "copy", len(data))
        assert not recording_path(tmp_path, "copy").exists()

    def test_read_rejects_malformed_documents(self, chain_map, tmp_path):
        bad = tmp_path / "x.record.json"
        # a version-1 recording: the version is refused before its keys
        old = recording_document(self.make_recording(chain_map))
        old.update(schema_version=1, wall_clock=0.25)
        bad.write_text(json.dumps(old))
        with pytest.raises(RecordingFormatError) as caught:
            read_recording(bad)
        assert str(caught.value) == \
            f"{bad}: /schema_version: unsupported schema_version 1"
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
        bad.write_text("[" * 100000 + "]" * 100000)  # past the parser's depth
        with pytest.raises(RecordingFormatError) as caught:
            read_recording(bad)
        assert str(caught.value) == \
            f"{bad}: invalid JSON: document nested too deeply"

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["frames"][0]["actors"][0].update(x="1.5"),
        lambda doc: doc["frames"][0]["actors"][1].update(speed=True),
        lambda doc: doc["frames"][0]["actors"][1].update(length=1e400),
        lambda doc: doc["frames"][1].update(sim_time="0.1"),
        lambda doc: doc["frames"][0]["ego_command"].update(brake="0.5"),
        lambda doc: doc["verdict"].update(time_of_decision=True),
        lambda doc: doc.update(schema_version=True),
        lambda doc: doc.update(rng_seed=2.7),
        lambda doc: doc.update(rng_seed=False),
        lambda doc: doc.update(scenario_id=7),
        lambda doc: doc.update(annotations=5),
        # the recording schema rejects each of these
        lambda doc: doc["verdict"].pop("details"),
        lambda doc: doc["verdict"].update(details=[]),
        lambda doc: doc["verdict"].update(details="none"),
        lambda doc: doc["verdict"].update(note="extra"),
        lambda doc: doc.update(annotations=[7]),
        lambda doc: doc.update(annotations=[{"sim_time": 1.0}]),
        lambda doc: doc.update(annotations=[{"type": 3}]),
        lambda doc: doc.update(annotations=[{"type": "note"}, {"type": ""}]),
        *SCHEMA_FAULTS.values(),
    ], ids=["string-x", "bool-speed", "huge-length", "string-sim-time",
            "string-brake", "bool-decision-time", "bool-schema-version",
            "float-seed", "bool-seed", "int-id", "int-annotations",
            "verdict-without-details", "list-details", "string-details",
            "verdict-extra-key", "int-annotation",
            "annotation-without-type", "int-annotation-type",
            "empty-annotation-type", *SCHEMA_FAULTS])
    def test_read_rejects_mistyped_fields(self, chain_map, tmp_path, edit):
        doc = recording_document(self.make_recording(chain_map))
        edit(doc)
        path = tmp_path / "x.record.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RecordingFormatError, match="x.record.json"):
            read_recording(path)

    @pytest.mark.parametrize("edit,message", [
        (SCHEMA_FAULTS["throttle-above-1"],
         "/frames/0/ego_command/throttle: expected a finite number >= 0 "
         "and <= 1"),
        (SCHEMA_FAULTS["negative-speed"],
         "/frames/0/actors/1: expected a non-empty actor_id, speed >= 0, "
         "length > 0 and width > 0"),
        (SCHEMA_FAULTS["length-above-max"],
         "/frames/0/actors/1: expected width <= length <= 20.0"),
        (SCHEMA_FAULTS["width-above-max"],
         "/frames/0/actors/1: expected width <= length <= 20.0"),
        (SCHEMA_FAULTS["frame-extra-key"], "/frames/0: unknown keys ['note']"),
        (SCHEMA_FAULTS["frame-without-ego"],
         '/frames/1/actors/0: expected the ego first: actor_id "ego" and '
         'kind "ego"'),
        (SCHEMA_FAULTS["ego-second"],
         '/frames/0/actors/0: expected the ego first: actor_id "ego" and '
         'kind "ego"'),
        (SCHEMA_FAULTS["first-actor-ego-id-npc-kind"],
         '/frames/0/actors/0: expected the ego first: actor_id "ego" and '
         'kind "ego"'),
        (SCHEMA_FAULTS["frame-without-actors"],
         "/frames/0/actors: expected at least 1 items"),
        (lambda doc: doc["config"]["ego"].update(end_station="far"),
         "/config/ego/end_station: expected a number"),
        (SCHEMA_FAULTS["ego-x-past-bound"],
         "/frames/1/actors/0: expected |x| and |y| <= 10000000.0"),
        (SCHEMA_FAULTS["npc-y-past-bound"],
         "/frames/0/actors/1: expected |x| and |y| <= 10000000.0"),
        (SCHEMA_FAULTS["width-below-min"],
         "/frames/0/actors/1: expected width >= 0.01"),
    ])
    def test_read_names_the_fault_by_json_pointer(self, chain_map, tmp_path,
                                                  edit, message):
        doc = recording_document(self.make_recording(chain_map))
        edit(doc)
        path = tmp_path / "x.record.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RecordingFormatError) as caught:
            read_recording(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_read_keeps_annotations_and_details(self, chain_map, tmp_path):
        rec = dataclasses.replace(
            self.make_recording(chain_map),
            verdict=Verdict(TIMEOUT, 2.0, {"other": "npc_1", "gap": 0.5}),
            annotations=({"type": "npc_contact", "sim_time": 1.5},
                         {"type": "note", "tags": ["a"]}))
        path = write_recording(rec, tmp_path)
        again = read_recording(path)
        assert again == rec
        assert again.verdict.details == {"other": "npc_1", "gap": 0.5}

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


# ---------------------------------------------------------------------------
# the step loop against the reference loop of tests/oracles.py

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# each shipped config with a seed whose first three random vectors give a
# collision and an arrival (the five configs share one template)
SHIPPED_VECTOR_SEEDS = {"avfuzzer": 2, "behavexplor": 4, "drivefuzz": 5,
                        "random": 8, "samota": 9}


class StallingSession(InProcessSession):
    """The in-process agent, timing out on the fifth request."""

    def request(self, perception):
        if self.sent == 4:
            self.sent += 1
            raise AgentTimeoutError("agent stalled")
        return super().request(perception)


def _loops_agree(config, lane_map, session_factory, oracles, dt):
    """Run ``config`` through both loops, require the same recording bytes
    and return the recording."""
    rec = run_scenario(config, lane_map, session_factory, oracles, 5, dt)
    ref = reference_run_scenario(config, lane_map, session_factory, oracles,
                                 5, dt)
    assert recording_bytes(rec) == recording_bytes(ref), \
        (config.scenario_id, dt)
    return rec


class TestReferenceLoop:
    @pytest.mark.parametrize("name", sorted(SHIPPED_VECTOR_SEEDS))
    def test_shipped_scenarios_record_the_reference_bytes(self, name):
        settings, _, _ = build_execution(load_config(CONFIG_DIR /
                                                     f"{name}.yaml"))
        prototype = flatten(settings.template, settings.space)
        lo, hi = prototype.bounds
        rng = np.random.default_rng(SHIPPED_VECTOR_SEEDS[name])
        lane_map, soon_stuck = settings.lane_map, \
            OracleConfig(stuck_duration=1.0)
        outcomes = set()
        for _ in range(3):
            config, _ = unflatten(prototype.with_values(rng.uniform(lo, hi)),
                                  settings.template)
            for dt in (0.1, 0.05):
                def agent(dt=dt):
                    return ReferenceEgoAgent(settings.mission, settings.agent,
                                             dt)

                def session():
                    return InProcessSession(agent)

                def stalled():
                    return StallingSession(agent)

                outcomes |= {rec.verdict.outcome for rec in (
                    _loops_agree(config, lane_map, session, settings.oracles,
                                 dt),
                    _loops_agree(dataclasses.replace(config,
                                                     duration_limit=2.0),
                                 lane_map, session, settings.oracles, dt),
                    _loops_agree(config, lane_map, brake_session, soon_stuck,
                                 dt),
                    _loops_agree(config, lane_map, stalled, settings.oracles,
                                 dt))}
        assert outcomes == {COLLISION, DESTINATION, TIMEOUT, STUCK,
                            AGENT_TIMEOUT}

    @pytest.mark.parametrize("dt", [0.1, 0.05])
    def test_obstacles_and_npc_contacts_record_the_reference_bytes(
            self, chain_map, dt):
        block = ObstacleSpec("rock", Pose(30.0, 0.0, 0.0), BodyDims(4.8, 2.0))
        aside = ObstacleSpec("cone", Pose(20.0, 6.0, 0.3), BodyDims(0.5, 0.5))
        east = NpcSpec("npc_1", (Pose(30.0, 0.0, 0.0), Pose(50.0, 0.0, 0.0)),
                       (5.0,))
        west = NpcSpec("npc_2",
                       (Pose(52.0, 0.0, math.pi), Pose(32.0, 0.0, math.pi)),
                       (5.0,), spawn_delay=1.0)
        blocked = chain_scenario(obstacles=(aside, block))
        contact = chain_scenario(npc_vehicles=(east, west), obstacles=(aside,),
                                 duration_limit=8.0)
        rec = _loops_agree(blocked, chain_map, reference_session(
            chain_map, blocked, dt, fault_ignore_obstacles=True),
            OracleConfig(), dt)
        assert rec.verdict.details["pair"] == ["ego", "rock"]
        rec = _loops_agree(contact, chain_map, brake_session, OracleConfig(),
                           dt)
        assert rec.verdict.outcome == TIMEOUT
        assert [note["pair"] for note in rec.annotations] == \
            [["npc_1", "npc_2"]]
