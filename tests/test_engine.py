"""Testing engine: feedback, operators, surrogate, templates, campaigns."""

import collections
import dataclasses
import hashlib
import json
import logging
import math
import statistics
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from facing_corners import (FAR_OUT, FAR_OUT_STEPS, circle_gap,
                            facing_corner_pairs)
from oracles import (distinct_scenarios, min_distance_every_sample,
                     recording_document, sample_distances)
from synthetic import SyntheticContext, box_prototype, plateau, sphere

from scenofuzz import bridge, canonical
from scenofuzz.bridge import InProcessSession, ReferenceEgoAgent
from scenofuzz.config import build_execution, load_config
from scenofuzz.engine import (avfuzzer, campaign, feedback, operators,
                              random_search, samota, template)
from scenofuzz.engine.campaign import (AgentSettings, BudgetExhausted,
                                       CampaignContext, CampaignError,
                                       ExecutionSettings, CampaignBudget,
                                       algorithm_registry, run_campaign)
from scenofuzz.engine.feedback import (
    ACCEL_EDGES, ACCEL_RANGE, BINS, FITNESS_SATURATION, HEADING_RATE_EDGES,
    HEADING_RATE_RANGE, MOVING_SPEED, NO_OBSTACLE_FITNESS, SPEED_EDGES,
    SPEED_RANGE, _histogram, compute_feedback, trace_min_distance)
from scenofuzz.engine.samota import IdwSurrogate
from scenofuzz.engine.template import (CONFLICT_DISTANCE, CROSSING_ANGLE,
                                       MissionSpec, build_template,
                                       onward_route)
from scenofuzz.geometry import Polyline, normalize_angle
from scenofuzz.lanemap import route
from scenofuzz.runner import (INVALID_SCENARIO, OUTCOMES, Frame,
                              ScenarioRecording, Verdict, mission_path,
                              read_recording, recording_path, run_scenario,
                              write_recording)
from scenofuzz.scenario import (EgoSpec, Gene, MutationSpace,
                                ParameterVector, ScenarioConfig, flatten,
                                unflatten, validate)
from scenofuzz.simulator import (A_MAX, BOUND_ROUNDING_MARGIN, STEER_MAX,
                                 WHEELBASE, ActorState, ControlCommand,
                                 actor_distance, actor_distance_lower_bound)


def ego_state(x=0.0, y=0.0, heading=0.0, speed=8.0, accel=0.0):
    return ActorState("ego", "ego", x, y, heading, speed, accel)


def recording_of(actor_frames, dt=0.1):
    """A recording whose frames hold the given actor lists."""
    config = ScenarioConfig("synthetic", "chain_3",
                            EgoSpec("lane_a", 0.0, "lane_a", 60.0))
    frames = tuple(Frame(round(i * dt, 9), tuple(actors), ControlCommand())
                   for i, actors in enumerate(actor_frames))
    return ScenarioRecording("synthetic", config, frames,
                             Verdict("Timeout", frames[-1].sim_time), 0)


def make_recording(ego_states, extra_actors=(), dt=0.1):
    return recording_of([(e,) + tuple(extra_actors) for e in ego_states], dt)


def _reference_histogram(values, lo: float, hi: float) -> np.ndarray:
    """The numpy histogram compute_feedback counted with before."""
    if len(values) == 0:
        return np.zeros(BINS)
    clipped = np.clip(np.asarray(values, dtype=float), lo, hi)
    counts, _ = np.histogram(clipped, bins=BINS, range=(lo, hi))
    return counts / counts.sum()


def _reference_behavior_vector(recording: ScenarioRecording) -> tuple[float, ...]:
    """The walk compute_feedback's behavior_vector came from."""
    egos = [next(a for a in f.actors if a.actor_id == "ego")
            for f in recording.frames]
    times = [f.sim_time for f in recording.frames]
    speeds = [e.speed for e in egos]
    accels = [e.acceleration for e in egos]
    rates = []
    for i in range(len(egos) - 1):
        dt = times[i + 1] - times[i]
        if dt > 0.0:
            rates.append(normalize_angle(egos[i + 1].heading - egos[i].heading) / dt)
    parts = [_reference_histogram(speeds, *SPEED_RANGE),
             _reference_histogram(accels, *ACCEL_RANGE),
             _reference_histogram(rates, *HEADING_RATE_RANGE)]
    return tuple(float(v) for v in np.concatenate(parts))


def _reference_quality_score(recording: ScenarioRecording, mission: Polyline,
                             lane_width: float, fitness: float) -> float:
    """The walks compute_feedback's quality_score came from."""
    egos = [next(a for a in f.actors if a.actor_id == "ego")
            for f in recording.frames]
    times = [f.sim_time for f in recording.frames]

    closeness = 1.0 - min(fitness, FITNESS_SATURATION) / FITNESS_SATURATION

    harsh_accel = min(max(abs(e.acceleration) for e in egos) / A_MAX, 1.0)

    harsh_steer = 0.0
    for i in range(len(egos) - 1):
        dt = times[i + 1] - times[i]
        v = egos[i].speed
        if dt <= 0.0 or v < MOVING_SPEED:
            continue
        omega = abs(normalize_angle(egos[i + 1].heading - egos[i].heading)) / dt
        ratio = omega * WHEELBASE / (v * math.tan(STEER_MAX))
        harsh_steer = max(harsh_steer, min(ratio, 1.0))

    half_width = lane_width / 2.0
    off = sum(1 for e in egos
              if abs(mission.project(e.x, e.y)[1]) > half_width)
    deviation = off / len(egos)

    return (closeness + harsh_accel + harsh_steer + deviation) / 4.0


STRAIGHT = Polyline([(0.0, 0.0), (100.0, 0.0)])


def assert_matches_reference(rec, mission=STRAIGHT, lane_width=3.5):
    """compute_feedback equals the reference walks to the bit."""
    fb = compute_feedback(rec, mission, lane_width)
    assert fb.behavior_vector == _reference_behavior_vector(rec)
    assert fb.quality_score.hex() == _reference_quality_score(
        rec, mission, lane_width, fb.fitness).hex()
    return fb


def _feedback_bits(fb):
    """A feedback's values, floats as their IEEE bits."""
    return (fb.fitness.hex(), tuple(v.hex() for v in fb.behavior_vector),
            fb.quality_score.hex(), fb.outcome, fb.time_of_decision.hex())


class TestFeedback:
    def test_behavior_histogram_placement(self):
        rec = make_recording([ego_state(speed=0.0, heading=0.0, accel=0.0),
                              ego_state(speed=10.0, heading=0.05, accel=2.0),
                              ego_state(speed=20.0, heading=0.05, accel=2.0)])
        vec = assert_matches_reference(rec).behavior_vector
        assert len(vec) == 24
        speed_hist = vec[0:8]
        accel_hist = vec[8:16]
        rate_hist = vec[16:24]
        # speeds 0, 10, 20 over [0, 30) in 3.75-wide bins: 0, 2, 5
        assert speed_hist == (1 / 3, 0.0, 1 / 3, 0.0, 0.0, 1 / 3, 0.0, 0.0)
        # accels 0, 2, 2 over [-8, 4) in 1.5-wide bins: 5, 6, 6
        assert accel_hist == (0.0, 0.0, 0.0, 0.0, 0.0, 1 / 3, 2 / 3, 0.0)
        # rates 0.5, 0.0 over [-2, 2) in 0.5-wide bins: 5, 4
        assert rate_hist == (0.0, 0.0, 0.0, 0.0, 1 / 2, 1 / 2, 0.0, 0.0)
        for start in (0, 8, 16):
            assert sum(vec[start:start + 8]) == pytest.approx(1.0)

    def test_behavior_clipping_to_end_bins(self):
        rec = make_recording([ego_state(speed=50.0, accel=-20.0),
                              ego_state(speed=50.0, accel=9.0)])
        vec = assert_matches_reference(rec).behavior_vector
        assert vec[7] == 1.0        # speed clipped into the top bin
        assert vec[8] == 0.5        # accel -20 into the bottom bin
        assert vec[15] == 0.5       # accel 9 into the top bin

    def test_single_frame_has_zero_rate_histogram(self):
        rec = make_recording([ego_state()])
        vec = assert_matches_reference(rec).behavior_vector
        assert vec[16:24] == (0.0,) * 8
        assert sum(vec[0:8]) == pytest.approx(1.0)

    def test_fitness_without_obstacles(self):
        rec = make_recording([ego_state(), ego_state(x=1.0)])
        assert trace_min_distance(rec) == NO_OBSTACLE_FITNESS
        assert assert_matches_reference(rec).fitness == NO_OBSTACLE_FITNESS

    def test_fitness_tracks_closest_approach(self):
        rock = ActorState("rock", "static", 20.0, 0.0, 0.0)
        rec = make_recording([ego_state(x=0.0), ego_state(x=10.0),
                              ego_state(x=5.0)], extra_actors=[rock])
        # closest at x=10: gap = 10 - (4.8 + 4.8) / 2 = 5.2
        assert trace_min_distance(rec) == pytest.approx(5.2, abs=1e-9)
        assert assert_matches_reference(rec).fitness == trace_min_distance(rec)

    def test_quality_route_deviation_component(self):
        rec = make_recording([ego_state(x=0.0), ego_state(x=0.8),
                              ego_state(x=1.6, y=3.0)])
        q = assert_matches_reference(rec).quality_score
        assert q == pytest.approx((1 / 3) / 4.0, abs=1e-12)

    def test_quality_harsh_steering_component(self):
        rec = make_recording([ego_state(heading=0.0), ego_state(heading=0.1)])
        omega = 0.1 / 0.1
        expected_steer = omega * 2.8 / (8.0 * math.tan(STEER_MAX))
        q = assert_matches_reference(rec).quality_score
        assert q == pytest.approx(expected_steer / 4.0, abs=1e-9)

    def test_quality_saturates_on_collision(self):
        # a rock on top of the ego: fitness 0, closeness 1
        rock = ActorState("rock", "static", 0.0, 0.0, 0.0)
        rec = make_recording([ego_state()], extra_actors=[rock])
        fb = assert_matches_reference(rec)
        assert fb.fitness == 0.0
        assert fb.quality_score == pytest.approx(0.25)  # other components 0

    def test_compute_feedback_bundles_verdict(self):
        rec = make_recording([ego_state(), ego_state(x=0.8)])
        fb = assert_matches_reference(rec)
        assert fb.outcome == "Timeout"
        assert fb.time_of_decision == rec.verdict.time_of_decision


class TestFeedbackReference:
    """compute_feedback against the separate walks it replaced, to the bit."""

    def test_repeated_sim_time_is_skipped(self):
        rec = recording_of([[ego_state(heading=0.0)],
                            [ego_state(heading=0.3, x=1.0)],
                            [ego_state(heading=0.5, x=2.0)]])
        rec = dataclasses.replace(rec, frames=(
            rec.frames[0], dataclasses.replace(rec.frames[1], sim_time=0.0),
            rec.frames[2]))
        fb = assert_matches_reference(rec)
        # one rate, from the frame at 0.0 to the frame at 0.2
        assert sum(fb.behavior_vector[16:24]) == 1.0
        assert fb.quality_score > 0.0

    def test_heading_wraps_across_pi(self):
        for a, b in ((math.pi - 0.01, -math.pi + 0.02),
                     (-math.pi + 0.02, math.pi - 0.01),
                     (math.pi, -math.pi + 1e-9), (3.1, -3.1)):
            rec = make_recording([ego_state(heading=a),
                                  ego_state(heading=b, x=0.8),
                                  ego_state(heading=a, x=1.6)])
            fb = assert_matches_reference(rec)
            # the small turn, not a near-full circle: no clipped rate
            assert fb.behavior_vector[16] == fb.behavior_vector[23] == 0.0

    def test_ego_below_moving_speed(self):
        slow = [ego_state(heading=0.1 * i, speed=MOVING_SPEED / 2, x=0.05 * i)
                for i in range(4)]
        fb = assert_matches_reference(make_recording(slow))
        assert fb.quality_score == 0.0  # no steering component at a crawl
        edge = [ego_state(heading=0.1 * i, speed=MOVING_SPEED, x=0.05 * i)
                for i in range(4)]
        assert assert_matches_reference(make_recording(edge)).quality_score > 0

    def test_ego_not_first_in_actors(self):
        """Both walks read the ego as each frame's first actor, as
        ``run_scenario`` writes it and ``read_recording`` checks it; a frame
        that breaks this is refused by its index, with no number returned
        and no bare StopIteration."""
        rock = ActorState("rock", "static", 30.0, 4.0, 0.2)
        npc = ActorState("npc_1", "npc", 12.0, -3.5, 0.0, 6.0, -1.0)
        egos = [ego_state(x=0.8 * i, heading=0.02 * i, accel=0.5 * i)
                for i in range(6)]
        good = [[ego, rock, npc] for ego in egos]
        assert assert_matches_reference(recording_of(good)).fitness < \
            NO_OBSTACLE_FITNESS
        for index, bad, found in ((0, [rock, npc, egos[0]], "'rock'"),
                                  (3, [npc, egos[3], rock], "'npc_1'"),
                                  (5, [rock, npc], "'rock'"),
                                  (2, [], "no actors")):
            frames = list(good)
            frames[index] = bad
            rec = recording_of(frames)
            message = f"^frame {index}: expected the ego first, got {found}$"
            with pytest.raises(ValueError, match=message):
                trace_min_distance(rec)
            with pytest.raises(ValueError, match=message):
                compute_feedback(rec, STRAIGHT)

    def test_summary_only_recording_is_refused(self, tmp_path):
        """A recording written without its frames reads back with none;
        feedback has nothing to walk and says so."""
        rec = make_recording([ego_state(x=0.8 * i) for i in range(3)])
        path = write_recording(dataclasses.replace(rec, frames=()), tmp_path)
        summary = read_recording(path)
        assert summary.frames == ()
        with pytest.raises(ValueError, match="^recording has no frames$"):
            compute_feedback(summary, STRAIGHT)

    def test_seeded_recordings(self):
        rng = np.random.default_rng(11)
        mission = Polyline([(0.0, 0.0), (40.0, 0.0), (60.0, 25.0)])
        for _ in range(200):
            t = 0.0
            frames = []
            for _ in range(int(rng.integers(1, 30))):
                t += float(rng.choice([0.0, 0.05, 0.1]))
                frames.append(Frame(t, (ego_state(
                    x=float(rng.uniform(-5, 65)), y=float(rng.uniform(-5, 30)),
                    heading=float(rng.uniform(-math.pi, math.pi)),
                    speed=float(rng.uniform(0.0, 2.0 * MOVING_SPEED)),
                    accel=float(rng.uniform(-10.0, 6.0))),), ControlCommand()))
            rec = dataclasses.replace(recording_of([[ego_state()]]),
                                      frames=tuple(frames))
            assert_matches_reference(rec, mission, float(rng.uniform(1, 5)))

    @pytest.mark.parametrize("algo", ["avfuzzer", "behavexplor"])
    def test_agent_slots_match_a_recording_read_back(
            self, junction_settings, tmp_path, monkeypatch, algo):
        """The campaign's own recordings hold the states the reference agent
        guided, with each lateral offset kept in the state's ``_guide``
        slot; the same recordings read back from disk hold new states with
        empty slots, so feedback projects every ego.  Both give the same
        bits, and so do the reference walks."""
        evaluated = []
        compute = campaign.compute_feedback

        def kept(recording, mission, lane_width):
            fb = compute(recording, mission, lane_width)
            evaluated.append((recording, mission, lane_width, fb))
            return fb

        monkeypatch.setattr(campaign, "compute_feedback", kept)
        campaign_log(junction_settings, algo=algo, seed=4, evals=12,
                     output_dir=tmp_path)
        monkeypatch.undo()
        assert len(evaluated) == 12
        projected = []
        project = Polyline.project
        monkeypatch.setattr(Polyline, "project",
                            lambda line, x, y: projected.append(1)
                            or project(line, x, y))
        for recording, mission, lane_width, fb in evaluated:
            assert mission is junction_settings.mission
            # the agent saw every frame but the last, on this mission
            assert all(f.actors[0]._guide[0] is mission
                       for f in recording.frames[:-1])
            read = read_recording(tmp_path / "recordings"
                                  / f"{recording.scenario_id}.record.json")
            assert all(f.actors[0]._guide is None for f in read.frames)
            projected.clear()
            in_memory = compute_feedback(recording, mission, lane_width)
            assert len(projected) <= 1  # the last frame at most
            projected.clear()
            fresh = compute_feedback(read, mission, lane_width)
            assert len(projected) == len(read.frames)
            bits = _feedback_bits(fb)
            assert _feedback_bits(in_memory) == bits
            assert _feedback_bits(fresh) == bits
            for rec in (recording, read):
                assert _feedback_bits(assert_matches_reference(
                    rec, mission, lane_width)) == bits
                assert fb.fitness.hex() == \
                    _reference_trace_min_distance(rec).hex()

    def test_a_slot_filled_on_another_route_object_is_projected_afresh(
            self, monkeypatch):
        """A state whose slot was filled on a route equal in value to the
        mission, but another object, is projected onto the mission."""
        mission = Polyline([(0.0, 0.0), (40.0, 0.0), (60.0, 25.0)])
        twin = Polyline([(0.0, 0.0), (40.0, 0.0), (60.0, 25.0)])
        assert twin.points == mission.points and twin is not mission
        egos = [ego_state(x=2.0 * i - 6.0, y=0.3 * i - 1.5, heading=0.05 * i)
                for i in range(12)]
        # behind the route's start, the lateral offset stays inside the
        # lane while the distance leaves it, so only the offset scores
        _, lateral, distance = mission.project(egos[0].x, egos[0].y)
        assert abs(lateral) < 3.5 / 2.0 < distance
        rec = make_recording(egos)
        projected = []
        project = Polyline.project
        monkeypatch.setattr(Polyline, "project",
                            lambda line, x, y: projected.append(line)
                            or project(line, x, y))
        expected = _feedback_bits(assert_matches_reference(rec, mission))
        for ego in egos:  # slots filled on the mission are read
            bridge.route_guidance(mission, ego, 8.0)
        projected.clear()
        assert _feedback_bits(compute_feedback(rec, mission)) == expected
        assert projected == []
        for ego in egos:  # slots filled on the twin are not
            bridge.route_guidance(twin, ego, 8.0)
            assert ego._guide[0] is twin
        projected.clear()
        assert _feedback_bits(compute_feedback(rec, mission)) == expected
        assert projected == [mission] * len(egos)

    @pytest.mark.parametrize("dt", [0.1, 0.05])
    def test_run_scenario_recordings(self, junction_settings, dt):
        template, lane_map = junction_settings.template, junction_settings.lane_map
        mission = mission_path(template, lane_map)
        lane_width = lane_map.lane(template.ego.start_lane_id).width
        prototype = CampaignContext(junction_settings,
                                    CampaignBudget(max_evaluations=1)).prototype

        def session_factory():
            return InProcessSession(lambda: ReferenceEgoAgent(
                mission, junction_settings.agent, dt))

        rng = np.random.default_rng(2)  # two of the eight collide
        outcomes = set()
        for _ in range(8):
            config, _ = unflatten(operators.sample_uniform(rng, prototype),
                                  template)
            rec = run_scenario(config, lane_map, session_factory, dt=dt)
            assert len(rec.frames) > 1
            assert_matches_reference(rec, mission, lane_width)
            outcomes.add(rec.verdict.outcome)
        assert len(outcomes) > 1


HISTOGRAMS = [(SPEED_RANGE, SPEED_EDGES), (ACCEL_RANGE, ACCEL_EDGES),
              (HEADING_RATE_RANGE, HEADING_RATE_EDGES)]


def assert_histogram_matches_reference(values, value_range, inner_edges):
    counted = _histogram(list(values), inner_edges)
    assert all(type(share) is float for share in counted)
    assert tuple(counted) == tuple(
        float(v) for v in _reference_histogram(values, *value_range)), values


@pytest.mark.parametrize("value_range,inner_edges", HISTOGRAMS,
                         ids=["speed", "accel", "heading-rate"])
class TestHistogramReference:
    """The plain-Python counts against the numpy histogram they replaced."""

    def test_edges_are_numpys(self, value_range, inner_edges):
        _, edges = np.histogram([], bins=BINS, range=value_range)
        assert [e.hex() for e in inner_edges] == \
            [float(e).hex() for e in edges[1:-1]]

    def test_empty_input(self, value_range, inner_edges):
        assert _histogram([], inner_edges) == [0.0] * BINS
        assert_histogram_matches_reference([], value_range, inner_edges)

    def test_every_edge_and_one_ulp_around_it(self, value_range, inner_edges):
        lo, hi = value_range
        around = []
        for edge in (lo,) + inner_edges + (hi,):
            near = [math.nextafter(edge, -math.inf), edge,
                    math.nextafter(edge, math.inf)]
            for value in near:
                assert_histogram_matches_reference([value], value_range,
                                                   inner_edges)
            around += near
        assert_histogram_matches_reference(around, value_range, inner_edges)

    def test_limits_and_beyond(self, value_range, inner_edges):
        lo, hi = value_range
        for values in ([lo], [hi], [lo, hi], [-0.0, 0.0], [lo - 1e9, hi + 1e9],
                       [-math.inf, math.inf, hi], [hi] * 7 + [lo]):
            assert_histogram_matches_reference(values, value_range,
                                               inner_edges)

    def test_seeded_values(self, value_range, inner_edges):
        lo, hi = value_range
        rng = np.random.default_rng(5)
        edges = (lo,) + inner_edges + (hi,)
        margin = (hi - lo) / 2.0
        for _ in range(300):
            n = int(rng.integers(1, 200))
            values = rng.uniform(lo - margin, hi + margin, n).tolist()
            # some values on an edge, as rates of whole radians per step are
            values += [edges[int(i)] for i in rng.integers(0, BINS + 1, n // 4)]
            rng.shuffle(values)
            assert_histogram_matches_reference(values, value_range,
                                               inner_edges)


def _avfuzzer_offspring(ctx, population, fitnesses, pm, pc, sigma, count):
    """avfuzzer's child loop before it moved to ``operators.breed``."""
    children = []
    while len(children) < count:
        i = operators.tournament_select(ctx.rng, population, fitnesses)
        j = operators.tournament_select(ctx.rng, population, fitnesses)
        a, b, _ = operators.crossover_one_point(ctx.rng, population[i],
                                                population[j], pc)
        children.append(operators.mutate_gaussian(ctx.rng, a, pm, sigma))
        if len(children) < count:
            children.append(operators.mutate_gaussian(ctx.rng, b, pm, sigma))
    return children


def _samota_children(rng, population, fitnesses, pm, pc, count):
    """samota's inner-GA child loop before it moved to ``operators.breed``
    (there ``pm``, ``pc`` and ``count`` were its INNER_* constants)."""
    children = []
    while len(children) < count:
        i = operators.tournament_select(rng, population, fitnesses)
        j = operators.tournament_select(rng, population, fitnesses)
        a, b, _ = operators.crossover_one_point(rng, population[i],
                                                population[j], pc)
        children.append(operators.mutate_gaussian(rng, a, pm))
        if len(children) < count:
            children.append(operators.mutate_gaussian(rng, b, pm))
    return children


class TestOperators:
    def test_sample_uniform_respects_bounds(self):
        proto = box_prototype(12, low=-3.0, high=7.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = operators.sample_uniform(rng, proto)
            assert all(-3.0 <= x <= 7.0 for x in v.values)
        assert operators.sample_uniform(np.random.default_rng(5), proto) == \
            operators.sample_uniform(np.random.default_rng(5), proto)

    def test_mutation_rate_and_bounds(self):
        proto = box_prototype(10)
        rng = np.random.default_rng(1)
        parent = operators.sample_uniform(rng, proto)
        changed = total = 0
        for _ in range(500):
            child = operators.mutate_gaussian(rng, parent, pm=0.6)
            assert all(0.0 <= x <= 10.0 for x in child.values)
            changed += sum(1 for a, b in zip(parent.values, child.values)
                           if a != b)
            total += len(parent)
        assert 0.55 <= changed / total <= 0.65

    def test_mutation_extremes(self):
        proto = box_prototype(10)
        rng = np.random.default_rng(2)
        parent = operators.sample_uniform(rng, proto)
        assert operators.mutate_gaussian(rng, parent, pm=0.0) == parent
        child = operators.mutate_gaussian(rng, parent, pm=1.0)
        assert all(a != b for a, b in zip(parent.values, child.values))

    def test_mutation_gene_subset(self):
        proto = box_prototype(10)
        rng = np.random.default_rng(3)
        parent = operators.sample_uniform(rng, proto)
        child = operators.mutate_gaussian(rng, parent, pm=1.0,
                                          gene_indices=[0, 1, 2])
        assert child.values[3:] == parent.values[3:]
        assert child.values[:3] != parent.values[:3]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_step_past_the_largest_float_clips_to_the_bound(self):
        top = sys.float_info.max
        genes = tuple(Gene("npc_1", "delay", i, 0.0, top) for i in range(8))
        parent = ParameterVector((top,) * 8, genes)
        child = operators.mutate_gaussian(np.random.default_rng(0), parent,
                                          pm=1.0)
        assert top in child.values
        assert all(0.0 <= x <= top for x in child.values)

    def test_crossover_structure_and_rate(self):
        proto = box_prototype(8)
        rng = np.random.default_rng(4)
        a = operators.sample_uniform(rng, proto)
        b = operators.sample_uniform(rng, proto)
        crossed_n = 0
        for _ in range(600):
            ca, cb, crossed = operators.crossover_one_point(rng, a, b, pc=0.6)
            if not crossed:
                assert (ca, cb) == (a, b)
                continue
            crossed_n += 1
            cut = next(i for i in range(len(a))
                       if ca.values[i] != a.values[i])
            assert 1 <= cut < len(a)
            assert ca.values == a.values[:cut] + b.values[cut:]
            assert cb.values == b.values[:cut] + a.values[cut:]
        assert 0.54 <= crossed_n / 600 <= 0.66

    def test_crossover_rejects_mismatched_layouts(self):
        rng = np.random.default_rng(5)
        a = operators.sample_uniform(rng, box_prototype(4))
        b = operators.sample_uniform(rng, box_prototype(5))
        with pytest.raises(ValueError):
            operators.crossover_one_point(rng, a, b, pc=1.0)

    def test_tournament_favors_low_fitness(self):
        proto = box_prototype(3)
        rng = np.random.default_rng(6)
        pop = [operators.sample_uniform(rng, proto) for _ in range(6)]
        fits = [5.0, 1.0, 3.0, 0.5, 2.0, 4.0]
        counts = [0] * 6
        for _ in range(2000):
            counts[operators.tournament_select(rng, pop, fits)] += 1
        # entrants are drawn with replacement: the best index wins whenever
        # sampled (~31% of tournaments), the worst only against itself (~3%)
        assert all(counts[3] > counts[i] for i in range(6) if i != 3)
        assert counts[0] < counts[3] / 4
        with pytest.raises(ValueError):
            operators.tournament_select(rng, [], [])

    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize("pc", [0.0, 1.0])
    def test_breed_equals_the_loops_it_replaced(self, count, pc):
        proto = box_prototype(6)

        def children(seed, breeder):
            """Children's values as bytes and the next draw, on a seeded
            population."""
            rng = np.random.default_rng(seed)
            pop = [operators.sample_uniform(rng, proto) for _ in range(5)]
            fits = list(rng.uniform(0.0, 10.0, size=5))
            return ([np.asarray(c.values).tobytes()
                     for c in breeder(rng, pop, fits)],
                    rng.random())

        for seed in range(10):
            for sigma in (avfuzzer.GLOBAL_SIGMA, avfuzzer.LOCAL_SIGMA):
                assert children(seed, lambda rng, pop, fits: operators.breed(
                    rng, pop, fits, 0.6, pc, count, sigma)) == \
                    children(seed, lambda rng, pop, fits: _avfuzzer_offspring(
                        types.SimpleNamespace(rng=rng), pop, fits, 0.6, pc,
                        sigma, count))
            assert children(seed, lambda rng, pop, fits: operators.breed(
                rng, pop, fits, samota.INNER_PM, pc, count)) == \
                children(seed, lambda rng, pop, fits: _samota_children(
                    rng, pop, fits, samota.INNER_PM, pc, count))


class TestSurrogate:
    def test_exact_at_sites(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 10, size=(30, 5))
        y = rng.uniform(-3, 3, size=30)
        s = IdwSurrogate(X, y)
        for i in range(30):
            assert s.predict(X[i]) == y[i]

    def test_bounded_by_data_range(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 10, size=(20, 4))
        y = rng.uniform(5, 9, size=20)
        s = IdwSurrogate(X, y)
        for _ in range(200):
            p = s.predict(rng.uniform(-5, 15, size=4))
            assert y.min() <= p <= y.max()

    def test_hand_computed_weighting(self):
        s = IdwSurrogate([[0.0], [2.0]], [0.0, 10.0])
        # weights 1/0.25 and 1/2.25 at x=0.5 give exactly 1.0
        assert s.predict([0.5]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_site_too_near_to_weigh_dominates(self):
        # 1/d2 overflows at d2 = 1e-320; against the nearest site, the other
        # one weighs 1e-320
        s = IdwSurrogate([[0.0], [1.0]], [3.0, 5.0])
        assert s.predict([1e-160]) == 3.0

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            IdwSurrogate([], [])
        with pytest.raises(ValueError):
            IdwSurrogate([[0.0]], [1.0, 2.0])


def every_sample_conflict_lanes(lane_map, mission):
    """The lanes of ``template._conflict_routes`` without the box check,
    projecting every sample."""
    out = []
    for lane_id in sorted(lane_map.lanes):
        if lane_id in mission.lane_sequence:
            continue
        onward = onward_route(lane_map, lane_id).path
        dist, s_self, s_mission = min_distance_every_sample(onward,
                                                            mission.path)
        if dist > CONFLICT_DISTANCE:
            continue
        relative = normalize_angle(onward.heading_at(s_self)
                                   - mission.path.heading_at(s_mission))
        if abs(relative) > CROSSING_ANGLE:
            out.append(lane_id)
    return out


class TestTemplate:
    def test_junction_conflict_lanes(self, junction_map):
        mission = route(junction_map, "lane_31", "lane_15")
        assert [lane for lane, _ in
                template._conflict_routes(junction_map, mission)] == \
            ["lane_20", "lane_21"]

    def test_conflict_lanes_equal_every_sample_reference(
            self, bundled_missions):
        assert len(bundled_missions) == 32
        for lane_map, mission in bundled_missions:
            assert [lane for lane, _ in
                    template._conflict_routes(lane_map, mission)] == \
                every_sample_conflict_lanes(lane_map, mission), \
                (lane_map.name, mission.lane_sequence)

    def test_junction_search_prunes(self, junction_map, monkeypatch):
        """All five lanes off the mission are searched, and together they
        cost fewer than half of their samples' projections."""
        mission = route(junction_map, "lane_31", "lane_15")
        searched, projections = [], []
        min_distance_to, project = Polyline.min_distance_to, Polyline.project

        def counted_min_distance(line, other):
            searched.append(line.points)
            return min_distance_to(line, other)

        def counted_project(line, x, y):
            projections.append((x, y))
            return project(line, x, y)

        monkeypatch.setattr(Polyline, "min_distance_to", counted_min_distance)
        monkeypatch.setattr(Polyline, "project", counted_project)
        assert [lane for lane, _ in
                template._conflict_routes(junction_map, mission)] == \
            ["lane_20", "lane_21"]
        monkeypatch.undo()
        near = [onward_route(junction_map, lane_id).path
                for lane_id in ("lane_11", "lane_16", "lane_20", "lane_21",
                                "lane_22")]
        assert searched == [path.points for path in near]
        every = sum(len(sample_distances(path, mission.path)) for path in near)
        assert len(projections) < every / 2

    def test_chain_has_no_conflicts(self, chain_map):
        mission = route(chain_map, "lane_a", "lane_c")
        assert [lane for lane, _ in
                template._conflict_routes(chain_map, mission)] == []

    def test_onward_route_follows_successors(self, junction_map):
        onward = onward_route(junction_map, "lane_20")
        assert onward.lane_sequence == ("lane_20", "lane_21", "lane_22")

    def test_template_structure(self, junction_map):
        spec = MissionSpec("borregas_ave_lite", "lane_31", 40.0,
                           "lane_15", 50.0, duration_limit=30.0)
        template = build_template(junction_map, spec)
        assert [n.actor_id for n in template.npc_vehicles] == ["npc_1", "npc_2"]
        for npc in template.npc_vehicles:
            assert len(npc.target_speeds) == len(npc.waypoints) - 1
            assert all(s == 8.0 for s in npc.target_speeds)
            assert npc.spawn_delay == 0.0
        assert validate(template, junction_map) == []
        proto = flatten(template, MutationSpace())
        assert unflatten(proto, template) == (template, [])

    def test_template_mission_geometry(self, junction_map):
        spec = MissionSpec("borregas_ave_lite", "lane_31", 40.0,
                           "lane_15", 50.0)
        template = build_template(junction_map, spec)
        path = mission_path(template, junction_map)
        assert path.point_at(0.0) == pytest.approx((0.0, -60.0))
        assert path.point_at(path.length) == pytest.approx((0.0, 60.0))
        assert path.length == pytest.approx(120.0, abs=1e-6)


def campaign_log(settings, algo="random", seed=0, evals=10, workers=1,
                 output_dir=None, resume=False, params=None):
    ctx = CampaignContext(settings, CampaignBudget(max_evaluations=evals),
                          seed=seed, workers=workers, output_dir=output_dir,
                          resume=resume)
    report = run_campaign(algo, ctx, params or {})
    return ctx, report


def _entry_1_with(key: str, value):
    """Edits a log: one field of entry 1 replaced by ``value``."""
    def edit(log: bytes) -> bytes:
        entries = canonical.loads(log)
        entries[1][key] = value
        return canonical.dump_bytes(entries)
    return edit


def _entry_1_without(key: str):
    """Edits a log: one key of entry 1 dropped."""
    def edit(log: bytes) -> bytes:
        entries = canonical.loads(log)
        del entries[1][key]
        return canonical.dump_bytes(entries)
    return edit


@pytest.fixture
def checked_checkpoints(monkeypatch):
    """Checks ``evaluations.json`` after every checkpoint of a persisted run.

    The file must be either the reference encoding of the whole log, or,
    while a resume still has entries to replay, left exactly as it was.
    Returns the number of checkpoints of each kind.
    """
    counts = {"rewritten": 0, "kept": 0}
    original = CampaignContext.checkpoint

    def checkpoint(self):
        log = self.output_dir / campaign.EVALUATIONS_FILE
        before = log.read_bytes() if log.exists() else None
        original(self)
        after = log.read_bytes()
        if after == canonical.dump_bytes(self.records):
            counts["rewritten"] += 1
        else:
            assert after == before, "checkpoint wrote a different log"
            assert len(canonical.loads(before)) > self.completed
            counts["kept"] += 1

    monkeypatch.setattr(CampaignContext, "checkpoint", checkpoint)
    return counts


class TestCampaign:
    def test_budget_is_exact(self, junction_settings):
        ctx, report = campaign_log(junction_settings, evals=7)
        assert ctx.completed == 7
        assert report["evaluations"] == 7
        assert ctx.finished

    def test_same_seed_same_log(self, junction_settings):
        a, _ = campaign_log(junction_settings, seed=9, evals=8)
        b, _ = campaign_log(junction_settings, seed=9, evals=8)
        assert canonical.dumps(a.records) == canonical.dumps(b.records)
        c, _ = campaign_log(junction_settings, seed=10, evals=8)
        assert canonical.dumps(c.records) != canonical.dumps(a.records)

    def test_campaigns_share_the_mission_of_their_settings(
            self, junction_settings, tmp_path, step_memo, monkeypatch):
        """Campaigns on one settings object guide the ego on one mission, so
        a second same-seed campaign reads the guidance kept on the ego
        states the step memo shares: it computes guidance once per
        evaluation, for the ego the evaluation spawns, and writes the same
        log."""
        settings = dataclasses.replace(junction_settings)  # no mission yet
        computed = []
        compute = bridge._route_guidance

        def counted(route, ego, cruise_speed):
            computed.append(ego)
            return compute(route, ego, cruise_speed)

        monkeypatch.setattr(bridge, "_route_guidance", counted)
        logs, counts = [], []
        for name in ("first", "second"):
            computed.clear()
            ctx, _ = campaign_log(settings, algo="avfuzzer", seed=5, evals=12,
                                  output_dir=tmp_path / name)
            assert ctx._mission is settings.mission
            logs.append(
                (tmp_path / name / campaign.EVALUATIONS_FILE).read_bytes())
            counts.append(len(computed))
        assert logs[0] == logs[1]
        assert counts[1] == 12 < counts[0]

    def test_worker_count_does_not_change_log(self, junction_settings):
        a, _ = campaign_log(junction_settings, algo="avfuzzer", seed=4,
                            evals=14)
        b, _ = campaign_log(junction_settings, algo="avfuzzer", seed=4,
                            evals=14, workers=3)
        assert canonical.dumps(a.records) == canonical.dumps(b.records)

    def test_worker_count_does_not_change_recordings(self, junction_settings,
                                                     tmp_path):
        # a recording is a function of its scenario, seed and dt alone
        trees = []
        for workers in (1, 3):
            ctx, _ = campaign_log(junction_settings, algo="avfuzzer", seed=4,
                                  evals=14, workers=workers,
                                  output_dir=tmp_path / str(workers))
            directory = tmp_path / str(workers) / campaign.RECORDINGS_DIR
            trees.append({path.name: path.read_bytes()
                          for path in directory.iterdir()})
        assert len(trees[0]) == len({r["scenario_id"] for r in ctx.records})
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("frames", [True, False], ids=["frames", "summary"])
    @pytest.mark.parametrize("algo", ["avfuzzer", "behavexplor"])
    def test_recordings_equal_the_reference_document(
            self, junction_settings, tmp_path, monkeypatch, checked_checkpoints,
            algo, frames):
        runs = {}  # scenario id -> the recording a fresh run returned
        written = {}  # scenario id -> the run behind each recording written

        def run(config, *args, **kwargs):
            runs[config.scenario_id] = run_scenario(config, *args, **kwargs)
            return runs[config.scenario_id]

        def capture(rec, directory):
            ran = runs.get(rec.scenario_id)
            if ran is None:  # an InvalidScenario recording has no frames
                assert rec.verdict.outcome == INVALID_SCENARIO
                assert rec.frames == ()
            elif frames:
                assert rec is ran
            else:
                assert rec.frames == () and rec.verdict is ran.verdict
            written[rec.scenario_id] = rec if ran is None else ran
            return write_recording(rec, directory)

        monkeypatch.setattr(campaign, "run_scenario", run)
        monkeypatch.setattr(campaign, "write_recording", capture)
        settings = dataclasses.replace(junction_settings,
                                       save_traffic_recording=frames)
        ctx, _ = campaign_log(settings, algo=algo, seed=1, evals=12,
                              output_dir=tmp_path)
        directory = tmp_path / campaign.RECORDINGS_DIR
        assert sorted(p.name for p in directory.iterdir()) == \
            [f"eval_{i:06d}.record.json" for i in range(12)]
        reruns = 0
        for record in ctx.records:
            scenario_id = record["scenario_id"]
            rec = written.get(scenario_id)
            if rec is None:
                # a memo hit: the recording a rerun writes
                config = dataclasses.replace(unflatten(
                    ctx.prototype.with_values(record["values"]),
                    settings.template)[0], scenario_id=scenario_id)
                rec = run_scenario(
                    config, settings.lane_map,
                    lambda: InProcessSession(lambda: ReferenceEgoAgent(
                        settings.mission, settings.agent, settings.dt)),
                    settings.oracles, seed=ctx.seed, dt=settings.dt)
                reruns += 1
            if not frames:
                rec = dataclasses.replace(rec, frames=())
            path = recording_path(directory, scenario_id)
            assert path.read_bytes() == canonical.dump_bytes(
                recording_document(rec)), path.name
        assert len(written) == 12 - reruns == \
            distinct_scenarios(ctx.records, ctx)
        assert sum(len(rec.frames) for rec in written.values()) > 12
        assert reruns == {"avfuzzer": 0, "behavexplor": 2}[algo]
        assert checked_checkpoints["kept"] == 0
        assert checked_checkpoints["rewritten"] > 1

    def test_outputs_on_disk(self, junction_settings, tmp_path):
        out = tmp_path / "run"
        ctx, report = campaign_log(junction_settings, evals=3, output_dir=out)
        assert (out / "evaluations.json").exists()
        assert (out / "campaign.state.json").exists()
        assert (out / "report.json").exists()
        recording = read_recording(out / "recordings" / "eval_000000.record.json")
        assert recording.frames  # full traffic recording by default
        state = canonical.loads((out / "campaign.state.json").read_text())
        assert state["completed"] == 3
        assert state["finished"] is True
        on_disk = canonical.loads((out / "report.json").read_text())
        assert on_disk["evaluations"] == report["evaluations"]
        # written as canonical UTF-8 whatever the locale
        assert (out / "report.json").read_bytes() == \
            canonical.dump_bytes(report)
        assert (out / "evaluations.json").read_bytes() == \
            canonical.dump_bytes(ctx.records)

    def test_summary_recordings_when_disabled(self, junction_settings,
                                              tmp_path):
        import dataclasses
        settings = dataclasses.replace(junction_settings,
                                       save_traffic_recording=False)
        out = tmp_path / "run"
        campaign_log(settings, evals=2, output_dir=out)
        rec = read_recording(out / "recordings" / "eval_000001.record.json")
        assert rec.frames == ()
        assert rec.verdict.outcome

    def test_resume_replays_and_matches_uninterrupted(self, junction_settings,
                                                      tmp_path,
                                                      checked_checkpoints):
        import time
        full, _ = campaign_log(junction_settings, algo="avfuzzer", seed=2,
                               evals=12, output_dir=tmp_path / "uncut")

        partial_dir = tmp_path / "cut"
        ctx_a, _ = campaign_log(junction_settings, algo="avfuzzer", seed=2,
                                evals=5, output_dir=partial_dir)
        assert ctx_a.completed == 5

        t0 = time.perf_counter()
        ctx_b = CampaignContext(junction_settings,
                                CampaignBudget(max_evaluations=12), seed=2,
                                output_dir=partial_dir, resume=True)
        run_campaign("avfuzzer", ctx_b, {})
        resumed_wall = time.perf_counter() - t0
        assert ctx_b.completed == 12
        assert canonical.dumps(ctx_b.records) == canonical.dumps(full.records)
        assert canonical.dumps(ctx_b.records[:5]) == \
            canonical.dumps(ctx_a.records)
        assert resumed_wall < 60.0
        assert (partial_dir / "evaluations.json").read_bytes() == \
            (tmp_path / "uncut" / "evaluations.json").read_bytes()
        assert checked_checkpoints["rewritten"] > 2

    def test_interrupted_replay_keeps_the_whole_log(self, junction_settings,
                                                    tmp_path, monkeypatch,
                                                    checked_checkpoints):
        campaign_log(junction_settings, algo="behavexplor", seed=3, evals=12,
                     output_dir=tmp_path / "uncut")
        whole = (tmp_path / "uncut" / "evaluations.json").read_bytes()
        out = tmp_path / "cut"
        campaign_log(junction_settings, algo="behavexplor", seed=3, evals=8,
                     output_dir=out)
        log_before = (out / "evaluations.json").read_bytes()
        state_before = (out / "campaign.state.json").read_bytes()
        assert len(canonical.loads(log_before)) == 8

        class Interrupted(Exception):
            pass

        original = CampaignContext.evaluate_batch
        batches = []

        def evaluate_batch(self, vectors):
            if len(batches) == 3:
                raise Interrupted
            batches.append(vectors)
            return original(self, vectors)

        monkeypatch.setattr(CampaignContext, "evaluate_batch", evaluate_batch)
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=12), seed=3,
                              output_dir=out, resume=True)
        with pytest.raises(Interrupted):
            run_campaign("behavexplor", ctx, {})
        assert ctx.completed == 3
        assert (out / "evaluations.json").read_bytes() == log_before
        assert (out / "campaign.state.json").read_bytes() == state_before

        monkeypatch.setattr(CampaignContext, "evaluate_batch", original)
        ctx, _ = campaign_log(junction_settings, algo="behavexplor", seed=3,
                              evals=12, output_dir=out, resume=True)
        assert ctx.completed == 12
        assert (out / "evaluations.json").read_bytes() == whole
        # a replay makes no checkpoint call: the one that left the file
        # alone is run_campaign's on the exception; the resume's first
        # write appends the 9th entry
        assert checked_checkpoints["kept"] == 1

    def test_resuming_a_finished_campaign_writes_only_the_state(
            self, junction_settings, tmp_path, monkeypatch):
        out = tmp_path / "run"
        campaign_log(junction_settings, seed=4, evals=6, output_dir=out)
        log = out / campaign.EVALUATIONS_FILE
        before = log.read_bytes(), log.stat().st_ino
        written = []
        atomic_write = campaign._atomic_write

        def recorded(path, data):
            written.append(path.name)
            atomic_write(path, data)

        monkeypatch.setattr(campaign, "_atomic_write", recorded)
        ctx, _ = campaign_log(junction_settings, seed=4, evals=6,
                              output_dir=out, resume=True)
        assert ctx.completed == 6 and ctx.finished
        # the checkpoints write the state file; run_campaign its report
        assert set(written) == {campaign.STATE_FILE, campaign.REPORT_FILE}
        assert written[-1] == campaign.REPORT_FILE
        assert (log.read_bytes(), log.stat().st_ino) == before

    @pytest.mark.parametrize("stop", ["budget", "stop-request"])
    def test_report_of_a_resume_that_stops_during_replay(
            self, junction_settings, tmp_path, monkeypatch, stop):
        # seed 2: the 8-entry log has collisions at 2, 6 and 7, all after
        # the first two entries, which are all that get replayed
        out = tmp_path / "run"
        _, whole = campaign_log(junction_settings, algo="behavexplor", seed=2,
                                evals=8, output_dir=out)
        assert whole["violations"] == 3
        original = CampaignContext.evaluate_batch

        def evaluate_batch(self, vectors):
            if self.completed == 2:
                self.stop_requested = True  # as Ctrl-C does
            return original(self, vectors)

        if stop == "stop-request":
            monkeypatch.setattr(CampaignContext, "evaluate_batch",
                                evaluate_batch)
        ctx = CampaignContext(
            junction_settings,
            CampaignBudget(max_evaluations=2 if stop == "budget" else 12),
            seed=2, output_dir=out, resume=True)
        report = run_campaign("behavexplor", ctx, {})
        assert ctx.completed == 2
        log = canonical.loads((out / "evaluations.json").read_bytes())
        state = canonical.loads((out / "campaign.state.json").read_bytes())
        assert report == canonical.loads((out / "report.json").read_bytes())
        assert report["evaluations"] == len(log) == state["completed"] == 8
        for key in ("violations", "first_violation_index", "best_fitness"):
            assert report[key] == whole[key], key

    def test_finer_dt_keeps_worker_and_resume_invariance(
            self, junction_settings, tmp_path, monkeypatch):
        fine = dataclasses.replace(junction_settings, dt=0.05)
        one, _ = campaign_log(fine, algo="avfuzzer", seed=6, evals=12)
        log = canonical.dump_bytes(one.records)
        two, _ = campaign_log(fine, algo="avfuzzer", seed=6, evals=12,
                              workers=2)
        assert canonical.dump_bytes(two.records) == log
        coarse, _ = campaign_log(junction_settings, algo="avfuzzer", seed=6,
                                 evals=12)
        assert canonical.dump_bytes(coarse.records) != log  # dt reached the run

        original = CampaignContext.evaluate_batch

        def evaluate_batch(self, vectors):
            if self.completed >= 5:
                self.stop_requested = True  # as Ctrl-C does
            return original(self, vectors)

        out = tmp_path / "cut"
        with monkeypatch.context() as patch:
            patch.setattr(CampaignContext, "evaluate_batch", evaluate_batch)
            cut, _ = campaign_log(fine, algo="avfuzzer", seed=6, evals=12,
                                  output_dir=out)
        assert 5 <= cut.completed < 12
        resumed, _ = campaign_log(fine, algo="avfuzzer", seed=6, evals=12,
                                  output_dir=out, resume=True)
        assert resumed.completed == 12
        assert (out / campaign.EVALUATIONS_FILE).read_bytes() == log

    def test_wall_budget_avfuzzer_resume_matches_uninterrupted(
            self, junction_settings, tmp_path, monkeypatch):
        # local_run_hour is 3.6 ms: less than simulating one local phase's
        # seeds, more than replaying them, so a local phase that ran on the
        # clock would run longer in a replay than it did in the first run
        params = {"local_run_hour": 1e-6}
        budget = CampaignBudget(wall_seconds=3600.0)
        local_starts = []
        local_phase = avfuzzer._local_phase

        def spy(ctx, *args):
            local_starts.append(ctx.completed)
            return local_phase(ctx, *args)

        def run(out, stop_at, resume=False):
            original = CampaignContext.evaluate_batch

            def evaluate_batch(self, vectors):
                if self.completed >= stop_at:
                    self.stop_requested = True  # as Ctrl-C does
                return original(self, vectors)

            with monkeypatch.context() as patch:
                patch.setattr(CampaignContext, "evaluate_batch",
                              evaluate_batch)
                patch.setattr(avfuzzer, "_local_phase", spy)
                ctx = CampaignContext(junction_settings, budget, seed=2,
                                      output_dir=out, resume=resume)
                run_campaign("avfuzzer", ctx, params)
            return ctx

        whole = run(tmp_path / "uncut", stop_at=48)
        cut = run(tmp_path / "cut", stop_at=24)
        # the cut run had a local phase, which the resume will replay
        assert local_starts[-1] < cut.completed < whole.completed
        resumed = run(tmp_path / "cut", stop_at=48, resume=True)
        assert resumed.completed == whole.completed
        assert (tmp_path / "cut" / campaign.EVALUATIONS_FILE).read_bytes() \
            == (tmp_path / "uncut" / campaign.EVALUATIONS_FILE).read_bytes()

    def test_debug_logs_each_fresh_evaluation(self, junction_settings,
                                              tmp_path, caplog):
        def lines():
            return [r for r in caplog.records if r.name == campaign.log.name]

        with caplog.at_level(logging.INFO):
            campaign_log(junction_settings, algo="avfuzzer", seed=4, evals=6,
                         output_dir=tmp_path / "info")
        assert lines() == []
        with caplog.at_level(logging.DEBUG):
            ctx, _ = campaign_log(junction_settings, algo="avfuzzer", seed=4,
                                  evals=6, workers=2,
                                  output_dir=tmp_path / "debug")
        assert [r.levelno for r in lines()] == [logging.DEBUG] * 6
        # in submission order, whatever the worker count
        assert [r.getMessage() for r in lines()] == [
            f"evaluation {r['index']} {r['scenario_id']}: {r['outcome']} "
            f"fitness={r['fitness']!r} repairs={r['repairs']}"
            for r in ctx.records]
        assert (tmp_path / "debug" / "evaluations.json").read_bytes() == \
            (tmp_path / "info" / "evaluations.json").read_bytes()
        # replayed entries were logged when they were evaluated
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            campaign_log(junction_settings, algo="avfuzzer", seed=4, evals=8,
                         output_dir=tmp_path / "debug", resume=True)
        assert [r.getMessage().split()[1] for r in lines()] == ["6", "7"]

    def test_resume_with_wrong_seed_is_detected(self, junction_settings,
                                                tmp_path):
        out = tmp_path / "run"
        campaign_log(junction_settings, seed=1, evals=4, output_dir=out)
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=8), seed=99,
                              output_dir=out, resume=True)
        with pytest.raises(CampaignError):
            run_campaign("random", ctx, {})

    @pytest.mark.parametrize("algo,seed,named", [
        ("random", 0, "algorithm 'avfuzzer', not 'random'"),
        ("avfuzzer", 1, "seed 0, not 1"),
    ], ids=["other-algorithm", "other-seed"])
    def test_resume_under_another_algorithm_or_seed_is_refused(
            self, junction_settings, tmp_path, algo, seed, named):
        # random's first samples are avfuzzer's first population: without
        # the check they would replay as matching entries
        out = tmp_path / "run"
        campaign_log(junction_settings, algo="avfuzzer", seed=0, evals=4,
                     output_dir=out)

        def tree():
            return {path: path.is_file() and path.read_bytes()
                    for path in out.rglob("*")}

        before = tree()
        assert len(before) == 3 + 4 + 1  # log, state, report, recordings
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=8), seed=seed,
                              output_dir=out, resume=True)
        with pytest.raises(CampaignError, match=f"campaign.state.json: the "
                           f"checkpoint was written with {named}$"):
            run_campaign(algo, ctx, {})
        assert ctx.completed == 0
        assert tree() == before

    def test_resume_under_another_mutation_space_is_a_mismatch(
            self, junction_settings, tmp_path):
        # the same algorithm and seed pass the checkpoint's check, and the
        # first vector no longer equals the logged one
        out = tmp_path / "run"
        campaign_log(junction_settings, seed=3, evals=4, output_dir=out)
        log = (out / "evaluations.json").read_bytes()
        narrower = dataclasses.replace(
            junction_settings, space=MutationSpace(speed_high=15.0))
        with pytest.raises(CampaignError, match="^resume mismatch at "
                           "evaluation 0: the checkpoint was produced by a "
                           "different configuration or seed$"):
            campaign_log(narrower, seed=3, evals=8, output_dir=out,
                         resume=True)
        assert (out / "evaluations.json").read_bytes() == log

    def test_a_direct_run_records_no_algorithm(self, junction_settings,
                                               tmp_path):
        # only run_campaign records the algorithm and checks it and the seed
        campaign_log(junction_settings, evals=6, output_dir=tmp_path / "uncut")
        out = tmp_path / "direct"
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=3),
                              output_dir=out)
        with pytest.raises(BudgetExhausted):
            random_search.run(ctx, {})
        state = canonical.loads((out / "campaign.state.json").read_bytes())
        assert state["algorithm"] == "" and state["completed"] == 3
        ctx, _ = campaign_log(junction_settings, evals=6, output_dir=out,
                              resume=True)
        assert ctx.completed == 6
        assert (out / "evaluations.json").read_bytes() == \
            (tmp_path / "uncut" / "evaluations.json").read_bytes()
        state = canonical.loads((out / "campaign.state.json").read_bytes())
        assert state["algorithm"] == "random"

    @pytest.mark.parametrize("name,content,where", [
        ("campaign.state.json", b'{"algorithm":"random","completed":', ""),
        ("campaign.state.json", b"[1,2]", ""),
        ("campaign.state.json", b'"done"', ""),
        ("campaign.state.json", b'{"wall_consumed":"soon"}', ""),
        ("campaign.state.json", b'{"wall_consumed":NaN}', ""),
        ("campaign.state.json", b'{"wall_consumed":Infinity}', ""),
        ("campaign.state.json", b'{"wall_consumed":-1.0}', ""),
        ("campaign.state.json",
         b'{"wall_consumed":1' + b"0" * 400 + b"}", ""),
        ("campaign.state.json", b'{"wall_consumed":true}', ""),
        ("campaign.state.json", b'{"algorithm":5,"wall_consumed":1.0}', ""),
        ("campaign.state.json", b'{"seed":"1","wall_consumed":1.0}', ""),
        ("evaluations.json", b'[{"scenario_id":"\xff"}]', ""),
        ("evaluations.json", b"[" * 100000 + b"]" * 100000,
         "unreadable checkpoint: document nested too deeply"),
        ("evaluations.json", b"[1,2]", "entry 0"),
        ("evaluations.json", _entry_1_without("fitness"), "entry 1"),
        ("evaluations.json", _entry_1_without("repairs"), "entry 1"),
        ("evaluations.json", _entry_1_without("values"), "entry 1"),
        ("evaluations.json", _entry_1_with("note", "extra"), "entry 1"),
        ("evaluations.json", _entry_1_with("fitness", "1.5"), "entry 1"),
        ("evaluations.json", _entry_1_with("fitness", 10 ** 400), "entry 1"),
        ("evaluations.json", _entry_1_with("quality_score", "0.5"), "entry 1"),
        ("evaluations.json", _entry_1_with("time_of_decision", True),
         "entry 1"),
        ("evaluations.json", _entry_1_with("behavior", "abc"), "entry 1"),
        ("evaluations.json", _entry_1_with("behavior", [0.5, "0.5"]),
         "entry 1"),
        ("evaluations.json", _entry_1_with("behavior", [0.5] * 23),
         "entry 1"),
        ("evaluations.json", _entry_1_with("outcome", "Crash"), "entry 1"),
        ("evaluations.json", _entry_1_with("index", 7), "entry 1"),
        ("evaluations.json", _entry_1_with("index", 1.0), "entry 1"),
        ("evaluations.json", _entry_1_with("scenario_id", "../../elsewhere"),
         "entry 1"),
        ("evaluations.json", _entry_1_with("scenario_id", None), "entry 1"),
    ], ids=["torn-state", "array-state", "string-state", "bad-field-state",
            "nan-wall", "infinite-wall", "negative-wall", "huge-wall",
            "bool-wall", "number-algorithm", "string-seed",
            "non-utf8-log", "too-deep-log", "non-object-entry", "entry-without-fitness",
            "entry-without-repairs", "entry-without-values",
            "entry-extra-key",
            "string-fitness", "huge-fitness", "string-quality-score",
            "bool-time-of-decision", "string-behavior",
            "non-numeric-behavior", "short-behavior", "unknown-outcome",
            "wrong-index", "float-index", "foreign-scenario-id",
            "null-scenario-id"])
    def test_resume_reports_a_bad_checkpoint_file(self, junction_settings,
                                                  tmp_path, name, content,
                                                  where):
        out = tmp_path / "run"
        campaign_log(junction_settings, seed=1, evals=2, output_dir=out)
        if callable(content):
            content = content((out / name).read_bytes())
        (out / name).write_bytes(content)
        with pytest.raises(CampaignError, match=f"{name}: {where}"):
            CampaignContext(junction_settings,
                            CampaignBudget(max_evaluations=4), seed=1,
                            output_dir=out, resume=True)

    def test_stop_request_checkpoints_and_ends(self, junction_settings,
                                               tmp_path):
        out = tmp_path / "run"
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=50), seed=0,
                              output_dir=out)
        ctx.stop_requested = True
        report = run_campaign("random", ctx, {})
        assert report["evaluations"] == 0
        assert (out / "campaign.state.json").exists()

    def test_a_stopped_run_is_finished_only_once_resumed_to_its_budget(
            self, junction_settings, tmp_path, monkeypatch):
        out = tmp_path / "run"
        state = out / "campaign.state.json"
        original = CampaignContext.evaluate_batch

        def evaluate_batch(self, vectors):
            if self.completed >= 2:
                self.stop_requested = True  # as Ctrl-C does
            return original(self, vectors)

        with monkeypatch.context() as patch:
            patch.setattr(CampaignContext, "evaluate_batch", evaluate_batch)
            cut, _ = campaign_log(junction_settings, evals=6, output_dir=out)
        assert (cut.completed, cut.finished) == (2, False)
        assert canonical.loads(state.read_bytes())["finished"] is False
        resumed, _ = campaign_log(junction_settings, evals=6, output_dir=out,
                                  resume=True)
        assert (resumed.completed, resumed.finished) == (6, True)
        assert canonical.loads(state.read_bytes())["finished"] is True
        # a wall budget is spent once its time has passed
        timed = CampaignContext(junction_settings,
                                CampaignBudget(wall_seconds=0.0))
        run_campaign("random", timed, {})
        assert timed.finished

    def test_unknown_algorithm_rejected(self, junction_settings):
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=1))
        with pytest.raises(ValueError):
            run_campaign("gradient_descent", ctx, {})

    def test_wall_budget_stops_evaluation(self, junction_settings):
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(wall_seconds=0.0), seed=0)
        report = run_campaign("random", ctx, {})
        assert report["evaluations"] == 0

    def test_budget_requires_some_limit(self):
        with pytest.raises(ValueError):
            CampaignBudget()


class CrashAtWrite(BaseException):
    """A kill at one file write: no ``except Exception`` can swallow it."""


class TestCrashAtEveryWrite:
    """A campaign killed at any one of its file writes, before the write or
    halfway through its bytes, resumes to the uninterrupted log.  A power
    loss, which can keep a renamed file's new name with empty contents, is
    not simulated here."""

    # a pool of two reaches samota's surrogate at the third evaluation
    PARAMS = {"samota": {"surrogate_pool": 2}}

    @pytest.mark.parametrize("algo, seed, evals, workers, frames", [
        ("avfuzzer", 4, 6, 1, False),
        ("behavexplor", 5, 4, 1, True),
        ("random", 6, 4, 2, False),
        ("drivefuzz", 7, 4, 1, False),
        ("samota", 8, 6, 1, False)])
    def test_resume_after_a_crash_at_each_write(
            self, junction_settings, tmp_path, monkeypatch, algo, seed,
            evals, workers, frames):
        settings = dataclasses.replace(junction_settings,
                                       save_traffic_recording=frames)
        write_bytes = Path.write_bytes
        writes = []
        crash = {"at": None, "torn": False}
        lock = threading.Lock()  # two workers write recordings at once

        def counted(path, data):
            with lock:
                writes.append(path)
                at = len(writes)
            if at == crash["at"]:
                if crash["torn"]:
                    write_bytes(path, data[:len(data) // 2])
                raise CrashAtWrite
            return write_bytes(path, data)

        def run(out, resume=False):
            campaign_log(settings, algo=algo, seed=seed, evals=evals,
                         workers=workers, output_dir=out, resume=resume,
                         params=self.PARAMS.get(algo))
            return (out / campaign.EVALUATIONS_FILE).read_bytes()

        monkeypatch.setattr(Path, "write_bytes", counted)
        whole = run(tmp_path / "whole")
        count = len(writes)
        # a recording and a checkpoint's two files per batch, at least
        assert count > evals + 2
        for at in range(1, count + 1):
            for torn in (False, True):
                out = tmp_path / f"{at}-{torn}"
                writes.clear()
                crash.update(at=at, torn=torn)
                with pytest.raises(CrashAtWrite):
                    run(out)
                crash["at"] = None
                assert run(out, resume=True) == whole, (at, torn)


# sha256 of evaluations.json for each shipped config at seed 0, 24
# evaluations and one worker (samota reaches its surrogate after 20)
SHIPPED_LOG_SHA256 = {
    "avfuzzer":
        "5bf9345014ebeea47be7c0c98f63e11ba4d43bcd46e5f69244f8356108191050",
    "behavexplor":
        "4f32dbb5f8102198a169fa55ac5590744a0381e9423ac872dccb4e0ffad706ae",
    "drivefuzz":
        "bc239234d73b4510afee7ed31e1f416665e60c5155b079d80dfe905de67a0960",
    "random":
        "4a57f10a45cd2868d5c7838467636d993fdf6a0c1893fba3164b78dd2eb0239f",
    "samota":
        "8311181a5e047767b5a83bc3d7283ad0d1e5fc42094bd89a21cf8f4c862d9a65",
}
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", sorted(SHIPPED_LOG_SHA256))
def test_shipped_config_log_digest(name, tmp_path):
    config = load_config(CONFIG_DIR / f"{name}.yaml", {
        "testing_engine.algorithm.parameters.max_evaluations": 24,
        "scenario_runner.parameters.worker_pool": 1})
    assert config.algorithm == name
    settings, budget, params = build_execution(config)
    out = tmp_path / "run"
    ctx = CampaignContext(settings, budget, seed=0, workers=1, output_dir=out)
    run_campaign(config.algorithm, ctx, params)
    assert ctx.completed == 24
    log = (out / campaign.EVALUATIONS_FILE).read_bytes()
    assert hashlib.sha256(log).hexdigest() == SHIPPED_LOG_SHA256[name]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides", [
    # every gene span squared past the largest float; the first is the
    # two-evaluation campaign that overflowed samota's diagonal
    {"scenario.mutation_space.delay_high": 1e308},
    {"scenario.mutation_space.delay_high": sys.float_info.max,
     "testing_engine.algorithm.parameters.surrogate_pool": 2,
     "testing_engine.algorithm.parameters.max_evaluations": 14},
    {"scenario.mutation_space.delay_high": 1e160,
     "testing_engine.algorithm.parameters.surrogate_pool": 2,
     "testing_engine.algorithm.parameters.max_evaluations": 14},
    {"scenario.mutation_space.offset_limit": sys.float_info.max / 2},
], ids=["delay-1e308", "delay-max", "delay-1e160", "offset-max"])
def test_samota_measures_the_widest_accepted_space_finitely(overrides,
                                                            monkeypatch):
    predictions = []
    predict = IdwSurrogate.predict
    monkeypatch.setattr(IdwSurrogate, "predict", lambda self, x:
                        predictions.append(predict(self, x)) or
                        predictions[-1])
    config = load_config(CONFIG_DIR / "samota.yaml", {
        "testing_engine.algorithm.parameters.max_evaluations": 2,
        "scenario_runner.parameters.worker_pool": 1,
        "scenario.duration_limit": 1.5, **overrides})
    settings, budget, params = build_execution(config)
    ctx = CampaignContext(settings, budget)
    run_campaign(config.algorithm, ctx, params)
    assert ctx.completed == budget.max_evaluations
    unit, diagonal = samota._measure(ctx.prototype)
    assert math.isfinite(diagonal) and math.frexp(unit)[0] == 0.5
    assert all(math.isfinite(p) for p in predictions)
    if config.algorithm_params["surrogate_pool"] == 2:
        assert predictions


def test_a_far_offset_limit_is_logged_as_invalid(tmp_path):
    # offsets of up to 1e100 m put NPC waypoints past MAX_COORDINATE, where
    # the spawn-overlap check would divide by a box edge rounded to zero
    config = load_config(CONFIG_DIR / "random.yaml", {
        "testing_engine.algorithm.parameters.max_evaluations": 6,
        "scenario_runner.parameters.worker_pool": 1,
        "scenario.mutation_space.offset_limit": 1e100,
        "scenario.duration_limit": 1.5})
    settings, budget, params = build_execution(config)
    out = tmp_path / "run"
    ctx = CampaignContext(settings, budget, seed=0, workers=1, output_dir=out)
    report = run_campaign(config.algorithm, ctx, params)
    assert report["evaluations"] == ctx.completed == 6
    invalid = [r for r in ctx.records if r["outcome"] == INVALID_SCENARIO]
    assert invalid
    for record in invalid:
        recording = read_recording(recording_path(
            out / campaign.RECORDINGS_DIR, record["scenario_id"]))
        codes = {v["code"] for v in recording.verdict.details["violations"]}
        assert codes == {"CoordinateOutOfRange"}


class TestLongCampaign:
    """Thousands of batches of one through a real context with a stub in
    place of simulation: each record is encoded once, and the log is written
    on a schedule of evaluation counts that a kill or a fault between two
    writes cannot break."""

    BATCHES = 2000

    @staticmethod
    def _evaluate_stub(ctx, index, vector):
        rng = np.random.default_rng([ctx.seed, index])
        record = {
            "index": index,
            "scenario_id": f"eval_{index:06d}",
            "values": [float(v) for v in vector.values],
            "repairs": [],
            "outcome": OUTCOMES[int(rng.integers(len(OUTCOMES)))],
            "fitness": float(rng.normal(10.0, 5.0)),
            "quality_score": float(rng.random()),
            "behavior": [float(v) for v in rng.random(24)],
            "time_of_decision": float(rng.uniform(0.0, 30.0)),
        }
        return record, campaign._feedback_from_record(
            canonical.Cursor(record, ValueError), index)

    @pytest.fixture
    def faults(self, monkeypatch):
        """Evaluates through ``_evaluate_stub``.  Returns a dict: an
        exception put under an index is raised, once, in place of that
        evaluation."""
        faults = {}

        def evaluate_fresh(ctx, start, vectors):
            for index in range(start, start + len(vectors)):
                if index in faults:
                    raise faults.pop(index)
            return [self._evaluate_stub(ctx, start + i, v)
                    for i, v in enumerate(vectors)]

        monkeypatch.setattr(CampaignContext, "_evaluate_fresh", evaluate_fresh)
        return faults

    @staticmethod
    def _on_disk(out) -> int:
        return len(canonical.loads(
            (out / campaign.EVALUATIONS_FILE).read_bytes()))

    @staticmethod
    def _within_the_schedule(completed: int, on_disk: int) -> bool:
        """Whether batches of one may leave ``completed - on_disk`` records
        off the disk: fewer than an eighth of those on disk, and than 32."""
        unwritten = completed - on_disk
        return unwritten == 0 or (unwritten * 8 < on_disk and unwritten < 32)

    def test_each_record_is_encoded_once(self, junction_settings, tmp_path,
                                         monkeypatch, faults):
        encoded = collections.Counter()
        dumps = canonical.dumps

        def counting_dumps(value):
            if isinstance(value, dict) and "scenario_id" in value:
                encoded[value["index"]] += 1
            return dumps(value)

        monkeypatch.setattr(canonical, "dumps", counting_dumps)
        out = tmp_path / "long"
        log = out / campaign.EVALUATIONS_FILE

        def drive(resume, check):
            ctx = CampaignContext(junction_settings,
                                  CampaignBudget(max_evaluations=self.BATCHES),
                                  seed=5, output_dir=out, resume=resume)
            for batch in range(1, self.BATCHES + 1):
                ctx.evaluate_batch([operators.sample_uniform(ctx.rng,
                                                             ctx.prototype)])
                if batch % 100 == 0:
                    check(ctx, log.read_bytes())
            ctx.finished = True
            ctx.checkpoint()
            assert ctx.completed == self.BATCHES
            return ctx

        def a_prefix_within_the_schedule(ctx, data):
            on_disk = len(canonical.loads(data))
            assert data == canonical.dump_bytes(ctx.records[:on_disk])
            assert self._within_the_schedule(ctx.completed, on_disk), \
                (ctx.completed, on_disk)

        ctx = drive(False, a_prefix_within_the_schedule)
        finished = log.read_bytes()
        assert finished == canonical.dump_bytes(ctx.records)
        assert encoded == {i: 1 for i in range(self.BATCHES)}

        def untouched(ctx, data):
            assert data == finished, ctx.completed

        # the resume keeps the bytes it read and encodes no entry again
        encoded.clear()
        resumed = drive(True, untouched)
        assert log.read_bytes() == finished
        assert resumed.records == ctx.records
        assert encoded == {}

    @staticmethod
    def _log_writes(monkeypatch) -> list[int]:
        """The number of entries of each ``evaluations.json`` written from
        now on."""
        writes = []
        atomic_write = campaign._atomic_write

        def counted(path, data):
            if path.name == campaign.EVALUATIONS_FILE:
                writes.append(len(canonical.loads(bytes(data))))
            atomic_write(path, data)

        monkeypatch.setattr(campaign, "_atomic_write", counted)
        return writes

    @staticmethod
    def _run(settings, out, budget, resume=False):
        ctx = CampaignContext(settings, CampaignBudget(max_evaluations=budget),
                              seed=5, output_dir=out, resume=resume)
        run_campaign("random", ctx, {})  # batches of one
        return ctx

    def test_a_resume_first_writes_the_log_when_it_has_grown(
            self, junction_settings, tmp_path, monkeypatch, faults):
        """The 53 entries a resume read count as on disk: the first write
        after the replay comes an eighth later, at 60."""
        self._run(junction_settings, tmp_path, 53)
        writes = self._log_writes(monkeypatch)
        ctx = self._run(junction_settings, tmp_path, 100, resume=True)
        assert writes == [60, 68, 77, 87, 98, 100]
        assert (tmp_path / campaign.EVALUATIONS_FILE).read_bytes() == \
            canonical.dump_bytes(ctx.records)

    def test_a_resume_appends_to_the_bytes_it_read(
            self, junction_settings, tmp_path, faults):
        whole = self._run(junction_settings, tmp_path / "whole", 80).records
        out = tmp_path / "edited"
        self._run(junction_settings, out, 53)
        log = out / campaign.EVALUATIONS_FILE
        edited = json.dumps(canonical.loads(log.read_bytes()), indent=1) + "\n"
        log.write_text(edited)
        self._run(junction_settings, out, 80, resume=True)
        data = log.read_text()
        assert canonical.loads(data) == whole
        kept = edited.rstrip()[:-1]  # all but the closing bracket
        assert data.startswith(kept) and data[len(kept)] == ","

    def test_the_log_is_written_on_the_evaluation_schedule(
            self, junction_settings, tmp_path, monkeypatch, faults):
        """Batches of one write the log after each of the first nine, then
        once the records off the disk reach an eighth of those on it, at
        most 32 apart, and when the budget is spent."""
        writes = self._log_writes(monkeypatch)
        budget = 400
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=budget), seed=5,
                              output_dir=tmp_path)
        for _ in range(budget):
            ctx.evaluate_batch([operators.sample_uniform(ctx.rng,
                                                         ctx.prototype)])
        expected = [0]
        while expected[-1] < budget:
            gap = min(32, max(1, -(-expected[-1] // 8)))
            expected.append(min(budget, expected[-1] + gap))
        assert writes == expected[1:]
        assert writes[:15] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 17,
                               20, 23]
        # past 256 on disk the gap stops growing; 400 is the budget's write
        assert writes[-6:] == [250, 282, 314, 346, 378, 400]
        # a log already on disk is not written again, the state file is
        ctx.finished = True
        ctx.checkpoint()
        assert len(writes) == len(expected) - 1
        state = canonical.loads(
            (tmp_path / campaign.STATE_FILE).read_bytes())
        assert state["finished"] is True and state["completed"] == budget

    def test_a_stop_request_writes_what_the_schedule_skipped(
            self, junction_settings, tmp_path, faults):
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=50), seed=5,
                              output_dir=tmp_path)
        for _ in range(10):
            ctx.evaluate_batch([operators.sample_uniform(ctx.rng,
                                                         ctx.prototype)])
        assert self._on_disk(tmp_path) == 9
        ctx.stop_requested = True  # as Ctrl-C does
        with pytest.raises(BudgetExhausted):
            ctx.evaluate_batch([operators.sample_uniform(ctx.rng,
                                                         ctx.prototype)])
        assert ctx.completed == 10
        assert (tmp_path / campaign.EVALUATIONS_FILE).read_bytes() == \
            canonical.dump_bytes(ctx.records)

    def test_a_kill_between_writes_resumes_to_the_same_log(
            self, junction_settings, tmp_path, faults):
        def run(out, resume=False):
            self._run(junction_settings, out, 64, resume)
            return (out / campaign.EVALUATIONS_FILE).read_bytes()

        whole = run(tmp_path / "whole")
        cut_short = 0
        for killed_at in range(10, 61):
            out = tmp_path / str(killed_at)
            faults[killed_at] = CrashAtWrite()
            with pytest.raises(CrashAtWrite):
                run(out)
            on_disk = self._on_disk(out)
            assert self._within_the_schedule(killed_at, on_disk), killed_at
            cut_short += on_disk < killed_at
            assert run(out, resume=True) == whole, killed_at
        # all but the 13 counts the schedule writes at: 11, 13, ..., 50, 57
        assert cut_short == 51 - 13

    def test_an_error_between_writes_leaves_every_record_on_disk(
            self, junction_settings, tmp_path, faults):
        faults[10] = RuntimeError("the agent failed")
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=64), seed=5,
                              output_dir=tmp_path)
        with pytest.raises(RuntimeError, match="the agent failed"):
            run_campaign("random", ctx, {})
        assert ctx.completed == 10
        assert (tmp_path / campaign.EVALUATIONS_FILE).read_bytes() == \
            canonical.dump_bytes(ctx.records)
        state = canonical.loads((tmp_path / campaign.STATE_FILE).read_bytes())
        assert state["completed"] == 10 and state["finished"] is False


def _reference_trace_min_distance(recording, calls=None):
    """The frame-order scan trace_min_distance replaced: each pair in turn,
    skipped when its lower bound is at or above the best so far."""
    best = NO_OBSTACLE_FITNESS
    for frame in recording.frames:
        ego = next(a for a in frame.actors if a.actor_id == "ego")
        for other in frame.actors:
            if other.actor_id == "ego":
                continue
            if actor_distance_lower_bound(ego, other) >= best:
                continue
            if calls is not None:
                calls.append(1)
            d = actor_distance(ego, other)
            if d < best:
                best = d
    return best


class TestTraceMinDistanceReference:
    """trace_min_distance must return the frame-order scan's float exactly."""

    @pytest.mark.parametrize("algo", ["avfuzzer", "behavexplor"])
    def test_campaign_recordings(self, junction_settings, tmp_path,
                                 monkeypatch, algo):
        exact_calls = []
        reference_calls = []
        fitnesses = []
        for seed in (0, 1, 2):
            out = tmp_path / f"seed{seed}"
            campaign_log(junction_settings, algo=algo, seed=seed, evals=12,
                         output_dir=out)
            paths = sorted((out / "recordings").glob("*.record.json"))
            assert len(paths) == 12
            for path in paths:
                recording = read_recording(path)
                with monkeypatch.context() as patch:
                    patch.setattr(feedback, "actor_distance",
                                  lambda p, q: exact_calls.append(1)
                                  or actor_distance(p, q))
                    fitness = trace_min_distance(recording)
                assert fitness.hex() == _reference_trace_min_distance(
                    recording, reference_calls).hex(), path.name
                fitnesses.append(fitness)
        # the seeds cover collisions and near misses
        assert 0.0 in fitnesses
        assert any(0.0 < f < NO_OBSTACLE_FITNESS for f in fitnesses)
        assert len(exact_calls) < len(reference_calls)

    def test_no_other_actor(self):
        rec = recording_of([[ego_state(x=float(i))] for i in range(5)])
        assert trace_min_distance(rec) == NO_OBSTACLE_FITNESS
        assert _reference_trace_min_distance(rec) == NO_OBSTACLE_FITNESS

    def test_collision_frame(self):
        rock = ActorState("rock", "static", 20.0, 0.0, 0.3)
        rec = recording_of([[ego_state(x=0.0), rock],
                             [ego_state(x=17.0), rock],
                             [ego_state(x=30.0), rock]])
        assert trace_min_distance(rec) == 0.0
        assert _reference_trace_min_distance(rec) == 0.0

    def test_equal_lower_bounds(self):
        # same centre distance and size, so the same bound; the turned rock
        # is closer
        ahead = ActorState("ahead", "static", 12.0, 0.0, 0.0)
        beside = ActorState("beside", "static", 0.0, 12.0, 0.9)
        ego = ego_state()
        assert actor_distance_lower_bound(ego, ahead) == \
            actor_distance_lower_bound(ego, beside)
        assert actor_distance(ego, beside) != actor_distance(ego, ahead)
        for frames in ([[ego, ahead, beside]], [[ego, beside, ahead]],
                       [[ego, ahead], [ego, beside]],
                       [[ego, beside], [ego, ahead], [ego, beside]]):
            rec = recording_of(frames)
            assert trace_min_distance(rec).hex() == \
                _reference_trace_min_distance(rec).hex()
            assert trace_min_distance(rec) == min(
                actor_distance(ego, ahead), actor_distance(ego, beside))

    def test_stops_at_a_bound_equal_to_the_best(self, monkeypatch):
        # rock b's bound equals rock a's distance exactly, so with a found
        # first, the frame-order scan skips b and so must the ranked scan
        ego = ego_state()
        a = ActorState("a", "static", 10.0, 0.0, 0.0)
        best = actor_distance(ego, a)
        y = best + 5.2 + BOUND_ROUNDING_MARGIN
        for _ in range(64):
            b = ActorState("b", "static", 0.0, y, 0.5)
            bound = actor_distance_lower_bound(ego, b)
            if bound == best:
                break
            y = math.nextafter(y, -math.inf if bound > best else math.inf)
        assert bound == best < actor_distance(ego, b)
        rec = recording_of([[ego, a], [ego, b]])
        calls = []
        monkeypatch.setattr(feedback, "actor_distance",
                            lambda p, q: calls.append(q) or actor_distance(p, q))
        reference_calls = []
        assert trace_min_distance(rec) == \
            _reference_trace_min_distance(rec, reference_calls) == best
        assert calls == [a] and len(reference_calls) == 1

    def test_a_far_out_circle_gap_above_the_distance(self):
        # near MAX_COORDINATE the circle gap of two corner-facing boxes
        # rounds nanometres above their distance; a box ahead of the ego at
        # a distance between the two must not end the ranked scan before
        # the corner-facing NPC is measured
        a, npc = max(facing_corner_pairs(FAR_OUT, FAR_OUT_STEPS),
                     key=lambda pair: circle_gap(*pair) - actor_distance(*pair))
        near, gap = actor_distance(a, npc), circle_gap(a, npc)
        ego = ActorState("ego", "ego", a.x, a.y, a.heading)
        ahead = a.length + (near + gap) / 2.0
        box = ActorState("box", "static", a.x + ahead * math.cos(a.heading),
                         a.y + ahead * math.sin(a.heading), a.heading)
        assert near < actor_distance(ego, box) < gap
        rec = recording_of([[ego, npc], [ego, box]])
        assert trace_min_distance(rec).hex() == \
            _reference_trace_min_distance(rec).hex() == near.hex()

    def test_seeded_recordings(self, monkeypatch):
        # positions on a coarse grid and four headings make equal bounds and
        # equal distances common
        calls = []
        monkeypatch.setattr(feedback, "actor_distance",
                            lambda p, q: calls.append(1) or actor_distance(p, q))
        rng = np.random.default_rng(77)
        headings = (0.0, math.pi / 2, math.pi / 4, -2.0)
        for _ in range(300):
            frames = []
            for _ in range(int(rng.integers(1, 16))):
                actors = [ego_state(x=float(rng.integers(-10, 11)),
                                    y=float(rng.integers(-4, 5)),
                                    heading=headings[int(rng.integers(4))])]
                for k in range(int(rng.integers(0, 5))):
                    actors.append(ActorState(
                        f"npc_{k}", "npc" if k % 2 else "static",
                        float(rng.integers(-15, 16)),
                        float(rng.integers(-6, 7)),
                        headings[int(rng.integers(4))],
                        length=(4.8, 2.0, 0.5)[k % 3],
                        width=(2.0, 2.0, 0.5)[k % 3]))
                # the ego stays first, as in every recording; the others
                # come in any order
                others = actors[1:]
                rng.shuffle(others)
                frames.append(actors[:1] + others)
            rec = recording_of(frames)
            calls.clear()
            reference_calls = []
            assert trace_min_distance(rec).hex() == \
                _reference_trace_min_distance(rec, reference_calls).hex()
            # the ranked scan computes a subset of the frame-order scan's pairs
            assert len(calls) <= len(reference_calls)


class TestAlgorithmsOnSyntheticLandscapes:
    TARGET = (7.3, 2.1, 8.8, 4.4, 1.9, 6.2)

    def run_algo(self, algo, seed, evals):
        ctx = SyntheticContext(box_prototype(6), sphere(self.TARGET),
                               max_evaluations=evals, seed=seed)
        try:
            algorithm_registry()[algo](ctx, {})
        except BudgetExhausted:
            pass
        return ctx

    @pytest.mark.parametrize("algo", ["random", "avfuzzer", "behavexplor",
                                      "samota", "drivefuzz"])
    def test_algorithms_spend_exactly_the_budget(self, algo):
        ctx = self.run_algo(algo, seed=0, evals=60)
        assert len(ctx.fitness_log) == 60

    @pytest.mark.parametrize("workers", [1, 3])
    def test_random_search_batches_one_vector_per_worker(self, workers):
        """Its draws do not depend on how they are batched."""
        sizes = []
        ctx = SyntheticContext(box_prototype(6), sphere(self.TARGET),
                               max_evaluations=10, seed=2, workers=workers)
        evaluate = ctx.evaluate_batch
        ctx.evaluate_batch = lambda vectors: sizes.append(len(vectors)) or \
            evaluate(vectors)
        with pytest.raises(BudgetExhausted):
            random_search.run(ctx, {})
        # the batch that overruns the budget is drawn whole
        assert sizes == [workers] * (10 // workers + 1)
        rng = np.random.default_rng(2)
        assert ctx.fitness_log == [
            ctx.fn(operators.sample_uniform(rng, ctx.prototype).values)
            for _ in range(10)]

    @pytest.mark.parametrize("algo", ["avfuzzer", "behavexplor", "samota",
                                      "drivefuzz"])
    def test_search_beats_its_own_start(self, algo):
        ctx = self.run_algo(algo, seed=1, evals=120)
        assert min(ctx.fitness_log) < ctx.fitness_log[0]

    def test_avfuzzer_local_find_replaces_the_worst_member(self,
                                                           monkeypatch):
        fn = plateau(self.TARGET)
        breeds, phases = [], []
        breed, local_phase = avfuzzer.breed, avfuzzer._local_phase

        def spy_breed(rng, population, fitnesses, pm, pc, count, sigma):
            children = breed(rng, population, fitnesses, pm, pc, count, sigma)
            if sigma == avfuzzer.GLOBAL_SIGMA:
                breeds.append((list(population), list(fitnesses), children))
            return children

        def spy_phase(ctx, base_vec, base_fit, *args):
            found = local_phase(ctx, base_vec, base_fit, *args)
            phases.append((len(breeds), base_fit, found))
            return found

        monkeypatch.setattr(avfuzzer, "breed", spy_breed)
        monkeypatch.setattr(avfuzzer, "_local_phase", spy_phase)
        ctx = SyntheticContext(box_prototype(6), fn, max_evaluations=120,
                               seed=3)
        with pytest.raises(BudgetExhausted):
            algorithm_registry()["avfuzzer"](ctx, {})
        at, _, (found_vec, found_fit) = next(
            phase for phase in phases if phase[2][1] < phase[1])
        # the population the phase found: the last global generation, its
        # worst member replaced
        population, fitnesses, children = breeds[at - 1]
        elite = min(range(len(population)), key=lambda k: (fitnesses[k], k))
        population = [population[elite], *children]
        fitnesses = [fitnesses[elite], *(fn(c.values) for c in children)]
        worst = max(range(len(population)), key=lambda k: (fitnesses[k], k))
        population[worst], fitnesses[worst] = found_vec, found_fit
        assert breeds[at][:2] == (population, fitnesses)

    # sha256 over float.hex of every vector evaluated below, taken from the
    # search loops before they were rewritten to say each step once
    DRAW_DIGEST = \
        "8e361abf411feca067c06a2b0d2c6f1e7f24efb495be91ae819681876df1f14c"

    def test_every_algorithm_draws_the_pinned_vectors(self, monkeypatch):
        # plateau's terraces stall avfuzzer into its local phase, and a
        # constant landscape keeps samota on its path without a surrogate
        phases = []
        local_phase = avfuzzer._local_phase
        monkeypatch.setattr(avfuzzer, "_local_phase",
                            lambda *args: phases.append(1) or
                            local_phase(*args))
        digest = hashlib.sha256()
        for landscape in (sphere(self.TARGET), plateau(self.TARGET),
                          lambda x: 1.0):
            def fn(x):
                digest.update(" ".join(v.hex() for v in x).encode() + b"\n")
                return landscape(x)

            for algo, run in algorithm_registry().items():
                for seed in range(4):
                    ctx = SyntheticContext(box_prototype(6), fn, 150, seed)
                    with pytest.raises(BudgetExhausted):
                        run(ctx, {})
        assert phases
        assert digest.hexdigest() == self.DRAW_DIGEST

    @pytest.mark.parametrize("size", [0, 1])
    def test_avfuzzer_rejects_a_population_below_two(self, size):
        from scenofuzz.engine import avfuzzer
        ctx = SyntheticContext(box_prototype(6), sphere(self.TARGET),
                               max_evaluations=20)
        ctx.evaluate_batch = lambda vectors: pytest.fail(
            "evaluated before checking population_size")
        with pytest.raises(ValueError, match="population_size"):
            avfuzzer.run(ctx, {"population_size": size})

    def test_surrogate_search_is_sample_efficient(self):
        threshold = 2.5
        samota_hits, random_hits = [], []
        for seed in range(6):
            s = self.run_algo("samota", seed, evals=400)
            hit = s.first_hit(threshold)
            samota_hits.append(hit if hit is not None else 400)
            r = self.run_algo("random", seed, evals=3000)
            hit = r.first_hit(threshold)
            random_hits.append(hit if hit is not None else 3000)
        assert statistics.median(samota_hits) <= \
            0.5 * statistics.median(random_hits)
