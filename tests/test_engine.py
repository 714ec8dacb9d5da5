"""Testing engine: feedback, operators, surrogate, templates, campaigns."""

import math
import statistics

import numpy as np
import pytest

from synthetic import SyntheticContext, box_prototype, sphere

from scenofuzz import canonical
from scenofuzz.engine import feedback, operators
from scenofuzz.engine.campaign import (AgentSettings, BudgetExhausted,
                                       CampaignContext, CampaignError,
                                       ExecutionSettings, CampaignBudget,
                                       run_campaign)
from scenofuzz.engine.feedback import (NO_OBSTACLE_FITNESS, behavior_vector,
                                       compute_feedback, quality_score,
                                       trace_min_distance)
from scenofuzz.engine.samota import IdwSurrogate
from scenofuzz.engine.template import (MissionSpec, build_template,
                                       conflict_lanes, ego_route_path,
                                       onward_route)
from scenofuzz.geometry import Polyline
from scenofuzz.lanemap import route
from scenofuzz.runner import Frame, ScenarioRecording, Verdict, read_recording
from scenofuzz.scenario import (EgoSpec, ScenarioConfig, flatten, validate)
from scenofuzz.simulator import (STEER_MAX, ActorState, ControlCommand,
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


class TestFeedback:
    def test_behavior_histogram_placement(self):
        rec = make_recording([ego_state(speed=0.0, heading=0.0, accel=0.0),
                              ego_state(speed=10.0, heading=0.05, accel=2.0),
                              ego_state(speed=20.0, heading=0.05, accel=2.0)])
        vec = behavior_vector(rec)
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
        vec = behavior_vector(rec)
        assert vec[7] == 1.0        # speed clipped into the top bin
        assert vec[8] == 0.5        # accel -20 into the bottom bin
        assert vec[15] == 0.5       # accel 9 into the top bin

    def test_single_frame_has_zero_rate_histogram(self):
        rec = make_recording([ego_state()])
        vec = behavior_vector(rec)
        assert vec[16:24] == (0.0,) * 8
        assert sum(vec[0:8]) == pytest.approx(1.0)

    def test_fitness_without_obstacles(self):
        rec = make_recording([ego_state(), ego_state(x=1.0)])
        assert trace_min_distance(rec) == NO_OBSTACLE_FITNESS

    def test_fitness_tracks_closest_approach(self):
        rock = ActorState("rock", "static", 20.0, 0.0, 0.0)
        rec = make_recording([ego_state(x=0.0), ego_state(x=10.0),
                              ego_state(x=5.0)], extra_actors=[rock])
        # closest at x=10: gap = 10 - (4.8 + 4.8) / 2 = 5.2
        assert trace_min_distance(rec) == pytest.approx(5.2, abs=1e-9)

    def test_quality_route_deviation_component(self):
        mission = Polyline([(0.0, 0.0), (100.0, 0.0)])
        rec = make_recording([ego_state(x=0.0), ego_state(x=0.8),
                              ego_state(x=1.6, y=3.0)])
        q = quality_score(rec, mission, lane_width=3.5,
                          fitness=NO_OBSTACLE_FITNESS)
        assert q == pytest.approx((1 / 3) / 4.0, abs=1e-12)

    def test_quality_harsh_steering_component(self):
        mission = Polyline([(0.0, 0.0), (100.0, 0.0)])
        rec = make_recording([ego_state(heading=0.0), ego_state(heading=0.1)])
        omega = 0.1 / 0.1
        expected_steer = omega * 2.8 / (8.0 * math.tan(STEER_MAX))
        q = quality_score(rec, mission, lane_width=3.5,
                          fitness=NO_OBSTACLE_FITNESS)
        assert q == pytest.approx(expected_steer / 4.0, abs=1e-9)

    def test_quality_saturates_on_collision(self):
        mission = Polyline([(0.0, 0.0), (100.0, 0.0)])
        rec = make_recording([ego_state()])
        q = quality_score(rec, mission, lane_width=3.5, fitness=0.0)
        assert q == pytest.approx(0.25)  # closeness 1, other components 0

    def test_compute_feedback_bundles_verdict(self):
        mission = Polyline([(0.0, 0.0), (100.0, 0.0)])
        rec = make_recording([ego_state(), ego_state(x=0.8)])
        fb = compute_feedback(rec, mission)
        assert fb.outcome == "Timeout"
        assert not fb.is_violation
        assert fb.time_of_decision == rec.verdict.time_of_decision


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

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            IdwSurrogate([], [])
        with pytest.raises(ValueError):
            IdwSurrogate([[0.0]], [1.0, 2.0])


class TestTemplate:
    def test_junction_conflict_lanes(self, junction_map):
        mission = route(junction_map, "lane_31", "lane_15")
        assert conflict_lanes(junction_map, mission) == ["lane_20", "lane_21"]

    def test_chain_has_no_conflicts(self, chain_map):
        mission = route(chain_map, "lane_a", "lane_c")
        assert conflict_lanes(chain_map, mission) == []

    def test_onward_route_follows_successors(self, junction_map):
        onward = onward_route(junction_map, "lane_20")
        assert onward.lane_sequence == ("lane_20", "lane_21", "lane_22")

    def test_template_structure(self, junction_map):
        spec = MissionSpec("borregas_ave_lite", "lane_31", 40.0,
                           "lane_15", 50.0, duration_limit=30.0)
        template, proto = build_template(junction_map, spec)
        assert [n.actor_id for n in template.npc_vehicles] == ["npc_1", "npc_2"]
        for npc in template.npc_vehicles:
            assert len(npc.target_speeds) == len(npc.waypoints) - 1
            assert all(s == 8.0 for s in npc.target_speeds)
            assert npc.spawn_delay == 0.0
        assert validate(template, junction_map) == []
        assert proto == flatten(template, __import__(
            "scenofuzz.scenario", fromlist=["MutationSpace"]).MutationSpace())

    def test_template_mission_geometry(self, junction_map):
        spec = MissionSpec("borregas_ave_lite", "lane_31", 40.0,
                           "lane_15", 50.0)
        template, _ = build_template(junction_map, spec)
        path = ego_route_path(junction_map, template)
        assert path.point_at(0.0) == pytest.approx((0.0, -60.0))
        assert path.point_at(path.length) == pytest.approx((0.0, 60.0))
        assert path.length == pytest.approx(120.0, abs=1e-6)


@pytest.fixture(scope="module")
def junction_settings(junction_map):
    spec = MissionSpec("borregas_ave_lite", "lane_31", 40.0, "lane_15", 50.0,
                       duration_limit=30.0)
    template, _ = build_template(junction_map, spec)
    return ExecutionSettings(
        lane_map=junction_map, template=template,
        agent=AgentSettings(fault_ignore_junction_traffic=True))


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


def _without_fitness_of_entry_1(log: bytes) -> bytes:
    """The log with one key dropped; its values still match on resume."""
    entries = canonical.loads(log)
    del entries[1]["fitness"]
    return canonical.dump_bytes(entries)


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

    def test_worker_count_does_not_change_log(self, junction_settings):
        a, _ = campaign_log(junction_settings, algo="avfuzzer", seed=4,
                            evals=14)
        b, _ = campaign_log(junction_settings, algo="avfuzzer", seed=4,
                            evals=14, workers=3)
        assert canonical.dumps(a.records) == canonical.dumps(b.records)

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
                                                      tmp_path):
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

    def test_resume_with_wrong_seed_is_detected(self, junction_settings,
                                                tmp_path):
        out = tmp_path / "run"
        campaign_log(junction_settings, seed=1, evals=4, output_dir=out)
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=8), seed=99,
                              output_dir=out, resume=True)
        with pytest.raises(CampaignError):
            run_campaign("random", ctx, {})

    @pytest.mark.parametrize("name,content,where", [
        ("campaign.state.json", b'{"algorithm":"random","completed":', ""),
        ("campaign.state.json", b"[1,2]", ""),
        ("campaign.state.json", b'"done"', ""),
        ("campaign.state.json", b'{"wall_consumed":"soon"}', ""),
        ("evaluations.json", b'[{"scenario_id":"\xff"}]', ""),
        ("evaluations.json", b"[1,2]", "entry 0"),
        ("evaluations.json", _without_fitness_of_entry_1, "entry 1"),
        ("evaluations.json", _entry_1_with("fitness", "1.5"), "entry 1"),
        ("evaluations.json", _entry_1_with("fitness", 10 ** 400), "entry 1"),
        ("evaluations.json", _entry_1_with("quality_score", "0.5"), "entry 1"),
        ("evaluations.json", _entry_1_with("time_of_decision", True),
         "entry 1"),
        ("evaluations.json", _entry_1_with("behavior", "abc"), "entry 1"),
        ("evaluations.json", _entry_1_with("behavior", [0.5, "0.5"]),
         "entry 1"),
        ("evaluations.json", _entry_1_with("outcome", "Crash"), "entry 1"),
    ], ids=["torn-state", "array-state", "string-state", "bad-field-state",
            "non-utf8-log", "non-object-entry", "entry-without-fitness",
            "string-fitness", "huge-fitness", "string-quality-score",
            "bool-time-of-decision", "string-behavior",
            "non-numeric-behavior", "unknown-outcome"])
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
        y = best + 5.2
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
                rng.shuffle(actors)
                frames.append(actors)
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
        from scenofuzz.engine.campaign import algorithm_registry
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

    @pytest.mark.parametrize("algo", ["avfuzzer", "behavexplor", "samota",
                                      "drivefuzz"])
    def test_search_beats_its_own_start(self, algo):
        ctx = self.run_algo(algo, seed=1, evals=120)
        assert min(ctx.fitness_log) < ctx.fitness_log[0]

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
