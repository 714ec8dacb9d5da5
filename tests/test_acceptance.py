"""Acceptance suite: one test per platform-level guarantee.

Each test prints a single ``acceptance NN <name>: PASS/FAIL`` line (visible
with ``-s`` or in the captured output of a failure) and asserts the same
condition, so the suite doubles as a checklist of what the platform promises:
deterministic campaigns, physically calibrated dynamics, exact geometry,
sound verdicts, end-to-end violation discovery for every algorithm, honest
search operators, a useful surrogate, transport-independent recordings,
crash-safe resume, worker-count invariance, and faithful config parsing.
"""

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import integrate_bicycle, obb_distance_sampled
from scenofuzz.bridge import (
    BridgeServer,
    FrameError,
    InProcessSession,
    ReferenceEgoAgent,
    connect,
    decode,
    encode,
    PerceptionMessage,
)
from scenofuzz.cli import main as cli_main
from scenofuzz.config import load_config
from scenofuzz.engine.campaign import (
    AgentSettings,
    BudgetExhausted,
    CampaignBudget,
    CampaignContext,
    ExecutionSettings,
    algorithm_registry,
    run_campaign,
)
from scenofuzz.engine.operators import (
    crossover_one_point,
    mutate_gaussian,
    sample_uniform,
)
from scenofuzz.engine.samota import IdwSurrogate
from scenofuzz.engine.template import MissionSpec, build_template
from scenofuzz.runner import (
    COLLISION,
    DESTINATION,
    OracleConfig,
    mission_end_point,
    mission_path,
    recording_bytes,
    run_scenario,
)
from scenofuzz.scenario import unflatten
from scenofuzz.simulator import (
    A_MAX,
    DRAG,
    WHEELBASE,
    ActorState,
    ControlCommand,
    actor_distance,
    obb_distance,
    step_kinematic,
)
from synthetic import SyntheticContext, box_prototype, sphere

ALGORITHMS = ("random", "avfuzzer", "behavexplor", "samota", "drivefuzz")

PACKAGE_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = PACKAGE_ROOT / "configs"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def junction_settings(junction_map):
    spec = MissionSpec("borregas_ave_lite", "lane_31", 40.0, "lane_15", 50.0,
                       duration_limit=30.0)
    template = build_template(junction_map, spec)
    return ExecutionSettings(
        lane_map=junction_map, template=template,
        agent=AgentSettings(fault_ignore_junction_traffic=True))


def test_c01_deterministic_campaigns(junction_settings, tmp_path):
    """Same seed, same budget: byte-identical logs for every algorithm."""
    slowest = 0.0
    for algo in ALGORITHMS:
        started = time.monotonic()
        logs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{algo}-{attempt}"
            ctx = CampaignContext(junction_settings,
                                  CampaignBudget(max_evaluations=20),
                                  seed=0, workers=1, output_dir=out)
            run_campaign(algo, ctx, {})
            logs.append((out / "evaluations.json").read_bytes())
        elapsed = time.monotonic() - started
        slowest = max(slowest, elapsed)
        assert logs[0] == logs[1], f"{algo}: logs differ between runs"
        assert len(json.loads(logs[0])) == 20
        assert elapsed <= 120.0, f"{algo}: {elapsed:.1f}s for 2x20 evaluations"
    report(1, "deterministic campaigns", True,
           f"5 algorithms, 2x20 evals each, slowest pair {slowest:.1f}s")


def _fit_circle(points):
    """Least-squares circle radius through a point cloud."""
    pts = np.asarray(points)
    a = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    b = pts[:, 0] ** 2 + pts[:, 1] ** 2
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = sol[0] / 2.0, sol[1] / 2.0
    return math.sqrt(sol[2] + cx * cx + cy * cy)


def _drive_circle(dt: float, duration: float, speed: float, steering: float):
    """Trajectory of a constant-speed, constant-steering drive."""
    throttle = DRAG * speed / A_MAX
    command = ControlCommand(throttle=throttle, brake=0.0, steering=steering)
    state = ActorState("ego", "ego", 0.0, 0.0, 0.0, speed=speed)
    points = [(state.x, state.y)]
    for _ in range(int(round(duration / dt))):
        state = step_kinematic(state, command, dt)
        points.append((state.x, state.y))
    return points


def test_c02_kinematics_match_fine_integration():
    """Steady turn radius matches wheelbase/tan(steer) and a fine-step oracle."""
    steering, speed, duration = 0.35, 3.0, 30.0
    analytic = WHEELBASE / math.tan(steering)

    coarse = _drive_circle(0.1, duration, speed, steering)
    r_coarse = _fit_circle(coarse)

    throttle = DRAG * speed / A_MAX
    oracle_points = []
    x = y = heading = 0.0
    v = speed
    for _ in range(int(duration / 0.1)):
        x, y, heading, v = integrate_bicycle(
            x, y, heading, v, throttle, 0.0, steering, duration=0.1, dt=1e-4)
        oracle_points.append((x, y))
    r_oracle = _fit_circle(oracle_points)

    halved = _drive_circle(0.05, duration, speed, steering)
    drift = math.dist(coarse[-1], halved[-1])

    ok = (abs(r_coarse - analytic) <= 0.02 * analytic
          and abs(r_coarse - r_oracle) <= 0.02 * r_oracle
          and drift < 0.2)
    report(2, "kinematics calibration", ok,
           f"radius {r_coarse:.3f}m vs analytic {analytic:.3f}m vs oracle "
           f"{r_oracle:.3f}m, dt-halving drift {drift:.4f}m")


def test_c03_obb_distance_against_sampling_oracle():
    """1,000 random rectangle pairs agree with dense boundary sampling."""
    rng = np.random.default_rng(0)
    worst = 0.0
    worst_sym = 0.0
    overlaps = 0
    for _ in range(1000):
        a = (rng.uniform(-10, 10), rng.uniform(-10, 10),
             rng.uniform(-math.pi, math.pi),
             rng.uniform(0.5, 6.0), rng.uniform(0.5, 3.0))
        b = (rng.uniform(-10, 10), rng.uniform(-10, 10),
             rng.uniform(-math.pi, math.pi),
             rng.uniform(0.5, 6.0), rng.uniform(0.5, 3.0))
        got = obb_distance(*a, *b)
        sym = obb_distance(*b, *a)
        worst_sym = max(worst_sym, abs(got - sym))
        expected = obb_distance_sampled(a, b)
        worst = max(worst, abs(got - expected))
        overlaps += got == 0.0
    ok = worst <= 1e-3 and worst_sym <= 1e-12
    report(3, "geometry oracle", ok,
           f"worst |error| {worst:.2e}m over 1000 pairs ({overlaps} "
           f"overlapping), worst asymmetry {worst_sym:.1e}")


def test_c04_verdicts_recompute_from_recordings(junction_settings):
    """Fuzzed scenarios: every verdict is certified by its own trace."""
    settings = junction_settings
    template = settings.template
    lane_map = settings.lane_map
    mission = mission_path(template, lane_map)
    end_point = mission_end_point(template, lane_map)

    def session_factory():
        return InProcessSession(lambda: ReferenceEgoAgent(
            mission, AgentSettings(fault_ignore_junction_traffic=True)))

    rng = np.random.default_rng(7)
    prototype = CampaignContext(settings,
                                CampaignBudget(max_evaluations=1)).prototype
    outcomes: dict[str, int] = {}
    for _ in range(100):
        config, _ = unflatten(sample_uniform(rng, prototype), template)
        rec = run_scenario(config, lane_map, session_factory,
                           OracleConfig(), seed=0)
        outcome = rec.verdict.outcome
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

        times = [f.sim_time for f in rec.frames]
        assert times == sorted(times) and len(set(times)) == len(times)
        assert times[-1] == rec.verdict.time_of_decision, \
            "frames recorded past the deciding time"

        last = rec.frames[-1]
        ego = next(a for a in last.actors if a.actor_id == "ego")
        if outcome == COLLISION:
            gap = min(actor_distance(ego, other) for other in last.actors
                      if other.actor_id != "ego")
            assert gap <= 0.01, f"collision verdict with {gap:.4f}m gap"
        elif outcome == DESTINATION:
            miss = math.dist((ego.x, ego.y), end_point)
            assert miss <= 3.0, f"arrival verdict {miss:.2f}m from the goal"
            assert ego.speed < 0.5, f"arrival verdict at {ego.speed:.2f}m/s"
    mix = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    report(4, "oracle soundness", COLLISION in outcomes
           and DESTINATION in outcomes, f"100 fuzzed scenarios: {mix}")


class FirstViolationContext(CampaignContext):
    """Stops a campaign as soon as one collision is on the books, so the
    discovery criterion (found within the budget) runs in seconds."""

    def evaluate_batch(self, vectors):
        feedbacks = super().evaluate_batch(vectors)
        if any(r["outcome"] == COLLISION for r in self.records):
            raise BudgetExhausted("first violation found")
        return feedbacks


def test_c05_every_algorithm_finds_a_violation(junction_settings):
    """Fault-injected agent: each algorithm finds a collision, 5 seeds each."""
    firsts: dict[str, list[int]] = {}
    for algo in ALGORITHMS:
        started = time.monotonic()
        firsts[algo] = []
        for seed in range(5):
            ctx = FirstViolationContext(junction_settings,
                                        CampaignBudget(max_evaluations=200),
                                        seed=seed, workers=1)
            rep = run_campaign(algo, ctx, {})
            assert rep["violations"] >= 1, \
                f"{algo} seed {seed}: no violation in 200 evaluations"
            assert rep["first_violation_index"] < 200
            firsts[algo].append(rep["first_violation_index"])
        assert time.monotonic() - started <= 600.0
    detail = "; ".join(
        f"{algo} worst index {max(hits)}" for algo, hits in firsts.items())
    report(5, "end-to-end discovery", True, detail)


class BatchLoggingContext(SyntheticContext):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_sizes: list[int] = []

    def evaluate_batch(self, vectors):
        vectors = list(vectors)
        self.batch_sizes.append(len(vectors))
        return super().evaluate_batch(vectors)


def test_c06_operator_statistics():
    """Mutation and crossover hit their configured rates; population holds."""
    rng = np.random.default_rng(3)
    prototype = box_prototype(10)

    parent = sample_uniform(rng, prototype)
    changed = 0
    for _ in range(1000):
        child = mutate_gaussian(rng, parent, pm=0.6)
        changed += sum(c != p for c, p in zip(child.values, parent.values))
    mutation_rate = changed / 10_000

    other = sample_uniform(rng, prototype)
    crossed = 0
    for _ in range(10_000):
        _, _, did = crossover_one_point(rng, parent, other, pc=0.6)
        crossed += did
    crossover_rate = crossed / 10_000

    ctx = BatchLoggingContext(box_prototype(6), sphere((5.0,) * 6),
                              max_evaluations=100, seed=0)
    try:
        algorithm_registry()["avfuzzer"](ctx, {"population_size": 4})
    except BudgetExhausted:
        pass
    population_ok = (ctx.batch_sizes[0] == 4
                     and all(size == 3 for size in ctx.batch_sizes[1:])
                     and len(ctx.fitness_log) == 100)

    ok = (0.58 <= mutation_rate <= 0.62 and 0.57 <= crossover_rate <= 0.63
          and population_ok)
    report(6, "operator statistics", ok,
           f"mutation {mutation_rate:.4f}, crossover {crossover_rate:.4f}, "
           f"generations keep 1 elite + 3 children")


def test_c07_surrogate_exact_bounded_and_useful():
    """IDW interpolates exactly, stays bounded, and speeds up the search."""
    rng = np.random.default_rng(11)
    sites = rng.uniform(0.0, 10.0, size=(30, 6))
    values = rng.uniform(-5.0, 40.0, size=30)
    surrogate = IdwSurrogate([tuple(s) for s in sites], list(values))
    exact = all(surrogate.predict(tuple(s)) == v
                for s, v in zip(sites, values))
    lo, hi = values.min(), values.max()
    bounded = all(lo <= surrogate.predict(tuple(p)) <= hi
                  for p in rng.uniform(0.0, 10.0, size=(200, 6)))

    target = (7.3, 2.1, 8.8, 4.4, 1.9, 6.2)
    threshold = 2.5
    samota_hits, random_hits = [], []
    for seed in range(10):
        ctx = SyntheticContext(box_prototype(6), sphere(target),
                               max_evaluations=400, seed=seed)
        try:
            algorithm_registry()["samota"](ctx, {})
        except BudgetExhausted:
            pass
        hit = ctx.first_hit(threshold)
        samota_hits.append(hit if hit is not None else 400)

        ctx = SyntheticContext(box_prototype(6), sphere(target),
                               max_evaluations=3000, seed=seed)
        try:
            algorithm_registry()["random"](ctx, {})
        except BudgetExhausted:
            pass
        hit = ctx.first_hit(threshold)
        random_hits.append(hit if hit is not None else 3000)

    med_s = statistics.median(samota_hits)
    med_r = statistics.median(random_hits)
    ok = exact and bounded and med_s <= 0.5 * med_r
    report(7, "surrogate sanity", ok,
           f"exact at 30 sites, bounded on 200 probes, median first hit "
           f"{med_s:.0f} vs random {med_r:.0f} over 10 seeds")


def test_c08_transport_equivalence_and_frame_fuzz(junction_settings):
    """TCP and in-process transports record identically; decode never crashes."""
    settings = junction_settings
    template = settings.template
    mission = mission_path(template, settings.lane_map)

    def make_agent():
        return ReferenceEgoAgent(
            mission, AgentSettings(fault_ignore_junction_traffic=True))

    sessions = []

    def inproc_factory():
        session = InProcessSession(make_agent)
        sessions.append(session)
        return session

    rec_local = run_scenario(template, settings.lane_map, inproc_factory,
                             seed=0)
    server = BridgeServer(make_agent)
    try:
        def tcp_factory():
            session = connect(server.endpoint)
            sessions.append(session)
            return session

        rec_tcp = run_scenario(template, settings.lane_map, tcp_factory,
                               seed=0)
    finally:
        server.close()

    identical = recording_bytes(rec_local) == recording_bytes(rec_tcp)
    lockstep = all(s.sent == s.received == len(rec_local.frames) - 1
                   for s in sessions)

    probe = encode(PerceptionMessage(0.0, ActorState("ego", "ego", 0, 0, 0),
                                     ()))
    rng = np.random.default_rng(13)
    crashes = 0
    for i in range(10_000):
        if i % 2:
            blob = rng.bytes(int(rng.integers(0, 400)))
        else:
            blob = bytearray(probe)
            for _ in range(int(rng.integers(1, 6))):
                blob[int(rng.integers(0, len(blob)))] ^= \
                    int(rng.integers(1, 256))
            blob = bytes(blob)
        try:
            decode(blob)
        except FrameError:
            pass
        except Exception:
            crashes += 1
    ok = identical and lockstep and crashes == 0
    report(8, "bridge conformance", ok,
           f"recordings {'match' if identical else 'differ'} across "
           f"transports, lockstep counters balanced, 10000 fuzzed frames, "
           f"{crashes} crashes")


def test_c09_kill_and_resume(tmp_path):
    """SIGKILL mid-campaign; resume reproduces the uninterrupted log."""
    output_root = tmp_path / "out"
    env = dict(os.environ,
               PYTHONPATH=str(PACKAGE_ROOT / "src"),
               SCENOFUZZ_OUTPUT_ROOT=str(output_root))
    env.pop("SCENOFUZZ_BRIDGE_ADDR", None)
    base = ["--config-name", "random", "--config-dir", str(CONFIG_DIR),
            "--seed", "0", "--max-evals", "25"]

    proc = subprocess.Popen(
        [sys.executable, "-m", "scenofuzz.cli", *base, "--run-id", "killed"],
        env=env, cwd=tmp_path,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    log_path = output_root / "killed" / "evaluations.json"
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        try:
            if len(json.loads(log_path.read_text())) >= 7:
                break
        except (OSError, ValueError):
            pass
        time.sleep(0.01)
    else:
        proc.kill()
        pytest.fail("campaign never reached evaluation 7")
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)
    killed_at = len(json.loads(log_path.read_text()))
    assert 7 <= killed_at < 25, f"kill landed at {killed_at} evaluations"

    os.environ["SCENOFUZZ_OUTPUT_ROOT"] = str(output_root)
    try:
        assert cli_main([*base, "--run-id", "killed", "--resume"]) == 0
        assert cli_main([*base, "--run-id", "whole"]) == 0
    finally:
        os.environ.pop("SCENOFUZZ_OUTPUT_ROOT", None)

    resumed = log_path.read_bytes()
    whole = (output_root / "whole" / "evaluations.json").read_bytes()
    ok = resumed == whole and len(json.loads(whole)) == 25
    report(9, "kill and resume", ok,
           f"killed at evaluation {killed_at}, resumed log matches the "
           f"uninterrupted one byte for byte")


def test_c10_worker_count_invariance(junction_settings, tmp_path):
    """avfuzzer with 4 workers logs the same evaluations as with 1."""
    logs = []
    for workers in (1, 4):
        out = tmp_path / f"workers{workers}"
        ctx = CampaignContext(junction_settings,
                              CampaignBudget(max_evaluations=40),
                              seed=0, workers=workers, output_dir=out)
        run_campaign("avfuzzer", ctx, {})
        logs.append((out / "evaluations.json").read_bytes())
    ok = logs[0] == logs[1] and len(json.loads(logs[0])) == 40
    report(10, "parallel soundness", ok,
           "workers=4 and workers=1 logs are byte-identical over 40 evals")


def test_c11_published_config_fidelity():
    """The shipped genetic-fuzzing config parses with every value intact."""
    config = load_config(CONFIG_DIR / "avfuzzer.yaml")
    checks = {
        "pm": config.algorithm_params["pm"] == 0.6,
        "pc": config.algorithm_params["pc"] == 0.6,
        "population_size": config.algorithm_params["population_size"] == 4,
        "run_hour": config.algorithm_params["run_hour"] == 2.0,
        "local_run_hour": config.algorithm_params["local_run_hour"] == 0.5,
        "collision_threshold": config.oracles.collision_threshold == 0.01,
        "lanes": (config.start_lane_id, config.end_lane_id)
        == ("lane_31", "lane_15"),
        "map": config.map_name == "borregas_ave",
        "runner": config.runner_name == "ApolloSim",
        "container": config.container_name == "apollo_dev",
        "algorithm": config.algorithm == "avfuzzer",
    }
    failed = sorted(k for k, v in checks.items() if not v)
    report(11, "config fidelity", not failed,
           "all published values recovered" if not failed
           else f"mismatched: {', '.join(failed)}")
