"""Campaign workloads and their measurement.

Each workload is one shipped config with only the evaluation budget and the
worker count overridden.  A run evaluates a fixed list of campaigns derived
from the run's seed, one after the other in one process: a closed loop in
which the algorithm submits its next batch only after the previous one
returned.  Short campaigns are used where the algorithm allows it, because
a campaign's speed depends strongly on its seed (how many scenarios end in
an early collision) and many independent campaigns average that out.

Every timed piece of work is read at reference host speed: a probe
(:mod:`speed`) runs between batches, outside their timing, and each duration
is scaled by the host speed the probes around it saw.  Raw figures are
reported next to the corrected ones.

The package is driven only through ``load_config``, ``build_execution``,
``CampaignContext`` and ``run_campaign``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from scenofuzz.config import build_execution, load_config
from scenofuzz.engine import CampaignBudget, CampaignContext, run_campaign

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
PINS_FILE = Path(__file__).resolve().parent / "pins.json"
LOG_FILE = "evaluations.json"
SETUP_REPEATS = 5  # at the start of a run
SETUP_SAMPLES = 20  # at least this many more, spread over the campaigns
PROBE_EVERY_S = 0.1  # at most this much campaign time between two probes


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # configs/<config>.yaml
    budget: int  # evaluations per campaign
    workers: int
    persisted: bool  # output directory with full recordings
    resume: bool  # reopen each finished run and replay it
    campaign_seconds: float  # one campaign (and resume) on a 2-core box

    def campaigns(self, seconds: float) -> int:
        """Campaigns per run: enough to fill ``seconds`` on the reference
        box.

        The count depends only on ``seconds``, never on measured speed, so
        one seed always means the same inputs.
        """
        return max(1, int(seconds / self.campaign_seconds))

    def campaign_seeds(self, seed: int, seconds: float) -> list[int]:
        return [seed * 1000 + k for k in range(self.campaigns(seconds))]


WORKLOADS = {w.name: w for w in (
    Workload("ga-inmemory", "avfuzzer", budget=12, workers=1,
             persisted=False, resume=False, campaign_seconds=0.85),
    Workload("novelty-persisted", "behavexplor", budget=120, workers=1,
             persisted=True, resume=True, campaign_seconds=12.0),
    # Not in BENCHMARK.json: a few 100-evaluation campaigns fit in a run,
    # and their speed varies too much from seed to seed for its bounds (see
    # interactions.json).  Run it by hand to see the worker pool and the
    # surrogate search.
    Workload("surrogate-pool2", "samota", budget=100, workers=2,
             persisted=True, resume=False, campaign_seconds=8.0),
)}


def _cpu_seconds() -> float:
    children = os.times()
    return time.process_time() + children.children_user \
        + children.children_system


class TimedContext(CampaignContext):
    """A campaign context that records the latency and CPU time of every
    batch that evaluated something, and probes the host's speed between
    batches.

    Campaign time is recorded as segments between two probes, each as
    ``(start, wall seconds, CPU seconds)``; a probe's own time is in no
    segment.  Without a speed log nothing is probed and the whole campaign
    is one segment.
    """

    def __init__(self, *args, speed_log: speed.SpeedLog | None = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.speed_log = speed_log
        self.batches: list[tuple[float, float, float, int]] = []
        self.segments: list[tuple[float, float, float]] = []
        self._mark: tuple[float, float] | None = None

    def begin(self) -> None:
        """Start timing the campaign (right before ``run_campaign``)."""
        self._probe()
        self._mark = (time.perf_counter(), _cpu_seconds())

    def finish(self) -> None:
        """Stop timing the campaign (right after ``run_campaign``)."""
        self._cut()
        self._mark = None

    def _probe(self) -> None:
        if self.speed_log is not None:
            self.speed_log.probe()

    def _cut(self) -> None:
        start, cpu = self._mark
        self.segments.append((start, time.perf_counter() - start,
                              _cpu_seconds() - cpu))
        self._probe()
        self._mark = (time.perf_counter(), _cpu_seconds())

    def evaluate_batch(self, vectors):
        vectors = list(vectors)
        if self._mark is not None and self.speed_log is not None \
                and time.perf_counter() - self._mark[0] >= PROBE_EVERY_S:
            self._cut()
        done = self.completed
        cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            return super().evaluate_batch(vectors)
        finally:
            # A call refused for lack of budget evaluates nothing: no sample.
            if self.completed > done:
                self.batches.append((start, time.perf_counter() - start,
                                     _cpu_seconds() - cpu,
                                     self.completed - done))


@dataclass
class Setup:
    """The engine inputs of a workload, and timings of building them."""

    workload: Workload
    out_dir: Path
    settings: object = None
    params: dict = field(default_factory=dict)
    algorithm: str = ""
    starts: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    load_config_s: list[float] = field(default_factory=list)
    build_execution_s: list[float] = field(default_factory=list)

    def measure(self) -> None:
        """Config load, map load, template build and context construction,
        timed once."""
        w = self.workload
        start = time.perf_counter()
        config = load_config(ROOT / "configs" / f"{w.config}.yaml")
        loaded = time.perf_counter()
        settings, _, params = build_execution(config)
        built = time.perf_counter()
        TimedContext(settings, CampaignBudget(max_evaluations=w.budget),
                     seed=0, workers=w.workers,
                     output_dir=self.out_dir if w.persisted else None)
        done = time.perf_counter()
        if self.settings is None:
            self.settings = settings
            self.params = dict(params, max_evaluations=w.budget)
            self.algorithm = config.algorithm
        self.starts.append(start)
        self.seconds.append(done - start)
        self.load_config_s.append(loaded - start)
        self.build_execution_s.append(built - loaded)

    def corrected_s(self, speed_log: speed.SpeedLog | None) -> float:
        """Median set-up time at reference host speed."""
        return statistics.median(
            s * _factor(speed_log, t, s) for t, s in zip(self.starts,
                                                          self.seconds))


def set_up(workload: Workload, out_dir: Path) -> Setup:
    """A set-up measured ``SETUP_REPEATS`` times; the campaign runs add
    more readings, so the median samples the whole run."""
    setup = Setup(workload, out_dir)
    for _ in range(SETUP_REPEATS):
        setup.measure()
    return setup


def log_bytes(ctx: CampaignContext) -> bytes:
    if ctx.output_dir is not None:
        return (ctx.output_dir / LOG_FILE).read_bytes()
    from scenofuzz import canonical
    return canonical.dumps(ctx.records).encode("utf-8")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _factor(speed_log: speed.SpeedLog | None, start: float,
            seconds: float) -> float:
    """Scale of a duration measured from ``start`` to reference speed."""
    return speed_log.factor(start + seconds / 2) \
        if speed_log is not None else 1.0


@dataclass
class Campaign:
    """One campaign's raw timings, each with its ``time.perf_counter``
    start, and its checks."""

    seed: int
    evaluations: int = 0
    violations: int = 0
    segments: list = field(default_factory=list)  # TimedContext.segments
    batches: list = field(default_factory=list)  # TimedContext.batches
    digest: str = ""
    log_bytes: int = 0
    disk_bytes: int = 0
    resume_start: float = 0.0
    resume_s: float = 0.0
    resume_open_s: float = 0.0
    replayed: int = 0
    errors: list = field(default_factory=list)

    # Without a speed log these are the raw readings.
    def wall_s(self, speed_log: speed.SpeedLog | None = None) -> float:
        return sum(w * _factor(speed_log, t, w) for t, w, _ in self.segments)

    def cpu_s(self, speed_log: speed.SpeedLog | None = None) -> float:
        return sum(c * _factor(speed_log, t, w) for t, w, c in self.segments)

    def batch_seconds(self, speed_log: speed.SpeedLog | None = None) -> list:
        return [w * _factor(speed_log, t, w) for t, w, _, _ in self.batches]

    def resume_seconds(self, speed_log: speed.SpeedLog | None = None) -> float:
        return self.resume_s * _factor(speed_log, self.resume_start,
                                       self.resume_s)


class Runner:
    """Runs campaigns of one workload and checks each one's log."""

    def __init__(self, workload: Workload, setup: Setup, out_dir: Path,
                 pins: dict, tracer: tracing.Tracer | None = None,
                 speed_log: speed.SpeedLog | None = None,
                 setups_per_campaign: int = 1):
        self.workload = workload
        self.setup = setup
        self.out_dir = out_dir
        self.pins = pins
        self.tracer = tracer
        self.speed_log = speed_log
        self.setups_per_campaign = setups_per_campaign
        self.unpinned = 0  # campaigns checked against no pin

    def _phase(self, phase: int) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def _context(self, seed: int, workers: int, run_dir: Path | None,
                 resume: bool = False, budget: int | None = None,
                 speed_log: speed.SpeedLog | None = None) -> TimedContext:
        budget = CampaignBudget(max_evaluations=budget or self.workload.budget)
        return TimedContext(self.setup.settings, budget, seed=seed,
                            workers=workers, output_dir=run_dir, resume=resume,
                            speed_log=speed_log)

    def _fresh(self, seed: int, workers: int, run_dir: Path | None,
               phase: int = tracing.FRESH, budget: int | None = None,
               speed_log: speed.SpeedLog | None = None):
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
        ctx = self._context(seed, workers, run_dir, budget=budget,
                            speed_log=speed_log)
        self._phase(phase)
        ctx.begin()
        report = run_campaign(self.setup.algorithm, ctx, self.setup.params)
        ctx.finish()
        self._phase(tracing.CHECK)
        return ctx, report

    def warm_up(self, seed: int = 999_999, budget: int = 4) -> None:
        """One short, unchecked and untimed campaign, so that the first
        timed one does not pay for first use (imports, caches)."""
        run_dir = self.out_dir / "warm-up" if self.workload.persisted else None
        try:
            self._fresh(seed, self.workload.workers, run_dir, tracing.CHECK,
                        budget=min(budget, self.workload.budget))
        finally:
            if run_dir is not None:
                shutil.rmtree(run_dir, ignore_errors=True)

    def run(self, seed: int) -> Campaign:
        w = self.workload
        result = Campaign(seed)
        self._phase(tracing.SETUP)
        for _ in range(self.setups_per_campaign):
            self.setup.measure()
        run_dir = self.out_dir / f"run-{seed}" if w.persisted else None
        try:
            ctx, report = self._fresh(seed, w.workers, run_dir,
                                      speed_log=self.speed_log)
            result.evaluations = ctx.completed
            result.violations = int(report["violations"])
            result.segments = ctx.segments
            result.batches = ctx.batches
            data = log_bytes(ctx)
            result.digest = hashlib.sha256(data).hexdigest()
            result.log_bytes = len(data)
            if ctx.completed != w.budget:
                result.errors.append(f"{ctx.completed} of {w.budget} "
                                     "evaluations logged")
            self._check_digest(result)
            if run_dir is not None:
                result.disk_bytes = dir_bytes(run_dir)
            if w.resume:
                self._resume(result, run_dir, data)
        except Exception:  # a failed campaign is counted, not fatal
            self._phase(tracing.CHECK)
            result.errors.append(traceback.format_exc(limit=4))
        finally:
            if run_dir is not None:
                shutil.rmtree(run_dir, ignore_errors=True)
        return result

    def _check_digest(self, result: Campaign) -> None:
        """Compare with the pinned digest.  Pins come from ``workers=1``
        runs, so a pooled workload is checked against the serial log.

        A seed without a pin is checked against a ``workers=1`` reference
        run, outside the timed region: every campaign of a pooled workload,
        and the first unpinned campaign of a run otherwise.  Later unpinned
        campaigns of a serial workload are only counted in ``unpinned``.
        """
        table = self.pins.setdefault(self.workload.name, {})
        pinned = table.get(str(result.seed))
        if pinned is None:
            self.unpinned += 1
            pinned = table[str(result.seed)] = \
                self.reference_digest(result.seed) \
                if self.workload.workers > 1 or self.unpinned == 1 \
                else result.digest
        if result.digest != pinned:
            result.errors.append(f"log sha256 {result.digest} != expected "
                                 f"{pinned}")

    def reference_digest(self, seed: int) -> str:
        """sha256 of the log of a ``workers=1`` campaign with ``seed``."""
        ref_dir = self.out_dir / f"reference-{seed}" \
            if self.workload.persisted else None
        try:
            ctx, _ = self._fresh(seed, 1, ref_dir, tracing.CHECK)
            return hashlib.sha256(log_bytes(ctx)).hexdigest()
        finally:
            if ref_dir is not None:
                shutil.rmtree(ref_dir, ignore_errors=True)

    def _resume(self, result: Campaign, run_dir: Path, before: bytes) -> None:
        """Reopen the finished run with the same budget: every evaluation
        replays from the log and none is simulated."""
        self._phase(tracing.RESUME)
        start = time.perf_counter()
        ctx = self._context(result.seed, self.workload.workers, run_dir,
                            resume=True)
        opened = time.perf_counter()
        run_campaign(self.setup.algorithm, ctx, self.setup.params)
        result.resume_start = start
        result.resume_s = time.perf_counter() - start
        self._phase(tracing.CHECK)
        if self.speed_log is not None:
            self.speed_log.probe()
        result.resume_open_s = opened - start
        result.replayed = ctx.completed
        if (run_dir / LOG_FILE).read_bytes() != before:
            result.errors.append("resumed log differs from the finished log")


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(campaigns: list[Campaign], setup: Setup,
               speed_log: speed.SpeedLog | None = None) -> dict:
    """Metrics a user sees, from the campaigns that passed their checks, at
    reference host speed (raw without a speed log)."""
    good = [c for c in campaigns if not c.errors]
    evals = sum(c.evaluations for c in good)
    wall = sum(c.wall_s(speed_log) for c in good)
    batches = [s for c in good for s in c.batch_seconds(speed_log)]
    return {
        "evals_per_s": evals / wall if wall else 0.0,
        "cpu_ms_per_eval": 1e3 * sum(c.cpu_s(speed_log) for c in good) / evals
        if evals else 0.0,
        "batch_ms_p50": 1e3 * percentile(batches, 50),
        "batch_ms_p90": 1e3 * percentile(batches, 90),
        "setup_s": setup.corrected_s(speed_log),
        "peak_rss_mb": peak_rss_mb(),
    }


def extras(campaigns: list[Campaign],
           speed_log: speed.SpeedLog | None = None) -> dict:
    """Workload-specific figures and repeatable counts of the same runs."""
    good = [c for c in campaigns if not c.errors]
    evals = sum(c.evaluations for c in good)
    replayed = sum(c.replayed for c in good)
    resume_s = sum(c.resume_seconds(speed_log) for c in good)
    return {
        "resume_evals_per_s": replayed / resume_s if resume_s else 0.0,
        "disk_kb_per_eval": sum(c.disk_bytes for c in good) / 1024.0 / evals
        if evals else 0.0,
        "batch_samples": sum(len(c.batches) for c in good),
        "campaigns": len(campaigns),
        "evaluations": evals,
        "violations": sum(c.violations for c in good),
        "log_bytes": sum(c.log_bytes for c in good),
    }


def layer_metrics(tracer: tracing.Tracer, campaigns: list[Campaign],
                  setup: Setup, workers: int) -> dict:
    """Per-layer figures of a traced pass (fresh campaigns unless noted)."""
    spans = tracer.summary()
    counts = tracer.counts()
    fresh, resume, setup_phase = tracing.FRESH, tracing.RESUME, tracing.SETUP
    good = [c for c in campaigns if not c.errors]
    evals = sum(c.evaluations for c in good) or 1

    def calls(name, phase=fresh):
        return spans.get((phase, name), (0, 0.0, 0.0))[0]

    def total(name, phase=fresh):
        return spans.get((phase, name), (0, 0.0, 0.0))[1]

    def own(name, phase=fresh):
        return spans.get((phase, name), (0, 0.0, 0.0))[2]

    def count(key, phase=fresh):
        return counts.get((phase, key), 0.0)

    steps = calls("simulator.step_world")
    per_step = 1e6 / steps if steps else 0.0
    per_eval_ms = 1e3 / evals
    kb_per_eval = 1.0 / 1024.0 / evals
    lower_bound = count("simulator.lower_bound@runner.run_scenario")
    exact = count("simulator.actor_distance@runner.run_scenario")
    projects = calls("geometry.project")
    predictions = calls("engine.surrogate_predict")
    replayed = sum(c.replayed for c in good)
    batches = sum(w for c in good for _, w, _, n in c.batches if n > 1)
    campaign_wall = sum(c.wall_s() for c in good)
    metrics = {
        "bridge.codec_us_per_step":
            (own("bridge.encode") + own("bridge.decode")) * per_step,
        "bridge.wire_bytes_per_step":
            count("wire_bytes") / steps if steps else 0.0,
        "bridge.agent_us_per_step": total("bridge.agent_step") * per_step,
        "bridge.request_us_per_step": total("bridge.request") * per_step,
        "simulator.step_world_us_per_step":
            total("simulator.step_world") * per_step,
        "simulator.npc_policy_us_per_step":
            total("simulator.npc_policy") * per_step,
        "simulator.obb_distance_calls_per_step":
            count("simulator.obb_distance@runner.run_scenario") / steps
            if steps else 0.0,
        "simulator.broadphase_reject_share":
            1.0 - exact / lower_bound if lower_bound else 0.0,
        "geometry.project_calls_per_eval": projects / evals,
        "geometry.project_us":
            1e6 * total("geometry.project") / projects if projects else 0.0,
        "runner.self_ms_per_eval": own("runner.run_scenario") * per_eval_ms,
        "runner.steps_per_eval": steps / evals,
        "runner.write_recording_ms_per_eval":
            total("runner.write_recording") * per_eval_ms,
        "runner.recording_kb_per_eval": count("recording_bytes") * kb_per_eval,
        "feedback.compute_ms_per_eval": total("feedback.compute") * per_eval_ms,
        "campaign.checkpoint_ms_per_eval":
            total("campaign.checkpoint") * per_eval_ms,
        "campaign.checkpoint_kb_per_eval":
            count("checkpoint_bytes") * kb_per_eval,
        "campaign.replay_ms_per_eval":
            1e3 * (sum(c.resume_open_s for c in good)
                   + own("campaign.evaluate_batch", resume)) / replayed
            if replayed else 0.0,
        "campaign.pool_efficiency":
            count("worker_busy_s") / (workers * batches)
            if workers > 1 and batches else 0.0,
        "engine.self_ms_per_eval":
            (campaign_wall - total("campaign.evaluate_batch")) * per_eval_ms,
        "engine.surrogate_predictions_per_eval": predictions / evals,
        "engine.surrogate_predict_us":
            1e6 * total("engine.surrogate_predict") / predictions
            if predictions else 0.0,
        "scenario.validate_ms_per_eval": total("scenario.validate") * per_eval_ms,
        "scenario.unflatten_ms_per_eval":
            total("scenario.unflatten") * per_eval_ms,
        "config.load_ms": 1e3 * statistics.median(setup.load_config_s),
        "config.build_execution_ms":
            1e3 * statistics.median(setup.build_execution_s),
        "lanemap.load_ms": 1e3 * total("lanemap.load", setup_phase)
        / max(calls("lanemap.load", setup_phase), 1),
        "template.build_ms": 1e3 * total("template.build", setup_phase)
        / max(calls("template.build", setup_phase), 1),
    }
    for owner in ("bridge", "recording", "checkpoint"):
        metrics[f"canonical.dumps_ms_per_eval.{owner}"] = \
            count(f"dumps_s.{owner}") * per_eval_ms
        metrics[f"canonical.dumps_kb_per_eval.{owner}"] = \
            count(f"dumps_bytes.{owner}") * kb_per_eval
    metrics.update(work_counts(tracer, campaigns))
    return metrics


def work_counts(tracer: tracing.Tracer, campaigns: list[Campaign]) -> dict:
    """Counts of work done by the fresh campaigns; they repeat exactly for
    one seed, whatever the speed of the machine."""
    spans = tracer.summary()
    counts = tracer.counts()
    fresh = tracing.FRESH
    good = [c for c in campaigns if not c.errors]
    return {
        "count.evaluations": sum(c.evaluations for c in good),
        "count.violations": sum(c.violations for c in good),
        "count.steps": spans.get((fresh, "simulator.step_world"), (0,))[0],
        "count.bridge_frames": int(counts.get((fresh, "bridge_frames"), 0)),
        "count.wire_bytes": int(counts.get((fresh, "wire_bytes"), 0)),
        "count.recording_bytes": int(counts.get((fresh, "recording_bytes"), 0)),
        "count.checkpoint_bytes":
            int(counts.get((fresh, "checkpoint_bytes"), 0)),
        "count.surrogate_predictions":
            spans.get((fresh, "engine.surrogate_predict"), (0,))[0],
    }
