"""Campaign orchestration: budgets, batched evaluation, checkpointing, resume.

A campaign is one algorithm spending one budget against one scenario
template.  The context object owns everything stateful: the seeded random
generator, the evaluation log, the worker pool, and the checkpoint files.
Algorithms see a narrow surface (``rng``, ``prototype``, ``workers``,
``evaluate_batch``) so they can also be exercised against synthetic
landscapes in tests.

Determinism contract: scenario configurations are drawn from the seeded
generator serially, batches are joined in submission order, and the
evaluation log is written in canonical form, so two runs with the same seed
and budget produce byte-identical ``evaluations.json`` regardless of worker
count.  Resume replays the persisted log prefix instead of re-simulating,
then continues fresh; an interrupted-and-resumed campaign therefore ends
with the same log as an uninterrupted one.

Checkpoint contract: after every batch that evaluated something fresh,
``evaluations.json`` is a complete snapshot of the log, replaced atomically,
so it can be read at any time while the campaign runs.  While a resume is
still replaying, the files are not rewritten: they already hold every entry,
including those not yet replayed.  Each record is encoded once, at the first
checkpoint that writes it, and appended to the text of the log so far, which
is byte for byte the canonical encoding of the whole log.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import canonical
from ..bridge import (AgentSettings, InProcessSession, ReferenceEgoAgent,
                      connect)
from ..lanemap import LaneMap
from ..runner import (OUTCOMES, OracleConfig, mission_path, run_scenario,
                      write_recording)
from ..scenario import (MutationSpace, ParameterVector, ScenarioConfig,
                        flatten, unflatten)
from .feedback import Feedback, compute_feedback

EVALUATIONS_FILE = "evaluations.json"
STATE_FILE = "campaign.state.json"
REPORT_FILE = "report.json"
RECORDINGS_DIR = "recordings"

log = logging.getLogger(__name__)


class BudgetExhausted(Exception):
    """Raised by the context when no further evaluations are allowed."""


class CampaignError(RuntimeError):
    pass


@dataclass(frozen=True)
class CampaignBudget:
    max_evaluations: int | None = None
    wall_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_evaluations is None and self.wall_seconds is None:
            raise ValueError("budget needs max_evaluations or wall_seconds")


@dataclass(frozen=True)
class ExecutionSettings:
    lane_map: LaneMap
    template: ScenarioConfig
    space: MutationSpace = field(default_factory=MutationSpace)
    oracles: OracleConfig = field(default_factory=OracleConfig)
    agent: AgentSettings = field(default_factory=AgentSettings)
    dt: float = 0.1
    endpoint: str | None = None  # None runs the reference agent in-process
    save_traffic_recording: bool = True


class CampaignContext:
    def __init__(self, settings: ExecutionSettings, budget: CampaignBudget,
                 seed: int = 0, workers: int = 1,
                 output_dir: str | Path | None = None,
                 resume: bool = False):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.settings = settings
        self.budget = budget
        self.seed = seed
        self.workers = workers
        self.output_dir = Path(output_dir) if output_dir is not None else None
        self.rng = np.random.default_rng(seed)
        self.prototype: ParameterVector = flatten(settings.template,
                                                  settings.space)
        self.records: list[dict] = []
        self.algorithm_name = ""
        self.finished = False
        self.stop_requested = False
        self._mission = mission_path(settings.template, settings.lane_map)
        self._lane_width = settings.lane_map.lane(
            settings.template.ego.start_lane_id).width
        self._replay: deque[tuple[dict, Feedback]] = deque()
        # canonical text of records[:_logged], grown in place by checkpoint()
        self._log_text = bytearray(b"[]")
        self._logged = 0
        self._wall_prior = 0.0
        self._t0 = time.monotonic()
        if resume and self.output_dir is not None:
            self._load_checkpoint()

    # -- bookkeeping --------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self.records)

    def log_entries(self) -> list[dict]:
        """Every entry of the log on disk: the records so far, then those a
        resume still has queued for replay."""
        return self.records + [entry for entry, _ in self._replay]

    def wall_consumed(self) -> float:
        return self._wall_prior + (time.monotonic() - self._t0)

    def _allowance(self, requested: int) -> int:
        if self.stop_requested:
            return 0
        allowed = requested
        if self.budget.max_evaluations is not None:
            allowed = min(allowed,
                          max(self.budget.max_evaluations - self.completed, 0))
        if self.budget.wall_seconds is not None \
                and self.wall_consumed() >= self.budget.wall_seconds:
            allowed = 0
        return allowed

    def _load_checkpoint(self) -> None:
        log_path = self.output_dir / EVALUATIONS_FILE
        if not log_path.exists():
            return
        entries = _read_checkpoint_file(log_path)
        if not isinstance(entries, list):
            raise CampaignError(f"{log_path}: expected a JSON array")
        for i, entry in enumerate(entries):
            try:
                # the identity _evaluate_one writes; --export-svg names files
                # by the id
                if type(entry["index"]) is not int or entry["index"] != i \
                        or entry["scenario_id"] != f"eval_{i:06d}":
                    raise ValueError(f"index and scenario_id are not {i} "
                                     f"and 'eval_{i:06d}'")
                self._replay.append((entry, _feedback_from_record(entry)))
            except (KeyError, TypeError, ValueError) as exc:
                raise CampaignError(f"{log_path}: entry {i} is not an "
                                    f"evaluation record: {exc!r}") from None
        state_path = self.output_dir / STATE_FILE
        if state_path.exists():
            state = _read_checkpoint_file(state_path)
            wall = state.get("wall_consumed", 0.0) \
                if isinstance(state, dict) else None
            if canonical.finite_number(wall) is None or wall < 0:
                raise CampaignError(
                    f"{state_path}: expected a JSON object with a finite "
                    f"wall_consumed >= 0, got {wall!r}")
            self._wall_prior = float(wall)

    def checkpoint(self) -> None:
        # While replay entries are queued the files on disk already hold
        # them all; rewriting them now would drop the ones not yet replayed.
        if self.output_dir is None or self._replay:
            return
        self.output_dir.mkdir(parents=True, exist_ok=True)
        if self._logged < self.completed:
            texts = [canonical.dumps(r) for r in self.records[self._logged:]]
            separator = "," if self._logged else ""
            self._log_text[-1:] = \
                (separator + ",".join(texts) + "]").encode("utf-8")
            self._logged = self.completed
        _atomic_write(self.output_dir / EVALUATIONS_FILE, self._log_text)
        state = {"algorithm": self.algorithm_name, "seed": self.seed,
                 "completed": self.completed, "finished": self.finished,
                 "wall_consumed": self.wall_consumed()}
        _atomic_write(self.output_dir / STATE_FILE, canonical.dump_bytes(state))

    # -- evaluation ---------------------------------------------------------

    def evaluate_batch(self, vectors) -> list[Feedback]:
        """Evaluate vectors in order; log, checkpoint, and enforce budget.

        Raises :exc:`BudgetExhausted` when the batch does not fit (whatever
        did fit has been evaluated and logged first).
        """
        vectors = list(vectors)
        allowed = self._allowance(len(vectors))
        todo = vectors[:allowed]
        feedbacks: list[Feedback] = []

        replay_n = 0
        while self._replay and replay_n < len(todo):
            entry, feedback = self._replay[0]
            expected = [float(v) for v in todo[replay_n].values]
            if entry.get("values") != expected:
                raise CampaignError(
                    "resume mismatch at evaluation "
                    f"{self.completed}: the checkpoint was produced by a "
                    "different configuration or seed")
            self._replay.popleft()
            self.records.append(entry)
            feedbacks.append(feedback)
            replay_n += 1

        fresh = todo[replay_n:]
        if fresh:
            start = self.completed
            jobs = [(start + i, vec) for i, vec in enumerate(fresh)]
            if self.workers > 1 and len(jobs) > 1:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    results = list(pool.map(
                        lambda job: self._evaluate_one(*job), jobs))
            else:
                results = [self._evaluate_one(*job) for job in jobs]
            for record, feedback in results:
                log.debug("evaluation %d %s: %s fitness=%r repairs=%s",
                          record["index"], record["scenario_id"],
                          record["outcome"], record["fitness"],
                          record["repairs"])
                self.records.append(record)
                feedbacks.append(feedback)

        self.checkpoint()
        if allowed < len(vectors):
            raise BudgetExhausted(
                f"{self.completed} evaluations done, budget exhausted")
        return feedbacks

    def _session_factory(self):
        settings = self.settings
        if settings.endpoint is not None:
            return connect(settings.endpoint)
        return InProcessSession(lambda: ReferenceEgoAgent(
            self._mission, settings.agent, settings.dt))

    def _evaluate_one(self, index: int, vector: ParameterVector):
        config, repairs = unflatten(vector, self.settings.template)
        config = dataclasses.replace(config, scenario_id=f"eval_{index:06d}")
        recording = run_scenario(config, self.settings.lane_map,
                                 self._session_factory,
                                 self.settings.oracles, seed=self.seed,
                                 dt=self.settings.dt)
        feedback = compute_feedback(recording, self._mission,
                                    self._lane_width)
        if self.output_dir is not None:
            write_recording(recording, self.output_dir / RECORDINGS_DIR,
                            include_frames=self.settings.save_traffic_recording)
        record = {
            "index": index,
            "scenario_id": config.scenario_id,
            "values": [float(v) for v in vector.values],
            "repairs": list(repairs),
            "outcome": feedback.outcome,
            "fitness": feedback.fitness,
            "quality_score": feedback.quality_score,
            "behavior": list(feedback.behavior_vector),
            "time_of_decision": feedback.time_of_decision,
        }
        return record, feedback


def _finite(value, name: str) -> float:
    number = canonical.finite_number(value)
    if number is None:
        raise ValueError(f"{name} is not a finite number: {value!r}")
    return number


def _feedback_from_record(record: dict) -> Feedback:
    behavior = record["behavior"]
    if not isinstance(behavior, list):
        raise ValueError(f"behavior is not an array: {behavior!r}")
    outcome = record["outcome"]
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    return Feedback(fitness=_finite(record["fitness"], "fitness"),
                    behavior_vector=tuple(_finite(v, "behavior")
                                          for v in behavior),
                    quality_score=_finite(record["quality_score"],
                                          "quality_score"),
                    outcome=outcome,
                    time_of_decision=_finite(record["time_of_decision"],
                                             "time_of_decision"))


def _read_checkpoint_file(path: Path):
    try:
        return canonical.loads(path.read_bytes())
    except ValueError as exc:  # includes bad UTF-8
        raise CampaignError(f"{path}: unreadable checkpoint: {exc}") from None


def _atomic_write(path: Path, data: bytes | bytearray) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# dispatch


def algorithm_registry() -> dict:
    from . import avfuzzer, behavexplor, drivefuzz, random_search, samota
    return {
        "random": random_search.run,
        "avfuzzer": avfuzzer.run,
        "behavexplor": behavexplor.run,
        "samota": samota.run,
        "drivefuzz": drivefuzz.run,
    }


def build_report(ctx: CampaignContext, algorithm: str) -> dict:
    """Summarise the log on disk, including the entries a resume that
    stopped early left queued for replay."""
    entries = ctx.log_entries()
    violations = [r for r in entries if r["outcome"] == "CollisionViolation"]
    fitnesses = [r["fitness"] for r in entries]
    return {
        "algorithm": algorithm,
        "seed": ctx.seed,
        "evaluations": len(entries),
        "violations": len(violations),
        "first_violation_index": violations[0]["index"] if violations else None,
        "best_fitness": min(fitnesses) if fitnesses else None,
        "wall_clock": ctx.wall_consumed(),
    }


def run_campaign(algorithm: str, ctx: CampaignContext,
                 params: dict | None = None) -> dict:
    registry = algorithm_registry()
    if algorithm not in registry:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of "
                         f"{sorted(registry)}")
    ctx.algorithm_name = algorithm
    try:
        registry[algorithm](ctx, dict(params or {}))
    except BudgetExhausted:
        pass
    ctx.finished = True
    ctx.checkpoint()
    report = build_report(ctx, algorithm)
    if ctx.output_dir is not None:
        _atomic_write(ctx.output_dir / REPORT_FILE, canonical.dump_bytes(report))
    return report
