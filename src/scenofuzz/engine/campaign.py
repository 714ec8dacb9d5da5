"""Campaign orchestration: budgets, batched evaluation, checkpointing, resume.

A campaign is one algorithm spending one budget against one scenario
template.  The context object owns everything stateful: the seeded random
generator, the evaluation log, the worker pool, and the checkpoint files.
Algorithms see a narrow surface (``rng``, ``prototype``, ``workers``,
``budget``, ``evaluate_batch``) so they can also be exercised against
synthetic landscapes in tests.

Determinism contract: scenario configurations are drawn from the seeded
generator serially, batches are joined in submission order, and the
evaluation log is written in canonical form, so two runs with the same seed
and budget produce byte-identical ``evaluations.json`` regardless of worker
count.  Resume replays the persisted log prefix instead of re-simulating,
then continues fresh; an interrupted-and-resumed campaign therefore ends
with the same log as an uninterrupted one.  ``run_campaign`` refuses, before
it evaluates or writes anything, to resume a checkpoint whose state file
names another algorithm or seed.  Only ``run_campaign`` records the algorithm
and checks the algorithm and seed: a context an algorithm's ``run(ctx,
params)`` drives directly checkpoints ``"algorithm": ""``, which a later
resume accepts under any algorithm, and it never checks the algorithm or
seed of a checkpoint it resumes.  Such a ``run`` must call
``ctx.checkpoint()`` at its end, as ``run_campaign`` does: ``evaluate_batch``
writes only on the schedule below.

Scenario memo: with the in-process reference agent, each distinct scenario
is simulated once per context.  The key is the sha256 of the canonical
scenario document with an empty ``scenario_id``; seed, ``dt``, map, oracles
and agent are fixed per context.  A batch is looked up in submission order
before anything runs, equal scenarios in it are simulated once, and only
the calling thread touches the memo, so the work done does not depend on
the worker count.  A hit logs its own ``index``, ``scenario_id``,
``values`` and ``repairs`` with the first run's feedback, as a rerun
would, so the log bytes do not move.  Its recording is the first run's
file with the hit's own ``scenario_id`` in place of the first run's
(``runner.copy_recording``): exactly the bytes a rerun writes.  If that
file is gone or has changed, nothing is copied and the hit is simulated
again.  The memo keeps no frames and at most ``SCENARIO_MEMO_LIMIT``
scenarios, dropping the oldest.
An external agent (``settings.endpoint``) is simulated every time, since a
rerun is how a flaky agent shows, and a resumed campaign starts with an
empty memo that replayed entries do not fill.

Checkpoint contract: every ``checkpoint()`` leaves ``evaluations.json`` a
complete snapshot of the log, replaced atomically, so it can be read at any
time while the campaign runs.  Each record is encoded once, at the first
checkpoint that writes it, and appended to the bytes of the log file; this
holds across resumes.  A resume starts from the bytes it read: the files,
which hold every entry, are not rewritten while it replays, and the
checkpoints of a finished campaign's resume write only the state file.
``evaluate_batch`` checkpoints only once the records not yet on disk reach
one ``CHECKPOINT_SHARE``-th of those on disk or ``CHECKPOINT_GAP`` of them,
the budget is spent, or a stop was requested.  The share and the gap count
evaluations, not seconds, so the writes of a campaign repeat from run to
run.  ``run_campaign`` also checkpoints when the algorithm raises an
``Exception``, so only a kill (a ``BaseException``, such as a second Ctrl-C)
can lose records: fewer than one ``CHECKPOINT_SHARE``-th of those on disk
and fewer than ``CHECKPOINT_GAP``, which a resume simulates again to the
same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
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
from ..canonical import Cursor
from ..lanemap import LaneMap
from ..runner import (COLLISION, INVALID_SCENARIO, OUTCOMES,
                      InvalidScenarioError, OracleConfig, ScenarioRecording,
                      Verdict, copy_recording, mission_path, run_scenario,
                      write_recording)
from ..scenario import (MutationSpace, ParameterVector, ScenarioConfig,
                        flatten, to_document, unflatten)
from . import avfuzzer, behavexplor, drivefuzz, random_search, samota
from .feedback import BINS, NO_OBSTACLE_FITNESS, Feedback, compute_feedback

EVALUATIONS_FILE = "evaluations.json"
STATE_FILE = "campaign.state.json"
REPORT_FILE = "report.json"
RECORDINGS_DIR = "recordings"

# Every algorithm parameter with its default: the config file's
# testing_engine.algorithm.parameters keys.  An algorithm reads
# params[name]; algorithm_registry() fills in those a caller leaves out.
ALGORITHM_DEFAULTS = dict(
    run_hour=2.0, local_run_hour=0.5, population_size=4, pm=0.6, pc=0.6,
    archive_threshold=0.2, surrogate_pool=20, max_evaluations=None)

SCENARIO_MEMO_LIMIT = 1024  # distinct scenarios held; the oldest goes first

# evaluate_batch checkpoints once the records not yet on disk reach one
# CHECKPOINT_SHARE-th of those on disk, or CHECKPOINT_GAP of them
CHECKPOINT_SHARE = 8
CHECKPOINT_GAP = 32

# what search sees of a scenario that could not be simulated: nothing near,
# no roughness, no behaviour
INVALID_FEEDBACK = Feedback(NO_OBSTACLE_FITNESS, (0.0,) * (3 * BINS), 0.0,
                            INVALID_SCENARIO, 0.0)

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

    @functools.cached_property
    def mission(self):
        """The ego's route, built once per settings object, so that the ego
        states the step memo shares keep their guidance across campaigns."""
        return mission_path(self.template, self.lane_map)


@dataclass(frozen=True)
class _Outcome:
    """What the first run of a scenario gave: its feedback, its scenario
    id, and the size of the recording file it wrote (None without an
    output directory)."""
    feedback: Feedback
    scenario_id: str
    size: int | None


@dataclass(frozen=True)
class _Job:
    """One fresh evaluation, unflattened; ``key`` names its scenario in the
    memo, or is None when the memo is not used."""
    index: int
    vector: ParameterVector
    config: ScenarioConfig
    repairs: list[str]
    key: str | None


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
        self._mission = settings.mission
        self._lane_width = settings.lane_map.lane(
            settings.template.ego.start_lane_id).width
        self._replay: deque[tuple[dict, Feedback]] = deque()
        # scenario key -> _Outcome of its first run; the calling thread alone
        # reads and writes it
        self._memo: dict[str, _Outcome] = {}
        # the bytes of evaluations.json, its first _logged entries, grown in
        # place by checkpoint()
        self._log_text = bytearray(b"[]")
        self._logged = 0
        self._wall_prior = 0.0
        # the algorithm and seed the checkpoint on disk was written with
        self._resumed: dict[str, object] = {}
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

    def _budget_spent(self) -> bool:
        """Whether ``max_evaluations`` is reached or ``wall_seconds`` passed."""
        limit, wall = self.budget.max_evaluations, self.budget.wall_seconds
        return (limit is not None and self.completed >= limit) or \
            (wall is not None and self.wall_consumed() >= wall)

    def _allowance(self, requested: int) -> int:
        if self.stop_requested or self._budget_spent():
            return 0
        limit = self.budget.max_evaluations
        return requested if limit is None else \
            min(requested, limit - self.completed)

    def _load_checkpoint(self) -> None:
        log_path = self.output_dir / EVALUATIONS_FILE
        if not log_path.exists():
            return
        text, entries = _read_checkpoint_file(log_path)
        if not isinstance(entries, list):
            raise CampaignError(f"{log_path}: expected a JSON array")
        for i, entry in enumerate(Cursor(entries, ValueError).items()):
            try:
                feedback = _feedback_from_record(entry, i)
            except ValueError as exc:
                raise CampaignError(f"{log_path}: entry {i} is not an "
                                    f"evaluation record: {exc}") from None
            self._replay.append((entry.doc, feedback))
        self._log_text = bytearray(text.rstrip(b" \t\n\r"))  # "]" last
        self._logged = len(entries)
        state_path = self.output_dir / STATE_FILE
        if state_path.exists():
            state = Cursor(_read_checkpoint_file(state_path)[1], ValueError)
            try:
                state.keys({"wall_consumed"}, closed=False)
                self._wall_prior = state["wall_consumed"].number(0.0)
                # a campaign run without run_campaign names no algorithm
                if state.doc.get("algorithm", "") != "":
                    self._resumed["algorithm"] = state["algorithm"].text()
                if "seed" in state.doc:
                    self._resumed["seed"] = state["seed"].integer()
            except ValueError as exc:
                raise CampaignError(f"{state_path}: {exc}") from None

    def _check_resume(self, algorithm: str) -> None:
        """Refuse to continue a checkpoint written by another algorithm or
        with another seed: its entries could replay as matching ones."""
        for name, given in (("algorithm", algorithm), ("seed", self.seed)):
            recorded = self._resumed.get(name, given)
            if recorded != given:
                raise CampaignError(
                    f"{self.output_dir / STATE_FILE}: the checkpoint was "
                    f"written with {name} {recorded!r}, not {given!r}")

    def checkpoint(self) -> None:
        # While replay entries are queued the files on disk already hold
        # them all; a state written now would count only those replayed.
        if self.output_dir is None or self._replay:
            return
        self.output_dir.mkdir(parents=True, exist_ok=True)
        # the log is written when it grows, and while it is empty
        if self._logged < self.completed or not self.completed:
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
        """Evaluate vectors in order; log, checkpoint when due, and enforce
        the budget.

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
            if entry["values"] != expected:
                raise CampaignError(
                    "resume mismatch at evaluation "
                    f"{self.completed}: the checkpoint was produced by a "
                    "different configuration or seed")
            self._replay.popleft()
            self.records.append(entry)
            feedbacks.append(feedback)
            replay_n += 1

        for record, feedback in self._evaluate_fresh(self.completed,
                                                     todo[replay_n:]):
            log.debug("evaluation %d %s: %s fitness=%r repairs=%s",
                      record["index"], record["scenario_id"],
                      record["outcome"], record["fitness"], record["repairs"])
            self.records.append(record)
            feedbacks.append(feedback)

        unwritten = self.completed - self._logged
        if (unwritten * CHECKPOINT_SHARE >= self._logged
                or unwritten >= CHECKPOINT_GAP
                or self._budget_spent()
                or self.stop_requested):
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

    def _job(self, index: int, vector: ParameterVector) -> _Job:
        config, repairs = unflatten(vector, self.settings.template)
        config = dataclasses.replace(config, scenario_id=f"eval_{index:06d}")
        return _Job(index, vector, config, repairs,
                    self._key(to_document(config)))

    def _key(self, document: dict) -> str | None:
        """The memo key of a scenario document: the sha256 of its canonical
        text with the scenario id left empty.  None for an external agent,
        which is simulated every time."""
        if self.settings.endpoint is not None:
            return None
        return canonical.sha256({**document, "scenario_id": ""})

    def _evaluate_fresh(self, start: int,
                        vectors: list) -> list[tuple[dict, Feedback]]:
        """Records and feedback of ``vectors``, evaluations ``start`` on, in
        order.  Each is looked up before any runs, and only the first of
        each scenario that is neither in the memo nor earlier in the batch
        is simulated, on the pool when there are several.  The others then
        copy the outcome of their scenario, in order."""
        jobs = [self._job(start + i, vec) for i, vec in enumerate(vectors)]
        known: dict[str, _Outcome | _Job] = {}
        runs: list[_Job] = []
        for job in jobs:
            if job.key is None:
                runs.append(job)
            elif job.key not in known:
                outcome = self._memo.get(job.key)
                if outcome is None:
                    runs.append(job)
                known[job.key] = job if outcome is None else outcome
        if self.workers > 1 and len(runs) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                outcomes = list(pool.map(self._simulate, runs))
        else:
            outcomes = [self._simulate(job) for job in runs]
        simulated = {job.index: outcome for job, outcome in zip(runs, outcomes)}
        for key, first in known.items():
            if isinstance(first, _Job):
                known[key] = simulated[first.index]
        results = []
        for job in jobs:
            outcome = simulated.get(job.index)
            if outcome is None:
                outcome = known[job.key]
                if self.output_dir is not None and not copy_recording(
                        self.output_dir / RECORDINGS_DIR, outcome.scenario_id,
                        job.config.scenario_id, outcome.size):
                    outcome = known[job.key] = self._simulate(job)
                    self._remember(job.key, outcome)
            elif job.key is not None:
                self._remember(job.key, outcome)
            results.append((self._record(job, outcome.feedback),
                            outcome.feedback))
        return results

    def _simulate(self, job: _Job) -> _Outcome:
        try:
            recording = run_scenario(job.config, self.settings.lane_map,
                                     self._session_factory,
                                     self.settings.oracles, seed=self.seed,
                                     dt=self.settings.dt)
        except InvalidScenarioError as exc:
            # a mutant the repairs left invalid is logged, not fatal
            violations = [dataclasses.asdict(v) for v in exc.violations]
            recording = ScenarioRecording(
                job.config.scenario_id, job.config, (),
                Verdict(INVALID_SCENARIO, 0.0, {"violations": violations}),
                self.seed)
            feedback = INVALID_FEEDBACK
        else:
            feedback = compute_feedback(recording, self._mission,
                                        self._lane_width)
        size = None
        if self.output_dir is not None:
            if not self.settings.save_traffic_recording:
                recording = dataclasses.replace(recording, frames=())
            size = write_recording(recording, self.output_dir / RECORDINGS_DIR
                                   ).stat().st_size
        return _Outcome(feedback, job.config.scenario_id, size)

    def _remember(self, key: str, outcome: _Outcome) -> None:
        memo = self._memo
        memo.pop(key, None)
        if len(memo) >= SCENARIO_MEMO_LIMIT:
            del memo[next(iter(memo))]
        memo[key] = outcome

    @staticmethod
    def _record(job: _Job, feedback: Feedback) -> dict:
        return {
            "index": job.index,
            "scenario_id": job.config.scenario_id,
            "values": [float(v) for v in job.vector.values],
            "repairs": list(job.repairs),
            "outcome": feedback.outcome,
            "fitness": feedback.fitness,
            "quality_score": feedback.quality_score,
            "behavior": list(feedback.behavior_vector),
            "time_of_decision": feedback.time_of_decision,
        }


_RECORD_KEYS = frozenset(("index", "scenario_id", "values", "repairs",
                          "outcome", "fitness", "quality_score", "behavior",
                          "time_of_decision"))


def _feedback_from_record(entry: Cursor, index: int) -> Feedback:
    """The feedback logged in the record at ``entry``, which must be the
    record ``_record`` builds for evaluation ``index``."""
    entry.keys(_RECORD_KEYS)
    # --export-svg names files by the scenario id
    if entry["index"].integer() != index or \
            entry["scenario_id"].text() != f"eval_{index:06d}":
        raise entry.fail(f"index and scenario_id are not {index} "
                         f"and 'eval_{index:06d}'")
    entry["values"].numbers()
    for repair in entry["repairs"].items():
        repair.text()
    outcome = entry["outcome"]
    if outcome.text() not in OUTCOMES:
        raise outcome.fail(f"unknown outcome {outcome.doc!r}")
    return Feedback(fitness=entry["fitness"].number(),
                    behavior_vector=entry["behavior"].numbers(3 * BINS),
                    quality_score=entry["quality_score"].number(),
                    outcome=outcome.doc,
                    time_of_decision=entry["time_of_decision"].number())


def _read_checkpoint_file(path: Path) -> tuple[bytes, object]:
    data = path.read_bytes()
    try:
        return data, canonical.loads(data)
    except ValueError as exc:  # includes bad UTF-8
        raise CampaignError(f"{path}: unreadable checkpoint: {exc}") from None


def _atomic_write(path: Path, data: bytes | bytearray) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# dispatch


def algorithm_registry() -> dict:
    """Each algorithm as ``run(ctx, params)``; ``params`` may leave out any
    of :data:`ALGORITHM_DEFAULTS`."""
    runs = {"random": random_search.run, "avfuzzer": avfuzzer.run,
            "behavexplor": behavexplor.run, "samota": samota.run,
            "drivefuzz": drivefuzz.run}
    return {name: functools.partial(_run_filled, run)
            for name, run in runs.items()}


def _run_filled(run, ctx, params: dict) -> None:
    run(ctx, {**ALGORITHM_DEFAULTS, **params})


def build_report(ctx: CampaignContext, algorithm: str) -> dict:
    """Summarise the log on disk, including the entries a resume that
    stopped early left queued for replay."""
    entries = ctx.log_entries()
    violations = [r for r in entries if r["outcome"] == COLLISION]
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
    ctx._check_resume(algorithm)
    ctx.algorithm_name = algorithm
    try:
        registry[algorithm](ctx, params or {})
    except BudgetExhausted:
        pass
    except Exception:
        ctx.checkpoint()  # every completed evaluation reaches the disk
        raise
    # a stop request ends the run too, but leaves budget for a resume
    ctx.finished = ctx._budget_spent()
    ctx.checkpoint()
    report = build_report(ctx, algorithm)
    if ctx.output_dir is not None:
        _atomic_write(ctx.output_dir / REPORT_FILE, canonical.dump_bytes(report))
    return report
