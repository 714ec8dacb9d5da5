"""Spans recorded from outside the scenofuzz package.

The tracer swaps public functions and methods of the package for wrappers
that record one span per call: name, start, end, the span that caused it and
the evaluation index the call belongs to (the id shared by every span of one
evaluation).  Nothing under ``src/`` changes, and :meth:`Tracer.uninstall`
puts every original back.

A function is swapped in every ``scenofuzz`` module that holds a reference
to it, so the wrapper sees the call wherever the package makes it.  A name
the package no longer has is reported in ``missing`` and its metrics read
zero; the benchmark keeps running.

Spans are kept in memory, one log per thread so that worker threads never
contend, and are written out by :meth:`Tracer.write`.  Every span is added
to per-name totals as it closes; only the first ``SPAN_LIMIT`` spans are also
stored one by one, which bounds memory on long traced runs.  A span's self
time is its duration minus the time covered by child spans of the same
thread.
"""

from __future__ import annotations

import importlib
import itertools
import re
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Phases tag every span and count, so one traced pass can hold a set-up, a
# fresh campaign, its resume and the benchmark's own checks apart.
SETUP, FRESH, RESUME, CHECK = range(4)
PHASES = ("setup", "fresh", "resume", "check")
SPAN_LIMIT = 300_000

# (module, attribute, span name).  "Class.method" patches the class.
SPANS = (
    ("scenofuzz.bridge", "encode", "bridge.encode"),
    ("scenofuzz.bridge", "decode", "bridge.decode"),
    ("scenofuzz.bridge", "InProcessSession.request", "bridge.request"),
    ("scenofuzz.bridge", "ReferenceEgoAgent.step", "bridge.agent_step"),
    ("scenofuzz.simulator", "step_world", "simulator.step_world"),
    ("scenofuzz.simulator", "WaypointPolicy.step", "simulator.npc_policy"),
    ("scenofuzz.geometry", "Polyline.project", "geometry.project"),
    ("scenofuzz.runner", "run_scenario", "runner.run_scenario"),
    ("scenofuzz.runner", "write_recording", "runner.write_recording"),
    ("scenofuzz.scenario", "validate", "scenario.validate"),
    ("scenofuzz.scenario", "unflatten", "scenario.unflatten"),
    ("scenofuzz.canonical", "dumps", "canonical.dumps"),
    ("scenofuzz.engine.feedback", "compute_feedback", "feedback.compute"),
    ("scenofuzz.engine.campaign", "CampaignContext.evaluate_batch",
     "campaign.evaluate_batch"),
    ("scenofuzz.engine.campaign", "CampaignContext.checkpoint",
     "campaign.checkpoint"),
    ("scenofuzz.engine.samota", "IdwSurrogate.predict",
     "engine.surrogate_predict"),
    ("scenofuzz.lanemap", "load_bundled_map", "lanemap.load"),
    ("scenofuzz.engine.template", "build_template", "template.build"),
)

# Calls too cheap and too frequent to store as spans: counted, keyed by the
# innermost open span, so oracle checks (inside run_scenario) and feedback
# extraction keep apart.  Their time stays in the caller's self time.
COUNTED = (
    ("scenofuzz.simulator", "obb_distance", "simulator.obb_distance"),
    ("scenofuzz.simulator", "actor_distance", "simulator.actor_distance"),
    ("scenofuzz.simulator", "actor_distance_lower_bound",
     "simulator.lower_bound"),
)

# canonical.dumps calls are charged to the nearest of these enclosing spans.
DUMPS_OWNERS = {"bridge.encode": "bridge", "runner.write_recording": "recording",
                "campaign.checkpoint": "checkpoint"}

_EVAL_ID = re.compile(r"eval_(\d+)$")
_WALL_CLOCK = re.compile(rb'"wall_clock":[-+0-9.eE]+')


class _ThreadLog:
    """Spans and counts of one thread; only that thread appends to it."""

    def __init__(self, index: int, is_main: bool):
        self.index = index
        self.is_main = is_main
        self.stack: list[list] = []  # open spans: [id, child seconds, name]
        self.evaluation = -1
        self.pending = 0  # stored spans from here on wait for an evaluation
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("h")
        self.evals = array("q")
        self.phases = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        # (phase, name code) -> [calls, total seconds, self seconds]
        self.totals: dict[tuple[int, int], list] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[int, str], float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self.phase = SETUP
        self.names: list[str] = []
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._batch_id = -1  # open evaluate_batch span, parent of pool work

    # -- recording ------------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs),
                                 threading.current_thread()
                                 is threading.main_thread())
                self._logs.append(log)
            self._local.log = log
        return log

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, original, name: str, before=None, after=None, skip=None):
        code = self._code(name)
        ids = self._ids
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return original(*args, **kwargs)
            log = tracer._log()
            stack = log.stack
            frame = [next(ids), 0.0, code]
            if before is not None:
                before(log, frame, args)
            stack.append(frame)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                elif log.is_main:
                    parent = -1
                else:
                    parent = tracer._batch_id
                    log.counts[tracer.phase, "worker_busy_s"] += duration
                totals = log.totals[tracer.phase, code]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if frame[0] < SPAN_LIMIT:
                    log.ids.append(frame[0])
                    log.parents.append(parent)
                    log.names.append(code)
                    log.evals.append(log.evaluation)
                    log.phases.append(tracer.phase)
                    log.starts.append(start)
                    log.ends.append(end)
                    log.selfs.append(duration - frame[1])
            if after is not None:
                after(log, args, result, duration)
            return result

        return wrapper

    def _counter(self, original, name: str):
        tracer = self
        names = self.names

        def wrapper(*args, **kwargs):
            log = tracer._log()
            caller = names[log.stack[-1][2]] if log.stack else ""
            log.counts[tracer.phase, f"{name}@{caller}"] += 1
            return original(*args, **kwargs)

        return wrapper

    # -- hooks -----------------------------------------------------------------

    def _before_unflatten(self, log, frame, args) -> None:
        log.evaluation = -1
        log.pending = len(log.ids)

    def _before_run_scenario(self, log, frame, args) -> None:
        match = _EVAL_ID.search(str(getattr(args[0], "scenario_id", "")))
        log.evaluation = int(match.group(1)) if match else -1
        for i in range(log.pending, len(log.evals)):
            if log.evals[i] == -1:
                log.evals[i] = log.evaluation
        log.pending = len(log.ids)

    def _before_batch(self, log, frame, args) -> None:
        self._batch_id = frame[0]

    def _after_encode(self, log, args, result, duration) -> None:
        log.counts[self.phase, "bridge_frames"] += 1
        log.counts[self.phase, "wire_bytes"] += len(result)

    def _after_dumps(self, log, args, result, duration) -> None:
        for frame in reversed(log.stack):
            owner = DUMPS_OWNERS.get(self.names[frame[2]])
            if owner is not None:
                log.counts[self.phase, f"dumps_s.{owner}"] += duration
                log.counts[self.phase, f"dumps_bytes.{owner}"] += \
                    len(result.encode("utf-8"))
                return

    def _after_write_recording(self, log, args, result, duration) -> None:
        # The recording stores its own wall-clock time; with that field read
        # as 0.0 the byte count repeats exactly between runs.
        data = Path(result).read_bytes()
        match = _WALL_CLOCK.match(data, max(data.rfind(b'"wall_clock":'), 0))
        size = len(data) if match is None else \
            len(data) - len(match.group(0)) + len(b'"wall_clock":0.0')
        log.counts[self.phase, "recording_bytes"] += size

    def _after_checkpoint(self, log, args, result, duration) -> None:
        # Only the log file is counted: the small state file next to it
        # holds the wall clock, so its size is not repeatable.
        log_file = Path(args[0].output_dir) / "evaluations.json"
        if log_file.exists():
            log.counts[self.phase, "checkpoint_bytes"] += log_file.stat().st_size

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Swap every traced function of the loaded package for its wrapper."""
        hooks = {
            "scenario.unflatten": (self._before_unflatten, None, None),
            "runner.run_scenario": (self._before_run_scenario, None, None),
            "campaign.evaluate_batch": (self._before_batch, None, None),
            "bridge.encode": (None, self._after_encode, None),
            "canonical.dumps": (None, self._after_dumps, None),
            "runner.write_recording": (None, self._after_write_recording, None),
            # without an output directory a checkpoint does no work
            "campaign.checkpoint": (None, self._after_checkpoint,
                                    lambda args: args[0].output_dir is None),
        }
        for module_name, attribute, name in SPANS:
            before, after, skip = hooks.get(name, (None, None, None))
            self._patch(module_name, attribute, name,
                        lambda orig, n=name, b=before, a=after, s=skip:
                        self._span(orig, n, b, a, s))
        for module_name, attribute, name in COUNTED:
            self._code(name)
            self._patch(module_name, attribute, name,
                        lambda orig, n=name: self._counter(orig, n))

    def _patch(self, module_name: str, attribute: str, name: str, make) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.add(name)
            return
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.missing.add(name)
            return
        wrapper = make(original)
        if path:  # a method: patch the class that defines it
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("scenofuzz"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def _column(self, field: str, dtype) -> np.ndarray:
        parts = [np.frombuffer(getattr(log, field), dtype=dtype)
                 for log in self._logs if len(log.ids)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

    def spans(self) -> dict[str, np.ndarray]:
        threads = np.concatenate([np.full(len(log.ids), log.index)
                                  for log in self._logs] or [np.zeros(0)])
        return {"id": self._column("ids", np.int64),
                "parent": self._column("parents", np.int64),
                "name": self._column("names", np.int16),
                "evaluation": self._column("evals", np.int64),
                "phase": self._column("phases", np.int8),
                "thread": threads.astype(np.int32),
                "start": self._column("starts", np.float64),
                "end": self._column("ends", np.float64),
                "self": self._column("selfs", np.float64)}

    def summary(self) -> dict:
        """``{(phase, name): (calls, total seconds, self seconds)}``."""
        merged: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for log in self._logs:
            for (phase, code), (calls, total, own) in log.totals.items():
                acc = merged[phase, self.names[code]]
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return {key: tuple(value) for key, value in merged.items()}

    def counts(self) -> dict[tuple[int, str], float]:
        merged: dict[tuple[int, str], float] = defaultdict(float)
        for log in self._logs:
            for key, value in log.counts.items():
                merged[key] += value
        return merged

    def write(self, path: Path) -> int:
        """Write the stored spans to ``path`` (numpy ``.npz``); returns how
        many."""
        spans = self.spans()
        closed = sum(calls for calls, _, _ in self.summary().values())
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            phases=np.array(PHASES), closed=np.int64(closed),
                            **spans)
        return len(spans["id"])
