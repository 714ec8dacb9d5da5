"""Mutation checks: each guard in ``MUTANTS`` has a test that fails without it.

A row names a guard, the file it lives in, the guard's exact text (which
must occur once in that file), the text that breaks it, and the pytest
selection that must catch it.  For each row in turn, the script copies
``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` into a temporary
directory and runs the selection there with ``-x`` twice: unedited, where it
must pass, and with the edit applied, where a test must fail.  One pytest
process runs at a time.

pytest does not collect this file.  Run it from any directory::

    python tests/mutants.py             # every row
    python tests/mutants.py NAME ...    # the named rows

It prints one line per row and exits with 1 if any row misbehaves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml")
# pytest's exit statuses: all passed, and some test failed; any other
# (a collection error, no test selected) means the row itself is broken
PASSED, FAILED = 0, 1


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    selection: tuple[str, ...]  # pytest arguments


MUTANTS = (
    # the speed-tracking reply kept on an ego state is served only for the
    # controller state it was computed from
    Mutant("reply-controller-values", "src/scenofuzz/bridge.py",
           "                    and kept[4] == integral and kept[5] == prev_error):\n",
           "                    ):\n",
           ("tests/test_bridge.py", "-k", "reply_memo")),
    # the one-call actor format writes "%.17g", which drops the ".0" of an
    # integral float and writes "inf" for an infinite one
    Mutant("actor-format-integral", "src/scenofuzz/bridge.py",
           "            and not (x.is_integer() or y.is_integer() or heading.is_integer()\n"
           "                     or speed.is_integer() or acceleration.is_integer())):\n",
           "            ):\n",
           ("tests/test_bridge.py", "-k", "actor_text")),
    Mutant("actor-format-finite", "src/scenofuzz/bridge.py",
           "            and _isfinite(x + y + heading + speed + acceleration)\n",
           "",
           ("tests/test_bridge.py", "-k", "actor_text")),
    # only an exact actor keeps its text, and only an exact message with an
    # exact command and a float time keeps its frame: any other is written
    # afresh, so a later change to it shows
    Mutant("actor-text-exact-store", "src/scenofuzz/bridge.py",
           "    if exact:  # stored once written, so a write that raises stores nothing\n",
           "    if True:  # stored once written, so a write that raises stores nothing\n",
           ("tests/test_bridge.py", "-k", "written_afresh")),
    Mutant("control-frame-exact-command", "src/scenofuzz/bridge.py",
           "        if exact and type(cmd) is ControlCommand and type(sim_time) is float:\n",
           "        if exact:\n",
           ("tests/test_bridge.py", "-k", "encoded_afresh")),
    # past the coordinate bound, box edges round away and lengths overflow
    Mutant("no-coordinate-bound", "src/scenofuzz/geometry.py",
           "MAX_COORDINATE = 1.0e7  # m\n",
           'MAX_COORDINATE = float("inf")  # m\n',
           ("tests/test_fuzz_boundaries.py", "-k", "maps or perception")),
    # a logged behaviour vector of another length breaks behavexplor's
    # novelty on resume
    Mutant("resume-behavior-count", "src/scenofuzz/engine/campaign.py",
           'behavior_vector=entry["behavior"].numbers(3 * BINS),',
           'behavior_vector=entry["behavior"].numbers(),',
           ("tests/test_engine.py", "-k",
            "test_resume_reports_a_bad_checkpoint_file")),
    # random search samples worker_pool vectors before the budget check
    Mutant("worker-pool-cap", "src/scenofuzz/config.py",
           '    ("scenario_runner.parameters.worker_pool", "<=", MAX_POPULATION),\n',
           "",
           ("tests/test_config.py", "-k", "bounded")),
    # a state's _next link answers only the command and dt objects it was
    # stored for
    Mutant("next-step-identity", "src/scenofuzz/simulator.py",
           "        if last is not None and last[0] is cmd and last[1] is dt:\n",
           "        if last is not None:\n",
           ("tests/test_simulator.py", "-k", "next_step")),
    # equal scenarios under other ids share one memo entry
    Mutant("scenario-memo-id-blanked", "src/scenofuzz/engine/campaign.py",
           'return canonical.sha256({**document, "scenario_id": ""})',
           "return canonical.sha256(document)",
           ("tests/test_scenario_memo.py",)),
    # a template's zero offsets keep the sign the projection gave them
    Mutant("flatten-offset-sign", "src/scenofuzz/scenario.py",
           "values.append(0.0 * nx + 0.0 * ny)",
           "values.append(0.0)",
           ("tests/test_scenario.py", "-k", "general_projection")),
    # a scenario-memo hit copies the first run's recording only while it is
    # the size the memo saw and holds the first run's id twice
    Mutant("copy-size-check", "src/scenofuzz/runner.py",
           "    if len(data) != size or data.count(old) != 2:\n",
           "    if data.count(old) != 2:\n",
           ("tests/test_runner.py", "-k", "copy_of_a_changed_source")),
    Mutant("copy-id-count", "src/scenofuzz/runner.py",
           "    if len(data) != size or data.count(old) != 2:\n",
           "    if len(data) != size:\n",
           ("tests/test_runner.py", "-k", "copy_of_a_changed_source")),
    # a recording of another schema version is refused by its version
    Mutant("recording-schema-version", "src/scenofuzz/runner.py",
           "        if version.integer() != RECORDING_SCHEMA_VERSION:\n"
           '            raise version.fail(f"unsupported schema_version {version.doc!r}")\n',
           "",
           ("tests/test_runner.py", "-k", "read_rejects_malformed_documents")),
    # a float subclass's own __format__ is not canonical text
    Mutant("float-subclass-format", "src/scenofuzz/canonical.py",
           'text = float.__format__(value, ".17g")',
           'text = format(value, ".17g")',
           ("tests/test_canonical.py",)),
    # a document nested past the recursion limit is a ValueError each
    # reader names, not a RecursionError that escapes them
    Mutant("loads-too-deep", "src/scenofuzz/canonical.py",
           "    try:\n"
           "        return json.loads(text)\n"
           "    except RecursionError:\n"
           '        raise ValueError("document nested too deeply") from None\n',
           "    return json.loads(text)\n",
           ("tests/test_engine.py", "-k", "too-deep")),
    # numpy's samplers refuse a range whose upper bound is -0.0
    Mutant("config-signed-zero", "src/scenofuzz/config.py",
           "value = leaf.number() + 0.0",
           "value = leaf.number()",
           ("tests/test_config.py", "-k", "negative_zero")),
    # an offset gene spans 2 * offset_limit, which numpy cannot sample past
    # the largest float
    Mutant("offset-limit-bound", "src/scenofuzz/config.py",
           '    ("scenario.mutation_space.offset_limit", "<=", '
           "sys.float_info.max / 2),\n",
           "",
           ("tests/test_config.py", "-k", "out_of_range_values_rejected")),
    # a far spawn box has its own violation and no overlap to measure
    Mutant("spawn-box-filter", "src/scenofuzz/scenario.py",
           "_body_ok(box[2]) and _pose_ok(box[1])",
           "_body_ok(box[2])",
           ("tests/test_scenario.py", "-k", "two_pass_reference")),
    # samota measures a space whose squared diagonal overflows in a smaller
    # unit
    Mutant("samota-unit", "src/scenofuzz/engine/samota.py",
           "unit = 1.0 if widest <= 2.0 ** 256 else",
           "unit = 1.0 if True else",
           ("tests/test_engine.py", "-k", "widest_accepted_space")),
    # a site so near that its inverse-distance weight overflows
    Mutant("idw-near-site", "src/scenofuzz/engine/samota.py",
           "        if not np.isfinite(estimate):",
           "        if False:",
           ("tests/test_engine.py", "-k", "too_near_to_weigh")),
    # batches of one checkpoint once the records off the disk reach an
    # eighth of those on it, or 32 of them, when the budget is spent, and
    # when a stop is requested; run_campaign checkpoints on an exception
    Mutant("checkpoint-share", "src/scenofuzz/engine/campaign.py",
           "        if (unwritten * CHECKPOINT_SHARE >= self._logged\n",
           "        if (False\n",
           ("tests/test_engine.py", "-k", "evaluation_schedule")),
    Mutant("checkpoint-gap", "src/scenofuzz/engine/campaign.py",
           "                or unwritten >= CHECKPOINT_GAP\n",
           "",
           ("tests/test_engine.py", "-k", "evaluation_schedule")),
    Mutant("checkpoint-budget-spent", "src/scenofuzz/engine/campaign.py",
           "                or self._budget_spent()\n",
           "",
           ("tests/test_engine.py", "-k", "evaluation_schedule")),
    Mutant("checkpoint-stop-requested", "src/scenofuzz/engine/campaign.py",
           "                or self.stop_requested):\n",
           "                ):\n",
           ("tests/test_engine.py", "-k", "stop_request_writes")),
    Mutant("checkpoint-on-exception", "src/scenofuzz/engine/campaign.py",
           "        ctx.checkpoint()  # every completed evaluation reaches the disk\n",
           "",
           ("tests/test_engine.py", "-k", "error_between_writes")),
    # a Gaussian step past the largest float
    Mutant("mutation-step-overflow", "src/scenofuzz/engine/operators.py",
           '    with np.errstate(over="ignore"):\n',
           "    if True:\n",
           ("tests/test_engine.py", "-k", "past_the_largest_float")),
)


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=skip)
        else:
            shutil.copy2(source, into / name)


def _pytest(where: Path, selection: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(where / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *selection],
        cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def check(mutant: Mutant) -> str | None:
    """None if the selection passes unedited and fails edited, else why."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        target = where / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"the old text occurs {text.count(mutant.old)} times"
        status = _pytest(where, mutant.selection)
        if status != PASSED:
            return f"unedited, pytest exits with {status}"
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        status = _pytest(where, mutant.selection)
        if status != FAILED:
            return f"edited, pytest exits with {status}, not {FAILED}"
    return None


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown rows: {unknown}; known: {sorted(known)}")
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        started = time.perf_counter()
        fault = check(mutant)
        seconds = time.perf_counter() - started
        print(f"{'ok' if fault is None else 'FAIL':4} {mutant.name} "
              f"({' '.join(mutant.selection)}; {seconds:.1f} s)"
              + ("" if fault is None else f": {fault}"), flush=True)
        bad += fault is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
