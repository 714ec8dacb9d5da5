"""Campaigns write the same bytes with every same-bytes cache bypassed.

Each cache has its own reference test; this is the oracle for all of them
at once.  Every run here is repeated inside ``caches_off`` (see
``conftest.py``), where each cache's lookup misses, and both runs must
write the same ``evaluations.json`` and the same recordings, compared
as whole files.  A later cache registers its bypass in ``caches_off``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from oracles import distinct_scenarios
from scenofuzz import canonical, runner
from scenofuzz.engine import campaign
from scenofuzz.engine.campaign import (CampaignBudget, CampaignContext,
                                       run_campaign)
from scenofuzz.engine.feedback import NO_OBSTACLE_FITNESS
from scenofuzz.engine.template import MissionSpec, build_template

# (evaluations, parameters): a few batches of each search, samota past its
# bootstrap.  At SEED every search repeats a scenario, so the scenario memo
# serves some evaluations.
ALGORITHMS = {
    "random": (8, {}),
    "avfuzzer": (10, {}),
    "behavexplor": (10, {}),
    "drivefuzz": (8, {}),
    "samota": (10, {"surrogate_pool": 4}),
}
SEED = 6


def run(settings, algo, out=None, seed=SEED, workers=1, evals=None,
        resume=False, repeats=True):
    """What the campaign wrote: its log and each recording.  With
    ``repeats``, the log must hold a scenario twice."""
    default_evals, params = ALGORITHMS[algo]
    ctx = CampaignContext(
        settings, CampaignBudget(max_evaluations=evals or default_evals),
        seed=seed, workers=workers, output_dir=out, resume=resume)
    run_campaign(algo, ctx, params)
    if repeats:
        assert distinct_scenarios(ctx.records, ctx) < ctx.completed
    if out is None:
        return canonical.dump_bytes(ctx.records), {}
    recordings = {path.name: path.read_bytes() for path in
                  sorted((out / campaign.RECORDINGS_DIR).iterdir())}
    return (out / campaign.EVALUATIONS_FILE).read_bytes(), recordings


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_each_search_equals_its_caches_off_run(junction_settings, caches_off,
                                               algo, workers):
    cached = run(junction_settings, algo, workers=workers)
    with caches_off():
        assert run(junction_settings, algo, workers=workers) == cached


@pytest.mark.parametrize("frames, dt", [(True, 0.1), (False, 0.1),
                                        (True, 0.05)],
                         ids=["frames", "summary", "frames-dt0.05"])
def test_recordings_equal_their_caches_off_run(junction_settings, caches_off,
                                               tmp_path, frames, dt):
    settings = dataclasses.replace(junction_settings,
                                   save_traffic_recording=frames, dt=dt)
    cached = run(settings, "behavexplor", tmp_path / "cached")
    assert len(cached[1]) == ALGORITHMS["behavexplor"][0]
    with caches_off():
        assert run(settings, "behavexplor", tmp_path / "off") == cached


class Killed(BaseException):
    """A kill at one file write: no ``except Exception`` can swallow it."""


def killed_and_resumed(settings, algo, out, **kwargs):
    """What ``run`` wrote after a kill at the 12th file write, a few batches
    in with half of one file written, and a resume."""
    write_bytes = Path.write_bytes
    writes = []

    def killing(path, data):
        writes.append(path)
        if len(writes) == 12:
            write_bytes(path, data[:len(data) // 2])
            raise Killed
        return write_bytes(path, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Path, "write_bytes", killing)
        with pytest.raises(Killed):
            run(settings, algo, out, **kwargs)
    assert canonical.loads((out / campaign.EVALUATIONS_FILE).read_bytes())
    return run(settings, algo, out, resume=True, **kwargs)


def test_a_killed_and_resumed_run_equals_the_caches_off_run(
        junction_settings, caches_off, tmp_path):
    resumed = killed_and_resumed(junction_settings, "behavexplor",
                                 tmp_path / "killed")
    with caches_off():
        off = run(junction_settings, "behavexplor", tmp_path / "off")
    assert off == resumed


@pytest.mark.parametrize("algo", ["random", "avfuzzer"])
def test_an_invalid_mutant_is_logged_and_the_campaign_goes_on(
        diamond_map, caches_off, tmp_path, algo):
    # mutated offsets put npc_1 over the ego at spawn: at seed 0, random's
    # evaluation 16, simulated after the resume, and avfuzzer's evaluation
    # 6, replayed by it
    spec = MissionSpec("diamond", "lane_b1", 5.0, "lane_c", 25.0)
    settings = campaign.ExecutionSettings(
        lane_map=diamond_map, template=build_template(diamond_map, spec))
    kwargs = dict(seed=0, evals=20, repeats=False)
    written = run(settings, algo, tmp_path / "one", **kwargs)
    entries = canonical.loads(written[0])
    assert len(entries) == 20
    invalid = [e for e in entries if e["outcome"] == runner.INVALID_SCENARIO]
    assert invalid
    for entry in invalid:
        assert (entry["fitness"], entry["quality_score"],
                entry["time_of_decision"]) == (NO_OBSTACLE_FITNESS, 0.0, 0.0)
        assert entry["behavior"] == [0.0] * 24
        recording = runner.read_recording(runner.recording_path(
            tmp_path / "one" / campaign.RECORDINGS_DIR, entry["scenario_id"]))
        assert recording.frames == ()
        assert recording.verdict == runner.Verdict(
            runner.INVALID_SCENARIO, 0.0, {"violations": [
                {"code": "InitialOverlap", "subject": "ego/npc_1",
                 "message": "actors overlap at spawn"}]})
    report = canonical.loads(
        (tmp_path / "one" / campaign.REPORT_FILE).read_bytes())
    assert report["violations"] == sum(
        e["outcome"] == runner.COLLISION for e in entries)
    assert run(settings, algo, tmp_path / "two", workers=2,
               **kwargs) == written
    assert killed_and_resumed(settings, algo, tmp_path / "killed",
                              **kwargs) == written
    with caches_off():
        assert run(settings, algo, tmp_path / "off", **kwargs) == written


def test_a_warm_run_equals_the_caches_off_run(junction_settings, caches_off,
                                              junction_map, tmp_path):
    # fill every cache from another campaign on another settings object,
    # whose route turns off this one's after the same start
    turn = MissionSpec("borregas_ave_lite", "lane_31", 40.0, "lane_16", 50.0,
                       duration_limit=30.0)
    other = dataclasses.replace(junction_settings,
                                template=build_template(junction_map, turn))
    run(other, "avfuzzer", tmp_path / "other", seed=3, repeats=False)
    warm = run(junction_settings, "behavexplor", tmp_path / "warm")
    again = run(dataclasses.replace(junction_settings), "behavexplor",
                tmp_path / "again")
    with caches_off():
        off = run(junction_settings, "behavexplor", tmp_path / "off")
    assert warm == again == off


def test_a_stale_scenario_memo_fails_the_oracle(junction_settings, caches_off,
                                                monkeypatch):
    """The oracle's own check: a memo that serves every scenario the first
    scenario's outcome writes another log."""
    monkeypatch.setattr(CampaignContext, "_key", lambda ctx, document: "")
    stale = run(junction_settings, "random")
    with caches_off():
        assert run(junction_settings, "random") != stale
