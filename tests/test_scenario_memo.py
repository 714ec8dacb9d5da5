"""The campaign's scenario memo: one simulation per distinct scenario.

A hit logs its own record and writes its own recording, which must be the
bytes a rerun writes (``tests/test_caches_off.py`` compares whole
campaigns with the memo bypassed).  These tests count the simulations.
"""

from __future__ import annotations

import dataclasses

import pytest

from oracles import distinct_scenarios
from scenofuzz import canonical
from scenofuzz.bridge import BridgeServer, ReferenceEgoAgent
from scenofuzz.engine import campaign, operators, samota
from scenofuzz.engine.campaign import (CampaignBudget, CampaignContext,
                                       run_campaign)
from scenofuzz.runner import recording_path

ALGORITHMS = {"random": {}, "avfuzzer": {}, "behavexplor": {},
              "drivefuzz": {}, "samota": {"surrogate_pool": 4}}


@pytest.fixture
def simulated(monkeypatch):
    """The scenario ids ``run_scenario`` is called with, in call order."""
    ids = []
    run_scenario = campaign.run_scenario

    def counted(config, *args, **kwargs):
        ids.append(config.scenario_id)
        return run_scenario(config, *args, **kwargs)

    monkeypatch.setattr(campaign, "run_scenario", counted)
    return ids


def context(settings, evals=100, seed=6, **kwargs):
    return CampaignContext(settings, CampaignBudget(max_evaluations=evals),
                           seed=seed, **kwargs)


def recordings(out):
    """Each recording under ``out``, as whole files."""
    return {path.name: path.read_bytes()
            for path in sorted((out / campaign.RECORDINGS_DIR).iterdir())}


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_each_distinct_scenario_is_simulated_once(junction_settings,
                                                  simulated, algo):
    ctx = context(junction_settings, evals=10)
    run_campaign(algo, ctx, ALGORITHMS[algo])
    assert len(simulated) == len(set(simulated))
    assert len(simulated) == distinct_scenarios(ctx.records, ctx) < 10


def test_samota_incumbent_is_served_from_the_memo(junction_settings,
                                                  simulated):
    pool = 8
    ctx = context(junction_settings, evals=pool + 4 * samota.PROPOSALS)
    run_campaign("samota", ctx, {"surrogate_pool": pool})
    first, repeats = {}, []
    for record in ctx.records:
        values = tuple(record["values"])
        if values not in first:
            first[values] = record
            continue
        repeats.append(record)
        # the re-proposed incumbent: the best vector of the earlier batches
        batch_start = record["index"] - (record["index"] - pool) \
            % samota.PROPOSALS
        assert record["fitness"] == min(
            r["fitness"] for r in ctx.records[:batch_start])
        assert {k: v for k, v in record.items()
                if k not in ("index", "scenario_id")} == \
            {k: v for k, v in first[values].items()
             if k not in ("index", "scenario_id")}
    assert len(repeats) >= 3
    assert not {r["scenario_id"] for r in repeats} & set(simulated)


def test_equal_scenarios_in_a_pooled_batch_are_simulated_once(
        junction_settings, simulated, tmp_path):
    ctx = context(junction_settings)
    a, b = (operators.sample_uniform(ctx.rng, ctx.prototype)
            for _ in range(2))
    batch = [a, b, a, a, b]
    outputs = []
    for workers in (2, 1):
        simulated.clear()
        out = tmp_path / f"workers{workers}"
        ctx = context(junction_settings, workers=workers, output_dir=out)
        ctx.evaluate_batch(batch)
        assert simulated == ["eval_000000", "eval_000001"]
        outputs.append((canonical.dump_bytes(ctx.records), recordings(out)))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == len(batch)


def test_an_external_agent_runs_a_duplicate_again(junction_settings,
                                                  simulated):
    settings = junction_settings
    server = BridgeServer(lambda: ReferenceEgoAgent(
        settings.mission, settings.agent, settings.dt))
    try:
        remote = context(dataclasses.replace(settings,
                                             endpoint=server.endpoint))
        vector = operators.sample_uniform(remote.rng, remote.prototype)
        remote.evaluate_batch([vector, vector])
    finally:
        server.close()
    assert simulated == ["eval_000000", "eval_000001"]
    local = context(settings)
    local.evaluate_batch([vector, vector])
    assert simulated == ["eval_000000", "eval_000001", "eval_000000"]
    assert canonical.dump_bytes(remote.records) == \
        canonical.dump_bytes(local.records)


@pytest.mark.parametrize("change", ["deleted", "grown"])
def test_a_hit_whose_first_recording_changed_is_simulated_again(
        junction_settings, simulated, tmp_path, change):
    out = tmp_path / "run"
    ctx = context(junction_settings, output_dir=out)
    vector = operators.sample_uniform(ctx.rng, ctx.prototype)
    ctx.evaluate_batch([vector])
    first = recording_path(out / campaign.RECORDINGS_DIR, "eval_000000")
    if change == "deleted":
        first.unlink()
    else:
        first.write_bytes(first.read_bytes() + b" ")
    ctx.evaluate_batch([vector])
    assert simulated == ["eval_000000", "eval_000001"]
    # the memo now holds the second run's file
    ctx.evaluate_batch([vector])
    assert simulated == ["eval_000000", "eval_000001"]

    reference = tmp_path / "reference"
    ctx = context(junction_settings, output_dir=reference)
    ctx.evaluate_batch([vector, vector, vector])
    written = recordings(out)
    assert {name: written[name] for name in ("eval_000001.record.json",
                                             "eval_000002.record.json")} == \
        {name: data for name, data in recordings(reference).items()
         if name != "eval_000000.record.json"}


def test_a_resume_starts_with_an_empty_memo(junction_settings, simulated,
                                            tmp_path):
    out = tmp_path / "run"
    ctx = context(junction_settings, evals=2, output_dir=out)
    vector = operators.sample_uniform(ctx.rng, ctx.prototype)
    ctx.evaluate_batch([vector, vector])
    assert simulated == ["eval_000000"]
    resumed = context(junction_settings, evals=4, output_dir=out, resume=True)
    resumed.evaluate_batch([vector, vector])  # replayed
    assert resumed._memo == {}
    resumed.evaluate_batch([vector, vector])
    assert simulated == ["eval_000000", "eval_000002"]
    assert (out / campaign.EVALUATIONS_FILE).read_bytes() == \
        canonical.dump_bytes(resumed.records)


def test_the_memo_is_bounded_and_drops_the_oldest(junction_settings,
                                                  simulated, monkeypatch):
    monkeypatch.setattr(campaign, "SCENARIO_MEMO_LIMIT", 2)
    ctx = context(junction_settings)
    a, b, c = (operators.sample_uniform(ctx.rng, ctx.prototype)
               for _ in range(3))
    order = [a, b, c, b, a, c]
    for vector in order:
        ctx.evaluate_batch([vector])
    assert len(ctx._memo) == 2
    # c drops a; b is a hit; a is simulated again and drops b; c is a hit
    assert simulated == ["eval_000000", "eval_000001", "eval_000002",
                         "eval_000004"]
    monkeypatch.setattr(campaign, "SCENARIO_MEMO_LIMIT", 1024)
    unbounded = context(junction_settings)
    for vector in order:
        unbounded.evaluate_batch([vector])
    assert canonical.dump_bytes(ctx.records) == \
        canonical.dump_bytes(unbounded.records)
