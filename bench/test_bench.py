"""The benchmark's own checks: its work counts repeat exactly, layers that
do no work on a workload read zero there, and a wrong log digest fails the
run.  Budgets are cut down so this stays quick; the workloads are otherwise
the ones the benchmark runs."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# samota needs more than its 20-scenario bootstrap to reach the surrogate.
SMALL_BUDGETS = {"ga-inmemory": 8, "novelty-persisted": 6,
                 "surrogate-pool2": 24}


def traced_run(workload, out_dir, pins, seed=3):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup = workloads.set_up(workload, out_dir)
        runner = workloads.Runner(workload, setup, out_dir, pins, tracer)
        campaign = runner.run(seed)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    metrics = workloads.layer_metrics(tracer, [campaign], setup,
                                      workload.workers)
    return campaign, metrics


@pytest.fixture(scope="module", params=sorted(SMALL_BUDGETS))
def two_runs(request, tmp_path_factory):
    name = request.param
    workload = dataclasses.replace(workloads.WORKLOADS[name],
                                   budget=SMALL_BUDGETS[name])
    out_dir = tmp_path_factory.mktemp(name)
    # The first run has no pin, so it is checked against a workers=1
    # reference run; the second is checked against the first's log.
    first, first_metrics = traced_run(workload, out_dir, {})
    pins = {name: {str(first.seed): first.digest}}
    second, second_metrics = traced_run(workload, out_dir, pins)
    return workload, (first, first_metrics), (second, second_metrics)


def test_counts_repeat_exactly(two_runs):
    _, (first, first_metrics), (second, second_metrics) = two_runs
    assert first.errors == [] and second.errors == []
    counts = {k: v for k, v in first_metrics.items() if k.startswith("count.")}
    assert counts == {k: second_metrics[k] for k in counts}
    assert counts["count.steps"] > 0
    assert counts["count.bridge_frames"] == 2 * counts["count.steps"]


def test_idle_layers_read_zero(two_runs):
    workload, (_, metrics), _ = two_runs
    persisted = ("runner.write_recording_ms_per_eval",
                 "runner.recording_kb_per_eval",
                 "campaign.checkpoint_ms_per_eval",
                 "campaign.checkpoint_kb_per_eval")
    for name in persisted:
        assert (metrics[name] > 0) == workload.persisted, name
    assert (metrics["campaign.pool_efficiency"] > 0) == (workload.workers > 1)
    assert (metrics["campaign.replay_ms_per_eval"] > 0) == workload.resume
    assert (metrics["engine.surrogate_predictions_per_eval"] > 0) == \
        (workload.config == "samota")


def test_wrong_digest_fails_the_run(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["ga-inmemory"],
                                   budget=4)
    setup = workloads.set_up(workload, tmp_path)
    runner = workloads.Runner(workload, setup, tmp_path,
                              {workload.name: {"5": "0" * 64}})
    campaign = runner.run(5)
    assert any("sha256" in error for error in campaign.errors)
    assert workloads.end_to_end([campaign], setup)["evals_per_s"] == 0.0
