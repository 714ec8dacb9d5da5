"""Campaign benchmark for scenofuzz.

Run from the repository root:

    python3 bench/run.py --workload ga-inmemory --seed 0 --seconds 30 --trace 0

It builds nothing: it imports the package from ``src/`` of the checkout it
sits in, runs fixed-seed campaigns of the shipped configs against the
in-process reference agent, checks every campaign log against its pinned
sha256, and prints one line per figure followed by a JSON result as the
last line of standard output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each campaign once untraced and once with spans recorded
around the package's public functions, and reports the per-layer metrics
plus the tracing overhead; the spans go to
``.bench_out/<workload>/spans-seed<n>.npz``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    """Import scenofuzz from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "scenofuzz" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src}/scenofuzz")
    sys.path.insert(0, str(src))
    import scenofuzz
    if Path(scenofuzz.__file__).resolve().parent != src / "scenofuzz":
        raise SystemExit(f"bench: imported scenofuzz from {scenofuzz.__file__}, "
                         f"not from {src}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()), "git_commit": _git_commit()}


def _declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    _import_package()
    # config warnings (such as the ignored container_name) repeat per set-up
    logging.getLogger("scenofuzz").setLevel(logging.ERROR)
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    end_to_end_units, per_layer_units = _declared_metrics()
    out_dir = ROOT / ".bench_out" / workload.name
    pins = workloads.load_pins()
    # A traced run measures each campaign twice, so it takes the first
    # third of the untraced run's campaigns.
    seeds = workload.campaign_seeds(
        args.seed, args.seconds / 3 if args.trace else args.seconds)
    setups_per_campaign = math.ceil(workloads.SETUP_SAMPLES / len(seeds))

    started = time.perf_counter()
    speed_log = speed.SpeedLog()
    for _ in range(speed.WINDOW):
        speed_log.probe()
    env["probe_ms_start"] = 1e3 * statistics.median(speed_log.durations)
    setup = workloads.set_up(workload, out_dir)
    runner = workloads.Runner(workload, setup, out_dir, pins,
                              speed_log=speed_log,
                              setups_per_campaign=setups_per_campaign)
    runner.warm_up()
    if not args.trace:
        campaigns = runs = [runner.run(seed) for seed in seeds]
        figures = workloads.end_to_end(campaigns, setup, speed_log)
        extras = workloads.extras(campaigns, speed_log)
        reported, units = figures, end_to_end_units
    else:
        # Untraced and traced runs of each campaign alternate, so both see
        # the machine in the same state and their gap is the overhead.
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_setup = workloads.set_up(workload, out_dir)
        finally:
            tracer.uninstall()
        traced_runner = workloads.Runner(
            workload, traced_setup, out_dir, pins, tracer, speed_log=speed_log,
            setups_per_campaign=setups_per_campaign)
        campaigns, traced = [], []
        for seed in seeds:
            campaigns.append(runner.run(seed))
            tracer.install()
            try:
                traced.append(traced_runner.run(seed))
            finally:
                tracer.uninstall()
        runs = campaigns + traced
        figures = workloads.end_to_end(campaigns, setup, speed_log)
        extras = workloads.extras(campaigns, speed_log)
        traced_rate = workloads.end_to_end(traced, traced_setup,
                                           speed_log)["evals_per_s"]
        layers = workloads.layer_metrics(tracer, traced, traced_setup,
                                         workload.workers)
        layers["trace.overhead_share"] = \
            1.0 - traced_rate / figures["evals_per_s"] \
            if figures["evals_per_s"] else 0.0
        layers["campaign.resume_evals_per_s"] = extras["resume_evals_per_s"]
        layers["campaign.disk_kb_per_eval"] = extras["disk_kb_per_eval"]
        spans_file = out_dir / f"spans-seed{args.seed}.npz"
        extras["spans_written"] = tracer.write(spans_file)
        extras["spans_file"] = str(spans_file.relative_to(ROOT))
        extras["untraced_evals_per_s"] = figures["evals_per_s"]
        extras["traced_evals_per_s"] = traced_rate
        if tracer.missing:
            extras["untraced_names"] = sorted(tracer.missing)
        reported, units = layers, per_layer_units

    for name, value in workloads.end_to_end(campaigns, setup).items():
        extras[f"raw.{name}"] = value
    extras["host_speed"] = speed_log.host_speed()
    extras["probes"] = len(speed_log.durations)
    extras["unpinned_campaigns"] = runner.unpinned
    unknown = sorted(set(units) - set(reported))
    if unknown:
        raise SystemExit(f"bench: no value for declared metrics {unknown}")

    errors = [(c.seed, e) for c in runs for e in c.errors]
    attempted = workload.budget * len(runs)
    failed = workload.budget * sum(1 for c in runs if c.errors)
    extras["failed_share"] = failed / attempted
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "campaign_seeds": seeds,
        "digests": {str(c.seed): c.digest for c in campaigns},
        "batch_ms": {str(c.seed): [round(1e3 * t, 3)
                                   for t in c.batch_seconds(speed_log)]
                     for c in campaigns},
        "errors": [f"campaign {s}: {e}" for s, e in errors],
        "probes": {"start": speed_log.times, "seconds": speed_log.durations},
        "end_to_end": figures, "extras": extras,
        "per_layer": reported if args.trace else {},
        "run_seconds": time.perf_counter() - started,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))

    for key, value in env.items():
        print(f"env {key} {value}")
    for seed, error in errors:
        print(f"FAILED campaign {seed}: {error}", file=sys.stderr)
    for key, value in sorted(extras.items()):
        print(f"extra {key} {value}")
    for name, unit in units.items():
        print(f"metric {name} {reported[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
