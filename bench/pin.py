"""Pin the log sha256 of every campaign the benchmark runs.

    python3 bench/pin.py --seeds 20 [--workload NAME ...]

For run seeds 0..N-1 this runs each campaign of a ``run_seconds`` run (from
BENCHMARK.json) once with ``workers=1`` and merges the digests into
``bench/pins.json``.  A run whose seed has no pin compares against a
reference campaign instead, which costs the time of a second campaign.
"""

from __future__ import annotations

import argparse
import json
import logging

import run

run._import_package()
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    logging.getLogger("scenofuzz").setLevel(logging.ERROR)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        out_dir = run.ROOT / ".bench_out" / "pin"
        runner = workloads.Runner(workload, workloads.set_up(workload, out_dir),
                                  out_dir, {})
        for seed in range(args.seeds):
            pins = workloads.load_pins()
            table = pins.setdefault(name, {})
            for campaign_seed in workload.campaign_seeds(seed, seconds):
                if str(campaign_seed) not in table:
                    table[str(campaign_seed)] = \
                        runner.reference_digest(campaign_seed)
            workloads.PINS_FILE.write_text(
                json.dumps(pins, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {len(table)} campaigns pinned",
                  flush=True)


if __name__ == "__main__":
    main()
