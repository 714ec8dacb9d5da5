"""Command-line entry point: run one testing campaign from a YAML config.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures, 130 when interrupted.  A first Ctrl-C requests a graceful stop (the
in-flight batch finishes and a checkpoint lands on disk); a second one aborts
immediately.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
from datetime import datetime, timezone
from pathlib import Path

from .config import build_execution, load_config
from .engine.campaign import RECORDINGS_DIR, CampaignContext, run_campaign

log = logging.getLogger(__name__)

OUTPUT_ROOT_ENV_VAR = "SCENOFUZZ_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130

# Flags that override one config key each; the file's checks apply to them.
FLAG_KEYS = {
    "workers": "scenario_runner.parameters.worker_pool",
    "max_evals": "testing_engine.algorithm.parameters.max_evaluations",
    "resume": "system.resume",
    "debug": "system.debug",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenofuzz",
        description="Search-based scenario testing for driving agents.")
    parser.add_argument("--config-name", "-cn", required=True,
                        help="config file name inside the config directory "
                             "(.yaml suffix optional)")
    parser.add_argument("--config-dir", default="./configs",
                        help="directory holding config files "
                             "(default: ./configs)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="random seed for the campaign, a non-negative "
                             "integer (default: 0)")
    parser.add_argument("--workers", type=int,
                        help=f"override {FLAG_KEYS['workers']}")
    parser.add_argument("--max-evals", type=int,
                        help=f"override {FLAG_KEYS['max_evals']}")
    parser.add_argument("--run-id", default=None,
                        help="name of the output directory (default: UTC "
                             "timestamp plus seed)")
    parser.add_argument("--resume", action="store_true", default=None,
                        help="resume the run-id from its checkpoint "
                             f"(sets {FLAG_KEYS['resume']})")
    parser.add_argument("--export-svg", action="store_true",
                        help="render an SVG for each violation recording")
    parser.add_argument("--debug", action="store_true", default=None,
                        help=f"verbose logging (sets {FLAG_KEYS['debug']})")
    return parser


def _seed(text: str) -> int:
    """A campaign seed: numpy's generators take only non-negative ints."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return seed


def _config_path(args) -> Path:
    name = args.config_name
    if not name.endswith((".yaml", ".yml")):
        name += ".yaml"
    return Path(args.config_dir) / name


def default_run_id(seed: int, now: datetime | None = None) -> str:
    now = now or datetime.now(timezone.utc)
    return f"{now.strftime('%Y%m%d-%H%M%S')}-seed{seed}"


def _export_svgs(ctx, output_dir: Path) -> int:
    from .runner import COLLISION, read_recording, recording_path
    from .svg_export import render_recording_svg

    svg_dir = output_dir / "svg"
    count = 0
    for record in ctx.log_entries():
        if record["outcome"] != COLLISION:
            continue
        rec_path = recording_path(output_dir / RECORDINGS_DIR,
                                  record["scenario_id"])
        if not rec_path.exists():
            continue
        recording = read_recording(rec_path)
        if not recording.frames:
            continue
        svg_dir.mkdir(parents=True, exist_ok=True)
        svg = render_recording_svg(recording, ctx.settings.lane_map)
        (svg_dir / f"{record['scenario_id']}.svg").write_text(svg)
        count += 1
    return count


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    overrides = {key: getattr(args, flag) for flag, key in FLAG_KEYS.items()
                 if getattr(args, flag) is not None}

    try:
        config = load_config(_config_path(args), overrides)
        if config.debug:
            logging.getLogger().setLevel(logging.DEBUG)
        settings, budget, params = build_execution(config)
    except ValueError as exc:  # a ConfigError, or a map that cannot be built
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    output_root = os.environ.get(OUTPUT_ROOT_ENV_VAR) or config.output_root
    run_id = args.run_id or default_run_id(args.seed)
    output_dir = Path(output_root) / run_id

    try:
        ctx = CampaignContext(settings, budget, seed=args.seed,
                              workers=config.worker_pool,
                              output_dir=output_dir, resume=config.resume)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    interrupted = []

    def on_sigint(signum, frame):
        if interrupted:
            raise KeyboardInterrupt
        interrupted.append(True)
        ctx.stop_requested = True
        log.warning("stop requested; finishing the current batch and "
                    "checkpointing (Ctrl-C again to abort)")

    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        report = run_campaign(config.algorithm, ctx, params)
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        log.exception("campaign failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        signal.signal(signal.SIGINT, previous)

    svg_count = 0
    if args.export_svg:
        try:
            svg_count = _export_svgs(ctx, output_dir)
        except Exception as exc:
            log.exception("SVG export failed")
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME

    summary = (f"algorithm={report['algorithm']} seed={report['seed']} "
               f"evaluations={report['evaluations']} "
               f"violations={report['violations']} "
               f"first_violation={report['first_violation_index']} "
               f"output={output_dir}")
    if args.export_svg:
        summary += f" svgs={svg_count}"
    print(summary)
    return EXIT_INTERRUPTED if interrupted else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
