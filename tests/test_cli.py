"""End-to-end tests for the command-line interface."""

import json
import logging
import os
import signal
import socket
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest
import yaml

from scenofuzz import cli
from scenofuzz.cli import (
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_RUNTIME,
    default_run_id,
    main,
)
from scenofuzz.config import ConfigError

PACKAGE_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = PACKAGE_ROOT / "configs"

MINI_CONFIG = """\
scenario:
  map_name: chain_3
  start_lane_id: lane_a
  end_lane_id: lane_a
  end_station: 60.0
  duration_limit: 12.0
testing_engine:
  algorithm:
    name: random
    parameters:
      max_evaluations: 50
"""


@pytest.fixture()
def mini_config_dir(tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "mini.yaml").write_text(MINI_CONFIG)
    return config_dir


@pytest.fixture()
def output_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("SCENOFUZZ_OUTPUT_ROOT", str(root))
    monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
    return root


def write_config(config_dir, **keys):
    """MINI_CONFIG with dotted ``keys`` set, as ``mini.yaml`` in a new dir."""
    doc = yaml.safe_load(MINI_CONFIG)
    for path, value in keys.items():
        *sections, leaf = path.split(".")
        node = doc
        for name in sections:
            node = node.setdefault(name, {})
        node[leaf] = value
    config_dir.mkdir()
    (config_dir / "mini.yaml").write_text(yaml.safe_dump(doc))
    return config_dir


@pytest.fixture()
def root_logger():
    root = logging.getLogger()
    level = root.level
    yield root
    root.setLevel(level)


@pytest.fixture()
def parsed_configs(monkeypatch):
    """Configs main() parsed; each run then stops with the config exit code."""
    seen = []

    def stop(config):
        seen.append(config)
        raise ConfigError("stopped before the campaign")

    monkeypatch.setattr(cli, "build_execution", stop)
    return seen


def run_cli(config_dir, *extra):
    return main(["--config-name", "mini", "--config-dir", str(config_dir),
                 *extra])


class TestArgumentHandling:
    def test_default_run_id_format(self):
        stamp = datetime(2026, 8, 16, 12, 34, 56, tzinfo=timezone.utc)
        assert default_run_id(7, stamp) == "20260816-123456-seed7"

    @pytest.mark.parametrize("seed", ["-1", "-20", "seven", "1.5"])
    def test_bad_seed_exits_config_code(self, mini_config_dir, output_root,
                                        capsys, seed):
        with pytest.raises(SystemExit) as exit_:
            run_cli(mini_config_dir, "--seed", seed)
        assert exit_.value.code == EXIT_CONFIG == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --seed: expected a non-negative integer, "
            f"got {seed!r}\n")
        assert not output_root.exists()

    def test_missing_config_exits_config_code(self, tmp_path, capsys):
        rc = main(["--config-name", "nope", "--config-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_config_code(self, tmp_path, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "mini.yaml").write_text(
            MINI_CONFIG + "    extra_knob: 1\n")
        rc = run_cli(config_dir)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "extra_knob" in err

    def test_key_that_is_not_a_string_exits_config_code(
            self, tmp_path, output_root, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "mini.yaml").write_text("on: push\n" + MINI_CONFIG)
        rc = run_cli(config_dir)
        assert rc == EXIT_CONFIG == 2
        assert capsys.readouterr().err.startswith(
            "config error: config: key True is not a string; quote it")
        assert not output_root.exists()

    def test_unknown_algorithm_exits_config_code(
            self, tmp_path, output_root, capsys):
        config_dir = write_config(tmp_path / "configs",
                                  **{"testing_engine.algorithm.name": "nosuch"})
        rc = run_cli(config_dir)
        assert rc == EXIT_CONFIG == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: testing_engine.algorithm.name: "
                              "unknown algorithm 'nosuch'")
        assert "Traceback" not in err
        assert not output_root.exists()

    def test_external_agent_without_endpoint_exits_config_code(
            self, tmp_path, output_root, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "mini.yaml").write_text(MINI_CONFIG + (
            "scenario_runner:\n"
            "  parameters:\n"
            "    agent:\n"
            "      type: external\n"))
        rc = run_cli(config_dir)
        assert rc == EXIT_CONFIG
        assert "endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", [
        "localhost", "localhost:0", "localhost:65536", "localhost:http",
        "inproc:", "inproc:mine"])
    @pytest.mark.parametrize("source", ["file", "environment"])
    def test_malformed_agent_endpoint_exits_config_code(
            self, tmp_path, output_root, monkeypatch, capsys, endpoint,
            source):
        key = "scenario_runner.parameters.agent.endpoint"
        keys = {"scenario_runner.parameters.agent.type": "external",
                key: "127.0.0.1:9333"}
        if source == "file":
            keys[key] = endpoint
        else:
            monkeypatch.setenv("SCENOFUZZ_BRIDGE_ADDR", endpoint)
        rc = run_cli(write_config(tmp_path / "configs", **keys))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        named = key if source == "file" else "SCENOFUZZ_BRIDGE_ADDR"
        assert err.startswith(f"config error: {named}: ")
        assert repr(endpoint) in err
        assert not output_root.exists()

    @pytest.mark.parametrize("key,value,named", [
        ("scenario.duration_limit", 0, "NonPositiveDuration(template): "
                                       "duration_limit=0.0"),
        ("scenario.end_station", -1, "StationOutOfRange(ego): "
                                     "end_station=-1.0 outside"),
        ("scenario.start_station", 9999, "StationOutOfRange(ego): "
                                         "start_station=9999.0 outside"),
    ])
    def test_invalid_scenario_template_exits_config_code(
            self, tmp_path, output_root, capsys, key, value, named):
        rc = run_cli(write_config(tmp_path / "configs", **{key: value}))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: scenario: {named}")
        assert not output_root.exists()

    @pytest.mark.parametrize("key,value,rule", [
        ("scenario.mutation_space.speed_high", 40, "<= 30"),
        ("scenario.mutation_space.speed_low", -5, ">= 0"),
        ("scenario.mutation_space.delay_low", -3, ">= 0"),
    ])
    def test_mutation_bound_exits_config_code(self, tmp_path, output_root,
                                              capsys, key, value, rule):
        rc = run_cli(write_config(tmp_path / "configs", **{key: value}))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: {key}: must be {rule}\n"
        assert not output_root.exists()

    @pytest.mark.parametrize("key,value,rule", [
        ("scenario_runner.parameters.agent.cruise_speed", -5.0, "> 0"),
        ("scenario_runner.parameters.agent.cruise_speed", 0.0, "> 0"),
        ("testing_engine.oracle.collision.threshold", -1.0, ">= 0"),
        ("testing_engine.oracle.destination.tolerance", -1.0, ">= 0"),
        ("testing_engine.oracle.stuck.speed", -1.0, ">= 0"),
        ("testing_engine.oracle.stuck.duration", -1.0, "> 0"),
    ])
    def test_agent_and_oracle_bound_exits_config_code(
            self, tmp_path, output_root, capsys, key, value, rule):
        rc = run_cli(write_config(tmp_path / "configs", **{key: value}))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: {key}: must be {rule}\n"
        assert not output_root.exists()

    @pytest.mark.parametrize("key,value,rule", [
        ("testing_engine.algorithm.parameters.pm", -1, ">= 0"),
        ("testing_engine.algorithm.parameters.pc", 2, "<= 1"),
        ("testing_engine.algorithm.parameters.archive_threshold", -1, ">= 0"),
        ("testing_engine.algorithm.parameters.surrogate_pool", 0, ">= 1"),
    ])
    def test_search_parameter_bound_exits_config_code(
            self, tmp_path, output_root, capsys, key, value, rule):
        rc = run_cli(write_config(tmp_path / "configs", **{key: value}))
        assert rc == EXIT_CONFIG == 2
        assert capsys.readouterr().err == \
            f"config error: {key}: must be {rule}\n"
        assert not output_root.exists()

    def test_inverted_mutation_range_exits_config_code(self, tmp_path,
                                                        output_root, capsys):
        low, high = ("scenario.mutation_space.speed_low",
                     "scenario.mutation_space.speed_high")
        rc = run_cli(write_config(tmp_path / "configs", **{low: 15, high: 5}))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: {low}: must be <= {high}\n"
        assert not output_root.exists()

    def test_unreachable_agent_endpoint_is_named(self, tmp_path, output_root,
                                                 capsys):
        with socket.socket() as probe:  # a port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            endpoint = f"127.0.0.1:{probe.getsockname()[1]}"
        rc = run_cli(write_config(
            tmp_path / "configs",
            **{"scenario_runner.parameters.agent.type": "external",
               "scenario_runner.parameters.agent.endpoint": endpoint}))
        assert rc == EXIT_RUNTIME
        assert f"error: cannot reach the agent at {endpoint}: " in \
            capsys.readouterr().err


class TestFlagOverrides:
    @pytest.mark.parametrize("flag,key", [
        ("--workers", "scenario_runner.parameters.worker_pool"),
        ("--max-evals", "testing_engine.algorithm.parameters.max_evaluations"),
    ])
    def test_zero_flag_exits_like_the_file_key(self, tmp_path, output_root,
                                               capsys, flag, key):
        rc_flag = run_cli(write_config(tmp_path / "flag"), flag, "0")
        err_flag = capsys.readouterr().err
        rc_file = run_cli(write_config(tmp_path / "file", **{key: 0}))
        err_file = capsys.readouterr().err
        assert rc_flag == rc_file == EXIT_CONFIG
        assert f"{key}: must be >= 1" in err_flag
        assert err_flag == err_file
        assert not output_root.exists()

    @pytest.mark.parametrize("flag,key,value", [
        (["--workers", "3"], "scenario_runner.parameters.worker_pool", 3),
        (["--max-evals", "7"],
         "testing_engine.algorithm.parameters.max_evaluations", 7),
        (["--resume"], "system.resume", True),
        (["--debug"], "system.debug", True),
    ])
    def test_flag_and_file_key_give_the_same_config(
            self, tmp_path, parsed_configs, root_logger, flag, key, value):
        assert run_cli(write_config(tmp_path / "flag"), *flag) == EXIT_CONFIG
        assert run_cli(write_config(tmp_path / "file", **{key: value})) \
            == EXIT_CONFIG
        assert parsed_configs[0] == parsed_configs[1]

    def test_system_debug_sets_the_log_level(self, tmp_path, parsed_configs,
                                             root_logger):
        root_logger.setLevel(logging.INFO)
        run_cli(write_config(tmp_path / "quiet"))
        assert root_logger.level == logging.INFO
        run_cli(write_config(tmp_path / "debug", **{"system.debug": True}))
        assert root_logger.level == logging.DEBUG


class TestCampaignRuns:
    def test_run_produces_output_tree(self, mini_config_dir, output_root,
                                      capsys):
        rc = run_cli(mini_config_dir, "--seed", "3", "--run-id", "runA",
                     "--max-evals", "4")
        assert rc == EXIT_OK
        run_dir = output_root / "runA"
        assert (run_dir / "report.json").exists()
        assert (run_dir / "campaign.state.json").exists()
        assert (run_dir / "evaluations.json").exists()
        assert (run_dir / "recordings" / "eval_000000.record.json").exists()

        entries = json.loads((run_dir / "evaluations.json").read_text())
        assert [e["index"] for e in entries] == [0, 1, 2, 3]
        report = json.loads((run_dir / "report.json").read_text())
        assert report["algorithm"] == "random"
        assert report["seed"] == 3
        assert report["evaluations"] == 4

        out = capsys.readouterr().out
        assert "algorithm=random seed=3 evaluations=4" in out
        assert f"output={run_dir}" in out

    def test_config_name_suffix_optional(self, mini_config_dir, output_root):
        rc = main(["--config-name", "mini.yaml",
                   "--config-dir", str(mini_config_dir),
                   "--run-id", "runSuffix", "--max-evals", "2"])
        assert rc == EXIT_OK
        assert (output_root / "runSuffix" / "report.json").exists()

    def test_worker_override_keeps_log_bytes(self, mini_config_dir,
                                             output_root):
        assert run_cli(mini_config_dir, "--run-id", "w1",
                       "--max-evals", "4") == EXIT_OK
        assert run_cli(mini_config_dir, "--run-id", "w2",
                       "--max-evals", "4", "--workers", "3") == EXIT_OK
        log1 = (output_root / "w1" / "evaluations.json").read_bytes()
        log2 = (output_root / "w2" / "evaluations.json").read_bytes()
        assert log1 == log2

    def test_resume_flag_extends_previous_run(self, mini_config_dir,
                                              output_root):
        assert run_cli(mini_config_dir, "--run-id", "whole",
                       "--max-evals", "6") == EXIT_OK
        assert run_cli(mini_config_dir, "--run-id", "split",
                       "--max-evals", "3") == EXIT_OK
        assert run_cli(mini_config_dir, "--run-id", "split", "--resume",
                       "--max-evals", "6") == EXIT_OK
        whole = (output_root / "whole" / "evaluations.json").read_bytes()
        split = (output_root / "split" / "evaluations.json").read_bytes()
        assert whole == split

    def test_fresh_run_keeps_an_existing_log(self, mini_config_dir,
                                             output_root, capsys):
        """A run without --resume into a directory that holds a campaign log
        exits with the config code and changes no file of that run."""
        assert run_cli(mini_config_dir, "--seed", "1", "--run-id", "r",
                       "--max-evals", "6") == EXIT_OK
        run_dir = output_root / "r"

        def files():
            return {path: path.read_bytes() for path in run_dir.rglob("*")
                    if path.is_file()}

        before = files()
        assert len(before) == 3 + 6  # the log, state, report and recordings
        capsys.readouterr()
        assert run_cli(mini_config_dir, "--seed", "2", "--run-id", "r",
                       "--max-evals", "3") == EXIT_CONFIG
        assert files() == before
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {run_dir} already holds a campaign log; pass "
                       f"--resume to continue it or choose another --run-id\n")

    def test_resume_under_another_algorithm_is_refused(self, output_root,
                                                       capsys):
        """A resume names the algorithm the checkpoint was written with and
        the one asked for, exits with the runtime code and changes no file
        of that run."""
        def cli(name, *extra):
            return main(["--config-name", name, "--config-dir",
                         str(CONFIG_DIR), "--run-id", "r", "--seed", "0",
                         *extra])

        def tree():
            return {path: path.is_file() and path.read_bytes()
                    for path in run_dir.rglob("*")}

        assert cli("avfuzzer", "--max-evals", "4") == EXIT_OK
        run_dir = output_root / "r"
        before = tree()
        capsys.readouterr()
        assert cli("random", "--max-evals", "8", "--resume") == EXIT_RUNTIME
        assert tree() == before
        out, err = capsys.readouterr()
        assert out == ""
        assert (f"error: {run_dir / 'campaign.state.json'}: the checkpoint "
                f"was written with algorithm 'avfuzzer', not 'random'"
                in err.splitlines())

    def test_refused_resume_prints_only_its_error_line(self, output_root):
        """A refused resume is a user error: no traceback and no "campaign
        failed" log line.  Run in a subprocess, since pytest's log capture
        would hide a traceback from capsys."""
        args = ["--config-dir", str(CONFIG_DIR), "--run-id", "r",
                "--seed", "0"]
        assert main(["--config-name", "avfuzzer", "--max-evals", "4",
                     *args]) == EXIT_OK
        run_dir = output_root / "r"
        before = {path: path.is_file() and path.read_bytes()
                  for path in run_dir.rglob("*")}
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "scenofuzz.cli", "--config-name", "random",
             "--max-evals", "8", "--resume", *args],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "campaign failed" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            f"error: {run_dir / 'campaign.state.json'}: the checkpoint was "
            f"written with algorithm 'avfuzzer', not 'random'")
        assert {path: path.is_file() and path.read_bytes()
                for path in run_dir.rglob("*")} == before

    def test_svg_export_renders_violations(self, output_root, capsys):
        rc = main(["--config-name", "random", "--config-dir", str(CONFIG_DIR),
                   "--run-id", "svgrun", "--max-evals", "8", "--export-svg"])
        assert rc == EXIT_OK
        run_dir = output_root / "svgrun"
        report = json.loads((run_dir / "report.json").read_text())
        assert report["violations"] >= 1
        svgs = sorted((run_dir / "svg").glob("*.svg"))
        assert len(svgs) == report["violations"]
        body = svgs[0].read_text()
        assert body.startswith("<svg")
        assert "<circle" in body
        out = capsys.readouterr().out
        assert f"svgs={len(svgs)}" in out

    def test_svg_export_of_a_recording_without_the_ego_names_it(
            self, output_root):
        """A refused recording is a data fault with a complete message: its
        error line alone, with no traceback and no "SVG export failed" log
        line.  The export runs in a subprocess, since pytest's log capture
        would hide a traceback from capsys."""
        args = ["--config-name", "random", "--config-dir", str(CONFIG_DIR),
                "--run-id", "noego", "--max-evals", "8"]
        assert main(args) == EXIT_OK
        run_dir = output_root / "noego"
        log = json.loads((run_dir / "evaluations.json").read_text())
        scenario_id = next(r["scenario_id"] for r in log
                           if r["outcome"] == "CollisionViolation")
        path = run_dir / "recordings" / f"{scenario_id}.record.json"
        doc = json.loads(path.read_text())
        for frame in doc["frames"]:
            frame["actors"] = frame["actors"][1:]
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "scenofuzz.cli", *args, "--resume",
             "--export-svg"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_RUNTIME
        assert "Traceback" not in proc.stderr
        assert "SVG export failed" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            f'error: {path}: /frames/0/actors/0: expected the ego first: '
            f'actor_id "ego" and kind "ego"')

    def test_svg_export_refuses_a_version_1_recording(self, output_root):
        """A recording written before the wall clock was dropped is refused
        by its version, with its error line alone."""
        args = ["--config-name", "random", "--config-dir", str(CONFIG_DIR),
                "--run-id", "oldrec", "--max-evals", "8"]
        assert main(args) == EXIT_OK
        run_dir = output_root / "oldrec"
        log = json.loads((run_dir / "evaluations.json").read_text())
        scenario_id = next(r["scenario_id"] for r in log
                           if r["outcome"] == "CollisionViolation")
        path = run_dir / "recordings" / f"{scenario_id}.record.json"
        doc = json.loads(path.read_text())
        doc.update(schema_version=1, wall_clock=0.25)
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "scenofuzz.cli", *args, "--resume",
             "--export-svg"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_RUNTIME
        assert "Traceback" not in proc.stderr
        assert "SVG export failed" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            f"error: {path}: /schema_version: unsupported schema_version 1")

    def test_svg_export_after_a_resume_that_stops_during_replay(
            self, output_root, capsys):
        # seed 2: collisions at 2, 6 and 7, none among the 2 entries replayed
        args = ["--config-name", "behavexplor", "--config-dir",
                str(CONFIG_DIR), "--seed", "2", "--run-id", "cut",
                "--export-svg"]
        assert main(args + ["--max-evals", "10"]) == EXIT_OK
        svg_dir = output_root / "cut" / "svg"
        first = sorted(svg_dir.glob("*.svg"))
        for svg in first:
            svg.unlink()
        capsys.readouterr()
        assert main(args + ["--max-evals", "2", "--resume"]) == EXIT_OK
        report = json.loads((output_root / "cut" / "report.json").read_text())
        assert report["evaluations"] == 10
        assert report["violations"] == len(first) == 3
        assert sorted(svg_dir.glob("*.svg")) == first
        out = capsys.readouterr().out
        assert "evaluations=10 violations=3 first_violation=2" in out
        assert out.rstrip().endswith("svgs=3")


class TestInterrupt:
    def test_sigint_checkpoints_and_resume_completes(self, tmp_path):
        output_root = tmp_path / "out"
        env = dict(os.environ,
                   PYTHONPATH=str(PACKAGE_ROOT / "src"),
                   SCENOFUZZ_OUTPUT_ROOT=str(output_root))
        env.pop("SCENOFUZZ_BRIDGE_ADDR", None)
        argv = [sys.executable, "-m", "scenofuzz.cli",
                "--config-name", "random", "--config-dir", str(CONFIG_DIR),
                "--run-id", "interrupted", "--max-evals", "40"]
        proc = subprocess.Popen(argv, env=env, cwd=tmp_path,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        log_path = output_root / "interrupted" / "evaluations.json"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                if len(json.loads(log_path.read_text())) >= 2:
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        else:
            proc.kill()
            pytest.fail("campaign never checkpointed")
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=60)
        assert proc.returncode == EXIT_INTERRUPTED

        partial = json.loads(log_path.read_text())
        assert 2 <= len(partial) < 40

        env_patch = dict(env)
        os.environ["SCENOFUZZ_OUTPUT_ROOT"] = env_patch["SCENOFUZZ_OUTPUT_ROOT"]
        try:
            rc = main(["--config-name", "random",
                       "--config-dir", str(CONFIG_DIR),
                       "--run-id", "interrupted", "--resume",
                       "--max-evals", "40"])
            assert rc == EXIT_OK
            rc = main(["--config-name", "random",
                       "--config-dir", str(CONFIG_DIR),
                       "--run-id", "whole", "--max-evals", "40"])
            assert rc == EXIT_OK
        finally:
            os.environ.pop("SCENOFUZZ_OUTPUT_ROOT", None)

        resumed = (output_root / "interrupted" / "evaluations.json").read_bytes()
        whole = (output_root / "whole" / "evaluations.json").read_bytes()
        assert resumed == whole
