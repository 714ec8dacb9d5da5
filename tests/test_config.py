"""Tests for YAML config parsing, validation, and execution assembly."""

import dataclasses
import logging
import math
import re
from pathlib import Path

import pytest
import yaml

from test_cli import MINI_CONFIG
from scenofuzz import config as config_module
from scenofuzz.bridge import BridgeServer
from scenofuzz.cli import FLAG_KEYS
from scenofuzz.config import (
    AGENT_TYPES,
    BUILTIN_RUNNER,
    CONFIG_DEFAULTS,
    MAX_POPULATION,
    MAX_STEPS,
    REQUIRED_KEYS,
    ConfigError,
    ConfigLoader,
    UniqueKeys,
    build_execution,
    load_config,
    parse_config,
)
from scenofuzz.engine.campaign import (AgentSettings, CampaignBudget,
                                       CampaignContext, algorithm_registry,
                                       run_campaign)
from scenofuzz.runner import OracleConfig
from scenofuzz.scenario import MutationSpace, validate

PACKAGE_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = PACKAGE_ROOT / "configs"


class PurePythonLoader(UniqueKeys, yaml.SafeLoader):
    """The loader ``load_config`` uses where PyYAML has no libyaml."""


@pytest.fixture(params=[ConfigLoader, PurePythonLoader],
                ids=["load_config", "pure_python"])
def loader(request, monkeypatch):
    """Each loader in turn, as the one ``load_config`` reads with."""
    monkeypatch.setattr(config_module, "ConfigLoader", request.param)
    return request.param


def minimal_doc(**overrides):
    doc = {
        "scenario": {
            "map_name": "chain_3",
            "start_lane_id": "lane_a",
            "end_lane_id": "lane_a",
        },
        "testing_engine": {"algorithm": {"name": "random"}},
    }
    for path, value in overrides.items():
        node = doc
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return doc


class TestPublishedConfig:
    def test_avfuzzer_values_recovered(self):
        config = load_config(CONFIG_DIR / "avfuzzer.yaml")
        assert config.map_name == "borregas_ave"
        assert config.start_lane_id == "lane_31"
        assert config.end_lane_id == "lane_15"
        assert config.start_station == 40.0
        assert config.end_station == 50.0
        assert config.duration_limit == 30.0
        assert config.runner_name == "ApolloSim"
        assert config.container_name == "apollo_dev"
        assert config.save_traffic_recording is True
        assert config.worker_pool == 1
        assert config.dt == 0.1
        assert config.agent_type == "reference"
        assert config.agent == AgentSettings(
            cruise_speed=8.0,
            fault_ignore_obstacles=False,
            fault_ignore_junction_traffic=True)
        assert config.algorithm == "avfuzzer"
        assert config.algorithm_params["run_hour"] == 2.0
        assert config.algorithm_params["local_run_hour"] == 0.5
        assert config.algorithm_params["population_size"] == 4
        assert config.algorithm_params["pm"] == 0.6
        assert config.algorithm_params["pc"] == 0.6
        assert "max_evaluations" not in config.algorithm_params
        assert config.oracles == OracleConfig(
            collision_threshold=0.01, destination_tolerance=3.0,
            stuck_speed=0.3, stuck_duration=30.0)

    def test_every_bundled_config_parses(self):
        paths = sorted(CONFIG_DIR.glob("*.yaml"))
        assert len(paths) == 5
        for path in paths:
            config = load_config(path)
            assert config.algorithm == path.stem
            assert config.map_name == "borregas_ave"

    def test_bundled_search_configs_use_evaluation_budgets(self):
        for name in ("random", "behavexplor", "samota", "drivefuzz"):
            config = load_config(CONFIG_DIR / f"{name}.yaml")
            assert config.algorithm_params["max_evaluations"] == 200


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        config = parse_config(minimal_doc())
        assert config.debug is False
        assert config.resume is False
        assert config.output_root == "./results"
        assert config.start_station == 0.0
        assert config.end_station == 0.0
        assert config.duration_limit == 45.0
        assert config.mutation_space == MutationSpace()
        assert config.runner_name == BUILTIN_RUNNER
        assert config.container_name == ""
        assert config.save_traffic_recording is True
        assert config.worker_pool == 1
        assert config.dt == 0.1
        assert config.agent_type == "reference"
        assert config.agent_endpoint is None
        assert config.agent == AgentSettings()
        assert config.oracles == OracleConfig()

    def test_unset_optional_budgets_stay_absent(self):
        params = parse_config(minimal_doc()).algorithm_params
        assert "max_evaluations" not in params
        assert params == {
            "run_hour": 2.0, "local_run_hour": 0.5, "population_size": 4,
            "pm": 0.6, "pc": 0.6, "archive_threshold": 0.2,
            "surrogate_pool": 20}

    def test_mutation_space_overrides(self):
        config = parse_config(minimal_doc(**{
            "scenario.mutation_space.presence": False,
            "scenario.mutation_space.offset_limit": 1.25,
        }))
        assert config.mutation_space == MutationSpace(
            presence=False, offset_limit=1.25)

    def test_spelled_out_defaults_equal_the_minimal_config(self):
        assert parse_config(minimal_doc(**CONFIG_DEFAULTS)) == \
            parse_config(minimal_doc())

    @pytest.mark.parametrize("path,value", [
        ("scenario_runner.parameters.worker_pool", 3),
        ("testing_engine.algorithm.parameters.max_evaluations", 7),
        ("system.resume", True),
        ("system.debug", True),
        ("scenario.duration_limit", 20),
    ])
    def test_override_equals_the_same_key_in_the_file(self, path, value):
        assert parse_config(minimal_doc(), {path: value}) == \
            parse_config(minimal_doc(**{path: value}))

    def test_override_replaces_the_file_value(self):
        doc = minimal_doc(**{"scenario_runner.parameters.worker_pool": 2})
        config = parse_config(
            doc, {"scenario_runner.parameters.worker_pool": 5})
        assert config.worker_pool == 5

    def test_int_accepted_where_float_expected(self):
        config = parse_config(minimal_doc(**{"scenario.duration_limit": 20}))
        assert config.duration_limit == 20.0
        assert isinstance(config.duration_limit, float)


class TestStrictness:
    @pytest.mark.parametrize("path,known", [
        ("bogus", "scenario, scenario_runner, system, testing_engine"),
        ("system.verbose", "debug, output_root, resume"),
        ("scenario.npc_count",
         "duration_limit, end_lane_id, end_station, map_name, "
         "mutation_space, start_lane_id, start_station"),
        ("scenario.mutation_space.velocity",
         "delay_high, delay_low, delays, offset_limit, offsets, presence, "
         "speed_high, speed_low, speeds"),
        ("scenario_runner.image", "name, parameters"),
        ("scenario_runner.parameters.gpu",
         "agent, container_name, dt, save_traffic_recording, worker_pool"),
        ("scenario_runner.parameters.agent.model",
         "cruise_speed, endpoint, fault_ignore_junction_traffic, "
         "fault_ignore_obstacles, type"),
        ("testing_engine.budget", "algorithm, oracle"),
        ("testing_engine.algorithm.parameters.mutation_rate",
         "archive_threshold, local_run_hour, max_evaluations, "
         "pc, pm, population_size, run_hour, surrogate_pool"),
        # random search batches worker_pool vectors; it has no batch_size
        ("testing_engine.algorithm.parameters.batch_size",
         "archive_threshold, local_run_hour, max_evaluations, "
         "pc, pm, population_size, run_hour, surrogate_pool"),
        ("testing_engine.oracle.collision.margin", "threshold"),
    ])
    def test_unknown_key_rejected_with_path(self, path, known):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{path: 1}))
        assert str(err.value) == f"{path}: unknown key (known keys: {known})"

    @pytest.mark.parametrize("key", [
        "system.debg", "scenario.map_name", "testing_engine.algorithm.name",
        "system", "scenario_runner.parameters.agent",
        "testing_engine.algorithm.parameters.batch_size"],
        ids=["misspelt", "required", "required-nested", "section",
             "nested-section", "batch-size"])
    def test_override_without_a_default_is_refused(self, key, tmp_path):
        message = f"{key}: not an optional config key, so it cannot be " \
                  "overridden"
        overrides = {"system.debug": True, key: "x"}
        with pytest.raises(ConfigError) as err:
            load_config(CONFIG_DIR / "random.yaml", overrides)
        assert str(err.value) == message
        # refused before the document is checked
        with pytest.raises(ConfigError) as err:
            parse_config(["not", "a", "mapping"], overrides)
        assert str(err.value) == message

    @pytest.mark.parametrize("doc,where,key", [
        ({1: "a"}, "config", "1"),
        ({True: 1, "x": 2}, "config", "True"),
        (minimal_doc(**{"scenario.mutation_space": {None: 1}}),
         "scenario.mutation_space", "None"),
        (minimal_doc(**{"system": {2.5: "x", "debug": True}}), "system",
         "2.5"),
    ], ids=["int", "bool", "null", "float"])
    def test_key_that_is_not_a_string_rejected(self, doc, where, key):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == (
            f"{where}: key {key} is not a string; quote it (YAML reads a "
            "bare on, off, yes, no or number as another type)")

    @pytest.mark.parametrize("missing,null_section", [
        *((key, None) for key in REQUIRED_KEYS),
        ("scenario.map_name", "scenario"),
        ("testing_engine.algorithm.name", "testing_engine.algorithm"),
    ])
    def test_missing_required_key(self, missing, null_section):
        if null_section:
            doc = minimal_doc(**{null_section: None})
        else:
            doc = minimal_doc()
            node = doc
            parts = missing.split(".")
            for part in parts[:-1]:
                node = node[part]
            del node[parts[-1]]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == f"{missing}: required key is missing"

    @pytest.mark.parametrize("path", [
        "scenario.map_name", "testing_engine.algorithm.name"])
    @pytest.mark.parametrize("value", ["", None, 3, True, ["x"], {"a": "b"}])
    def test_empty_required_string_rejected(self, path, value):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{path: value}))
        assert str(err.value) == f"{path}: expected a non-empty string"

    @pytest.mark.parametrize("doc,kind", [
        ([1, 2, 3], "list"), ("text", "str"), (7, "int"), (True, "bool")])
    def test_non_mapping_document(self, doc, kind):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == f"config: expected a mapping, got {kind}"

    @pytest.mark.parametrize("section,value,kind", [
        ("system", ["debug"], "list"),
        ("scenario", "chain_3", "str"),
        ("scenario.mutation_space", 3, "int"),
        ("scenario_runner.parameters", True, "bool"),
        ("scenario_runner.parameters.agent", "external", "str"),
        ("testing_engine.oracle.stuck", [0.3, 30.0], "list"),
    ])
    def test_non_mapping_section(self, section, value, kind):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{section: value}))
        assert str(err.value) == f"{section}: expected a mapping, got {kind}"

    def test_none_document_reports_missing_keys(self):
        with pytest.raises(ConfigError, match="required"):
            parse_config(None)

    @pytest.mark.parametrize("path,value,hint", [
        ("system.debug", 3, "true or false"),
        ("system.resume", "yes", "true or false"),
        ("scenario.mutation_space.presence", None, "true or false"),
        ("scenario_runner.parameters.agent.fault_ignore_obstacles", 0,
         "true or false"),
        ("system.output_root", 7, "a string"),
        ("scenario_runner.name", None, "a string"),
        ("scenario_runner.parameters.agent.type", 1, "a string"),
        ("scenario_runner.parameters.agent.endpoint", ["x"], "a string"),
        ("scenario.duration_limit", "long", "a number"),
        ("scenario.start_station", None, "a number"),
        ("scenario.mutation_space.offset_limit", True, "a number"),
        ("testing_engine.oracle.stuck.speed", [0.3], "a number"),
        ("scenario.end_station", float("nan"), "a finite number"),
        ("scenario.mutation_space.speed_high", float("inf"),
         "a finite number"),
        ("testing_engine.oracle.collision.threshold", float("-inf"),
         "a finite number"),
        ("scenario_runner.parameters.dt", 10**400, "a finite number"),
        ("scenario_runner.parameters.worker_pool", 1.5, "an integer"),
        ("scenario_runner.parameters.worker_pool", True, "an integer"),
        ("scenario_runner.parameters.worker_pool", "2", "an integer"),
        ("testing_engine.algorithm.parameters.max_evaluations", 2.5,
         "an integer"),
        ("testing_engine.algorithm.parameters.population_size", None,
         "an integer"),
    ])
    @pytest.mark.parametrize("source", ["file", "override"])
    def test_type_errors_name_the_path(self, path, value, hint, source):
        with pytest.raises(ConfigError) as err:
            if source == "file":
                parse_config(minimal_doc(**{path: value}))
            else:
                parse_config(minimal_doc(), {path: value})
        assert str(err.value) == f"{path}: expected {hint}"

    def test_unknown_runner_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{"scenario_runner.name": "CARLA"}))
        assert "scenario_runner.name" in str(err.value)
        assert BUILTIN_RUNNER in str(err.value)

    def test_unknown_agent_type_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(
                **{"scenario_runner.parameters.agent.type": "scripted"}))
        assert "agent.type" in str(err.value)
        for kind in AGENT_TYPES:
            assert kind in str(err.value)

    @pytest.mark.parametrize("path,value", [
        ("scenario_runner.parameters.worker_pool", 0),
        ("scenario_runner.parameters.dt", 0.0),
        ("scenario_runner.parameters.dt", -0.1),
        ("testing_engine.algorithm.parameters.max_evaluations", 0),
        ("testing_engine.algorithm.parameters.population_size", 1),
        ("testing_engine.algorithm.parameters.population_size", 0),
        ("testing_engine.algorithm.parameters.population_size", 2**70),
        ("testing_engine.algorithm.parameters.run_hour", 0.0),
        ("testing_engine.algorithm.parameters.run_hour", -1),
        ("testing_engine.algorithm.parameters.local_run_hour", -0.5),
        ("testing_engine.algorithm.parameters.pm", -1),
        ("testing_engine.algorithm.parameters.pm", 1.5),
        ("testing_engine.algorithm.parameters.pc", -0.5),
        ("testing_engine.algorithm.parameters.pc", 2),
        ("testing_engine.algorithm.parameters.archive_threshold", -1),
        ("testing_engine.algorithm.parameters.surrogate_pool", 0),
        ("testing_engine.algorithm.parameters.surrogate_pool", -3),
        ("testing_engine.algorithm.parameters.surrogate_pool", 2**40),
        ("scenario.mutation_space.speed_low", -5),
        ("scenario.mutation_space.speed_high", 40),
        ("scenario.mutation_space.delay_low", -3),
        ("scenario.mutation_space.offset_limit", -0.5),
        # an offset gene spans 2 * offset_limit, past the largest float
        ("scenario.mutation_space.offset_limit", 1e308),
        ("scenario_runner.parameters.agent.cruise_speed", -5.0),
        ("scenario_runner.parameters.agent.cruise_speed", 0.0),
        ("scenario_runner.parameters.agent.cruise_speed", -0.0),
        ("testing_engine.oracle.collision.threshold", -1.0),
        ("testing_engine.oracle.destination.tolerance", -1.0),
        ("testing_engine.oracle.stuck.speed", -0.1),
        ("testing_engine.oracle.stuck.duration", -1.0),
        ("testing_engine.oracle.stuck.duration", 0),
    ])
    def test_out_of_range_values_rejected(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(f"{path}: must be")):
            parse_config(minimal_doc(**{path: value}))

    @pytest.mark.parametrize("path", [
        "testing_engine.oracle.collision.threshold",
        "testing_engine.oracle.destination.tolerance",
        "testing_engine.oracle.stuck.speed",
    ])
    def test_zero_oracle_bound_accepted(self, path):
        config = parse_config(minimal_doc(**{path: 0}))
        assert getattr(config.oracles,
                       path.split(".", 2)[2].replace(".", "_")) == 0.0

    @pytest.mark.parametrize("key", ["speed_high", "delay_high",
                                     "offset_limit"])
    def test_a_negative_zero_bound_reads_as_zero_and_runs(self, key):
        """numpy's samplers refuse a range whose upper bound is -0.0."""
        doc = yaml.safe_load((CONFIG_DIR / "random.yaml").read_bytes())
        doc["scenario"].setdefault("mutation_space", {})[key] = -0.0
        config = parse_config(doc, {
            "testing_engine.algorithm.parameters.max_evaluations": 2,
            "scenario_runner.parameters.worker_pool": 1,
            "scenario.duration_limit": 1.5})
        value = getattr(config.mutation_space, key)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        settings, budget, params = build_execution(config)
        ctx = CampaignContext(settings, budget)
        run_campaign(config.algorithm, ctx, params)
        assert ctx.completed == 2

    @pytest.mark.parametrize("name,value", [
        ("pm", 0), ("pm", 1), ("pc", 0.0), ("pc", 1.0),
        ("archive_threshold", 0), ("surrogate_pool", 1),
        ("surrogate_pool", MAX_POPULATION), ("population_size", 2),
        ("population_size", MAX_POPULATION)])
    def test_search_parameter_edges_accepted(self, name, value):
        config = parse_config(minimal_doc(**{
            f"testing_engine.algorithm.parameters.{name}": value}))
        assert config.algorithm_params[name] == value

    @pytest.mark.parametrize("value", [MAX_POPULATION + 1, 10**9, 2**70])
    def test_worker_count_is_bounded(self, value):
        """random search samples a whole batch of worker_pool vectors before
        the budget is checked; parsed only."""
        key = "scenario_runner.parameters.worker_pool"
        with pytest.raises(ConfigError) as err:
            load_config(CONFIG_DIR / "random.yaml", {key: value})
        assert str(err.value) == f"{key}: must be <= {MAX_POPULATION}"

    def test_worker_count_bound_accepted(self):
        config = load_config(CONFIG_DIR / "random.yaml", {
            "scenario_runner.parameters.worker_pool": MAX_POPULATION})
        assert config.worker_pool == MAX_POPULATION

    @pytest.mark.parametrize("path,value", [
        ("scenario_runner.parameters.dt", 5e-324),
        ("scenario_runner.parameters.dt", 1e-7),
        ("scenario.duration_limit", 1e300),
    ])
    def test_step_count_is_bounded(self, path, value):
        """Nothing else caps a scenario's step count, duration_limit / dt."""
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{path: value}))
        assert str(err.value).startswith(
            f"scenario.duration_limit: must be <= {MAX_STEPS} steps of "
            "scenario_runner.parameters.dt, got ")

    def test_step_count_bound_accepted(self):
        config = parse_config(minimal_doc(**{
            "scenario.duration_limit": MAX_STEPS * 0.5,
            "scenario_runner.parameters.dt": 0.5}))
        assert config.duration_limit / config.dt == MAX_STEPS

    @pytest.mark.parametrize("values", [
        {"run_hour": 5e-324, "max_evaluations": 12},
        {"run_hour": 5e-324},
        {"local_run_hour": 1e308},
        {"run_hour": 1e306},
        {"run_hour": 1e306, "local_run_hour": 0},
        {"max_evaluations": 10**400},
    ], ids=["tiny-run-hour", "tiny-wall-budget", "huge-local-run-hour",
            "huge-wall-budget", "huge-wall-budget-no-local",
            "huge-max-evaluations"])
    def test_local_share_must_be_finite(self, values):
        """avfuzzer's local phase takes local_run_hour / run_hour of the
        evaluations; a share that is not finite cannot be rounded."""
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{
                f"testing_engine.algorithm.parameters.{name}": value
                for name, value in values.items()}))
        assert str(err.value) == (
            "testing_engine.algorithm.parameters.local_run_hour: "
            "local_run_hour / run_hour * evaluations must be finite")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{
                "testing_engine.algorithm.name": "nosuch"}))
        assert str(err.value) == (
            "testing_engine.algorithm.name: unknown algorithm 'nosuch'; "
            f"expected one of {', '.join(sorted(algorithm_registry()))}")

    @pytest.mark.parametrize("name", ["speed", "delay"])
    def test_inverted_mutation_range_rejected(self, name):
        low = f"scenario.mutation_space.{name}_low"
        high = f"scenario.mutation_space.{name}_high"
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{low: 8, high: 2}))
        assert str(err.value) == f"{low}: must be <= {high}"
        # the default high bound counts as well
        default = CONFIG_DEFAULTS[high]
        with pytest.raises(ConfigError, match=re.escape(f"{low}: must be")):
            parse_config(minimal_doc(**{low: default + 1}))
        with pytest.raises(ConfigError, match=re.escape(f"{low}: must be")):
            parse_config(minimal_doc(), {low: 8, high: 2})

    @pytest.mark.parametrize("name", ["speed", "delay"])
    def test_equal_mutation_bounds_accepted(self, name):
        config = parse_config(minimal_doc(**{
            f"scenario.mutation_space.{name}_low": 4,
            f"scenario.mutation_space.{name}_high": 4}))
        space = config.mutation_space
        assert getattr(space, f"{name}_low") == getattr(space, f"{name}_high")

    @pytest.mark.parametrize("path,value", [
        ("scenario_runner.parameters.worker_pool", 0),
        ("testing_engine.algorithm.parameters.max_evaluations", 0),
        ("testing_engine.algorithm.parameters.max_evaluations", "7"),
        ("system.debug", 1),
    ])
    def test_override_fails_like_the_file(self, path, value):
        with pytest.raises(ConfigError) as from_file:
            parse_config(minimal_doc(**{path: value}))
        with pytest.raises(ConfigError) as from_override:
            parse_config(minimal_doc(), {path: value})
        assert str(from_override.value) == str(from_file.value)
        assert path in str(from_override.value)

    @pytest.mark.parametrize("path", [
        "scenario.duration_limit",
        "scenario_runner.parameters.dt",
        "testing_engine.oracle.collision.threshold",
        "scenario.mutation_space.speed_high",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 10**400])
    def test_non_finite_numbers_rejected(self, path, value):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{path: value}))
        assert f"{path}: expected a finite number" in str(err.value)

    def test_non_finite_yaml_spellings_rejected(self, tmp_path):
        for spelling in (".nan", ".inf", "-.Inf"):
            path = tmp_path / "nan.yaml"
            path.write_text(
                "scenario:\n"
                "  map_name: chain_3\n"
                "  start_lane_id: lane_a\n"
                "  end_lane_id: lane_a\n"
                f"  duration_limit: {spelling}\n"
                "testing_engine:\n"
                "  algorithm:\n"
                "    name: random\n")
            with pytest.raises(ConfigError, match="scenario.duration_limit"):
                load_config(path)

    def test_container_name_warns_and_is_kept(self, caplog):
        doc = minimal_doc(
            **{"scenario_runner.parameters.container_name": "apollo_dev"})
        with caplog.at_level(logging.WARNING, logger="scenofuzz.config"):
            config = parse_config(doc)
        assert config.container_name == "apollo_dev"
        assert any("container_name" in r.message and "ignored" in r.message
                   for r in caplog.records)

    def test_empty_container_name_stays_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="scenofuzz.config"):
            parse_config(minimal_doc())
        assert not caplog.records


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    def test_duplicate_key_rejected(self, loader, tmp_path):
        text = (CONFIG_DIR / "random.yaml").read_text()
        path = tmp_path / "twice.yaml"
        path.write_text(text + "system:\n  debug: true\n")
        line = text.count("\n") + 1
        with pytest.raises(ConfigError, match=(
                rf"duplicate key 'system'\n.* line {line}, column 1")):
            load_config(path)

    def test_duplicate_nested_key_rejected(self, loader, tmp_path):
        path = tmp_path / "twice.yaml"
        path.write_text("system:\n  debug: false\n  debug: true\n")
        with pytest.raises(ConfigError, match=(
                r"duplicate key 'debug'\n.* line 3, column 3")):
            load_config(path)

    def test_merge_keys_keep_their_meaning(self, loader, tmp_path):
        path = tmp_path / "merged.yaml"
        path.write_text(MINI_CONFIG.replace(
            "      max_evaluations: 50\n",
            "      <<: {max_evaluations: 50, population_size: 6}\n"
            "      max_evaluations: 7\n"))
        config = load_config(path)
        assert config.algorithm_params["max_evaluations"] == 7
        assert config.algorithm_params["population_size"] == 6

    def test_file_not_utf8_names_the_file(self, loader, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("# café\n".encode("latin-1") + MINI_CONFIG.encode())
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}: invalid YAML")):
            load_config(path)

    def test_yaml_boolean_key_names_the_key(self, loader, tmp_path):
        path = tmp_path / "on.yaml"
        path.write_text(MINI_CONFIG + "system:\n  on: true\n")
        with pytest.raises(ConfigError, match=re.escape(
                "system: key True is not a string; quote it")):
            load_config(path)
        path.write_text(MINI_CONFIG + "system:\n  'on': true\n")
        with pytest.raises(ConfigError, match=re.escape(
                "system.on: unknown key")):
            load_config(path)

    def test_loaders_read_equal_documents(self):
        paths = sorted(CONFIG_DIR.glob("*.yaml"))
        for text in [*map(Path.read_bytes, paths), MINI_CONFIG.encode()]:
            expected = yaml.load(text, Loader=yaml.SafeLoader)
            for loader in (ConfigLoader, PurePythonLoader):
                doc = yaml.load(text, Loader=loader)
                assert doc == expected
                assert repr(doc) == repr(expected)  # types and key order too

    def test_round_trip_from_disk(self, tmp_path):
        path = tmp_path / "mini.yaml"
        path.write_text(
            "scenario:\n"
            "  map_name: chain_3\n"
            "  start_lane_id: lane_a\n"
            "  end_lane_id: lane_c\n"
            "testing_engine:\n"
            "  algorithm:\n"
            "    name: drivefuzz\n")
        config = load_config(path)
        assert config.map_name == "chain_3"
        assert config.end_lane_id == "lane_c"
        assert config.algorithm == "drivefuzz"


class TestBuildExecution:
    def test_assembles_settings_and_evaluation_budget(self, monkeypatch):
        monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
        config = parse_config(minimal_doc(**{
            "testing_engine.algorithm.parameters.max_evaluations": 5,
            "scenario.duration_limit": 12.0,
            "scenario_runner.parameters.dt": 0.05,
        }))
        settings, budget, params = build_execution(config)
        assert settings.lane_map.name == "chain_3"
        assert validate(settings.template, settings.lane_map) == []
        assert settings.template.duration_limit == 12.0
        assert settings.dt == 0.05
        assert settings.endpoint is None
        assert budget == CampaignBudget(max_evaluations=5)
        assert params["max_evaluations"] == 5

    def test_wall_clock_budget_from_run_hour(self, monkeypatch):
        monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
        config = parse_config(minimal_doc(**{
            "testing_engine.algorithm.parameters.run_hour": 0.25}))
        _, budget, _ = build_execution(config)
        assert budget == CampaignBudget(wall_seconds=900.0)

    def test_map_alias_resolves(self, monkeypatch):
        monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
        config = load_config(CONFIG_DIR / "random.yaml")
        settings, budget, _ = build_execution(config)
        assert settings.lane_map.name == "borregas_ave_lite"
        assert budget == CampaignBudget(max_evaluations=200)

    def test_unknown_map_is_a_config_time_error(self, monkeypatch):
        monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
        config = parse_config(minimal_doc(**{"scenario.map_name": "mars"}))
        with pytest.raises(Exception):
            build_execution(config)

    def test_external_agent_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
        config = parse_config(minimal_doc(
            **{"scenario_runner.parameters.agent.type": "external"}))
        with pytest.raises(ConfigError, match="endpoint"):
            build_execution(config)

    def test_external_agent_uses_configured_endpoint(self, monkeypatch):
        monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
        config = parse_config(minimal_doc(**{
            "scenario_runner.parameters.agent.type": "external",
            "scenario_runner.parameters.agent.endpoint": "127.0.0.1:9333",
        }))
        settings, _, _ = build_execution(config)
        assert settings.endpoint == "127.0.0.1:9333"

    def test_environment_endpoint_wins(self, monkeypatch):
        monkeypatch.setenv("SCENOFUZZ_BRIDGE_ADDR", "127.0.0.1:9444")
        config = parse_config(minimal_doc(**{
            "scenario_runner.parameters.agent.type": "external",
            "scenario_runner.parameters.agent.endpoint": "127.0.0.1:9333",
        }))
        settings, _, _ = build_execution(config)
        assert settings.endpoint == "127.0.0.1:9444"

    def test_reference_agent_ignores_stale_endpoint_field(self, monkeypatch):
        monkeypatch.delenv("SCENOFUZZ_BRIDGE_ADDR", raising=False)
        config = parse_config(minimal_doc(**{
            "scenario_runner.parameters.agent.endpoint": "127.0.0.1:9333"}))
        settings, _, _ = build_execution(config)
        assert settings.endpoint is None

    def test_reference_agent_ignores_the_environment_endpoint(
            self, monkeypatch):
        monkeypatch.setenv("SCENOFUZZ_BRIDGE_ADDR", "127.0.0.1:9")
        config = load_config(CONFIG_DIR / "random.yaml")
        assert config.agent_type == "reference"
        settings, _, _ = build_execution(config)
        assert settings.endpoint is None

    def test_bridge_server_endpoint_satisfies_external_config(
            self, monkeypatch):
        from scenofuzz.bridge import ReferenceEgoAgent
        from scenofuzz.runner import AGENT_TIMEOUT, mission_path

        config = parse_config(minimal_doc(**{
            "scenario_runner.parameters.agent.type": "external",
            "scenario.end_station": 60.0,
            "scenario.duration_limit": 12.0}))
        routes = []  # the mission path, known once the settings are built
        server = BridgeServer(lambda: ReferenceEgoAgent(routes[0]))
        try:
            monkeypatch.setenv("SCENOFUZZ_BRIDGE_ADDR", server.endpoint)
            settings, _, _ = build_execution(config)
            assert settings.endpoint == server.endpoint
            routes.append(mission_path(settings.template, settings.lane_map))
            records = []
            for endpoint in (settings.endpoint, None):
                ctx = CampaignContext(
                    dataclasses.replace(settings, endpoint=endpoint),
                    CampaignBudget(max_evaluations=1))
                ctx.evaluate_batch([ctx.prototype])
                records.append(ctx.records)
        finally:
            server.close()
        # the served agent drives exactly like the in-process one
        assert records[0] == records[1]
        assert records[0][0]["outcome"] != AGENT_TIMEOUT


class TestDocumentationSync:
    def render(self, value):
        if value is True:
            return "true"
        if value is False:
            return "false"
        if value is None:
            return "null"
        if isinstance(value, str):
            return f'"{value}"'
        return repr(value)

    def test_flag_table_matches_the_cli(self):
        text = (PACKAGE_ROOT / "docs" / "config.md").read_text()
        for flag, key in FLAG_KEYS.items():
            row = f"| `--{flag.replace('_', '-')}` | `{key}` |"
            assert row in text, f"docs/config.md is missing {row!r}"
            assert key in CONFIG_DEFAULTS

    def test_reference_table_matches_defaults(self):
        text = (PACKAGE_ROOT / "docs" / "config.md").read_text()
        for key, default in CONFIG_DEFAULTS.items():
            row = f"| `{key}` | `{self.render(default)}` |"
            assert row in text, f"docs/config.md is missing {row!r}"
        for key in REQUIRED_KEYS:
            assert f"| `{key}` |" in text
        table = text.split("## Optional keys and defaults")[1]
        table = table.split("\n## ")[0]
        rows = re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)
        assert sorted(rows) == sorted(CONFIG_DEFAULTS)
