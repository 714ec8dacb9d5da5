"""YAML campaign configuration: strict parsing and assembly helpers.

The file has four sections: ``system`` (run management), ``scenario`` (the
ego mission and mutation space), ``scenario_runner`` (execution backend and
agent), and ``testing_engine`` (algorithm and oracles).  Unknown keys are
rejected with the full path to the offending entry so typos fail loudly
instead of silently running defaults.

The document is checked section by section against the key table, and every
value is read through :class:`canonical.Cursor`.  Each error reads
``<dotted key>: <message>``, as in ``scenario_runner.parameters.dt: expected
a number``; a fault of the whole document is named ``config``.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import yaml

from .bridge import AgentSettings, parse_endpoint
from .canonical import Cursor
from .engine.avfuzzer import local_share
from .engine.campaign import (ALGORITHM_DEFAULTS, CampaignBudget,
                              ExecutionSettings, algorithm_registry)
from .engine.template import MissionSpec, build_template
from .lanemap import load_bundled_map
from .runner import OracleConfig
from .scenario import (MAX_TARGET_SPEED, MutationSpace, ScenarioConfig,
                       validate)

log = logging.getLogger(__name__)

# overrides an external agent's endpoint
ENDPOINT_ENV_VAR = "SCENOFUZZ_BRIDGE_ADDR"

BUILTIN_RUNNER = "ApolloSim"
AGENT_TYPES = ("reference", "external")

# Every optional key with its default, addressed by dotted path.  With
# REQUIRED_KEYS this is the whole key set the parser accepts, and each value
# must have its default's type.  A value that lands in a dataclass field
# takes that field's default.  The reference table in docs/config.md is
# generated from the same values and a test keeps the two in sync.
CONFIG_DEFAULTS: dict[str, Any] = {
    "system.debug": False,
    "system.resume": False,
    "system.output_root": "./results",
    "scenario.start_station": 0.0,
    "scenario.end_station": 0.0,
    "scenario.duration_limit": ScenarioConfig.duration_limit,
    **{f"scenario.mutation_space.{f.name}": f.default
       for f in fields(MutationSpace)},
    "scenario_runner.name": BUILTIN_RUNNER,
    "scenario_runner.parameters.container_name": "",
    "scenario_runner.parameters.save_traffic_recording":
        ExecutionSettings.save_traffic_recording,
    "scenario_runner.parameters.worker_pool": 1,
    "scenario_runner.parameters.dt": ExecutionSettings.dt,
    "scenario_runner.parameters.agent.type": "reference",
    "scenario_runner.parameters.agent.endpoint": None,
    **{f"scenario_runner.parameters.agent.{f.name}": f.default
       for f in fields(AgentSettings)},
    **{f"testing_engine.algorithm.parameters.{name}": default
       for name, default in ALGORITHM_DEFAULTS.items()},
    # OracleConfig's fields are the oracle keys with "_" for "."
    **{"testing_engine.oracle." + f.name.replace("_", ".", 1): f.default
       for f in fields(OracleConfig)},
}

REQUIRED_KEYS = (
    "scenario.map_name",
    "scenario.start_lane_id",
    "scenario.end_lane_id",
    "testing_engine.algorithm.name",
)

# A null default makes a key an optional string, except for these, whose
# values are integers when set.
OPTIONAL_INTEGER_KEYS = (
    "testing_engine.algorithm.parameters.max_evaluations",
)

# the most simulation steps, duration_limit / dt, a scenario may take; every
# shipped config takes 300
MAX_STEPS = 100_000
# the most vectors a population, a surrogate's bootstrap or a batch may hold,
# and the most workers: search builds them all before the budget is checked
MAX_POPULATION = 10_000

# Each (key, op, bound) requires ``value <op> bound`` of a set value; a bound
# that is a key stands for that key's value.
BOUNDS = (
    ("scenario.mutation_space.speed_low", ">=", 0),
    ("scenario.mutation_space.speed_high", "<=", MAX_TARGET_SPEED),
    ("scenario.mutation_space.speed_low", "<=",
     "scenario.mutation_space.speed_high"),
    ("scenario.mutation_space.offset_limit", ">=", 0),
    # an offset gene spans 2 * offset_limit, which must stay a finite float
    ("scenario.mutation_space.offset_limit", "<=", sys.float_info.max / 2),
    ("scenario.mutation_space.delay_low", ">=", 0),
    ("scenario.mutation_space.delay_low", "<=",
     "scenario.mutation_space.delay_high"),
    ("scenario_runner.parameters.worker_pool", ">=", 1),
    ("scenario_runner.parameters.worker_pool", "<=", MAX_POPULATION),
    ("scenario_runner.parameters.dt", ">", 0),
    ("scenario_runner.parameters.agent.cruise_speed", ">", 0),
    ("testing_engine.algorithm.parameters.max_evaluations", ">=", 1),
    ("testing_engine.algorithm.parameters.population_size", ">=", 2),
    ("testing_engine.algorithm.parameters.population_size", "<=",
     MAX_POPULATION),
    ("testing_engine.algorithm.parameters.run_hour", ">", 0),
    ("testing_engine.algorithm.parameters.local_run_hour", ">=", 0),
    ("testing_engine.algorithm.parameters.pm", ">=", 0),
    ("testing_engine.algorithm.parameters.pm", "<=", 1),
    ("testing_engine.algorithm.parameters.pc", ">=", 0),
    ("testing_engine.algorithm.parameters.pc", "<=", 1),
    ("testing_engine.algorithm.parameters.archive_threshold", ">=", 0),
    ("testing_engine.algorithm.parameters.surrogate_pool", ">=", 1),
    ("testing_engine.algorithm.parameters.surrogate_pool", "<=",
     MAX_POPULATION),
    ("testing_engine.oracle.collision.threshold", ">=", 0),
    ("testing_engine.oracle.destination.tolerance", ">=", 0),
    ("testing_engine.oracle.stuck.speed", ">=", 0),
    ("testing_engine.oracle.stuck.duration", ">", 0),
)
_OPERATORS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}
_MERGE_TAG = "tag:yaml.org,2002:merge"


class ConfigError(ValueError):
    pass


class UniqueKeys:
    """Loader mixin: a key given twice in one mapping is a YAML error.

    The check runs on the composed document before merge keys (``<<``) are
    expanded, so a mapping's own key may still override a merged one.
    """

    def construct_document(self, node):
        nodes, seen = [node], set()
        for item in nodes:  # grows as the walk goes on
            if id(item) in seen:  # an alias
                continue
            seen.add(id(item))
            if isinstance(item, yaml.SequenceNode):
                nodes.extend(item.value)
            elif isinstance(item, yaml.MappingNode):
                keys = set()
                for key, value in item.value:
                    nodes += (key, value)
                    if not isinstance(key, yaml.ScalarNode) \
                            or key.tag == _MERGE_TAG:
                        continue
                    if (key.tag, key.value) in keys:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"found duplicate key {key.value!r}",
                            key.start_mark)
                    keys.add((key.tag, key.value))
        return super().construct_document(node)


# libyaml's parser when PyYAML has it: the same documents, several times
# faster than the pure-Python one
class ConfigLoader(UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    pass


@dataclass(frozen=True)
class RunConfig:
    map_name: str
    start_lane_id: str
    end_lane_id: str
    algorithm: str
    debug: bool
    resume: bool
    output_root: str
    start_station: float
    end_station: float
    duration_limit: float
    mutation_space: MutationSpace
    runner_name: str
    container_name: str
    save_traffic_recording: bool
    worker_pool: int
    dt: float
    agent_type: str
    agent_endpoint: str | None
    agent: AgentSettings
    algorithm_params: dict
    oracles: OracleConfig


def _key_tree(paths) -> dict:
    """Dotted paths as nested sections; each leaf holds its full path."""
    tree: dict = {}
    for path in paths:
        *sections, leaf = path.split(".")
        node = tree
        for name in sections:
            node = node.setdefault(name, {})
        node[leaf] = path
    return tree


_KEY_TREE = _key_tree([*REQUIRED_KEYS, *CONFIG_DEFAULTS])


def _walk(doc: Any, tree: dict, where: str, overrides: dict,
          values: dict) -> None:
    """Check one section against its key tree and read its leaves.

    ``where`` is the section's dotted path and a ".", or "" for the whole
    document.  Each leaf of ``tree`` is its key's dotted path, so a leaf's
    value is read through a :class:`Cursor` that names it by that path.
    """
    if doc is None:
        doc = {}
    section = where[:-1] or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected a mapping, "
                          f"got {type(doc).__name__}")
    for key in doc:
        if not isinstance(key, str):  # YAML reads a bare on: as True
            raise ConfigError(
                f"{section}: key {key!r} is not a string; quote it (YAML "
                "reads a bare on, off, yes, no or number as another type)")
    unknown = sorted(doc.keys() - tree.keys())
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}: unknown key "
                          f"(known keys: {', '.join(sorted(tree))})")
    for key, path in tree.items():
        if isinstance(path, dict):
            _walk(doc.get(key), path, f"{where}{key}.", overrides, values)
        elif path not in CONFIG_DEFAULTS:  # a required key
            if key not in doc:
                raise ConfigError(f"{path}: required key is missing")
            values[path] = Cursor(doc[key], ConfigError, path).text()
        else:  # typed like its default
            default = CONFIG_DEFAULTS[path]
            value = overrides.get(path, doc.get(key, default))
            kind = int if path in OPTIONAL_INTEGER_KEYS else type(default)
            leaf = Cursor(value, ConfigError, path)
            if value is None and default is None:
                pass  # an optional key left unset
            elif kind is bool:
                if not isinstance(value, bool):
                    raise leaf.fail("expected true or false")
            elif kind is int:
                value = leaf.integer()
            elif kind is float:  # -0.0 reads as 0.0, which numpy's ranges take
                value = leaf.number() + 0.0
            elif not isinstance(value, str):
                raise leaf.fail("expected a string")
            values[path] = value


def _section(values: dict, prefix: str) -> dict:
    """The values under ``prefix``, keyed by their path below it."""
    start = len(prefix) + 1
    return {path[start:]: value for path, value in values.items()
            if path.startswith(prefix + ".")}


def parse_config(doc: Any, overrides: dict | None = None) -> RunConfig:
    """Check ``doc`` against the key table and build the run config.

    ``overrides`` maps table keys to values that replace the document's;
    they go through the same checks.  A key without a default cannot be
    overridden.
    """
    overrides = overrides or {}
    for key in overrides:
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{key}: not an optional config key, so it "
                              "cannot be overridden")
    values: dict[str, Any] = {}
    _walk(doc, _KEY_TREE, "", overrides, values)

    algorithm = values["testing_engine.algorithm.name"]
    registry = algorithm_registry()
    if algorithm not in registry:
        raise ConfigError(
            f"testing_engine.algorithm.name: unknown algorithm {algorithm!r}; "
            f"expected one of {', '.join(sorted(registry))}")

    runner_name = values["scenario_runner.name"]
    if runner_name != BUILTIN_RUNNER:
        raise ConfigError(
            f"scenario_runner.name: unknown runner {runner_name!r}; only "
            f"{BUILTIN_RUNNER!r} is available")
    container = values["scenario_runner.parameters.container_name"]
    if container:
        log.warning("scenario_runner.parameters.container_name=%r is accepted "
                    "for compatibility and ignored: the built-in runner does "
                    "not manage containers", container)
    for key, op, bound in BOUNDS:
        value = values[key]
        if isinstance(bound, str):
            limit = values[bound]
        else:
            limit, bound = bound, f"{bound:g}"
        if value is not None and not _OPERATORS[op](value, limit):
            raise ConfigError(f"{key}: must be {op} {bound}")
    steps = values["scenario.duration_limit"] / \
        values["scenario_runner.parameters.dt"]
    if steps > MAX_STEPS:
        raise ConfigError(
            f"scenario.duration_limit: must be <= {MAX_STEPS} steps of "
            f"scenario_runner.parameters.dt, got {steps:g}")
    params = {name: value for name, value in _section(
        values, "testing_engine.algorithm.parameters").items()
        if value is not None}
    try:
        share = local_share(params, params.get("max_evaluations"))
    except OverflowError:  # a max_evaluations too large for a float
        share = math.inf
    if not math.isfinite(share):
        raise ConfigError(
            "testing_engine.algorithm.parameters.local_run_hour: "
            "local_run_hour / run_hour * evaluations must be finite")
    agent_prefix = "scenario_runner.parameters.agent"
    agent = _section(values, agent_prefix)
    agent_type = agent.pop("type")
    agent_endpoint = agent.pop("endpoint")
    if agent_type not in AGENT_TYPES:
        raise ConfigError(f"{agent_prefix}.type: expected one of "
                          f"{', '.join(AGENT_TYPES)}")
    oracles = {name.replace(".", "_"): value for name, value
               in _section(values, "testing_engine.oracle").items()}

    return RunConfig(
        map_name=values["scenario.map_name"],
        start_lane_id=values["scenario.start_lane_id"],
        end_lane_id=values["scenario.end_lane_id"],
        algorithm=algorithm,
        debug=values["system.debug"],
        resume=values["system.resume"],
        output_root=values["system.output_root"],
        start_station=values["scenario.start_station"],
        end_station=values["scenario.end_station"],
        duration_limit=values["scenario.duration_limit"],
        mutation_space=MutationSpace(
            **_section(values, "scenario.mutation_space")),
        runner_name=runner_name,
        container_name=container,
        save_traffic_recording=values[
            "scenario_runner.parameters.save_traffic_recording"],
        worker_pool=values["scenario_runner.parameters.worker_pool"],
        dt=values["scenario_runner.parameters.dt"],
        agent_type=agent_type,
        agent_endpoint=agent_endpoint,
        agent=AgentSettings(**agent),
        algorithm_params=params,
        oracles=OracleConfig(**oracles),
    )


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read and parse a config file; ``overrides`` as in :func:`parse_config`."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:  # YAML decodes the bytes, so a bad encoding is a YAMLError too
        doc = yaml.load(data, Loader=ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    return parse_config(doc, overrides)


def build_execution(config: RunConfig):
    """Resolve a parsed config into engine inputs.

    Returns ``(settings, budget, algorithm_params)``.
    """
    lane_map = load_bundled_map(config.map_name)
    mission = MissionSpec(config.map_name, config.start_lane_id,
                          config.start_station, config.end_lane_id,
                          config.end_station, config.duration_limit)
    template = build_template(lane_map, mission)
    problems = validate(template, lane_map)
    if problems:
        raise ConfigError("scenario: " + "; ".join(
            f"{v.code}({v.subject}): {v.message}" for v in problems))

    endpoint_key = "scenario_runner.parameters.agent.endpoint"
    endpoint = None  # a reference agent runs in process, whatever is set
    if config.agent_type == "external":
        endpoint = os.environ.get(ENDPOINT_ENV_VAR) or config.agent_endpoint
        if endpoint is None:
            raise ConfigError(f"{endpoint_key}: an external agent needs an "
                              f"endpoint here or in {ENDPOINT_ENV_VAR}")
        try:
            parse_endpoint(endpoint)
        except ValueError as exc:
            source = ENDPOINT_ENV_VAR if os.environ.get(ENDPOINT_ENV_VAR) \
                else endpoint_key
            raise ConfigError(f"{source}: {exc}") from None

    settings = ExecutionSettings(
        lane_map=lane_map, template=template, space=config.mutation_space,
        oracles=config.oracles, agent=config.agent, dt=config.dt,
        endpoint=endpoint,
        save_traffic_recording=config.save_traffic_recording)

    params = dict(config.algorithm_params)
    max_evals = params.get("max_evaluations")
    if max_evals is not None:
        budget = CampaignBudget(max_evaluations=max_evals)
    else:
        budget = CampaignBudget(
            wall_seconds=params["run_hour"] * 3600.0)
    return settings, budget, params
