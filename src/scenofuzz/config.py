"""YAML campaign configuration: strict parsing and assembly helpers.

The file has four sections: ``system`` (run management), ``scenario`` (the
ego mission and mutation space), ``scenario_runner`` (execution backend and
agent), and ``testing_engine`` (algorithm and oracles).  Unknown keys are
rejected with the full path to the offending entry so typos fail loudly
instead of silently running defaults.
"""

from __future__ import annotations

import logging
import operator
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import yaml

from .canonical import finite_number
from .bridge import (ENDPOINT_ENV_VAR, AgentSettings, parse_endpoint,
                     resolve_endpoint)
from .engine.campaign import (ALGORITHM_DEFAULTS, CampaignBudget,
                              ExecutionSettings)
from .engine.template import MissionSpec, build_template
from .lanemap import load_bundled_map
from .runner import OracleConfig
from .scenario import (MAX_TARGET_SPEED, MutationSpace, ScenarioConfig,
                       validate)

log = logging.getLogger(__name__)

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

# A null default makes a key an optional string, except for these two, whose
# values are integers when set.
OPTIONAL_INTEGER_KEYS = (
    "testing_engine.algorithm.parameters.max_evaluations",
    "testing_engine.algorithm.parameters.batch_size",
)

# Each (key, op, bound) requires ``value <op> bound`` of a set value; a bound
# that is a key stands for that key's value.
BOUNDS = (
    ("scenario.mutation_space.speed_low", ">=", 0),
    ("scenario.mutation_space.speed_high", "<=", MAX_TARGET_SPEED),
    ("scenario.mutation_space.speed_low", "<=",
     "scenario.mutation_space.speed_high"),
    ("scenario.mutation_space.offset_limit", ">=", 0),
    ("scenario.mutation_space.delay_low", ">=", 0),
    ("scenario.mutation_space.delay_low", "<=",
     "scenario.mutation_space.delay_high"),
    ("scenario_runner.parameters.worker_pool", ">=", 1),
    ("scenario_runner.parameters.dt", ">", 0),
    ("scenario_runner.parameters.agent.cruise_speed", ">", 0),
    ("testing_engine.algorithm.parameters.max_evaluations", ">=", 1),
    ("testing_engine.algorithm.parameters.population_size", ">=", 2),
    ("testing_engine.algorithm.parameters.run_hour", ">", 0),
    ("testing_engine.algorithm.parameters.local_run_hour", ">=", 0),
    ("testing_engine.algorithm.parameters.batch_size", ">=", 1),
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


class _Node:
    """Cursor over the raw YAML tree that reports path-qualified errors."""

    def __init__(self, doc: Any, path: str = ""):
        self.doc = doc
        self.path = path

    def _where(self, key: str = "") -> str:
        if not self.path and not key:
            return "config"
        return ".".join(p for p in (self.path, key) if p)

    def mapping(self) -> dict:
        if self.doc is None:
            return {}
        if not isinstance(self.doc, dict):
            raise ConfigError(f"{self._where()}: expected a mapping, "
                              f"got {type(self.doc).__name__}")
        return self.doc

    def child(self, key: str) -> "_Node":
        return _Node(self.mapping().get(key), self._where(key))

    def reject_unknown(self, known) -> None:
        mapping = self.mapping()
        for key in mapping:
            if not isinstance(key, str):  # YAML reads a bare on: as True
                raise ConfigError(
                    f"{self._where()}: key {key!r} is not a string; quote "
                    "it (YAML reads a bare on, off, yes, no or number as "
                    "another type)")
        unknown = sorted(set(mapping) - set(known))
        if unknown:
            raise ConfigError(f"{self._where(unknown[0])}: unknown key "
                              f"(known keys: {', '.join(sorted(known))})")

    def require(self, key: str) -> str:
        mapping = self.mapping()
        if key not in mapping:
            raise ConfigError(f"{self._where(key)}: required key is missing")
        value = mapping[key]
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{self._where(key)}: expected a non-empty "
                              "string")
        return value

    def get(self, key: str, path: str, overrides: dict) -> Any:
        """The value of table key ``path``, typed like its default."""
        default = CONFIG_DEFAULTS[path]
        value = overrides.get(path, self.mapping().get(key, default))
        if value is None and default is None:
            return None
        if path in OPTIONAL_INTEGER_KEYS:
            default = 0
        where = self._where(key)
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{where}: expected true or false")
            return value
        if isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{where}: expected an integer")
            return value
        if isinstance(default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{where}: expected a number")
            number = finite_number(value)
            if number is None:
                raise ConfigError(f"{where}: expected a finite number")
            return number
        if isinstance(default, str) or default is None:
            if not isinstance(value, str):
                raise ConfigError(f"{where}: expected a string")
            return value
        raise ConfigError(f"{where}: unsupported value")  # pragma: no cover


def _walk(node: _Node, tree: dict, overrides: dict, values: dict) -> None:
    node.reject_unknown(tree)
    for key, entry in tree.items():
        if isinstance(entry, dict):
            _walk(node.child(key), entry, overrides, values)
        elif entry in CONFIG_DEFAULTS:
            values[entry] = node.get(key, entry, overrides)
        else:
            values[entry] = node.require(key)


def _section(values: dict, prefix: str) -> dict:
    """The values under ``prefix``, keyed by their path below it."""
    start = len(prefix) + 1
    return {path[start:]: value for path, value in values.items()
            if path.startswith(prefix + ".")}


def parse_config(doc: Any, overrides: dict | None = None) -> RunConfig:
    """Check ``doc`` against the key table and build the run config.

    ``overrides`` maps table keys to values that replace the document's;
    they go through the same checks.
    """
    values: dict[str, Any] = {}
    _walk(_Node(doc), _KEY_TREE, overrides or {}, values)

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
    agent_prefix = "scenario_runner.parameters.agent"
    agent = _section(values, agent_prefix)
    agent_type = agent.pop("type")
    agent_endpoint = agent.pop("endpoint")
    if agent_type not in AGENT_TYPES:
        raise ConfigError(f"{agent_prefix}.type: expected one of "
                          f"{', '.join(AGENT_TYPES)}")
    params = {name: value for name, value in _section(
        values, "testing_engine.algorithm.parameters").items()
        if value is not None}
    oracles = {name.replace(".", "_"): value for name, value
               in _section(values, "testing_engine.oracle").items()}

    return RunConfig(
        map_name=values["scenario.map_name"],
        start_lane_id=values["scenario.start_lane_id"],
        end_lane_id=values["scenario.end_lane_id"],
        algorithm=values["testing_engine.algorithm.name"],
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
    endpoint = resolve_endpoint(
        config.agent_endpoint if config.agent_type == "external" else None)
    if config.agent_type == "external" and endpoint is None:
        raise ConfigError(f"{endpoint_key}: an external agent needs an "
                          f"endpoint here or in {ENDPOINT_ENV_VAR}")
    if endpoint is not None:
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
