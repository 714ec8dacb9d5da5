"""The published JSON Schemas describe exactly what the code writes.

A small local validator covers the subset of JSON Schema the documents use,
so the package gains no dependency on a validation library.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from oracles import recording_document
from test_runner import SCHEMA_FAULTS
from scenofuzz.geometry import Pose
from scenofuzz.runner import (RecordingFormatError, read_recording,
                              run_scenario)
from scenofuzz.scenario import (
    BodyDims,
    EgoSpec,
    NpcSpec,
    ObstacleSpec,
    ScenarioConfig,
    to_document,
)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schema"

# Recordings the schema accepts and read_recording refuses, with the fault
# it names: JSON Schema cannot say that the actors of a frame have
# distinct ids.
READER_FAULTS = {
    "repeated-ego": (
        lambda doc: doc["frames"][1]["actors"].append(
            copy.deepcopy(doc["frames"][1]["actors"][0])),
        "/frames/1/actors/3: actor_id 'ego' is repeated"),
    "repeated-npc": (
        lambda doc: doc["frames"][0]["actors"].__setitem__(
            2, copy.deepcopy(doc["frames"][0]["actors"][1])),
        "/frames/0/actors/2: actor_id 'npc_1' is repeated"),
    "width-above-length": (
        lambda doc: doc["frames"][0]["actors"][1].update(length=1.9,
                                                         width=2.0),
        "/frames/0/actors/1: expected width <= length <= 20.0"),
}

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


class MiniValidator:
    """Evaluates the schema subset used here: types, required keys, closed
    objects, const/enum, numeric and length bounds, array lengths and
    leading items, and local or sibling-file references (whose sibling
    keywords apply too)."""

    def __init__(self, path: Path):
        self.directory = path.parent
        self.root = json.loads(path.read_text())

    def _resolve(self, ref: str, root: dict):
        if ref.startswith("#/"):
            node = root
            for part in ref[2:].split("/"):
                node = node[part]
            return node, root
        other = json.loads((self.directory / ref).read_text())
        return other, other

    def validate(self, doc) -> list[str]:
        errors: list[str] = []
        self._check(doc, self.root, self.root, "$", errors)
        return errors

    def _check(self, value, schema, root, path, errors) -> None:
        if "$ref" in schema:
            target, target_root = self._resolve(schema["$ref"], root)
            self._check(value, target, target_root, path, errors)
        kind = schema.get("type")
        if kind is not None and not TYPE_CHECKS[kind](value):
            errors.append(f"{path}: expected {kind}")
            return
        if "const" in schema and value != schema["const"]:
            errors.append(f"{path}: expected constant {schema['const']!r}")
        if "enum" in schema and value not in schema["enum"]:
            errors.append(f"{path}: {value!r} not one of {schema['enum']}")
        if isinstance(value, str) and len(value) < schema.get("minLength", 0):
            errors.append(f"{path}: shorter than minLength")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not math.isfinite(value):
                errors.append(f"{path}: non-finite number")
            if "minimum" in schema and value < schema["minimum"]:
                errors.append(f"{path}: below minimum {schema['minimum']}")
            if "maximum" in schema and value > schema["maximum"]:
                errors.append(f"{path}: above maximum {schema['maximum']}")
            if "exclusiveMinimum" in schema \
                    and value <= schema["exclusiveMinimum"]:
                errors.append(f"{path}: not above "
                              f"{schema['exclusiveMinimum']}")
        if isinstance(value, dict):
            for key in schema.get("required", ()):
                if key not in value:
                    errors.append(f"{path}: missing required key {key!r}")
            properties = schema.get("properties", {})
            if schema.get("additionalProperties", True) is False:
                for key in sorted(set(value) - set(properties)):
                    errors.append(f"{path}: unexpected key {key!r}")
            for key, sub in properties.items():
                if key in value:
                    self._check(value[key], sub, root, f"{path}.{key}",
                                errors)
        if isinstance(value, list):
            if len(value) < schema.get("minItems", 0):
                errors.append(f"{path}: fewer than minItems")
            prefix = schema.get("prefixItems", [])
            for i, item in enumerate(value):  # "items" follows the prefix
                sub = prefix[i] if i < len(prefix) else schema.get("items")
                if sub is not None:
                    self._check(item, sub, root, f"{path}[{i}]", errors)


@pytest.fixture(scope="module")
def scenario_validator():
    return MiniValidator(SCHEMA_DIR / "scenario.schema.json")


@pytest.fixture(scope="module")
def recording_validator():
    return MiniValidator(SCHEMA_DIR / "recording.schema.json")


@pytest.fixture(scope="module")
def full_config():
    return ScenarioConfig(
        scenario_id="schema_case",
        map_name="chain_3",
        ego=EgoSpec("lane_a", 0.0, "lane_a", 60.0),
        npc_vehicles=(
            NpcSpec("npc_1",
                    waypoints=(Pose(20.0, -3.5, 0.0), Pose(90.0, -3.5, 0.0)),
                    target_speeds=(6.0,), spawn_delay=1.5),),
        obstacles=(
            ObstacleSpec("cone", Pose(40.0, 3.0, 0.4), BodyDims(0.5, 0.5)),),
        duration_limit=6.0,
    )


@pytest.fixture(scope="module")
def recording_doc(full_config, chain_map):
    from test_runner import brake_session

    recording = run_scenario(full_config, chain_map, brake_session)
    return recording_document(recording)


class TestScenarioSchema:
    def test_real_document_validates(self, scenario_validator, full_config):
        assert scenario_validator.validate(to_document(full_config)) == []

    def test_schema_keys_track_the_producer(self, scenario_validator,
                                            full_config):
        doc = to_document(full_config)
        schema = scenario_validator.root
        assert set(schema["properties"]) == set(schema["required"]) == set(doc)
        ego = schema["properties"]["ego"]
        assert set(ego["properties"]) == set(ego["required"]) == \
            set(doc["ego"])
        npc = schema["properties"]["npc_vehicles"]["items"]
        assert set(npc["properties"]) == set(npc["required"]) == \
            set(doc["npc_vehicles"][0])
        obstacle = schema["properties"]["obstacles"]["items"]
        assert set(obstacle["properties"]) == set(obstacle["required"]) == \
            set(doc["obstacles"][0])

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("map_name"), "missing required key 'map_name'"),
        (lambda d: d.update(color="red"), "unexpected key 'color'"),
        (lambda d: d.update(schema_version=2), "constant 1"),
        (lambda d: d["ego"].update(start_station="near"), "expected number"),
        (lambda d: d["npc_vehicles"][0].update(kind="pedestrian"),
         "constant 'vehicle'"),
        (lambda d: d["npc_vehicles"][0]["waypoints"][0].pop("heading"),
         "missing required key 'heading'"),
        (lambda d: d["obstacles"][0]["body"].update(length=0.0),
         "not above 0"),
        (lambda d: d.update(duration_limit=-1.0), "not above 0"),
    ])
    def test_corrupted_documents_fail(self, scenario_validator, full_config,
                                      mutate, fragment):
        doc = copy.deepcopy(to_document(full_config))
        mutate(doc)
        errors = scenario_validator.validate(doc)
        assert any(fragment in e for e in errors), errors


class TestRecordingSchema:
    def test_real_document_validates(self, recording_validator,
                                     recording_doc):
        assert recording_validator.validate(recording_doc) == []

    def test_summary_only_document_validates(self, recording_validator,
                                             recording_doc):
        doc = dict(recording_doc, frames=[])
        assert recording_validator.validate(doc) == []

    def test_schema_keys_track_the_producer(self, recording_validator,
                                            recording_doc):
        schema = recording_validator.root
        assert set(schema["properties"]) == set(schema["required"]) == \
            set(recording_doc)
        verdict = schema["properties"]["verdict"]
        assert set(verdict["properties"]) == set(verdict["required"]) == \
            set(recording_doc["verdict"])
        frame = schema["properties"]["frames"]["items"]
        frame_doc = recording_doc["frames"][0]
        assert set(frame["properties"]) == set(frame["required"]) == \
            set(frame_doc)
        command = frame["properties"]["ego_command"]
        assert set(command["properties"]) == set(command["required"]) == \
            set(frame_doc["ego_command"])
        actor = frame["properties"]["actors"]["items"]
        assert set(actor["properties"]) == set(actor["required"]) == \
            set(frame_doc["actors"][0])

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("verdict"), "missing required key 'verdict'"),
        (lambda d: d["verdict"].update(outcome="Exploded"), "not one of"),
        (lambda d: d["frames"][0]["ego_command"].update(brake=1.5),
         "above maximum 1"),
        (lambda d: d["frames"][0]["actors"][0].update(kind="bicycle"),
         "not one of"),
        (lambda d: d["frames"][0]["actors"][0].update(speed=-0.1),
         "below minimum 0"),
        (lambda d: d["config"].pop("ego"), "missing required key 'ego'"),
        (lambda d: d.update(rng_seed=0.5), "expected integer"),
        (lambda d: d.update(schema_version=1), "constant 2"),
    ])
    def test_corrupted_documents_fail(self, recording_validator,
                                      recording_doc, mutate, fragment):
        doc = copy.deepcopy(recording_doc)
        mutate(doc)
        errors = recording_validator.validate(doc)
        assert any(fragment in e for e in errors), errors

    @pytest.mark.parametrize("edit", SCHEMA_FAULTS.values(),
                             ids=list(SCHEMA_FAULTS))
    def test_faults_read_recording_rejects_fail(self, recording_validator,
                                                recording_doc, edit):
        assert recording_validator.validate(recording_doc) == []
        doc = copy.deepcopy(recording_doc)
        edit(doc)
        assert recording_validator.validate(doc) != []

    @pytest.mark.parametrize("edit,message", READER_FAULTS.values(),
                             ids=list(READER_FAULTS))
    def test_reader_only_faults_pass_the_schema(self, recording_validator,
                                                recording_doc, tmp_path, edit,
                                                message):
        doc = copy.deepcopy(recording_doc)
        edit(doc)
        assert recording_validator.validate(doc) == []
        path = tmp_path / "x.record.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RecordingFormatError) as caught:
            read_recording(path)
        assert str(caught.value) == f"{path}: {message}"
