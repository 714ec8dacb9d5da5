"""Seeded fuzz of the recording reader's and the scenario reader's
boundaries.

A campaign of a shipped config writes one recording; each case mutates
it, either structurally (a key deleted or added, or a value swapped for an
odd one) or byte by byte, and reads it back.  The property: ``read_recording``
raises only ``RecordingFormatError``, with a message after the path, or
accepts; and a recording it accepts that has frames goes through
``compute_feedback`` and ``render_recording_svg`` with no exception.

The scenario template of the same config is mutated structurally in the
same way.  The property: ``from_cursor``, the reader of the scenario inside
a recording, raises only its cursor's error (``DocumentError`` here), with a
message, or accepts; ``validate`` lists the problems of a scenario it
accepts without raising, the same problems in the same order as the
two-pass reference in ``oracles``; and a scenario with none runs through
``run_scenario`` with no exception.

The config's bundled map document is mutated the same way.  The property:
``load_map_document`` raises only ``MapFormatError`` or accepts, and a map
it accepts builds the mission's route and the search template within
``MAP_CASE_SECONDS``, unless the mutation cut the mission's lanes apart.

A perception frame of the config's campaign is mutated the same way.  The
property: ``decode`` raises only ``FrameError``, or the reference agent
steps on the message it decodes with no exception.

Each shipped config is mutated in every way at once: each value deleted
and swapped for each of ``CONFIG_ODD_VALUES``, each ``CONFIG_DEFAULTS`` key
it leaves out set to each of them, and a key added to each mapping, each
case within ``CONFIG_CASE_SECONDS``.  The property:
``load_config`` raises only ``ConfigError``; a config it accepts builds,
or ``build_execution`` refuses it with ``ConfigError`` (a scenario
``validate`` faults) or ``MapFormatError``, and runs a 2-evaluation
campaign with no exception.  Each distinct campaign runs once.

The checkpoint of a short campaign of a shipped config, for behavexplor and
for avfuzzer, is mutated structurally, one of its two files at a time.  The
property: a resume of each case, within ``CHECKPOINT_CASE_SECONDS``, raises
only ``CampaignError``, with a message, or resumes and runs two more
evaluations with no other exception.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import random
import signal
from importlib import resources
from pathlib import Path

import pytest
import yaml

from oracles import validate_in_two_passes
from scenofuzz.bridge import (HEADER, FrameError, InProcessSession,
                              PerceptionMessage, ReferenceEgoAgent, decode,
                              encode)
from scenofuzz.canonical import Cursor
from scenofuzz.config import (CONFIG_DEFAULTS, ConfigError, build_execution,
                              load_config)
from scenofuzz.engine.campaign import (EVALUATIONS_FILE, RECORDINGS_DIR,
                                       STATE_FILE, CampaignBudget,
                                       CampaignContext, CampaignError,
                                       run_campaign)
from scenofuzz.engine.feedback import compute_feedback
from scenofuzz.engine.template import MissionSpec, build_template
from scenofuzz.lanemap import MapFormatError, load_map_document
from scenofuzz.runner import RecordingFormatError, read_recording, run_scenario
from scenofuzz.scenario import from_cursor, to_document, validate
from scenofuzz.svg_export import render_recording_svg

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SEED = 17
STRUCTURAL_CASES = 1500
BYTE_CASES = 500
SCENARIO_CASES = 3000
MAP_CASES = 1000
MAP_CASE_SECONDS = 2.0  # a bundled-map template builds in milliseconds
FRAME_CASES = 2000

# what a value may be swapped for
ODD_VALUES = (None, True, False, 0, -0.0, 1e308, -1e308, 5e-324, "", [], {},
              2**70)
# what a config value is swapped for: ODD_VALUES less the ones the config
# parser takes alike (False as True, {} as [], -1e308 as -0.0)
CONFIG_ODD_VALUES = (None, True, 0, -0.0, 1e308, 5e-324, "", [], 2**70)
CONFIG_CASE_SECONDS = 3.0  # a 2-evaluation campaign takes tens of ms
CHECKPOINT_CASES = 400  # per algorithm; one in four mutates the state file
CHECKPOINT_LOGGED = 6  # evaluations in the checkpoint a case mutates
CHECKPOINT_CASE_SECONDS = 3.0  # a resume takes tens of ms
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """The settings of ``configs/random.yaml`` and the bytes of its first
    evaluation's recording, cut short at 1.5 s so a case reads quickly."""
    config = load_config(CONFIG_DIR / "random.yaml", {
        "testing_engine.algorithm.parameters.max_evaluations": 1,
        "scenario_runner.parameters.worker_pool": 1,
        "scenario.duration_limit": 1.5})
    settings, budget, params = build_execution(config)
    out = tmp_path_factory.mktemp("shipped")
    run_campaign(config.algorithm,
                 CampaignContext(settings, budget, output_dir=out), params)
    data = (out / RECORDINGS_DIR / "eval_000000.record.json").read_bytes()
    return settings, data


def _sites(value):
    """``(container, key)`` for every value below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in list(items):
        yield value, key
        yield from _sites(item)


def mutate_structure(doc, rng: random.Random) -> str:
    container, key = rng.choice(list(_sites(doc)))
    pick = rng.randrange(len(ODD_VALUES) + 2)
    if pick == 0:
        del container[key]
        return f"delete {key!r}"
    if pick == 1:
        if isinstance(container, dict):
            container["fuzz"] = 0
        else:
            container.insert(key, 0)
        return f"add beside {key!r}"
    odd = ODD_VALUES[pick - 2]
    container[key] = copy.deepcopy(odd)
    return f"{key!r} = {odd!r}"


def mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data))
        pick = rng.randrange(3)
        if pick == 0:
            data[at] = rng.randrange(256)
        elif pick == 1:
            del data[at]
        else:
            data.insert(at, rng.choice(b'0123456789.-+eE"{}[],:tnu \xff'))
    return bytes(data)


def check(path: Path, settings, lane_width: float) -> None:
    try:
        recording = read_recording(path)
    except RecordingFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        assert len(str(exc)) > len(f"{path}: ")
        return
    if recording.frames:
        compute_feedback(recording, settings.mission, lane_width)
        render_recording_svg(recording, settings.lane_map)


def test_mutated_recordings_are_refused_or_read_cleanly(shipped, tmp_path):
    settings, data = shipped
    lane_width = settings.lane_map.lane(
        settings.template.ego.start_lane_id).width
    original = json.loads(data)
    rng = random.Random(SEED)
    path = tmp_path / "case.record.json"
    failures = []
    for case in range(STRUCTURAL_CASES + BYTE_CASES):
        if case < STRUCTURAL_CASES:
            doc = copy.deepcopy(original)
            what = mutate_structure(doc, rng)
            path.write_text(json.dumps(doc))
        else:
            what = "bytes"
            path.write_bytes(mutate_bytes(data, rng))
        try:
            check(path, settings, lane_width)
        except Exception as exc:  # every other exception is a finding
            failures.append(f"case {case} ({what}): {exc!r}")
    assert not failures, failures


class DocumentError(ValueError):
    """What the cursor a mutated scenario document is read with raises."""


def check_scenario(doc, settings) -> None:
    try:
        config = from_cursor(Cursor(doc, DocumentError))
    except DocumentError as exc:
        assert str(exc)
        return
    problems = validate(config, settings.lane_map)
    assert problems == validate_in_two_passes(config, settings.lane_map)
    if not problems:
        # the agent a campaign of these settings drives with
        run_scenario(config, settings.lane_map,
                     lambda: InProcessSession(lambda: ReferenceEgoAgent(
                         settings.mission, settings.agent, settings.dt)),
                     settings.oracles, dt=settings.dt)


def test_mutated_scenarios_are_refused_or_run_cleanly(shipped):
    settings, _ = shipped
    original = to_document(settings.template)
    rng = random.Random(SEED)
    failures = []
    for case in range(SCENARIO_CASES):
        doc = copy.deepcopy(original)
        what = mutate_structure(doc, rng)
        try:
            check_scenario(doc, settings)
        except Exception as exc:  # every other exception is a finding
            failures.append(f"case {case} ({what}): {exc!r}")
    assert not failures, failures


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` inside the block once ``seconds`` have passed,
    where the platform has interval timers (elsewhere the block just runs)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def check_map(doc, mission: MissionSpec) -> None:
    try:
        lane_map = load_map_document(doc)
    except MapFormatError as exc:
        assert str(exc)
        return
    try:
        build_template(lane_map, mission)  # routes the mission first
    except ValueError as exc:
        # the mutation deleted one of the mission's lanes or a link on
        # every path between them
        assert "unknown lane id" in str(exc) or "no route" in str(exc), exc


def test_mutated_maps_are_refused_or_build_a_template(shipped):
    settings, _ = shipped
    template = settings.template
    mission = MissionSpec(template.map_name, template.ego.start_lane_id,
                          template.ego.start_station,
                          template.ego.end_lane_id, template.ego.end_station,
                          template.duration_limit)
    name = settings.lane_map.name
    original = json.loads(resources.files("scenofuzz.maps").joinpath(
        f"{name}.json").read_bytes())
    rng = random.Random(SEED)
    failures = []
    for case in range(MAP_CASES):
        doc = copy.deepcopy(original)
        what = mutate_structure(doc, rng)
        try:
            with deadline(MAP_CASE_SECONDS):
                check_map(doc, mission)
        except Exception as exc:  # every other exception is a finding
            failures.append(f"case {case} ({what}): {exc!r}")
    assert not failures, failures


def check_frame(frame: bytes, settings) -> None:
    try:
        message = decode(frame)
    except FrameError as exc:
        assert str(exc)
        return
    if isinstance(message, PerceptionMessage):
        ReferenceEgoAgent(settings.mission, settings.agent,
                          settings.dt).step(message)


def test_mutated_perception_frames_are_refused_or_stepped_cleanly(shipped,
                                                                   tmp_path):
    settings, data = shipped
    path = tmp_path / "shipped.record.json"
    path.write_bytes(data)
    frames = read_recording(path).frames
    # the frame with the most obstacles, as the agent would perceive it
    frame = max(frames, key=lambda f: len(f.actors))
    message = PerceptionMessage(frame.sim_time, frame.actors[0],
                                tuple(frame.actors[1:]))
    original = json.loads(encode(message)[HEADER.size:])
    assert original["obstacles"]
    rng = random.Random(SEED)
    failures = []
    for case in range(FRAME_CASES):
        doc = copy.deepcopy(original)
        what = mutate_structure(doc, rng)
        body = json.dumps(doc).encode("utf-8")
        try:
            check_frame(HEADER.pack(len(body)) + body, settings)
        except Exception as exc:  # every other exception is a finding
            failures.append(f"case {case} ({what}): {exc!r}")
    assert not failures, failures


def config_mutations(original):
    """``(what, doc)`` for every structural mutation of a config document:
    each value deleted and swapped for each of ``CONFIG_ODD_VALUES``, each
    ``CONFIG_DEFAULTS`` key the document leaves out set to each of them (in
    sections made as needed), and a key added to each mapping."""
    for index, (_, key) in enumerate(list(_sites(original))):
        for pick in range(len(CONFIG_ODD_VALUES) + 1):
            doc = copy.deepcopy(original)
            container, _ = list(_sites(doc))[index]
            if pick == 0:
                del container[key]
                yield f"delete {key!r}", doc
            else:
                odd = CONFIG_ODD_VALUES[pick - 1]
                container[key] = copy.deepcopy(odd)
                yield f"{key!r} = {odd!r}", doc
    for path in CONFIG_DEFAULTS:
        *sections, leaf = path.split(".")
        node = original
        for name in sections:
            node = node.get(name) if isinstance(node, dict) else None
        if isinstance(node, dict) and leaf in node:
            continue
        for odd in CONFIG_ODD_VALUES:
            doc = copy.deepcopy(original)
            node = doc
            for name in sections:
                if not isinstance(node.get(name), dict):
                    node[name] = {}
                node = node[name]
            node[leaf] = copy.deepcopy(odd)
            yield f"set {path!r} = {odd!r}", doc
    for index in range(len(_mappings(original))):
        doc = copy.deepcopy(original)
        _mappings(doc)[index]["fuzz"] = 0
        yield f"add 'fuzz' to mapping {index}", doc


def _mappings(doc):
    return [doc] + [container[key] for container, key in _sites(doc)
                    if isinstance(container[key], dict)]


def check_config(path: Path, ran: set) -> None:
    try:
        config = load_config(path)
    except ConfigError as exc:
        assert str(exc)
        return
    # run each distinct campaign once: what an in-memory campaign never
    # reads is left out of the key
    key = repr(dataclasses.replace(config, debug=False, resume=False,
                                   output_root="", container_name=""))
    if key in ran:
        return
    ran.add(key)
    try:
        settings, _, params = build_execution(config)
    except (ConfigError, MapFormatError) as exc:
        assert str(exc)
        return
    ctx = CampaignContext(settings, CampaignBudget(max_evaluations=2),
                          workers=config.worker_pool)
    run_campaign(config.algorithm, ctx, params)
    assert ctx.completed == 2


def test_mutated_configs_are_refused_or_run_cleanly(tmp_path):
    path = tmp_path / "case.yaml"
    ran: set = set()
    failures = []
    cases = 0
    for shipped in sorted(CONFIG_DIR.glob("*.yaml")):
        original = yaml.safe_load(shipped.read_bytes())
        for what, doc in config_mutations(original):
            path.write_text(yaml.dump(doc, Dumper=_DUMPER))
            cases += 1
            try:
                with deadline(CONFIG_CASE_SECONDS):
                    check_config(path, ran)
            except Exception as exc:  # every other exception is a finding
                failures.append(f"{shipped.name} ({what}): {exc!r}")
    assert not failures, failures
    assert cases > 1000 and len(ran) > 100, (cases, len(ran))


def check_resume(out: Path, algorithm: str, settings, params) -> None:
    try:
        ctx = CampaignContext(
            settings, CampaignBudget(max_evaluations=CHECKPOINT_LOGGED + 2),
            seed=SEED, output_dir=out, resume=True)
        run_campaign(algorithm, ctx, params)
    except CampaignError as exc:
        assert str(exc)
        return
    assert ctx.completed == CHECKPOINT_LOGGED + 2


# a behavior near 1e308 overflows behavexplor's novelty distance to inf:
# numpy warns, which is not a fault
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["behavexplor", "avfuzzer"])
def test_mutated_checkpoints_are_refused_or_resume_cleanly(algorithm,
                                                           tmp_path):
    config = load_config(CONFIG_DIR / f"{algorithm}.yaml", {
        "testing_engine.algorithm.parameters.max_evaluations":
            CHECKPOINT_LOGGED,
        "scenario_runner.parameters.worker_pool": 1,
        "scenario_runner.parameters.save_traffic_recording": False,
        "scenario.duration_limit": 1.5})
    settings, budget, params = build_execution(config)
    out = tmp_path / "run"
    run_campaign(algorithm, CampaignContext(settings, budget, seed=SEED,
                                            output_dir=out), params)
    originals = {name: json.loads((out / name).read_bytes())
                 for name in (EVALUATIONS_FILE, STATE_FILE)}
    assert len(originals[EVALUATIONS_FILE]) == CHECKPOINT_LOGGED
    rng = random.Random(SEED)
    failures = []
    for case in range(CHECKPOINT_CASES):
        mutated = STATE_FILE if case % 4 == 0 else EVALUATIONS_FILE
        docs = copy.deepcopy(originals)
        what = mutate_structure(docs[mutated], rng)
        for name, doc in docs.items():
            (out / name).write_text(json.dumps(doc))
        try:
            with deadline(CHECKPOINT_CASE_SECONDS):
                check_resume(out, algorithm, settings, params)
        except Exception as exc:  # every other exception is a finding
            failures.append(f"case {case} ({mutated}: {what}): {exc!r}")
    assert not failures, failures
