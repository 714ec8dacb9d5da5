from __future__ import annotations

import contextlib
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scenofuzz import bridge, canonical, runner, simulator
from scenofuzz.bridge import AgentSettings
from scenofuzz.engine import campaign
from scenofuzz.engine.template import MissionSpec, build_template
from scenofuzz.lanemap import bundled_map_names, load_bundled_map, route


@pytest.fixture
def step_memo():
    """The simulator's step memo of ego steps and parked states, emptied
    so each test sees its own stores."""
    simulator._steps.clear()
    return simulator._steps


# The slots each value class keeps besides its fields, shadowed by
# ``caches_off``.
SLOTS = {simulator.ActorState: ("_text", "_guide", "_next", "_reply"),
         bridge.ControlMessage: ("_frame",)}


@pytest.fixture
def caches_off():
    """A context manager under which every same-bytes cache misses: each
    lookup is patched to find nothing, while stores go on as before.

    - the canonical encoder's float memo (``canonical._float_text``);
    - the actor ``_text`` and ``_next`` slots, the ego ``_guide`` and
      ``_reply`` slots and the control message's ``_frame`` slot, read
      through class properties that shadow the instance slots;
    - the simulator's step memo (``simulator._step``);
    - the mission each ``ExecutionSettings`` builds once, built afresh on
      every read;
    - the campaign's scenario memo, whose key (``CampaignContext._key``) is
      None, so every evaluation is simulated.

    A name it patches that is gone fails the test that asked for it, and so
    does a slot of a fresh state or message that it does not shadow.
    """
    fresh = (simulator.ActorState("ego", "ego", 0.0, 0.0, 0.0),
             bridge.ControlMessage(0.0, simulator.ControlCommand()))
    for obj in fresh:
        slots = set(vars(obj)) - {f.name for f in dataclasses.fields(obj)}
        assert slots == set(SLOTS[type(obj)]), \
            f"{type(obj).__name__} slots {sorted(slots)} are not all shadowed"

    @contextlib.contextmanager
    def off():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(canonical, "_float_text", lambda value: None)
            patch.setattr(simulator, "_step", lambda key: None)
            unfilled = property(lambda obj: None)
            for cls, names in SLOTS.items():
                for name in names:
                    patch.setattr(cls, name, unfilled, raising=False)
            patch.setattr(campaign.ExecutionSettings, "mission", property(
                lambda settings: runner.mission_path(settings.template,
                                                     settings.lane_map)))
            patch.setattr(campaign.CampaignContext, "_key",
                          lambda ctx, document: None)
            yield

    return off


@pytest.fixture(scope="module")
def junction_settings(junction_map):
    """The junction mission the campaign tests search, one settings object
    (and so one mission route) per test module."""
    spec = MissionSpec("borregas_ave_lite", "lane_31", 40.0, "lane_15", 50.0,
                       duration_limit=30.0)
    return campaign.ExecutionSettings(
        lane_map=junction_map, template=build_template(junction_map, spec),
        agent=AgentSettings(fault_ignore_junction_traffic=True))


@pytest.fixture(scope="session")
def chain_map():
    return load_bundled_map("chain_3")


@pytest.fixture(scope="session")
def diamond_map():
    return load_bundled_map("diamond")


@pytest.fixture(scope="session")
def junction_map():
    return load_bundled_map("borregas_ave_lite")


@pytest.fixture(scope="session")
def bundled_missions():
    """``(map, route)`` for each ordered lane pair of each bundled map that
    has a route."""
    missions = []
    for name in bundled_map_names():
        lane_map = load_bundled_map(name)
        for start in sorted(lane_map.lanes):
            for end in sorted(lane_map.lanes):
                try:
                    missions.append((lane_map, route(lane_map, start, end)))
                except ValueError:
                    continue
    return missions
