from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scenofuzz import bridge, simulator
from scenofuzz.lanemap import bundled_map_names, load_bundled_map, route


@pytest.fixture
def step_memo():
    """The simulator's ego step memo, emptied so each test sees its own
    stores."""
    simulator._ego_steps.clear()
    return simulator._ego_steps


@pytest.fixture
def guide_memo():
    """The reference agent's route guidance memo, emptied so each test sees
    its own stores."""
    bridge._guides.clear()
    return bridge._guides


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
