"""Tests for the SVG scenario renderer."""

import dataclasses

import pytest

from scenofuzz.bridge import EgoAgentConfig, InProcessSession, ReferenceEgoAgent
from scenofuzz.runner import (
    COLLISION,
    TIMEOUT,
    mission_path,
    run_scenario,
)
from scenofuzz.geometry import Pose
from scenofuzz.scenario import BodyDims, EgoSpec, ObstacleSpec, ScenarioConfig
from scenofuzz.svg_export import _fmt, render_recording_svg


def chain_scenario(**overrides):
    spec = {
        "scenario_id": "svg_case",
        "map_name": "chain_3",
        "ego": EgoSpec("lane_a", 0.0, "lane_a", 60.0),
        "duration_limit": 8.0,
    }
    spec.update(overrides)
    return ScenarioConfig(**spec)


def reference_session(lane_map, config, **agent_overrides):
    route = mission_path(config, lane_map)

    def factory():
        agent = ReferenceEgoAgent(EgoAgentConfig(route=route,
                                                 **agent_overrides))
        return InProcessSession(lambda: agent)

    return factory


@pytest.fixture(scope="module")
def collision_recording(chain_map):
    config = chain_scenario(obstacles=(
        ObstacleSpec("rock", Pose(30.0, 0.0, 0.0), BodyDims(2.0, 2.0)),))
    session = reference_session(chain_map, config,
                                fault_ignore_obstacles=True)
    recording = run_scenario(config, chain_map, session)
    assert recording.verdict.outcome == COLLISION
    return recording


@pytest.fixture(scope="module")
def timeout_recording(chain_map):
    config = chain_scenario(scenario_id="svg_timeout", duration_limit=2.0)
    session = reference_session(chain_map, config)
    recording = run_scenario(config, chain_map, session)
    assert recording.verdict.outcome == TIMEOUT
    return recording


class TestFormatting:
    def test_fixed_precision(self):
        assert _fmt(1.23456) == "1.23"
        assert _fmt(-7.0) == "-7.00"

    def test_negative_zero_is_normalized(self):
        assert _fmt(-0.0) == "0.00"
        assert _fmt(-0.001) == "0.00"


class TestRendering:
    def test_renders_are_byte_identical(self, collision_recording, chain_map):
        first = render_recording_svg(collision_recording, chain_map)
        second = render_recording_svg(collision_recording, chain_map)
        assert first == second

    def test_document_structure(self, collision_recording, chain_map):
        svg = render_recording_svg(collision_recording, chain_map)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "<title>svg_case: CollisionViolation</title>" in svg
        # one band and one dashed centerline per lane, plus the ego track
        assert svg.count("<polyline") == 2 * len(chain_map.lanes) + 1
        assert "stroke-dasharray" in svg

    def test_collision_marker_present_only_on_collisions(
            self, collision_recording, timeout_recording, chain_map):
        with_marker = render_recording_svg(collision_recording, chain_map)
        without = render_recording_svg(timeout_recording, chain_map)
        assert "<circle" in with_marker
        assert "<circle" not in without

    @pytest.mark.parametrize("which", ["collision", "timeout"])
    def test_snapshot_cadence(self, which, collision_recording,
                              timeout_recording, chain_map):
        recording = {"collision": collision_recording,
                     "timeout": timeout_recording}[which]
        svg = render_recording_svg(recording, chain_map)
        # one outline per actor, once per second, plus the deciding frame
        snap_times = []
        for frame in recording.frames:
            if not snap_times or frame.sim_time >= snap_times[-1] + 1.0 - 1e-9:
                snap_times.append(frame.sim_time)
        final = recording.frames[-1].sim_time
        if snap_times[-1] != final:
            snap_times.append(final)
        actors_per_frame = len(recording.frames[0].actors)
        assert svg.count("<polygon") == len(snap_times) * actors_per_frame

    def test_empty_recording_rejected(self, collision_recording, chain_map):
        empty = dataclasses.replace(collision_recording, frames=())
        with pytest.raises(ValueError, match="without frames"):
            render_recording_svg(empty, chain_map)
