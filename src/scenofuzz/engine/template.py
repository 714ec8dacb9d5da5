"""Scenario templates: the fixed skeleton that search mutates.

A template pins the ego mission and one NPC slot per lane whose onward path
crosses the mission at a sharp angle.  Search then varies NPC target speeds,
lateral waypoint offsets, spawn delays, and presence within the declared
mutation space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import normalize_angle
from ..lanemap import LaneMap, Route, _stitch, route, sample_route
from ..scenario import EgoSpec, NpcSpec, ScenarioConfig

CONFLICT_DISTANCE = 5.0        # m; onward path must pass this close
CROSSING_ANGLE = math.pi / 4   # rad; relative heading that counts as crossing
ONWARD_PATH_LENGTH = 150.0     # m; how far to chase successors
WAYPOINT_SPACING = 20.0        # m; NPC waypoint sampling step
DEFAULT_NPC_SPEED = 8.0        # m/s; template value before mutation


@dataclass(frozen=True)
class MissionSpec:
    map_name: str
    start_lane_id: str
    start_station: float
    end_lane_id: str
    end_station: float
    duration_limit: float = ScenarioConfig.duration_limit


def onward_route(lane_map: LaneMap, lane_id: str) -> Route:
    """Lane plus greedy successors (lexicographically first, no revisits)."""
    seq = [lane_id]
    total = lane_map.lane(lane_id).length
    while total < ONWARD_PATH_LENGTH:
        nxts = [s for s in sorted(lane_map.lane(seq[-1]).successors)
                if s not in seq]
        if not nxts:
            break
        seq.append(nxts[0])
        total += lane_map.lane(nxts[0]).length
    path = _stitch(lane_map.lanes[lid] for lid in seq)
    return Route(tuple(seq), path)


def _conflict_routes(lane_map: LaneMap, mission: Route):
    """``(lane id, onward route)`` of each lane off the mission whose onward
    path crosses it at a sharp angle, in lane-id order."""
    for lane_id in sorted(lane_map.lanes):
        if lane_id in mission.lane_sequence:
            continue
        onward = onward_route(lane_map, lane_id)
        # a far lane is cheap: min_distance_to skips samples that cannot win
        dist, s_self, s_mission = onward.path.min_distance_to(mission.path)
        if dist > CONFLICT_DISTANCE:
            continue
        relative = normalize_angle(onward.path.heading_at(s_self)
                                   - mission.path.heading_at(s_mission))
        if abs(relative) > CROSSING_ANGLE:
            yield lane_id, onward


def build_template(lane_map: LaneMap, mission_spec: MissionSpec
                   ) -> ScenarioConfig:
    """Template scenario: the skeleton search mutates.

    One NPC per lane off the mission whose onward path crosses it at a sharp
    angle, driving that onward path at a uniform default speed with no spawn
    delay.
    """
    mission = route(lane_map, mission_spec.start_lane_id,
                    mission_spec.end_lane_id)
    npcs = []
    for i, (_, onward) in enumerate(_conflict_routes(lane_map, mission),
                                    start=1):
        waypoints = tuple(sample_route(onward, WAYPOINT_SPACING))
        npcs.append(NpcSpec(
            actor_id=f"npc_{i}",
            waypoints=waypoints,
            target_speeds=(DEFAULT_NPC_SPEED,) * (len(waypoints) - 1),
        ))
    config = ScenarioConfig(
        scenario_id="template",
        map_name=mission_spec.map_name,
        ego=EgoSpec(mission_spec.start_lane_id, mission_spec.start_station,
                    mission_spec.end_lane_id, mission_spec.end_station),
        npc_vehicles=tuple(npcs),
        duration_limit=mission_spec.duration_limit,
    )
    return config
