"""Deterministic SVG rendering of a recorded scenario.

One picture per recording: lane bands with centerlines, the ego trajectory,
actor body outlines sampled once per second, and a marker at the deciding
frame when the verdict is a collision.  Output bytes depend only on the
recording and map, so renders are diffable.
"""

from __future__ import annotations

from .lanemap import LaneMap
from .runner import COLLISION, ScenarioRecording
from .simulator import ActorState, obb_corners

MARGIN = 12.0
SNAPSHOT_EVERY_S = 1.0

LANE_BAND = "#d8dce0"
CENTERLINE = "#9aa0a6"
EGO_COLOR = "#1a73e8"
NPC_COLOR = "#e8710a"
STATIC_COLOR = "#5f6368"
MARKER_COLOR = "#d93025"

ACTOR_COLORS = {"ego": EGO_COLOR, "npc": NPC_COLOR, "static": STATIC_COLOR}


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _pts(points) -> str:
    # y is negated so north is up in screen coordinates
    return " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)


def _bounds(lane_map: LaneMap, recording: ScenarioRecording):
    xs, ys = [], []
    for lane in lane_map.lanes.values():
        for x, y in lane.centerline:
            xs.append(x)
            ys.append(y)
    for frame in recording.frames:
        for actor in frame.actors:
            xs.append(actor.x)
            ys.append(actor.y)
    return (min(xs) - MARGIN, max(xs) + MARGIN,
            min(ys) - MARGIN, max(ys) + MARGIN)


def _snapshot_frames(recording: ScenarioRecording):
    frames = []
    next_t = 0.0
    for frame in recording.frames:
        if frame.sim_time >= next_t - 1e-9:
            frames.append(frame)
            next_t = frame.sim_time + SNAPSHOT_EVERY_S
    if recording.frames and recording.frames[-1] is not frames[-1]:
        frames.append(recording.frames[-1])
    return frames


def _polygon(actor: ActorState, opacity: float) -> str:
    corners = obb_corners(actor.x, actor.y, actor.heading,
                          actor.length, actor.width)
    color = ACTOR_COLORS[actor.kind]
    return (f'<polygon points="{_pts(corners)}" fill="{color}" '
            f'fill-opacity="{_fmt(opacity)}" stroke="{color}" '
            f'stroke-width="0.15"/>')


def render_recording_svg(recording: ScenarioRecording,
                         lane_map: LaneMap) -> str:
    if not recording.frames:
        raise ValueError("cannot render a recording without frames")
    x0, x1, y0, y1 = _bounds(lane_map, recording)
    width = x1 - x0
    height = y1 - y0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(width)} {_fmt(height)}">',
        f'<title>{recording.scenario_id}: {recording.verdict.outcome}'
        f'</title>',
        f'<rect x="{_fmt(x0)}" y="{_fmt(-y1)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    for lane_id in sorted(lane_map.lanes):
        lane = lane_map.lanes[lane_id]
        pts = _pts(lane.centerline)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{LANE_BAND}" '
                     f'stroke-width="{_fmt(lane.width)}" '
                     f'stroke-linecap="butt"/>')
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{CENTERLINE}" stroke-width="0.2" '
                     f'stroke-dasharray="2 2"/>')

    # every frame holds the ego first, as run_scenario writes it and
    # read_recording checks it
    ego_track = [(f.actors[0].x, f.actors[0].y) for f in recording.frames]
    parts.append(f'<polyline points="{_pts(ego_track)}" fill="none" '
                 f'stroke="{EGO_COLOR}" stroke-width="0.4"/>')

    snapshots = _snapshot_frames(recording)
    for i, frame in enumerate(snapshots):
        opacity = 0.15 + 0.55 * (i / max(len(snapshots) - 1, 1))
        for actor in frame.actors:
            parts.append(_polygon(actor, opacity))

    if recording.verdict.outcome == COLLISION:
        ego = recording.frames[-1].actors[0]
        parts.append(f'<circle cx="{_fmt(ego.x)}" cy="{_fmt(-ego.y)}" r="3" '
                     f'fill="none" stroke="{MARKER_COLOR}" '
                     f'stroke-width="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts)
