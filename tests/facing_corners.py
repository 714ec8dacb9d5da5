"""Box pairs whose corners face each other along the line of centres.

Rounding lifts the gap between the circumscribed circles of such a pair
above the pair's distance, most of all far from the origin. The contact
checks, the circle bound and the closest-approach fitness are tested on
these pairs.
"""

import math

from scenofuzz.geometry import MAX_COORDINATE
from scenofuzz.simulator import ActorState

THRESHOLD = 0.01  # m; the contact threshold the pairs are set around
FAR_OUT = MAX_COORDINATE - 30.0
# near MAX_COORDINATE a corner rounds by about 1e-9 m
FAR_OUT_STEPS = [k * 1e-9 for k in range(-3, 8)]


def facing_corner_pairs(x0, steps):
    """``(a, b)``: for each of 720 headings, two 4.8 m by 2 m NPCs from
    ``(x0, 0)`` along ``a``'s diagonal, each of ``steps`` beyond the
    threshold apart."""
    length, width = 4.8, 2.0
    centres = math.hypot(length, width) + THRESHOLD
    for step in range(720):
        heading = step * math.pi / 360 - math.pi + 0.001
        diagonal = heading + math.atan2(width, length)
        for apart in steps:
            gap = centres + apart
            x, y = gap * math.cos(diagonal), gap * math.sin(diagonal)
            yield (ActorState("npc_0", "npc", x0, 0.0, heading),
                   ActorState("npc_1", "npc", x0 + x, y, heading))


def circle_gap(a, b):
    """The gap between the circumscribed circles of ``a`` and ``b``: the
    circle bound before its margin."""
    ra = math.hypot(a.length, a.width) / 2.0
    rb = math.hypot(b.length, b.width) / 2.0
    return math.hypot(a.x - b.x, a.y - b.y) - ra - rb
