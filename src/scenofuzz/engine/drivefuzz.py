"""Driving-quality-guided hill climbing with staged mutation.

The climb maximizes the misbehavior quality score (proximity, harsh pedal and
steering use, route deviation).  Instead of mutating every gene at once, the
mutator rotates through gene groups (target speeds, lateral offsets, spawn
delays), which keeps each accepted step attributable to one kind of change.
A long streak of rejected children triggers a fresh random restart.
"""

from __future__ import annotations

from .operators import mutate_gaussian, sample_uniform

RESTART_AFTER_REJECTS = 10
STAGE_FIELDS = ("speed", "offset", "delay")


def _stages(prototype):
    groups = []
    for fieldname in STAGE_FIELDS:
        idxs = [i for i, g in enumerate(prototype.genes)
                if g.field == fieldname]
        if idxs:
            groups.append(idxs)
    if not groups:
        groups.append(list(range(len(prototype.genes))))
    return groups


def run(ctx, params: dict) -> None:
    pm = params["pm"]
    stages = _stages(ctx.prototype)

    rejects = RESTART_AFTER_REJECTS  # the first pass opens with a sample
    stage = 0

    while True:
        if rejects >= RESTART_AFTER_REJECTS:
            current = sample_uniform(ctx.rng, ctx.prototype)
            quality = ctx.evaluate_batch([current])[0].quality_score
            rejects = 0
        child = mutate_gaussian(ctx.rng, current, pm,
                                gene_indices=stages[stage % len(stages)])
        stage += 1
        feedback = ctx.evaluate_batch([child])[0]
        if feedback.quality_score > quality:
            current = child
            quality = feedback.quality_score
            rejects = 0
        else:
            rejects += 1
