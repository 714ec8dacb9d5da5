"""Behavior-diversity search: novelty-guided seed scheduling.

Every evaluated scenario yields a 24-dimensional behavior vector.  A scenario
whose behavior sits far from everything in the archive (Euclidean distance
above the admission threshold) becomes both an archive entry and a corpus
seed.  Seeds are scheduled by a rank sum over novelty (more novel first) and
fitness (closer to violation first), and each seed may be mutated only a
bounded number of times before it is retired.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import mutate_gaussian, sample_uniform

ENERGY_CAP = 5


class _Seed:
    __slots__ = ("vector", "fitness", "novelty", "energy", "order")

    def __init__(self, vector, fitness, novelty, order):
        self.vector = vector
        self.fitness = fitness
        self.novelty = novelty
        self.energy = 0
        self.order = order


def _novelty(behavior, archive) -> float:
    if not archive:
        return math.inf
    b = np.asarray(behavior)
    return float(min(np.linalg.norm(b - a) for a in archive))


def _pick_seed(corpus):
    """Rank sum: best novelty rank plus best fitness rank, oldest wins ties."""
    candidates = [s for s in corpus if s.energy < ENERGY_CAP]
    if not candidates:
        return None
    by_novelty = sorted(candidates, key=lambda s: (-s.novelty, s.order))
    by_fitness = sorted(candidates, key=lambda s: (s.fitness, s.order))
    nov_rank = {id(s): i for i, s in enumerate(by_novelty)}
    fit_rank = {id(s): i for i, s in enumerate(by_fitness)}
    return min(candidates,
               key=lambda s: (nov_rank[id(s)] + fit_rank[id(s)], s.order))


def run(ctx, params: dict) -> None:
    threshold = params["archive_threshold"]
    pm = params["pm"]

    archive: list[np.ndarray] = []
    corpus: list[_Seed] = []
    order = 0

    def admit(vector, feedback) -> None:
        nonlocal order
        novelty = _novelty(feedback.behavior_vector, archive)
        if novelty > threshold:
            archive.append(np.asarray(feedback.behavior_vector))
            corpus.append(_Seed(vector, feedback.fitness,
                                min(novelty, 1.0e9), order))
            order += 1

    while True:
        seed = _pick_seed(corpus)
        if seed is None:
            vector = sample_uniform(ctx.rng, ctx.prototype)
        else:
            seed.energy += 1
            vector = mutate_gaussian(ctx.rng, seed.vector, pm)
        admit(vector, ctx.evaluate_batch([vector])[0])
