"""Surrogate-assisted search: cheap inner optimization, few real evaluations.

Every simulated scenario feeds a dataset of (parameter vector, fitness)
pairs.  An inverse-distance-weighting surrogate interpolates that dataset; a
throwaway genetic search then minimizes the surrogate (thousands of predicted
evaluations, zero simulations) and proposes a small, mutually distant batch
of candidates for real evaluation.  The surrogate is exact at its data sites
and bounded by the observed fitness range, so it can redirect but never
invent values outside what has been seen.
"""

from __future__ import annotations

import numpy as np

from .operators import breed, sample_uniform

INNER_POPULATION = 20
INNER_GENERATIONS = 10
INNER_PM = 0.5
INNER_PC = 0.9
PROPOSALS = 4
SPACING_FRACTION = 0.05  # of the search-space diagonal
POWER = 2.0              # inverse-distance weighting exponent


class IdwSurrogate:
    """Inverse-distance-weighted interpolation over evaluated vectors."""

    def __init__(self, sites, values):
        self.sites = np.atleast_2d(np.asarray(sites, dtype=float))
        self.values = np.asarray(values, dtype=float)
        if len(self.sites) != len(self.values) or len(self.values) == 0:
            raise ValueError("sites and values must align and be non-empty")

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float)
        d2 = ((self.sites - x) ** 2).sum(axis=1)
        nearest = int(np.argmin(d2))
        if d2[nearest] == 0.0:
            return float(self.values[nearest])
        weights = d2 ** (-POWER / 2.0)
        return float((weights * self.values).sum() / weights.sum())


def _space_diagonal(prototype) -> float:
    low, high = prototype.bounds
    return float(np.linalg.norm(np.array(high) - np.array(low)))


def _inner_search(rng, prototype, surrogate, incumbent):
    """Minimize the surrogate with a small GA; returns (vector, prediction)
    pairs for everything it visited."""
    population = [incumbent] + [sample_uniform(rng, prototype)
                                for _ in range(INNER_POPULATION - 1)]
    visited = []

    def predict_all(vectors):
        preds = [surrogate.predict(v.values) for v in vectors]
        visited.extend(zip(vectors, preds))
        return preds

    fitnesses = predict_all(population)
    for _ in range(INNER_GENERATIONS):
        children = breed(rng, population, fitnesses, INNER_PM, INNER_PC,
                         INNER_POPULATION)
        child_fits = predict_all(children)
        merged = list(zip(population, fitnesses)) + list(zip(children, child_fits))
        merged.sort(key=lambda pair: pair[1])
        population = [v for v, _ in merged[:INNER_POPULATION]]
        fitnesses = [f for _, f in merged[:INNER_POPULATION]]
    return visited


def _diverse_proposals(visited, count, min_spacing):
    """Best-predicted candidates kept mutually at least min_spacing apart."""
    chosen = []
    for vector, _ in sorted(visited, key=lambda pair: pair[1]):
        arr = np.array(vector.values)
        if all(np.linalg.norm(arr - np.array(c.values)) >= min_spacing
               for c in chosen):
            chosen.append(vector)
            if len(chosen) == count:
                break
    return chosen


def run(ctx, params: dict) -> None:
    pool = params["surrogate_pool"]
    spacing = SPACING_FRACTION * _space_diagonal(ctx.prototype)

    dataset_x: list[tuple] = []
    dataset_y: list[float] = []

    def record(vectors, feedbacks):
        for vec, fb in zip(vectors, feedbacks):
            dataset_x.append(vec.values)
            dataset_y.append(fb.fitness)

    bootstrap = [sample_uniform(ctx.rng, ctx.prototype) for _ in range(pool)]
    record(bootstrap, ctx.evaluate_batch(bootstrap))

    while True:
        degenerate = len(dataset_y) < 2 or max(dataset_y) == min(dataset_y)
        if degenerate:
            batch = [sample_uniform(ctx.rng, ctx.prototype)
                     for _ in range(PROPOSALS)]
        else:
            surrogate = IdwSurrogate(dataset_x, dataset_y)
            best_idx = int(np.argmin(dataset_y))
            incumbent = ctx.prototype.with_values(dataset_x[best_idx])
            visited = _inner_search(ctx.rng, ctx.prototype, surrogate,
                                    incumbent)
            batch = _diverse_proposals(visited, PROPOSALS, spacing)
            while len(batch) < PROPOSALS:
                batch.append(sample_uniform(ctx.rng, ctx.prototype))
        record(batch, ctx.evaluate_batch(batch))
