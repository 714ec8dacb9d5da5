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
        with np.errstate(over="ignore", invalid="ignore"):
            weights = d2 ** (-POWER / 2.0)
            estimate = float((weights * self.values).sum() / weights.sum())
        if not np.isfinite(estimate):  # a site so near its weight overflowed
            weights = (d2[nearest] / d2) ** (POWER / 2.0)
            estimate = float((weights * self.values).sum() / weights.sum())
        return estimate


def _measure(prototype) -> tuple[float, float]:
    """``(unit, spacing)`` for distances measured in ``unit``: 1.0, or past
    a gene span of 2**256 the power of two that brings every span under 1, so
    no squared distance overflows.  A power of two scales without rounding."""
    low, high = prototype.bounds
    span = np.subtract(high, low)
    widest = span.max(initial=0.0)
    unit = 1.0 if widest <= 2.0 ** 256 else 2.0 ** -np.frexp(widest)[1]
    return unit, SPACING_FRACTION * float(np.linalg.norm(span * unit))


def _inner_search(rng, prototype, surrogate, incumbent, unit):
    """Minimize the surrogate with a small GA; returns (vector, prediction)
    pairs for everything it visited."""
    population = [incumbent] + [sample_uniform(rng, prototype)
                                for _ in range(INNER_POPULATION - 1)]
    visited = []

    def predict_all(vectors):
        preds = [surrogate.predict(np.multiply(v.values, unit))
                 for v in vectors]
        visited.extend(zip(vectors, preds))
        return preds

    fitnesses = predict_all(population)
    for _ in range(INNER_GENERATIONS):
        children = breed(rng, population, fitnesses, INNER_PM, INNER_PC,
                         INNER_POPULATION)
        merged = sorted(zip([*population, *children],
                            [*fitnesses, *predict_all(children)]),
                        key=lambda pair: pair[1])
        population, fitnesses = zip(*merged[:INNER_POPULATION])
    return visited


def _diverse_proposals(visited, count, min_spacing, unit):
    """Best-predicted candidates kept mutually at least min_spacing apart."""
    chosen = []
    for vector, _ in sorted(visited, key=lambda pair: pair[1]):
        arr = np.multiply(vector.values, unit)
        if all(np.linalg.norm(arr - np.multiply(c.values, unit)) >=
               min_spacing for c in chosen):
            chosen.append(vector)
            if len(chosen) == count:
                break
    return chosen


def run(ctx, params: dict) -> None:
    pool = params["surrogate_pool"]
    unit, spacing = _measure(ctx.prototype)

    dataset_x: list[tuple] = []
    dataset_y: list[float] = []

    def record(vectors, feedbacks):
        for vec, fb in zip(vectors, feedbacks):
            dataset_x.append(vec.values)
            dataset_y.append(fb.fitness)

    bootstrap = [sample_uniform(ctx.rng, ctx.prototype) for _ in range(pool)]
    record(bootstrap, ctx.evaluate_batch(bootstrap))

    while True:
        batch = []
        # a surrogate over one distinct fitness has no slope to follow
        if len(dataset_y) > 1 and max(dataset_y) != min(dataset_y):
            surrogate = IdwSurrogate(np.multiply(dataset_x, unit), dataset_y)
            best_idx = int(np.argmin(dataset_y))
            incumbent = ctx.prototype.with_values(dataset_x[best_idx])
            visited = _inner_search(ctx.rng, ctx.prototype, surrogate,
                                    incumbent, unit)
            batch = _diverse_proposals(visited, PROPOSALS, spacing, unit)
        while len(batch) < PROPOSALS:
            batch.append(sample_uniform(ctx.rng, ctx.prototype))
        record(batch, ctx.evaluate_batch(batch))
