"""Variation operators shared by the search algorithms.

All operators draw from a caller-supplied ``numpy.random.Generator`` so a
campaign's entire random stream is one seeded sequence.  Values are kept
inside their gene bounds by clipping.
"""

from __future__ import annotations

import numpy as np

from ..scenario import ParameterVector

SIGMA_FRACTION = 0.10  # Gaussian mutation step as a fraction of gene range
TOURNAMENT_SIZE = 2


def sample_uniform(rng: np.random.Generator,
                   prototype: ParameterVector) -> ParameterVector:
    low, high = prototype.bounds
    values = rng.uniform(low, high)
    return prototype.with_values(values)


def mutate_gaussian(rng: np.random.Generator, vector: ParameterVector,
                    pm: float, sigma_fraction: float = SIGMA_FRACTION,
                    gene_indices=None) -> ParameterVector:
    """Each selected gene mutates independently with probability ``pm``.

    The step is Gaussian with a standard deviation proportional to the gene's
    range, so a single rate works across speeds, offsets, and delays.
    """
    low = np.array(vector.bounds[0])
    high = np.array(vector.bounds[1])
    values = np.array(vector.values)
    if gene_indices is None:
        eligible = np.ones(len(values), dtype=bool)
    else:
        eligible = np.zeros(len(values), dtype=bool)
        eligible[list(gene_indices)] = True
    flips = rng.random(len(values)) < pm
    chosen = flips & eligible
    steps = rng.normal(0.0, 1.0, len(values)) * sigma_fraction * (high - low)
    values = np.where(chosen, np.clip(values + steps, low, high), values)
    return vector.with_values(values)


def crossover_one_point(rng: np.random.Generator, a: ParameterVector,
                        b: ParameterVector, pc: float):
    """One-point crossover applied with probability ``pc``.

    Returns ``(child_a, child_b, crossed)``; without a crossover the parents
    pass through unchanged and ``crossed`` is False.
    """
    if a.genes != b.genes:
        raise ValueError("cannot cross vectors from different layouts")
    if len(a) < 2 or rng.random() >= pc:
        return a, b, False
    cut = int(rng.integers(1, len(a)))
    child_a = a.with_values(a.values[:cut] + b.values[cut:])
    child_b = b.with_values(b.values[:cut] + a.values[cut:])
    return child_a, child_b, True


def tournament_select(rng: np.random.Generator, population, fitnesses) -> int:
    """Index of the winner: lowest fitness among ``TOURNAMENT_SIZE`` entrants
    drawn with replacement."""
    if len(population) != len(fitnesses) or not population:
        raise ValueError("population and fitnesses must align and be non-empty")
    entrants = rng.integers(0, len(population), size=TOURNAMENT_SIZE)
    best = entrants[0]
    for idx in entrants[1:]:
        if fitnesses[idx] < fitnesses[best]:
            best = idx
    return int(best)


def breed(rng: np.random.Generator, population, fitnesses, pm: float,
          pc: float, count: int, sigma_fraction: float = SIGMA_FRACTION):
    """``count`` children: each pair of tournament winners is crossed over,
    then mutated, ``a`` first and ``b`` only while children are still due."""
    children = []
    while len(children) < count:
        i = tournament_select(rng, population, fitnesses)
        j = tournament_select(rng, population, fitnesses)
        a, b, _ = crossover_one_point(rng, population[i], population[j], pc)
        children.append(mutate_gaussian(rng, a, pm, sigma_fraction))
        if len(children) < count:
            children.append(mutate_gaussian(rng, b, pm, sigma_fraction))
    return children
