"""Synthetic evaluation harness: runs search algorithms against an analytic
fitness landscape with no simulator in the loop.

The context mimics the narrow surface algorithms rely on (``rng``,
``prototype``, ``workers``, ``budget``, ``evaluate_batch``) so sample
efficiency can be measured in microseconds per evaluation.
"""

import math

import numpy as np

from scenofuzz.engine.campaign import BudgetExhausted, CampaignBudget
from scenofuzz.engine.feedback import Feedback
from scenofuzz.scenario import Gene, ParameterVector


def box_prototype(dims: int, low: float = 0.0, high: float = 10.0):
    genes = tuple(Gene("npc_1", "speed", i, low, high) for i in range(dims))
    mid = (low + high) / 2.0
    return ParameterVector((mid,) * dims, genes)


def sphere(target):
    target = np.asarray(target, dtype=float)

    def fn(x):
        return float(np.linalg.norm(np.asarray(x) - target))

    return fn


def plateau(target):
    """The floor of the distance to ``target``: flat terraces on which a
    global search stagnates, so avfuzzer drops into its local phase."""
    distance = sphere(target)

    def fn(x):
        return float(math.floor(distance(x)))

    return fn


class SyntheticContext:
    def __init__(self, prototype, fn, max_evaluations: int, seed: int = 0,
                 workers: int = 1):
        self.prototype = prototype
        self.fn = fn
        self.budget = CampaignBudget(max_evaluations=max_evaluations)
        self.rng = np.random.default_rng(seed)
        self.workers = workers
        self.fitness_log: list[float] = []

    def evaluate_batch(self, vectors):
        out = []
        for vector in vectors:
            if len(self.fitness_log) >= self.budget.max_evaluations:
                raise BudgetExhausted(f"{len(self.fitness_log)} evaluations")
            fitness = self.fn(vector.values)
            self.fitness_log.append(fitness)
            behavior = tuple(float(v) % 1.0 for v in vector.values[:24])
            behavior += (0.0,) * (24 - len(behavior))
            out.append(Feedback(fitness=fitness, behavior_vector=behavior,
                                quality_score=1.0 / (1.0 + fitness),
                                outcome="Timeout", time_of_decision=0.0))
        return out

    def first_hit(self, threshold: float):
        """Index of the first evaluation at or under threshold, or None."""
        for i, fit in enumerate(self.fitness_log):
            if fit <= threshold:
                return i
        return None
