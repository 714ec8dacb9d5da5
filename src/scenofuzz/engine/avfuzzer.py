"""Genetic fuzzing with a fine-grained local phase around stagnant optima.

A small steady-state GA minimizes the trace fitness (closest approach to the
ego).  When the global best has not improved for several generations, the
search drops into a local phase: the population restarts around the incumbent
best and mutates with a much smaller step, spending a fixed slice of the
budget before returning to the global loop.
"""

from __future__ import annotations

import time

from .operators import breed, mutate_gaussian, sample_uniform

STAGNATION_GENERATIONS = 5
GLOBAL_SIGMA = 0.10
LOCAL_SIGMA = 0.025


def _local_eval_budget(ctx, params: dict, population_size: int) -> int:
    """Evaluation count for one local phase.

    With an evaluation-capped budget the run_hour values act as a ratio, so
    the local slice stays proportional and the schedule stays deterministic.
    """
    run_hour = float(params.get("run_hour", 2.0))
    local_hour = float(params.get("local_run_hour", 0.5))
    if ctx.budget.max_evaluations is not None and run_hour > 0:
        share = int(round(local_hour / run_hour * ctx.budget.max_evaluations))
        return max(population_size, share)
    return max(population_size, int(local_hour * 3600.0))


def _best(population, fitnesses):
    idx = min(range(len(population)), key=lambda k: (fitnesses[k], k))
    return population[idx], fitnesses[idx]


def run(ctx, params: dict) -> None:
    pop_size = int(params.get("population_size", 4))
    if pop_size < 2:
        # a population of one breeds no children, so no generation spends
        # budget and the loop never ends; an empty one has no best member
        raise ValueError(f"population_size must be >= 2, got {pop_size}")
    pm = float(params.get("pm", 0.6))
    pc = float(params.get("pc", 0.6))
    wall_mode = ctx.budget.max_evaluations is None
    local_budget = _local_eval_budget(ctx, params, pop_size)

    population = [sample_uniform(ctx.rng, ctx.prototype)
                  for _ in range(pop_size)]
    fitnesses = [f.fitness for f in ctx.evaluate_batch(population)]
    best_vec, best_fit = _best(population, fitnesses)
    stagnation = 0

    while True:
        children = breed(ctx.rng, population, fitnesses, pm, pc,
                         pop_size - 1, GLOBAL_SIGMA)
        child_fits = [f.fitness for f in ctx.evaluate_batch(children)]
        elite_vec, elite_fit = _best(population, fitnesses)
        population = [elite_vec] + children
        fitnesses = [elite_fit] + child_fits

        gen_vec, gen_fit = _best(population, fitnesses)
        if gen_fit < best_fit:
            best_vec, best_fit = gen_vec, gen_fit
            stagnation = 0
        else:
            stagnation += 1

        if stagnation >= STAGNATION_GENERATIONS:
            local_vec, local_fit = _local_phase(ctx, best_vec, best_fit,
                                                pop_size, pm, pc,
                                                local_budget, wall_mode,
                                                params)
            if local_fit < best_fit:
                best_vec, best_fit = local_vec, local_fit
                worst = max(range(len(population)),
                            key=lambda k: (fitnesses[k], k))
                population[worst] = local_vec
                fitnesses[worst] = local_fit
            stagnation = 0


def _local_phase(ctx, base_vec, base_fit, pop_size, pm, pc, eval_budget,
                 wall_mode, params):
    """Small-step GA around the incumbent best; returns its best find."""
    started = time.monotonic()
    wall_limit = float(params.get("local_run_hour", 0.5)) * 3600.0

    seeds = [mutate_gaussian(ctx.rng, base_vec, pm, LOCAL_SIGMA)
             for _ in range(pop_size - 1)]
    seed_fits = [f.fitness for f in ctx.evaluate_batch(seeds)]
    population = [base_vec] + seeds
    fitnesses = [base_fit] + seed_fits
    spent = len(seeds)

    def done() -> bool:
        if wall_mode:
            return time.monotonic() - started >= wall_limit
        return spent >= eval_budget

    while not done():
        children = breed(ctx.rng, population, fitnesses, pm, pc,
                         pop_size - 1, LOCAL_SIGMA)
        child_fits = [f.fitness for f in ctx.evaluate_batch(children)]
        spent += len(children)
        elite_vec, elite_fit = _best(population, fitnesses)
        population = [elite_vec] + children
        fitnesses = [elite_fit] + child_fits
    return _best(population, fitnesses)
