"""Genetic fuzzing with a fine-grained local phase around stagnant optima.

A small steady-state GA minimizes the trace fitness (closest approach to the
ego).  When the global best has not improved for several generations, the
search drops into a local phase: the population restarts around the incumbent
best and mutates with a much smaller step, spending a fixed slice of the
budget before returning to the global loop.
"""

from __future__ import annotations

from .operators import breed, mutate_gaussian, sample_uniform

STAGNATION_GENERATIONS = 5
GLOBAL_SIGMA = 0.10
LOCAL_SIGMA = 0.025


def local_share(params: dict, max_evaluations: int | None) -> float:
    """The local_run_hour share of the campaign's evaluations, counted so
    the schedule never reads a clock.

    A wall budget of run_hour hours counts as run_hour * 3600 evaluations.
    """
    run_hour = params["run_hour"]
    total = max_evaluations
    if total is None:
        total = run_hour * 3600.0
    return params["local_run_hour"] / run_hour * total


def _best(population, fitnesses):
    idx = min(range(len(population)), key=lambda k: (fitnesses[k], k))
    return population[idx], fitnesses[idx]


def run(ctx, params: dict) -> None:
    pop_size = params["population_size"]
    if pop_size < 2:
        # a population of one breeds no children, so no generation spends
        # budget and the loop never ends; an empty one has no best member
        raise ValueError(f"population_size must be >= 2, got {pop_size}")
    pm = params["pm"]
    pc = params["pc"]
    local_budget = max(pop_size, round(local_share(
        params, ctx.budget.max_evaluations)))

    population = [sample_uniform(ctx.rng, ctx.prototype)
                  for _ in range(pop_size)]
    fitnesses = [f.fitness for f in ctx.evaluate_batch(population)]
    best_vec, best_fit = _best(population, fitnesses)
    stagnation = 0

    while True:
        population, fitnesses = _generation(ctx, population, fitnesses, pm,
                                            pc, GLOBAL_SIGMA)
        gen_vec, gen_fit = _best(population, fitnesses)
        if gen_fit < best_fit:
            best_vec, best_fit = gen_vec, gen_fit
            stagnation = 0
        else:
            stagnation += 1

        if stagnation >= STAGNATION_GENERATIONS:
            local_vec, local_fit = _local_phase(ctx, best_vec, best_fit,
                                                pop_size, pm, pc,
                                                local_budget)
            if local_fit < best_fit:
                best_vec, best_fit = local_vec, local_fit
                worst = max(range(len(population)),
                            key=lambda k: (fitnesses[k], k))
                population[worst] = local_vec
                fitnesses[worst] = local_fit
            stagnation = 0


def _local_phase(ctx, base_vec, base_fit, pop_size, pm, pc, eval_budget):
    """Small-step GA around the incumbent best; returns its best find."""
    seeds = [mutate_gaussian(ctx.rng, base_vec, pm, LOCAL_SIGMA)
             for _ in range(pop_size - 1)]
    seed_fits = [f.fitness for f in ctx.evaluate_batch(seeds)]
    population = [base_vec] + seeds
    fitnesses = [base_fit] + seed_fits
    spent = len(seeds)
    while spent < eval_budget:
        population, fitnesses = _generation(ctx, population, fitnesses, pm,
                                            pc, LOCAL_SIGMA)
        spent += pop_size - 1
    return _best(population, fitnesses)


def _generation(ctx, population, fitnesses, pm, pc, sigma):
    """One GA step: the elite survives, and bred children fill the rest."""
    children = breed(ctx.rng, population, fitnesses, pm, pc,
                     len(population) - 1, sigma)
    child_fits = [f.fitness for f in ctx.evaluate_batch(children)]
    elite_vec, elite_fit = _best(population, fitnesses)
    return [elite_vec] + children, [elite_fit] + child_fits
