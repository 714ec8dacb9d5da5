"""Uniform random search baseline."""

from __future__ import annotations

from .operators import sample_uniform


def run(ctx, params: dict) -> None:
    batch_size = max(1, params["batch_size"] or ctx.workers)
    while True:
        batch = [sample_uniform(ctx.rng, ctx.prototype)
                 for _ in range(batch_size)]
        ctx.evaluate_batch(batch)
