"""Uniform random search baseline."""

from __future__ import annotations

from .operators import sample_uniform


def run(ctx, params: dict) -> None:
    while True:
        ctx.evaluate_batch([sample_uniform(ctx.rng, ctx.prototype)
                            for _ in range(ctx.workers)])
