"""Remote functions and actors the workloads run.

Worker processes import this module by name to unpickle the functions,
so it holds only code that must run inside a worker, plus the policy
math the driver repeats to check the workers' answers.
"""

from __future__ import annotations

import numpy as np

import repro

#: Policy parameter matrix: 512 x 512 float64 = 2 MiB, far above the
#: 64 KiB inline threshold, so every ``put`` of it takes the data plane.
PARAM_SHAPE = (512, 512)


@repro.remote
def inc(x):
    return x + 1


@repro.remote
def spawner(base, children):
    """Fan out ``children`` worker-born tasks and block on all of them."""
    return sum(repro.get([inc.remote(base + i) for i in range(children)]))


def rollout_value(params, seed, steps):
    """A rollout: ``steps`` policy evaluations on a seeded observation."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(PARAM_SHAPE[1])
    for _ in range(steps):
        y = np.tanh(params @ y)
    return y


def fit_value(*rollouts):
    return np.mean(np.stack(rollouts), axis=0)


@repro.remote
def rollout(params, seed, steps):
    return rollout_value(params, seed, steps)


@repro.remote
def fit(*rollouts):
    return fit_value(*rollouts)


def apply_update(params, update):
    """The driver's parameter step after each iteration's fits."""
    return params * 0.99 + 0.01 * update[:, None]


def serve_answer(value):
    return (value * 2654435761 + 7) % 1000003


class Scorer:
    """A serving replica: scores a micro-batch of integer requests."""

    def __call__(self, batch):
        return [serve_answer(v) for v in batch]
