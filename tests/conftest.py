"""Shared helpers: random valid configurations for property tests, and thread and temp-dir leak checks."""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from opridge import (
    EigenDecay,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    make_dataset,
    make_decay,
)


def random_problem_config(rng: np.random.Generator, **overrides) -> ProblemConfig:
    """Draw a valid ProblemConfig, fields overridable."""
    beta = float(rng.uniform(0.2, 0.9))
    gamma = float(rng.uniform(0.0, 0.6))
    fields = {
        "p": float(rng.uniform(0.2, 0.8)),
        "q": float(rng.uniform(0.2, 0.8)),
        "alpha": float(rng.uniform(0.2, 0.8)),
        "beta": beta,
        "beta_prime": float(rng.uniform(0.05 * beta, 0.8 * beta)),
        "gamma": gamma,
        "gamma_prime": float(rng.uniform(gamma + 0.05, 0.97)),
        "B": 1.0,
        "sigma": 0.1,
        "c0": 1.0,
        "d_in": 16,
        "d_out": 16,
        "seed": int(rng.integers(0, 2**32)),
    }
    fields.update(overrides)
    return ProblemConfig(**fields)


def random_decay(rng: np.random.Generator, dim: int) -> EigenDecay:
    """Strictly decreasing positive values."""
    base = np.sort(rng.uniform(0.05, 2.0, size=dim))[::-1]
    # Enforce strict decrease even under unlucky ties.
    values = base * np.exp(-1e-6 * np.arange(dim))
    return EigenDecay(values=values)


def drawn_inputs(n: int, in_decay: EigenDecay, rng_seed: int) -> np.ndarray:
    """The input rows of a dataset with d_out = 1."""
    op = OperatorMatrix(np.zeros((1, len(in_decay))), in_decay, make_decay(1, 0.5))
    return make_dataset(op, n, NoiseProfile(sigma=0.0), rng_seed)[0]


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with more live threads than it started with.

    A sweep's process pool runs a thread that manages its workers, which
    must be joined by the time the sweep returns, however it ended.
    """
    before = set(threading.enumerate())
    yield
    after = threading.enumerate()
    if len(after) > len(before):
        new = sorted(t.name for t in after if t not in before)
        pytest.fail(f"{len(after) - len(before)} more live thread(s) than at the start: {new}")


@pytest.fixture(autouse=True)
def no_temp_dir_left_behind():
    """Fail a test that leaves a new opridge-* entry in the temporary directory.

    A sweep hands its ground truth to the workers in such a directory,
    which it must remove however it ended.
    """
    tmp = Path(tempfile.gettempdir())
    before = set(tmp.glob("opridge-*"))
    yield
    new = sorted(str(p) for p in set(tmp.glob("opridge-*")) - before)
    if new:
        pytest.fail(f"temporary entries left behind: {new}")
