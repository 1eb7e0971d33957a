"""Shared helpers: random valid configurations for property and fuzz tests, ground truths
built through GroundTruthSpec, and a thread leak check."""

from __future__ import annotations

import math
import sys
import threading
from typing import Any

import numpy as np
import pytest

from opridge import (
    EigenDecay,
    GroundTruthSpec,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    SourceCoefficients,
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


def _near_either_end(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A point of the open interval (lo, hi): uniform, or within 1e-15 of lo or of hi."""
    end = int(rng.integers(3))
    if end == 0:
        return float(rng.uniform(lo, hi))
    gap = (hi - lo) * 10.0 ** float(rng.uniform(-15.0, 0.0))
    x = lo + gap if end == 1 else hi - gap
    return float(np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo)))  # not an end by rounding


def _scale(rng: np.random.Generator) -> float:
    """0, or log-uniform over 1e-300 to 1e300."""
    return 0.0 if rng.random() < 0.1 else 10.0 ** float(rng.uniform(-300.0, 300.0))


def random_valid_config(rng: np.random.Generator) -> dict[str, Any]:
    """Draw a config file's object whose every field lies in its allowed range.

    Each open interval is approached to within 1e-15 of either end, B and
    sigma are 0 or log-uniform over 1e+-300, c0 log-uniform there, d_in and
    d_out are 1 to 8, and the ground truth is any of the three kinds. The
    config may still be refused as a whole (a decay that underflows, a
    packing block off the grid), which must then be a ConfigError.
    """
    d_in, d_out = (int(d) for d in rng.integers(1, 9, size=2))
    beta = _near_either_end(rng, 0.0, 1.0)  # beta = 0 would leave beta_prime no room
    gamma = 0.0 if rng.random() < 0.1 else _near_either_end(rng, 0.0, 1.0)
    kind = ("random", "laplacian", "packing")[int(rng.integers(3))]
    if kind == "laplacian" and rng.random() < 0.8:  # the kind needs a square grid
        d_out = d_in
    if kind == "random":
        params = {k: float(rng.uniform(-5.0, 5.0)) for k in ("taper_in", "taper_out")
                  if rng.random() < 0.8}
    elif kind == "laplacian":
        params = {"t": int(rng.integers(0, 4)), "scale": float(rng.uniform(-2.0, 2.0))}
    else:
        m1, m2, k = int(rng.integers(1, 5)), int(rng.integers(0, 4)), int(rng.integers(1, 9))
        params = {"m1": m1, "m2": m2, "K": k, "eps": 10.0 ** float(rng.uniform(-6.0, 0.0))}
        if rng.random() < 0.5:
            params["omega"] = rng.integers(0, 2, size=(m1, k)).tolist()
        else:
            params["seed"] = int(rng.integers(0, 2**32))
    n_list = sorted(rng.choice([2, 3, 5, 7, 511, 512, 513, 1000],
                               size=int(rng.integers(1, 4)), replace=False).tolist())
    return {
        "p": _near_either_end(rng, 0.0, 1.0),
        "q": _near_either_end(rng, 0.0, 1.0),
        "alpha": _near_either_end(rng, 0.0, 1.0),
        "beta": beta,
        "beta_prime": _near_either_end(rng, 0.0, beta),
        "gamma": gamma,
        "gamma_prime": _near_either_end(rng, gamma, 1.0),
        "B": _scale(rng),
        "sigma": _scale(rng),
        "c0": 10.0 ** float(rng.uniform(-300.0, 300.0)),
        "d_in": d_in,
        "d_out": d_out,
        "seed": int(rng.integers(0, 2**32)),
        "ground_truth": {"kind": kind, "params": params},
        "n_list": n_list,
    }


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Log-uniform over [lo, hi], positive floats."""
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _extreme(rng: np.random.Generator, hi: float) -> float:
    """0, or log-uniform over 1e-300 to hi."""
    return 0.0 if rng.random() < 0.1 else _log_uniform(rng, 1e-300, hi)


def _signed(rng: np.random.Generator) -> float:
    """Either sign, with a magnitude log-uniform over 1e-3 to 1e300."""
    return float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, 1e-3, 1e300)


# How documented_range_config redraws a ground-truth param at its extremes.
_EXTREME_PARAMS = {
    "taper_in": _signed,
    "taper_out": _signed,
    "t": lambda rng: int(rng.integers(0, 201)),
    "scale": _signed,
    # Near either end of 1e-300 to 1.7e308 on a log scale: about a quarter of the
    # draws put 32 * eps past double range.
    "eps": lambda rng: 10.0 ** _near_either_end(rng, -300.0, math.log10(1.7e308)),
}


def documented_range_config(rng: np.random.Generator) -> dict[str, Any]:
    """Draw a rates config file's object over every documented range, ends included.

    A random_valid_config widened: B is 0 or log-uniform from 1e-300 to
    1.7e308, sigma up to the root of the largest double (its square must be
    finite), d_in and d_out are 1 to 40, n_list is an increasing triple from
    2, around a stream block's end, and trials is 1 or 2. Each number param
    of the ground truth is redrawn at its extremes with probability 0.3: a
    taper or a laplacian scale of either sign up to 1e300, a laplacian t up
    to 200, a packing eps near 1e-300 or 1.7e308.
    """
    obj = random_valid_config(rng)
    d_in, d_out = (int(d) for d in rng.integers(1, 41, size=2))
    if obj["d_in"] == obj["d_out"]:  # mostly a laplacian's square grid
        d_out = d_in
    params = obj["ground_truth"]["params"]
    for key, draw in _EXTREME_PARAMS.items():
        if key in params and rng.random() < 0.3:
            params[key] = draw(rng)
    n_list = sorted(rng.choice([2, 3, 4, 5, 8, 64, 511, 512, 513, 1000, 1024, 1025],
                               size=3, replace=False).tolist())
    obj.update(B=_extreme(rng, 1.7e308), sigma=_extreme(rng, math.sqrt(sys.float_info.max)),
               d_in=d_in, d_out=d_out, n_list=n_list, trials=int(rng.integers(1, 3)))
    return obj


def ground_truth(cfg: ProblemConfig, kind: str = "random", **params: Any) -> OperatorMatrix:
    """cfg's a0 of a ground-truth kind and its params, built through GroundTruthSpec."""
    return GroundTruthSpec(kind, params).build(cfg)


def source_of(a0: OperatorMatrix, beta: float, gamma: float) -> SourceCoefficients:
    """a0's source coefficients under (beta, gamma): operator_from_source undone, to rounding."""
    col_w = a0.input_decay.values ** ((1.0 - beta) / 2.0)
    row_w = a0.output_decay.values ** ((gamma - 1.0) / 2.0)
    return SourceCoefficients(a0.m * col_w[np.newaxis, :] * row_w[:, np.newaxis], beta, gamma)


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
