"""Bayesian optimization of a black-box objective over a box.

The loop is deliberately plain: scrambled-Sobol initialization, a GP
surrogate refit every iteration, and a candidate pool scored by three
acquisition functions at once (expected improvement, probability of
improvement, and a lower confidence bound).  Instead of committing to one of
them, the next evaluation point is drawn uniformly from the non-dominated set
of the three scores, which keeps exploration alive when any single criterion
collapses.  A trust region around the incumbent halves after every
``PATIENCE`` consecutive non-improving evaluations, down to ``TR_FLOOR`` of
the box, and snaps back to the full box on improvement.

Objective failures (exceptions, non-finite values) score a large finite
penalty, so crashed evaluations stay informative instead of aborting the run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .gp import GpModel, gp_fit, gp_predict_batch
from .params import BoundsBox

PENALTY = 1e9
N_SOBOL, N_PERTURB = 2048, 256  # acquire's pool: Sobol points, incumbent perturbations
KAPPA = 2.0  # exploration weight of the lower confidence bound mu - KAPPA * sd
PATIENCE, TR_FLOOR = 5, 1.0 / 64.0  # see the module docstring
PARETO_CHUNK = 512  # rows per block of pareto_non_dominated's quadratic pass

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class BoResult:
    best_p: np.ndarray
    best_y: float
    observations: list[tuple[np.ndarray, float]]


def _sobol_points(rng: np.random.Generator, n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # imported here: scipy.stats costs most of the package's import time and
    # memory, and planning with given or inferred gains never tunes
    from scipy.stats import qmc

    engine = qmc.Sobol(d=lo.shape[0], scramble=True, seed=int(rng.integers(0, 2**31 - 1)))
    with warnings.catch_warnings():
        # drawing a non power-of-two count is fine here, balance is not needed
        warnings.simplefilter("ignore", UserWarning)
        u = engine.random(n)
    return lo + u * (hi - lo)


def _dominated_by(objs: np.ndarray, row: np.ndarray) -> np.ndarray:
    return (objs >= row).all(axis=1) & (objs > row).any(axis=1)


def pareto_non_dominated(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row (minimization).

    Rows dominated by a per-objective lexicographic minimum (itself always
    Pareto-optimal) are discarded first, which keeps the quadratic pass small
    on typical acquisition pools.
    """
    objs = np.asarray(objectives, dtype=float)
    n, k = objs.shape
    alive = np.ones(n, dtype=bool)
    for lead in range(k):
        keys = tuple(objs[:, (lead + j) % k] for j in range(k - 1, -1, -1))
        champion = int(np.lexsort(keys)[0])
        alive &= ~_dominated_by(objs, objs[champion])
        alive[champion] = True
    idx = np.flatnonzero(alive)
    sub = objs[idx]
    m = sub.shape[0]
    keep = np.ones(m, dtype=bool)
    for s in range(0, m, PARETO_CHUNK):
        block = sub[s : s + PARETO_CHUNK]
        le = np.ones((block.shape[0], m), dtype=bool)
        lt = np.zeros((block.shape[0], m), dtype=bool)
        for j in range(k):
            col = sub[:, j]
            bc = block[:, j][:, None]
            le &= col[None, :] <= bc
            lt |= col[None, :] < bc
        keep[s : s + PARETO_CHUNK] = ~(le & lt).any(axis=1)
    mask = np.zeros(n, dtype=bool)
    mask[idx[keep]] = True
    return mask


def acquire(
    model: GpModel,
    bounds: BoundsBox,
    rng: np.random.Generator,
    tr_scale: float = 1.0,
) -> np.ndarray:
    """Pick the next evaluation point from a Sobol pool in the trust region
    plus Gaussian perturbations of the incumbent, via a uniform draw from the
    EI/PI/LCB non-dominated set."""
    x_best, y_best = model.incumbent
    widths = bounds.widths
    if tr_scale >= 1.0:
        lo, hi = bounds.low, bounds.high
    else:
        lo = np.maximum(bounds.low, x_best - 0.5 * tr_scale * widths)
        hi = np.minimum(bounds.high, x_best + 0.5 * tr_scale * widths)
    pool = _sobol_points(rng, N_SOBOL, lo, hi)
    jitter = x_best + rng.normal(0.0, 0.1 * widths, size=(N_PERTURB, widths.shape[0]))
    cands = np.vstack([pool, np.clip(jitter, bounds.low, bounds.high)])

    mu, sd = gp_predict_batch(model, cands)
    sd_safe = np.maximum(sd, 1e-12)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z = (y_best - mu) / sd_safe
        big_phi = ndtr(z)
        small_phi = np.exp(-0.5 * z * z) / _SQRT_2PI
        ei = (y_best - mu) * big_phi + sd * small_phi
        objs = np.column_stack([-ei, -big_phi, mu - KAPPA * sd])
    objs = np.nan_to_num(objs, nan=0.0, posinf=1e30, neginf=-1e30)
    front = np.flatnonzero(pareto_non_dominated(objs))
    return cands[int(rng.choice(front))]


def _evaluate(objective, x: np.ndarray) -> float:
    try:
        y = float(objective(np.asarray(x, dtype=float)))
    except Exception:
        return PENALTY
    return y if np.isfinite(y) else PENALTY


def bo_minimize(
    objective,
    bounds: BoundsBox,
    n_init: int,
    n_iter: int,
    seed: int = 0,
) -> BoResult:
    """Minimize ``objective`` with ``n_init`` Sobol evaluations followed by
    ``n_iter`` surrogate-guided ones.  Deterministic given ``seed``."""
    if n_init < 2:
        raise ValueError("n_init must be >= 2")
    if n_iter < 0:
        raise ValueError("n_iter must be >= 0")
    rng = np.random.default_rng(seed)
    init = _sobol_points(rng, n_init, bounds.low, bounds.high)
    observations: list[tuple[np.ndarray, float]] = []
    for row in init:
        observations.append((row.copy(), _evaluate(objective, row)))

    ys = [y for _, y in observations]
    best_i = int(np.argmin(ys))
    best_p, best_y = observations[best_i][0].copy(), ys[best_i]

    fails = 0
    tr_scale = 1.0
    for _ in range(n_iter):
        model = gp_fit(observations, bounds)
        x = acquire(model, bounds, rng, tr_scale)
        y = _evaluate(objective, x)
        observations.append((x.copy(), y))
        if y < best_y:
            best_p, best_y = x.copy(), y
            fails = 0
            tr_scale = 1.0
        else:
            fails += 1
            if fails % PATIENCE == 0:
                tr_scale = max(0.5 * tr_scale, TR_FLOOR)
    return BoResult(best_p=best_p, best_y=best_y, observations=observations)
