"""Gaussian-process surrogate for the tuner.

Single isotropic Matern-5/2 kernel on inputs normalized to the unit box,
targets standardized to zero mean / unit variance.  Hyperparameters come from
a profiled marginal likelihood: the signal variance has a closed form given
(length scale, noise ratio), so the search is a small log-spaced grid over
those two followed by a coordinate refinement.  This keeps the fit free of
iterative-optimizer dependencies and bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from .params import BoundsBox

_SQRT5 = math.sqrt(5.0)

NOISE_FLOOR = 1e-10
_JITTERS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
_ELL_GRID = np.logspace(-1.5, 1.5, 13)
_NOISE_GRID = np.logspace(-8.0, -2.0, 7)


class DegenerateData(ValueError):
    """Raised when observations are empty or contain non-finite values."""


@dataclass
class GpModel:
    x_lo: np.ndarray
    x_width: np.ndarray
    x_raw: np.ndarray  # (n, d) original inputs
    y_raw: np.ndarray  # (n,)
    xn: np.ndarray  # (n, d) normalized inputs
    y: np.ndarray  # (n,) standardized targets
    y_mean: float
    y_scale: float
    length_scale: float  # in normalized input units
    signal_var: float  # in standardized target units
    noise_var: float
    chol: np.ndarray  # lower Cholesky factor of the training covariance
    alpha: np.ndarray  # K^{-1} y
    constant: bool  # all targets equal; predictions fall back to the prior

    @property
    def incumbent(self) -> tuple[np.ndarray, float]:
        i = int(np.argmin(self.y_raw))
        return self.x_raw[i], float(self.y_raw[i])


def matern52(r: np.ndarray, length_scale: float) -> np.ndarray:
    s = (_SQRT5 / length_scale) * np.asarray(r, dtype=float)
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


def _profiled_nll(r: np.ndarray, y: np.ndarray, ell: float, g: float):
    """Negative log marginal likelihood with the signal variance profiled out;
    returns (nll, profiled signal variance)."""
    n = y.shape[0]
    m = matern52(r, ell)
    m.flat[:: n + 1] += g
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return math.inf, 1.0
    beta = solve_triangular(chol, y, lower=True)
    s2 = max(float(beta @ beta) / n, 1e-300)
    nll = n * math.log(s2) + 2.0 * float(np.log(np.diag(chol)).sum())
    return nll, s2


def _search_hypers(r: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Grid search plus coordinate refinement over (length scale, noise ratio)."""
    best = (math.inf, 1.0, 1.0, 1e-6)  # nll, s2, ell, g
    for ell in _ELL_GRID:
        for g in _NOISE_GRID:
            nll, s2 = _profiled_nll(r, y, float(ell), float(g))
            if nll < best[0]:
                best = (nll, s2, float(ell), float(g))
    nll, s2, ell, g = best
    le, lg = math.log10(ell), math.log10(g)
    step_l, step_g = 0.25, 1.0
    for _ in range(24):
        moved = False
        for dle, dlg in ((step_l, 0.0), (-step_l, 0.0), (0.0, step_g), (0.0, -step_g)):
            cand_l = min(max(le + dle, -3.0), 3.0)
            cand_g = min(max(lg + dlg, -8.0), -1.0)
            c_nll, c_s2 = _profiled_nll(r, y, 10.0**cand_l, 10.0**cand_g)
            if c_nll < nll:
                nll, s2, le, lg = c_nll, c_s2, cand_l, cand_g
                moved = True
        if not moved:
            step_l *= 0.5
            step_g *= 0.5
            if step_l < 1e-3:
                break
    return s2, 10.0**le, 10.0**lg


def _stable_cholesky(k: np.ndarray, scale: float) -> np.ndarray:
    n = k.shape[0]
    for jitter in _JITTERS:
        m = k.copy()
        m.flat[:: n + 1] += jitter * scale
        try:
            return np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("covariance not positive definite even with jitter")


def gp_fit(observations, bounds: BoundsBox | None = None) -> GpModel:
    """Fit the surrogate to (input vector, value) pairs.

    ``bounds`` fixes the input normalization; without it the data ranges are
    used.  All-equal targets yield a constant-mean model that predicts the
    shared value with the prior variance, so callers never have to special-
    case flat data.
    """
    pairs = list(observations)
    if not pairs:
        raise DegenerateData("no observations")
    x_raw = np.stack([np.asarray(p, dtype=float).ravel() for p, _ in pairs])
    y_raw = np.array([float(v) for _, v in pairs])
    if not (np.all(np.isfinite(x_raw)) and np.all(np.isfinite(y_raw))):
        raise DegenerateData("observations contain non-finite values")

    if bounds is not None:
        if bounds.dim != x_raw.shape[1]:
            raise ValueError("bounds dimension does not match the inputs")
        x_lo, x_width = bounds.low, bounds.widths
    else:
        x_lo = x_raw.min(axis=0)
        x_width = np.maximum(x_raw.max(axis=0) - x_lo, 1e-12)
    xn = (x_raw - x_lo) / x_width

    y_mean = float(y_raw.mean())
    y_std = float(y_raw.std())
    constant = y_std < 1e-12
    y_scale = 1.0 if constant else y_std
    y = np.zeros_like(y_raw) if constant else (y_raw - y_mean) / y_scale

    r = cdist(xn, xn)
    if constant:
        s2, ell, g = 1.0, 1.0, 1e-6
    else:
        s2, ell, g = _search_hypers(r, y)

    noise = max(s2 * g, NOISE_FLOOR)
    k = s2 * matern52(r, ell)
    k.flat[:: k.shape[0] + 1] += noise
    chol = _stable_cholesky(k, s2)
    alpha = cho_solve((chol, True), y)
    return GpModel(
        x_lo=x_lo,
        x_width=x_width,
        x_raw=x_raw,
        y_raw=y_raw,
        xn=xn,
        y=y,
        y_mean=y_mean,
        y_scale=y_scale,
        length_scale=ell,
        signal_var=s2,
        noise_var=noise,
        chol=chol,
        alpha=alpha,
        constant=constant,
    )


def gp_predict_batch(model: GpModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation of the latent function at each
    row of ``points`` (original units); a 1-D ``points`` is one point."""
    q = np.asarray(points, dtype=float)
    if q.ndim == 1:
        q = q[None, :]
    qn = (q - model.x_lo) / model.x_width
    r = cdist(qn, model.xn)
    k = model.signal_var * matern52(r, model.length_scale)
    mean = model.y_mean + model.y_scale * (k @ model.alpha)
    w = solve_triangular(model.chol, k.T, lower=True)
    var = np.maximum(model.signal_var - (w * w).sum(axis=0), 0.0)
    std = model.y_scale * np.sqrt(var)
    return mean, std
