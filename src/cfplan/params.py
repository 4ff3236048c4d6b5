"""Flat parameter vector shared by the planner and the tuner.

Layout for ``n`` agents (block-by-gain, agents ordered by id inside each
block):

    [k_p(1..n), k_v(1..n), k_cf(1..n), k_manip(1..n), k_r(1..n), r_d]

so the vector has ``5 * n + 1`` entries.  The detection radius ``r_d`` is
shared by all agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import GainSet

GAIN_NAMES = ("k_p", "k_v", "k_cf", "k_manip", "k_r")


def param_dim(n_agents: int) -> int:
    return 5 * n_agents + 1


def agent_count(dim: int) -> int:
    """The inverse of ``param_dim``: the n >= 1 of a vector of ``5 n + 1``
    entries.  ValueError for any other length."""
    n, rest = divmod(dim - 1, 5)
    if n < 1 or rest:
        raise ValueError(f"{dim} entries, not 5 n + 1 for n >= 1 agents")
    return n


def detection_radius(p: np.ndarray) -> float:
    return float(np.asarray(p, dtype=float)[-1])


def split_params(p: np.ndarray, n_agents: int) -> dict[str, np.ndarray]:
    """Split a flat vector into one array per gain name plus ``r_d``."""
    p = np.asarray(p, dtype=float).ravel()
    if p.shape[0] != param_dim(n_agents):
        raise ValueError(
            f"expected {param_dim(n_agents)} parameters for {n_agents} agents, "
            f"got {p.shape[0]}"
        )
    out: dict[str, np.ndarray] = {}
    for b, name in enumerate(GAIN_NAMES):
        out[name] = p[b * n_agents : (b + 1) * n_agents]
    out["r_d"] = p[-1:]
    return out


def agent_gains(p: np.ndarray, agent_index: int, n_agents: int) -> GainSet:
    """Gains of the agent at 0-based ``agent_index``."""
    blocks = split_params(p, n_agents)
    if not 0 <= agent_index < n_agents:
        raise ValueError(f"agent_index {agent_index} out of range")
    return GainSet(**{name: float(blocks[name][agent_index]) for name in GAIN_NAMES})


def join_params(gains: list[GainSet], r_d: float) -> np.ndarray:
    """Inverse of agent_gains/split_params for test fixtures and hand-built vectors."""
    n = len(gains)
    p = np.empty(param_dim(n))
    for b, name in enumerate(GAIN_NAMES):
        p[b * n : (b + 1) * n] = [getattr(g, name) for g in gains]
    p[-1] = r_d
    return p


@dataclass(frozen=True)
class BoundsBox:
    """Per-dimension box constraints, used both for validation and as the
    optimizer's search region."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.low, dtype=float).ravel()
        hi = np.asarray(self.high, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ValueError("low and high must have the same length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("low and high must be finite")
        if np.any(lo >= hi):
            raise ValueError("low must be strictly below high per dimension")
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.high - self.low

    def contains(self, p: np.ndarray, atol: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float).ravel()
        return bool(
            p.shape == self.low.shape
            and np.all(p >= self.low - atol)
            and np.all(p <= self.high + atol)
        )

    def clip(self, p: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(p, dtype=float), self.low, self.high)


def default_bounds(
    n_agents: int = 7,
    gain_high: float = 200.0,
    r_d_range: tuple[float, float] = (0.05, 1.0),
) -> BoundsBox:
    """Gains in [0, gain_high] and a detection radius in ``r_d_range``."""
    d = param_dim(n_agents)
    low = np.zeros(d)
    high = np.full(d, float(gain_high))
    low[-1], high[-1] = r_d_range
    return BoundsBox(low, high)


def validate_params(p: np.ndarray, n_agents: int) -> np.ndarray:
    """Check shape, finiteness and non-negativity; return the vector as a
    float array.  r_d = 0 is legal (it turns every obstacle force off), so
    an all-zero vector is a valid, if useless, parameterization."""
    p = np.asarray(p, dtype=float).ravel()
    if p.shape[0] != param_dim(n_agents):
        raise ValueError(
            f"expected {param_dim(n_agents)} parameters, got {p.shape[0]}"
        )
    if not np.all(np.isfinite(p)):
        raise ValueError("parameters must be finite")
    if np.any(p[:-1] < 0.0):
        raise ValueError("gains must be non-negative")
    if p[-1] < 0.0:
        raise ValueError("detection radius must be non-negative")
    return p
