"""Row-wise 3-vector arithmetic for the lockstep planner kernel.

Each helper works on stacks of 3-vectors (last axis of length 3) and rounds
exactly like the per-vector numpy call it replaces, so batching agents or
obstacles changes no result bit:

- ``norms(m)`` equals ``np.linalg.norm(m, axis=-1)``, i.e.
  ``sqrt((x*x + y*y) + z*z)``, with the same ``add.reduce`` over the last axis;
- ``cross(a, b)`` equals ``np.cross(a, b)`` (the same three products and
  differences, without its broadcasting overhead);
- ``dots(a, b)`` equals ``float(a[k] @ b[k])`` for every row ``k``: a stack of
  (1, 3) @ (3, 1) products runs the same BLAS dot per row, whereas
  ``(a * b).sum(-1)`` rounds differently.
"""

from __future__ import annotations

import numpy as np

_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(m * m, axis=-1))


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # component i is a[i+1] b[i+2] - a[i+2] b[i+1], indices mod 3
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products of two (k, 3) stacks."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
