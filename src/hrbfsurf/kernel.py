"""Wendland's C2 compactly supported RBF and its exact derivatives.

phi(t) = (1 - t)^4 (4t + 1) on t in [0, 1), identically zero outside.
All derivative formulas are closed-form; the 1/r factors in the second
derivatives have a finite limit at r = 0 which is handled analytically
(diagonal -20/rho^2, off-diagonal 0).

Per-entry derivative bounds over the support, with t = r / rho:

- |d phi / dx| = 20 t (1 - t)^3 |x| / (rho r) peaks at 135/(64 rho), at
  r = rho/4 along an axis.  The paper's 5/(4 rho) is the value at
  r = rho/2, not the maximum.
- |d2 phi / dx2| peaks at 20/rho^2, at r = 0.
- |d2 phi / dx dy| peaks at 40/(9 rho^2), at t = 1/3 with x = y, z = 0.
  The reported 15/(2 rho^2) is a bound above that maximum, kept so that
  the damping term A_bar built from these constants moves only through
  the first-derivative term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |d2 phi / dx2| at r = 0 times rho^2: the Hessian at a center is
# -D2_PEAK / rho^2 I, the diagonal the closed-form coefficients invert
D2_PEAK = 20.0


@dataclass
class DerivativeBounds:
    first: float  # max |d phi / dx| = 135/(64 rho), attained at r = rho/4 on an axis
    second_diag: float  # max |d2 phi / dx2| = 20/rho^2, attained at r = 0
    # 15/(2 rho^2), above max |d2 phi / dx dy| = 40/(9 rho^2) at t = 1/3, x = y
    second_mixed: float


def value(offsets, rho):
    """phi at x - center offsets; (k, 3) -> (k,).  rho scalar or (k,)."""
    offsets = np.asarray(offsets, dtype=np.float64)
    r = np.linalg.norm(offsets, axis=-1)
    t = r / rho
    inside = t < 1.0
    one_m = np.where(inside, 1.0 - t, 0.0)
    # phi(0) = 1 is the maximum; rounding near r = 0 can exceed it by an ulp
    return np.minimum(one_m**4 * (4.0 * t + 1.0), 1.0)


def gradient(offsets, rho):
    """Gradient of phi w.r.t. the query point; (k, 3) -> (k, 3)."""
    offsets = np.asarray(offsets, dtype=np.float64)
    r = np.linalg.norm(offsets, axis=-1)
    t = r / rho
    inside = t < 1.0
    one_m = np.where(inside, 1.0 - t, 0.0)
    coef = -D2_PEAK / np.square(rho) * one_m**3
    return coef[..., None] * offsets


def hessian(offsets, rho):
    """Hessian of phi w.r.t. the query point; (k, 3) -> (k, 3, 3)."""
    offsets = np.asarray(offsets, dtype=np.float64)
    r = np.linalg.norm(offsets, axis=-1)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), r.shape)
    t = r / rho
    inside = t < 1.0
    one_m = np.where(inside, 1.0 - t, 0.0)
    diag_term = -D2_PEAK / np.square(rho) * one_m**3
    r_safe = np.where(r > 0.0, r, 1.0)
    outer_coef = 3.0 * D2_PEAK / rho**3 * one_m**2 / r_safe
    # built in place, so that the result is the only (k, 3, 3) array
    h = offsets[..., :, None] * offsets[..., None, :]
    h *= outer_coef[..., None, None]
    for a in range(3):
        h[..., a, a] += diag_term
    return h


def derivative_bounds(rho) -> DerivativeBounds:
    """Bounds on |first| and |second| derivative entries over the support.

    ``first`` and ``second_diag`` are the closed-form maxima; ``second_mixed``
    lies above its maximum (see the module docstring).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    return DerivativeBounds(
        first=135.0 / (64.0 * rho),
        second_diag=D2_PEAK / rho**2,
        second_mixed=15.0 / (2.0 * rho**2),
    )
