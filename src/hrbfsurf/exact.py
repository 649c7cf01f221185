"""Exact HRBF solver used as the oracle for error-bound checks.

``solve(op, eta)`` solves (A + eta I) lambda = y on a ``model.SupportOperator``
by the Neumann series that starts at the quasi-solution D^-1 y (Jacobi
iteration, Saad, Iterative Methods for Sparse Linear Systems, ch. 4).  It
converges for any q = ||D^-1 dA||inf < 1 at any n; the tuned eta guarantees
q < 1 only with uniform radii (``model._a_bar``).  When q >= 1 (eta = 0, say)
the series diverges and ``solve`` refuses the system: its a-posteriori bound
exists only for q < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SupportOperator

_RESIDUAL_TOL = 1e-9  # residual gate of ``solve``, relative to 1 + ||y||inf


class IllConditionedError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class ExactSolveResult:
    lam: np.ndarray  # 4n, blocks (a_i, b_i)
    residual_inf: float
    # ||lambda_1 - lambda_0||inf / (1 - q) >= ||lambda_0 - lambda||inf for the
    # quasi-solution lambda_0 = D^-1 y
    bound_a_posteriori: float
    iterations: int  # Neumann steps taken


_STOP_ULPS = 4.0  # Neumann stop: error estimate within this many ulps of ||lambda||inf


def _neumann_ceiling(q):
    """Steps after which q^(k+1) / (1 - q) <= eps: the Neumann error bound
    relative to ||lambda_0||inf has reached rounding level, for 0 <= q < 1."""
    eps = np.finfo(np.float64).eps
    return int(np.ceil(np.log(eps * (1.0 - q)) / np.log(max(q, eps)))) + 3


def _neumann(op: SupportOperator, eta):
    """lambda_{k+1} = lambda_k + D^-1 (y - (A + eta I) lambda_k) from lambda_0 = D^-1 y.

    Stops on the a-posteriori estimate ||lambda - lambda_k|| <= q/(1-q)
    ||lambda_k - lambda_{k-1}||, or at ``_neumann_ceiling(q)`` steps.
    Returns (lambda, steps, ||lambda_1 - lambda_0||inf).
    """
    q, d_diag = op.contraction(eta), op.d_diag(eta)
    eps = np.finfo(np.float64).eps
    lam = op.y / d_diag
    for k in range(1, _neumann_ceiling(q) + 1):
        step = (op.y - (op.apply(lam) + eta * lam)) / d_diag
        lam = lam + step
        size = float(np.max(np.abs(step)))
        if k == 1:
            first_step = size
        if q / (1.0 - q) * size <= _STOP_ULPS * eps * float(np.max(np.abs(lam))):
            break
    return lam, k, first_step


def solve(op: SupportOperator, eta) -> ExactSolveResult:
    """Solve (A + eta I) lambda = y by the Neumann series; q >= 1 raises ValueError.

    The solution must pass the residual gate, or IllConditionedError carries
    the residual.
    """
    q = op.contraction(eta)
    if q >= 1.0:
        raise ValueError(f"q = {q:.3g} >= 1: the Neumann series diverges, so there is no exact solve to check")
    lam, iterations, first_step = _neumann(op, eta)
    residual = float(np.max(np.abs(op.apply(lam) + eta * lam - op.y)))
    scale = 1.0 + float(np.max(np.abs(op.y)))
    if not np.all(np.isfinite(lam)) or residual > _RESIDUAL_TOL * scale:
        raise IllConditionedError(f"residual {residual:.3e} exceeds tolerance", residual)
    return ExactSolveResult(
        lam=lam,
        residual_inf=residual,
        bound_a_posteriori=first_step / (1.0 - q),
        iterations=iterations,
    )
