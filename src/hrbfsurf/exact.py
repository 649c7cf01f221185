"""Desk-scale exact HRBF solver used as the oracle for error-bound checks.

Assembles the regularized 4n x 4n block system A + eta I = D + dA over
compact supports as a block-sparse (BSR) matrix of 4x4 blocks, one per
support pair.  Row-block i stacks the value and gradient constraints at
point i; column-block j carries kernel j (support rho_j).  The diagonal
blocks reduce to D = diag(1, 20/rho^2, ...) + eta I, the same matrix the
quasi-solution D^-1 y inverts in closed form.

When q = ||D^-1 dA||inf < 1, which the tuned eta guarantees, the system is
solved by the Neumann series that starts at the quasi-solution (Jacobi
iteration, Saad, Iterative Methods for Sparse Linear Systems, ch. 4); it
converges for any such q.  Otherwise (eta = 0, small eta overrides) it is
factored by sparse LU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernel
from .model import RadiusBands, _runs, _segment_sums, _support_pairs

DEFAULT_POINT_CAP = 5000
_RESIDUAL_TOL = 1e-9  # residual gate of ``solve``, relative to 1 + ||y||inf


class SolverCapError(ValueError):
    """The exact solver is desk-scale only."""


class IllConditionedError(RuntimeError):
    def __init__(self, message, condition_estimate):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass
class ExactSystem:
    n: int
    matrix: sp.bsr_matrix  # A + eta I, 4n x 4n in 4x4 blocks, columns ascending per block row
    y: np.ndarray  # rhs, blocks (0, n_i)
    eta: float
    rho: np.ndarray
    delta_a_inf: float  # ||A + eta I - D||inf, exact from assembled blocks
    contraction: float  # q = ||D^-1 dA||inf, exact; <= d_inv_inf * delta_a_inf
    d_diag: np.ndarray = field(repr=False, default=None)  # diagonal of D

    @property
    def d_inv_inf(self):
        rho_max = float(self.rho.max())
        return max(1.0 / (1.0 + self.eta), rho_max**2 / (kernel.D2_PEAK + self.eta * rho_max**2))


@dataclass
class ExactSolveResult:
    lam: np.ndarray  # 4n, blocks (a_i, b_i)
    residual_inf: float
    delta_a_inf: float
    d_inv_inf: float
    # ||lambda_1 - lambda_0||inf / (1 - q) >= ||lambda_0 - lambda||inf for the
    # quasi-solution lambda_0 = D^-1 y; inf when q >= 1
    bound_a_posteriori: float
    method: str  # "neumann" or "lu"
    iterations: int  # Neumann steps taken; 0 for LU


def assemble(ps, rho, eta, cap=DEFAULT_POINT_CAP) -> ExactSystem:
    """Assemble (A + eta I) as 4x4 blocks, one per support pair, and y."""
    points = np.asarray(ps.points, dtype=np.float64)
    normals = np.asarray(ps.normals, dtype=np.float64)
    n = len(points)
    if n > cap:
        raise SolverCapError(f"exact solver is desk-scale only (n={n} > cap={cap})")
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,)).copy()
    if np.any(rho <= 0):
        raise ValueError("radii must be positive")

    # (i, j) with ||p_i - p_j|| < rho_j, self pairs included, sorted by i, then j
    i_idx, j_idx = _support_pairs(RadiusBands(points, rho), points)
    indptr = np.searchsorted(i_idx, np.arange(n + 1))
    offsets = points[i_idx] - points[j_idx]
    rj = rho[j_idx]
    blocks = np.empty((len(i_idx), 4, 4))
    blocks[:, 0, 0] = kernel.value(offsets, rj)
    grad = kernel.gradient(offsets, rj)
    blocks[:, 0, 1:], blocks[:, 1:, 0] = -grad, grad
    del grad
    np.negative(kernel.hessian(offsets, rj), out=blocks[:, 1:, 1:])
    del offsets, rj
    own = np.flatnonzero(i_idx == j_idx)  # the self block of each row, in row order
    blocks[own] += eta * np.eye(4)

    d_diag = np.repeat(kernel.D2_PEAK / rho**2 + eta, 4)
    d_diag[0::4] = 1.0 + eta
    # per block, the row sums of |block - D|; D lies on the self blocks only
    sums = np.abs(blocks).sum(axis=2)
    sums[own] = np.abs(blocks[own] - d_diag.reshape(n, 4, 1) * np.eye(4)).sum(axis=2)
    row_sums = np.add.reduceat(sums, indptr[:-1], axis=0).ravel()  # every row holds its self block
    delta_a_inf = float(row_sums.max())
    contraction = float((row_sums / d_diag).max())

    mat = sp.bsr_matrix((blocks, j_idx, indptr), shape=(4 * n, 4 * n))
    y = np.zeros(4 * n)
    y.reshape(-1, 4)[:, 1:] = normals
    return ExactSystem(
        n=n, matrix=mat, y=y, eta=eta, rho=rho, delta_a_inf=delta_a_inf, contraction=contraction, d_diag=d_diag
    )


def _factor(sys: ExactSystem):
    """Sparse LU of A + eta I without the self blocks' stored zeros."""
    csc = sys.matrix.tocsc()
    csc.eliminate_zeros()
    return spla.splu(csc)


def condition_estimate(sys: ExactSystem, lu=None):
    """1-norm condition estimate of A + eta I via its sparse LU factors."""
    lu = _factor(sys) if lu is None else lu
    inv_op = spla.LinearOperator(
        sys.matrix.shape,
        matvec=lu.solve,
        rmatvec=lambda v: lu.solve(v, trans="T"),
    )
    return float(spla.onenormest(sys.matrix) * spla.onenormest(inv_op))


_STOP_ULPS = 4.0  # Neumann stop: error estimate within this many ulps of ||lambda||inf


def _neumann_ceiling(q):
    """Steps after which q^(k+1) / (1 - q) <= eps: the Neumann error bound
    relative to ||lambda_0||inf has reached rounding level, for 0 <= q < 1."""
    eps = np.finfo(np.float64).eps
    return int(np.ceil(np.log(eps * (1.0 - q)) / np.log(max(q, eps)))) + 3


def _neumann(sys: ExactSystem):
    """lambda_{k+1} = lambda_k + D^-1 (y - (A + eta I) lambda_k) from lambda_0 = D^-1 y.

    Stops on the a-posteriori estimate ||lambda - lambda_k|| <= q/(1-q)
    ||lambda_k - lambda_{k-1}||, or at ``_neumann_ceiling(q)`` steps.
    Returns (lambda, steps, ||lambda_1 - lambda_0||inf).
    """
    q = sys.contraction
    eps = np.finfo(np.float64).eps
    lam = sys.y / sys.d_diag
    for k in range(1, _neumann_ceiling(q) + 1):
        step = (sys.y - sys.matrix @ lam) / sys.d_diag
        lam = lam + step
        size = float(np.max(np.abs(step)))
        if k == 1:
            first_step = size
        if q / (1.0 - q) * size <= _STOP_ULPS * eps * float(np.max(np.abs(lam))):
            break
    return lam, k, first_step


def solve(sys: ExactSystem, cond_limit=None) -> ExactSolveResult:
    """Solve (A + eta I) lambda = y: Neumann series when q < 1, sparse LU otherwise.

    Both paths must pass the residual gate; ``cond_limit`` bounds the 1-norm
    condition estimate, which factors the matrix on the Neumann path.
    """
    lu = None
    q = sys.contraction
    if q < 1.0:
        lam, iterations, first_step = _neumann(sys)
        method, bound = "neumann", first_step / (1.0 - q)
    else:
        try:
            lu = _factor(sys)
            lam = lu.solve(sys.y)
        except RuntimeError as exc:  # singular factorization
            raise IllConditionedError(f"factorization failed: {exc}", np.inf) from exc
        method, iterations, bound = "lu", 0, np.inf
    residual = float(np.max(np.abs(sys.matrix @ lam - sys.y)))
    scale = 1.0 + float(np.max(np.abs(sys.y)))
    if not np.all(np.isfinite(lam)) or residual > _RESIDUAL_TOL * scale:
        raise IllConditionedError(
            f"residual {residual:.3e} exceeds tolerance; eta likely too small",
            condition_estimate(sys, lu),
        )
    if cond_limit is not None:
        cond = condition_estimate(sys, lu)
        if cond > cond_limit:
            raise IllConditionedError(f"condition estimate {cond:.3e} over limit", cond)
    return ExactSolveResult(
        lam=lam,
        residual_inf=residual,
        delta_a_inf=sys.delta_a_inf,
        d_inv_inf=sys.d_inv_inf,
        bound_a_posteriori=bound,
        method=method,
        iterations=iterations,
    )


def eval_exact(ps, rho, lam, x, want_gradient=False):
    """Evaluate the exact interpolant sum_j a_j phi_j - <b_j, grad phi_j> at x.

    Values and gradients are 0 outside every support.
    """
    points = np.asarray(ps.points, dtype=np.float64)
    n = len(points)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,))
    lam = np.asarray(lam, dtype=np.float64).reshape(n, 4)
    x = np.asarray(x, dtype=np.float64).reshape(-1, 3)

    qi, j = _support_pairs(RadiusBands(points, rho), x)
    offs, rj = x[qi] - points[j], rho[j]
    a, b = lam[j, 0], lam[j, 1:]
    g = kernel.gradient(offs, rj)
    terms = [a * kernel.value(offs, rj) - np.einsum("ij,ij->i", b, g)]
    if want_gradient:
        h = kernel.hessian(offs, rj)
        terms.extend((a[:, None] * g - np.einsum("kij,kj->ki", h, b)).T)
    # every pair lies inside its support; a query outside every support sums to nan, here 0
    sums = _segment_sums(_runs(qi, len(x)), np.stack(terms), np.ones(len(qi), dtype=bool), len(x))
    sums = np.where(np.isnan(sums), 0.0, sums)
    if want_gradient:
        return sums[0], sums[1:].T.copy()
    return sums[0]
