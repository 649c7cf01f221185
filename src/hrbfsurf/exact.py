"""Exact HRBF solver used as the oracle for error-bound checks.

The regularized 4n x 4n system A + eta I = D + dA couples point i to every
kernel j whose support holds it.  Row-block i stacks the value and gradient
constraints at point i; column-block j carries kernel j (support rho_j).  The
diagonal blocks reduce to D = diag(1, 20/rho^2, ...) + eta I, the same matrix
the quasi-solution D^-1 y inverts in closed form.

``SupportOperator`` holds the system without its blocks.  Per support pair it
keeps the column j, the offset u = p_i - p_j and the radial terms (phi, gamma,
beta) of ``kernel.radial_terms``, 56 bytes against 132 for a stored 4x4 block
and its index; the block is [[phi, -gamma u^T], [gamma u, -(gamma I + beta u u^T)]].
||dA||inf and q = ||D^-1 dA||inf are row sums of |entries|, and ``apply`` gives
(A + eta I) lambda; both take the pairs one row-aligned slice at a time.

``solve`` runs the Neumann series that starts at the quasi-solution (Jacobi
iteration, Saad, Iterative Methods for Sparse Linear Systems, ch. 4) through
``apply``; it converges for any q < 1, which the tuned eta guarantees, at any
n.  When q >= 1 (eta = 0, small eta overrides) the series diverges and
``solve`` refuses the system: its a-posteriori bound exists only for q < 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .model import _PAIR_SLICE, RadiusBands, _cuts, _support_pairs

_RESIDUAL_TOL = 1e-9  # residual gate of ``solve``, relative to 1 + ||y||inf


class IllConditionedError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def _row_slices(indptr):
    """(first row, end row) of each slice of whole rows of about ``_PAIR_SLICE`` pairs."""
    cuts = _cuts(indptr, _PAIR_SLICE)
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


@dataclass
class SupportOperator:
    n: int
    y: np.ndarray  # rhs, blocks (0, n_i)
    eta: float
    rho: np.ndarray
    d_diag: np.ndarray = field(repr=False)  # diagonal of D
    indptr: np.ndarray = field(repr=False)  # row i's pairs are indptr[i]:indptr[i + 1]
    cols: np.ndarray = field(repr=False)  # kernel j of each pair, ascending within a row
    u: np.ndarray = field(repr=False)  # (3, pairs): p_i - p_j
    terms: np.ndarray = field(repr=False)  # (3, pairs): phi, gamma, beta
    delta_a_inf: float  # ||A + eta I - D||inf
    contraction: float  # q = ||D^-1 dA||inf; <= d_inv_inf * delta_a_inf

    @property
    def d_inv_inf(self):
        rho_max = float(self.rho.max())
        return max(1.0 / (1.0 + self.eta), rho_max**2 / (kernel.D2_PEAK + self.eta * rho_max**2))

    def apply(self, lam):
        """(A + eta I) lam, each row summed over its support pairs."""
        slices = _row_slices(self.indptr)
        lam_t = np.ascontiguousarray(lam.reshape(self.n, 4).T)  # rows a, b_x, b_y, b_z
        out = self.eta * lam_t
        size = max(int(self.indptr[r1] - self.indptr[r0]) for r0, r1 in slices)
        # one set of scratch arrays, reused by every slice
        gathered, rows = np.empty((4, size)), np.empty((4, size))
        ub, w, tmp = np.empty(size), np.empty(size), np.empty(size)
        for r0, r1 in slices:
            lo, hi = self.indptr[r0], self.indptr[r1]
            k = hi - lo
            u, (phi, gamma, beta) = self.u[:, lo:hi], self.terms[:, lo:hi]
            lam_j = gathered[:, :k]
            for c in range(4):  # columns are in range; "clip" skips the buffer "raise" takes
                np.take(lam_t[c], self.cols[lo:hi], out=lam_j[c], mode="clip")
            a, b = lam_j[0], lam_j[1:]
            np.multiply(u[0], b[0], out=ub[:k])
            for c in (1, 2):
                ub[:k] += np.multiply(u[c], b[c], out=tmp[:k])
            # value row: phi a - gamma <u, b>; gradient row c: u_c (gamma a - beta <u, b>) - gamma b_c
            np.multiply(phi, a, out=rows[0, :k])
            rows[0, :k] -= np.multiply(gamma, ub[:k], out=tmp[:k])
            np.multiply(gamma, a, out=w[:k])
            w[:k] -= np.multiply(beta, ub[:k], out=tmp[:k])
            for c in range(3):
                np.multiply(u[c], w[:k], out=rows[1 + c, :k])
                rows[1 + c, :k] -= np.multiply(gamma, b[c], out=tmp[:k])
            # every row holds its self pair, so no run is empty
            out[:, r0:r1] += np.add.reduceat(rows[:, :k], self.indptr[r0:r1] - lo, axis=1)
        return out.T.ravel()


@dataclass
class ExactSolveResult:
    lam: np.ndarray  # 4n, blocks (a_i, b_i)
    residual_inf: float
    # ||lambda_1 - lambda_0||inf / (1 - q) >= ||lambda_0 - lambda||inf for the
    # quasi-solution lambda_0 = D^-1 y
    bound_a_posteriori: float
    iterations: int  # Neumann steps taken


def build_operator(ps, rho, eta) -> SupportOperator:
    """List the support pairs once and keep their terms, ||dA||inf, q and y."""
    points = np.asarray(ps.points, dtype=np.float64)
    normals = np.asarray(ps.normals, dtype=np.float64)
    n = len(points)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,)).copy()
    if np.any(rho <= 0):
        raise ValueError("radii must be positive")

    # (i, j) with ||p_i - p_j|| < rho_j, self pairs included, sorted by i, then j
    i_idx, cols = _support_pairs(RadiusBands(points, rho), points)
    indptr = np.searchsorted(i_idx, np.arange(n + 1))
    del i_idx
    d_diag = np.repeat(kernel.D2_PEAK / rho**2 + eta, 4)
    d_diag[0::4] = 1.0 + eta
    points_t = np.ascontiguousarray(points.T)  # rows x, y, z
    u, terms = np.empty((3, len(cols))), np.empty((3, len(cols)))
    row_sums = np.empty((4, n))
    slices = _row_slices(indptr)
    size = max(int(indptr[r1] - indptr[r0]) for r0, r1 in slices)
    # one set of scratch arrays, reused by every slice
    sums, abs_u, gamma_u = np.empty((4, size)), np.empty((3, size)), np.empty((3, size))
    dist, abs_beta, tmp = np.empty(size), np.empty(size), np.empty(size)
    for r0, r1 in slices:
        lo, hi = indptr[r0], indptr[r1]
        k = hi - lo
        i, j = np.repeat(np.arange(r0, r1), np.diff(indptr[r0 : r1 + 1])), cols[lo:hi]
        pair_u = u[:, lo:hi]
        for a in range(3):
            np.subtract(points_t[a][i], points_t[a][j], out=pair_u[a])
        s, au, gu, r, ab, t = sums[:, :k], abs_u[:, :k], gamma_u[:, :k], dist[:k], abs_beta[:k], tmp[:k]
        # r = sqrt((u_0^2 + u_1^2) + u_2^2): np.linalg.norm's sum, in its order
        np.square(pair_u[0], out=r)
        for a in (1, 2):
            r += np.square(pair_u[a], out=t)
        terms[:, lo:hi] = kernel.radial_terms(np.sqrt(r, out=r), rho[j])
        phi, gamma, beta = terms[:, lo:hi]
        # per pair, the row sums of |entries| of the value row [phi, gamma u^T]
        # and of gradient row a [gamma u_a, beta u_a u^T + gamma e_a^T], each
        # adding its terms from left to right, as a sum along the row does
        np.abs(pair_u, out=au)
        np.multiply(np.abs(gamma, out=t), au, out=gu)  # |gamma u_a| = |gamma| |u_a|
        np.abs(beta, out=ab)
        np.copyto(s[0], phi)  # phi >= 0
        for a in range(3):
            s[0] += gu[a]
        for a in range(3):
            np.copyto(s[1 + a], gu[a])
            for b in range(3):
                if b == a:  # |u_a u_a beta + gamma|
                    np.multiply(pair_u[a], pair_u[a], out=t)
                    t *= beta
                    t += gamma
                    np.abs(t, out=t)
                else:  # (|u_a| |u_b|) |beta|
                    np.multiply(au[a], au[b], out=t)
                    t *= ab
                s[1 + a] += t
        # a self pair has u = 0 and phi = 1, so its block plus eta I is D exactly
        s[:, i == j] = 0.0
        # every row holds its self pair, so no run is empty
        row_sums[:, r0:r1] = np.add.reduceat(s, indptr[r0:r1] - lo, axis=1)
    row_sums = row_sums.T.ravel()

    y = np.zeros(4 * n)
    y.reshape(-1, 4)[:, 1:] = normals
    return SupportOperator(
        n=n,
        y=y,
        eta=eta,
        rho=rho,
        d_diag=d_diag,
        indptr=indptr,
        cols=cols,
        u=u,
        terms=terms,
        delta_a_inf=float(row_sums.max()),
        contraction=float((row_sums / d_diag).max()),
    )


_STOP_ULPS = 4.0  # Neumann stop: error estimate within this many ulps of ||lambda||inf


def _neumann_ceiling(q):
    """Steps after which q^(k+1) / (1 - q) <= eps: the Neumann error bound
    relative to ||lambda_0||inf has reached rounding level, for 0 <= q < 1."""
    eps = np.finfo(np.float64).eps
    return int(np.ceil(np.log(eps * (1.0 - q)) / np.log(max(q, eps)))) + 3


def _neumann(op: SupportOperator):
    """lambda_{k+1} = lambda_k + D^-1 (y - (A + eta I) lambda_k) from lambda_0 = D^-1 y.

    Stops on the a-posteriori estimate ||lambda - lambda_k|| <= q/(1-q)
    ||lambda_k - lambda_{k-1}||, or at ``_neumann_ceiling(q)`` steps.
    Returns (lambda, steps, ||lambda_1 - lambda_0||inf).
    """
    q = op.contraction
    eps = np.finfo(np.float64).eps
    lam = op.y / op.d_diag
    for k in range(1, _neumann_ceiling(q) + 1):
        step = (op.y - op.apply(lam)) / op.d_diag
        lam = lam + step
        size = float(np.max(np.abs(step)))
        if k == 1:
            first_step = size
        if q / (1.0 - q) * size <= _STOP_ULPS * eps * float(np.max(np.abs(lam))):
            break
    return lam, k, first_step


def solve(op: SupportOperator) -> ExactSolveResult:
    """Solve (A + eta I) lambda = y by the Neumann series; q >= 1 raises ValueError.

    The solution must pass the residual gate, or IllConditionedError carries
    the residual.
    """
    q = op.contraction
    if q >= 1.0:
        raise ValueError(f"q = {q:.3g} >= 1: the Neumann series diverges, so there is no exact solve to check")
    lam, iterations, first_step = _neumann(op)
    residual = float(np.max(np.abs(op.apply(lam) - op.y)))
    scale = 1.0 + float(np.max(np.abs(op.y)))
    if not np.all(np.isfinite(lam)) or residual > _RESIDUAL_TOL * scale:
        raise IllConditionedError(f"residual {residual:.3e} exceeds tolerance", residual)
    return ExactSolveResult(
        lam=lam,
        residual_inf=residual,
        bound_a_posteriori=first_step / (1.0 - q),
        iterations=iterations,
    )
