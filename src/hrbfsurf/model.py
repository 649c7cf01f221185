"""Closed-form HRBF quasi-interpolation: support tuning, coefficients, evaluation.

The implicit value at x is f(x) = -sum_j <b_j, grad phi_j(x)> with
b_j = rho_j^2 n_j / (20 + eta rho_j^2), summed over kernels whose open
support contains x.  Outside every support the function is undefined.
``SupportOperator`` holds the exact Hermite system on the same support
pairs, for the solve in ``exact``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import kernel
from .octree import PointOctree, strict_counts

RHO_HARD_CAP = 4.0  # < sqrt(20); reachable only on pathologically sparse input
GROWTH_FACTOR = 1.05
_MAX_RUNG = 420  # 1.05^420 rho0 overflows any sane cap; the ladder ends on the cap first
ETA_MARGIN = 1e-5
_EVAL_CHUNK = 16384  # edges per serial slice of the cubic starts in ``axis_edge_roots``
ROOT_TOL = 1e-4  # edge-root stop, as a fraction of the edge length
ROOT_STEPS = 32  # cap on field evaluations per edge root
_START_STEPS = 3  # Newton steps on the cubic that gives an edge's first point


@dataclass
class TuningParams:
    s: float
    d_bar: float
    m: int
    rho: np.ndarray  # (n,) per-center support radii
    rho_min: float
    rho_max: float
    eta: float
    uniform_support: bool
    ball_counts: int  # points queried by the tuning's strict counts, m's pass included

    @property
    def a_bar(self):
        return _a_bar(self.m, self.rho_min)

    def check(self):
        if not (self.rho_max < np.sqrt(kernel.D2_PEAK)):
            raise ValueError("rho_max must stay below sqrt(20); model not normalized?")
        if not (self.eta > self.a_bar - 1.0):
            raise ValueError("eta below the regularization threshold")


def _a_bar(m, rho_min):
    """A_bar = m (first + second_diag + 2 second_mixed) at the smallest radius.

    Built from the per-entry bounds of ``kernel.derivative_bounds``; the
    tuned damping keeps eta > A_bar - 1.  m caps the points per support (a
    column), not the supports per point (a row), so the tuned eta guarantees
    q < 1 only with uniform radii (noisy mode); otherwise q is measured.
    """
    db = kernel.derivative_bounds(rho_min)
    return m * (db.first + db.second_diag + 2.0 * db.second_mixed)


class RadiusBands:
    """kd-trees over centers grouped by support radius (factor-2 bands).

    A single kd-tree forces every candidate search to use the largest support
    radius in the model; with mixed densities such a query returns nearly all
    centers.  Querying each band at its own radius keeps small-support
    centers tightly pruned while the few oversized supports stay cheap.
    The bands keep the centers and radii, so a search needs nothing else.
    """

    def __init__(self, centers, rho):
        self.centers = centers = np.asarray(centers, dtype=np.float64)
        self.rho = rho = np.asarray(rho, dtype=np.float64)
        level = np.floor(np.log2(rho / rho.min()) + 1e-12).astype(np.int64)
        self.groups = []
        for k in np.unique(level):
            idx = np.flatnonzero(level == k)  # ascending center indices
            self.groups.append(
                {
                    "idx": idx,
                    "tree": cKDTree(centers[idx]),
                    "rmax": float(rho[idx].max()),
                }
            )


@dataclass
class HrbfModel:
    centers: np.ndarray  # (n, 3)
    normals: np.ndarray  # (n, 3) unit
    rho: np.ndarray  # (n,)
    eta: float
    b_coeffs: np.ndarray  # (n, 3)
    rho_max: float
    bands: RadiusBands = field(repr=False, default=None)
    # the field's per-pair terms read these as (3, n) rows: the centers and
    # g_j = (20 / rho_j^2) b_j, so that the term of pair (x, j) is
    # <g_j, x - c_j> max(1 - t, 0)^3 with t = |x - c_j| / rho_j
    centers_t: np.ndarray = field(repr=False, default=None)
    g_t: np.ndarray = field(repr=False, default=None)

    @property
    def n_centers(self):
        return len(self.centers)


@dataclass
class BoundReport:
    a_bar: float
    bound_value: float
    measured_inf_error: float
    applicable: bool
    holds: bool
    bound_a_posteriori: float  # from the exact solve's first Neumann step; inf without one (q >= 1)


def _ladder_search(idx, points, rho0, counts0, m, workers):
    """Per center, the largest radius on the ladder from ``rho0`` whose
    strict count is <= m, and the number of points queried.  ``counts0``
    are the counts at ``rho0``, all <= m, so rung 0 always fits.

    R[k + 1] = min(R[k] GROWTH_FACTOR, RHO_HARD_CAP): the radii a growing
    support passes through.  The ladder ends at the first rung equal to the
    cap or at R[_MAX_RUNG], and always has rung 1, so a rho0 above the cap
    steps down to it.  Counts grow with the radius, so a center starts at
    the rung its rung-0 count predicts (counts grow as r^2 on a surface),
    moves up one rung while its rung fits and down one while it does not,
    and is done when a fitting rung sits just below a failing one (above
    the top counts as failing).  Each round is one ``strict_counts`` call
    over the centers not done.
    """
    ladder = [rho0, min(rho0 * GROWTH_FACTOR, RHO_HARD_CAP)]
    while ladder[-1] < RHO_HARD_CAP and len(ladder) <= _MAX_RUNG:
        ladder.append(min(ladder[-1] * GROWTH_FACTOR, RHO_HARD_CAP))
    ladder, top = np.array(ladder), len(ladder) - 1
    guess = np.floor(np.log(m / counts0) / (2.0 * math.log(GROWTH_FACTOR)))
    rung = np.clip(guess, 1, top).astype(np.int64)
    lo = np.zeros(len(points), dtype=np.int64)  # highest rung known to fit
    hi = np.full(len(points), top + 1)  # lowest rung known to fail
    todo = np.arange(len(points))
    queried = 0
    while len(todo):
        k = rung[todo]
        fits = strict_counts(idx, points[todo], ladder[k], workers=workers) <= m
        queried += len(todo)
        lo[todo[fits]], hi[todo[~fits]] = k[fits], k[~fits]
        rung[todo] = np.where(fits, k + 1, k - 1)
        todo = todo[hi[todo] > lo[todo] + 1]
    return ladder[lo], queried


def tune_parameters(
    ps,
    idx: PointOctree,
    s=1.0,
    noisy_mode=False,
    workers=1,
) -> TuningParams:
    """Choose per-center support radii, the cover cap m, and eta.

    Base length d_bar is 3/4 of the mean octree leaf diagonal; temporary
    radii s * d_bar define m as the maximal number of points strictly inside
    any support.  Each radius then grows by 5% increments while its support
    holds <= m points; the step that would exceed m is rolled back.  The
    increments form one ladder of radii shared by every center, and each
    center's radius is found by a search on it.
    """
    points = np.asarray(getattr(ps, "points", ps), dtype=np.float64)
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points to tune supports")
    if s < 1.0:
        raise ValueError("amplifier s must be >= 1")

    d_bar = 0.75 * idx.mean_leaf_diagonal
    rho0 = s * d_bar
    counts = strict_counts(idx, points, np.full(n, rho0), workers=workers)
    m = int(counts.max())
    rho, queried = _ladder_search(idx, points, rho0, counts, m, workers)

    if noisy_mode:
        rho = np.full(n, rho.min())

    rho_min = float(rho.min())
    rho_max = float(rho.max())
    eta = _a_bar(m, rho_min) - 1.0 + ETA_MARGIN

    tp = TuningParams(
        s=s,
        d_bar=d_bar,
        m=m,
        rho=rho,
        rho_min=rho_min,
        rho_max=rho_max,
        eta=eta,
        uniform_support=noisy_mode,
        ball_counts=n + queried,
    )
    tp.check()
    return tp


def quasi_coefficients(normals, rho, eta):
    """b_j = rho_j^2 n_j / (20 + eta rho_j^2); the scalar coefficients are 0."""
    rho = np.asarray(rho, dtype=np.float64)
    w = rho**2 / (kernel.D2_PEAK + eta * rho**2)
    return w[:, None] * np.asarray(normals, dtype=np.float64)


def build_model(ps, tp: TuningParams) -> HrbfModel:
    return model_from_arrays(ps.points, ps.normals, tp.rho, tp.eta)


def model_from_arrays(centers, normals, rho, eta) -> HrbfModel:
    """Build a model from centers, unit normals, radii (scalar or per center) and eta."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (len(centers),)).copy()
    b_coeffs = quasi_coefficients(normals, rho, eta)
    return HrbfModel(
        centers=centers,
        normals=normals,
        rho=rho,
        eta=float(eta),
        b_coeffs=b_coeffs,
        rho_max=float(rho.max()),
        bands=RadiusBands(centers, rho),
        centers_t=np.ascontiguousarray(centers.T),
        g_t=np.ascontiguousarray((b_coeffs * (kernel.D2_PEAK / rho**2)[:, None]).T),
    )


def _candidate_pairs(bands: RadiusBands, x, slack=0.0):
    """(query, center) index pairs with |c_j - x[query]| < rho_j + slack.

    Bands are searched separately so the search radius tracks the local
    support size.  The test is widened by a relative 1e-9 so that rounding
    never drops a pair; callers apply their exact test.  Pairs are sorted by
    query, then by center, which fixes an ascending-center accumulation order
    per query.
    """
    qtree = cKDTree(x)
    n = len(bands.rho)
    keys = []
    for group in bands.groups:
        hits = qtree.sparse_distance_matrix(
            group["tree"], (group["rmax"] + slack) * (1.0 + 1e-9), output_type="ndarray"
        )
        cidx = group["idx"][hits["j"]]
        near = hits["v"] < (bands.rho[cidx] + slack) * (1.0 + 1e-9)
        keys.append(hits["i"][near].astype(np.int64) * n + cidx[near])
    keys = np.sort(np.concatenate(keys))
    return keys // n, keys % n


# support pairs per slice of the strict test here and of ``SupportOperator``:
# their per-pair temporaries then stay small whatever the pair count.  On
# verify3k's 168,806 pairs the process peak (VmHWM) read 101.9 MB at 2**14,
# 108.8 MB at 2**15 and 115.6 MB at 2**16, against 132.0 MB unsliced
_PAIR_SLICE = 1 << 14


def _support_pairs(bands: RadiusBands, x):
    """(query, center) pairs with ||x[query] - c_j|| < rho_j, sorted by query, then center."""
    i, j = _candidate_pairs(bands, x)
    x_t, c_t = np.ascontiguousarray(x.T), np.ascontiguousarray(bands.centers.T)
    inside = np.empty(len(i), dtype=bool)
    for lo in range(0, len(i), _PAIR_SLICE):
        qi, cj = i[lo : lo + _PAIR_SLICE], j[lo : lo + _PAIR_SLICE]
        # sqrt((d_0^2 + d_1^2) + d_2^2) on columns: np.linalg.norm's sum, in its order
        r = np.square(x_t[0][qi] - c_t[0][cj])
        for a in (1, 2):
            r += np.square(x_t[a][qi] - c_t[a][cj])
        inside[lo : lo + len(qi)] = np.sqrt(r, out=r) < bands.rho[cj]
    return i[inside], j[inside]


# candidate pairs per chunk: a chunk's ~20 per-pair float64 arrays then take
# 0.5 MB each, so the few a pass touches at once fit a 2 MiB per-core L2
_EDGE_PAIRS = 1 << 16
# (brick, kernel) pairs per piece of a kernel listing: the kd-tree search's and
# the gap test's scratch stay bounded however many kernels reach a brick.  At
# 2**16 no array freed is large enough to raise glibc's trim threshold, and
# the fill's and the edge chunks' temporaries are faulted in again and again
_LIST_PAIRS = 1 << 17


def _cuts(offsets, budget):
    """Row boundaries that split CSR ``offsets`` into pieces of about ``budget`` pairs."""
    found = np.searchsorted(offsets[:-1], np.arange(0, offsets[-1], budget))
    return np.unique(np.concatenate([[0], found, [len(offsets) - 1]]))


def _unique(keys):
    """The distinct values of an integer array, sorted (as ``np.unique`` gives them).

    A sort and a neighbour compare: numpy 2.4's ``np.unique`` hashes integer
    keys instead, which takes about 0.9 s against 0.02 s for the sort on
    1.1M random int64 keys.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _row_slices(indptr):
    """(first row, end row) of each slice of whole rows of about ``_PAIR_SLICE`` pairs."""
    cuts = _cuts(indptr, _PAIR_SLICE)
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


@dataclass
class SupportOperator:
    """The exact Hermite system A on the centers, held as its support pairs.

    A couples point i to every kernel j whose support holds it.  Row-block i
    stacks the value and gradient constraints at point i; column-block j
    carries kernel j (support rho_j).  The regularized system A + eta I =
    D + dA has the diagonal blocks D = diag(1, 20/rho^2, ...) + eta I, the
    matrix the quasi-solution D^-1 y inverts in closed form.

    Per support pair the operator keeps the column j, the offset u = p_i - p_j
    and the radial terms (phi, gamma, beta) of ``kernel.radial_terms``, 56
    bytes against 132 for a stored 4x4 block and its index; the block is
    [[phi, -gamma u^T], [gamma u, -(gamma I + beta u u^T)]].  Nothing in it
    depends on eta: ``apply`` gives A lambda, so (A + eta I) lambda is
    ``apply(lam) + eta * lam``, and the per-row sums of |dA| are the same at
    every eta, so ||dA||inf and q = ||D^-1 dA||inf at any eta are read from
    them.  The build and ``apply`` take the pairs one row-aligned slice at a
    time.
    """

    n: int
    y: np.ndarray  # rhs, blocks (0, n_i)
    rho: np.ndarray
    indptr: np.ndarray = field(repr=False)  # row i's pairs are indptr[i]:indptr[i + 1]
    cols: np.ndarray = field(repr=False)  # kernel j of each pair, ascending within a row
    u: np.ndarray = field(repr=False)  # (3, pairs): p_i - p_j
    terms: np.ndarray = field(repr=False)  # (3, pairs): phi, gamma, beta
    row_sums: np.ndarray = field(repr=False)  # (4n,): per row of dA, the sum of |entries|

    @property
    def delta_a_inf(self):
        """||A + eta I - D||inf, the same at every eta."""
        return float(self.row_sums.max())

    def d_diag(self, eta):
        """The diagonal of D at damping ``eta``."""
        d_diag = np.repeat(kernel.D2_PEAK / self.rho**2 + eta, 4)
        d_diag[0::4] = 1.0 + eta
        return d_diag

    def contraction(self, eta):
        """q = ||D^-1 dA||inf at damping ``eta``; <= d_inv_inf(eta) * delta_a_inf."""
        return float((self.row_sums / self.d_diag(eta)).max())

    def d_inv_inf(self, eta):
        """||D^-1||inf at damping ``eta``."""
        rho_max = float(self.rho.max())
        return max(1.0 / (1.0 + eta), rho_max**2 / (kernel.D2_PEAK + eta * rho_max**2))

    def apply(self, lam):
        """A lam (eta = 0), each row summed over its support pairs."""
        slices = _row_slices(self.indptr)
        lam_t = np.ascontiguousarray(lam.reshape(self.n, 4).T)  # rows a, b_x, b_y, b_z
        out = np.empty((4, self.n))
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
            out[:, r0:r1] = np.add.reduceat(rows[:, :k], self.indptr[r0:r1] - lo, axis=1)
        return out.T.ravel()


def build_operator(ps, rho) -> SupportOperator:
    """List the support pairs of points ``ps`` with radii ``rho`` once and keep
    their terms, the per-row sums of |dA| and y."""
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
        # a self pair has u = 0 and phi = 1, so its block plus eta I is D
        # exactly, at every eta
        s[:, i == j] = 0.0
        # every row holds its self pair, so no run is empty
        row_sums[:, r0:r1] = np.add.reduceat(s, indptr[r0:r1] - lo, axis=1)

    y = np.zeros(4 * n)
    y.reshape(-1, 4)[:, 1:] = normals
    return SupportOperator(
        n=n,
        y=y,
        rho=rho,
        indptr=indptr,
        cols=cols,
        u=u,
        terms=terms,
        row_sums=row_sums.T.ravel(),
    )


# one sign-change lattice edge: the integer lattice coords of its lower corner,
# its axis and the field values at its lower and upper corners
EDGE_RECORD = np.dtype(
    [("corner", np.int64, (3,)), ("f_lo", np.float64), ("f_hi", np.float64), ("axis", np.int8)], align=True
)


def edge_records(corner, axis, f_lo, f_hi):
    """Sign-change lattice edges as an array of ``EDGE_RECORD``."""
    edges = np.empty(len(f_lo), EDGE_RECORD)
    edges["corner"], edges["axis"], edges["f_lo"], edges["f_hi"] = corner, axis, f_lo, f_hi
    return edges


def axis_edge_roots(table: LatticeTable, edges, tol, workers=1):
    """Roots on sign-change lattice edges, given as an array of ``EDGE_RECORD``.

    Each edge's lower corner must lie inside the table.  Each edge starts
    from ``_cubic_start``, which reads the table one edge beyond both ends;
    its ``fetch`` fills bricks, so it runs here in serial slices of
    ``_EVAL_CHUNK`` edges, before the batches go to the threads.  The
    batches read no cell values, so the table is cleared once the starts
    are known, and its bricks' room goes to their scratch.  ``tol`` is
    a fraction of the edge length: an edge stops once its next step would
    move by at most that much.  An edge lies in the closed cube of the brick
    holding its lower corner, so that brick's kernel listing supplies its
    candidates, and the iteration reduces to scalar work per (edge, kernel)
    pair: an edge is x = p + s w e_a for s in [0, 1], with p = origin +
    corner * w its lower corner and a its axis, whichever end is negative.
    With u = p - c the squared distance is |u|^2 + 2 u_a w s + w^2 s^2 and
    <g, x-c> is <g,u> + g_a w s, so each step costs one sqrt per pair
    instead of a fresh neighbor search.  Edges are grouped by that brick
    and worked like the fill: each batch of ``_FILL_BRICKS`` bricks runs on
    its own thread and lists its kernels in pieces of about
    ``_LIST_PAIRS`` pairs, and each piece cuts each axis's edges into
    chunks of about ``_EDGE_PAIRS`` pairs.  Each edge is summed by
    ``add.reduceat`` over its ascending pair list, so the result depends
    neither on the slicing, the batching, the pieces, the chunking nor the
    edge order.

    Returns (roots, gradients); gradients are nan where no support covers the
    root (callers substitute the edge direction).
    """
    model = table.model
    n = len(edges)
    if n == 0:
        return np.empty((0, 3)), np.empty((0, 3))
    start = np.empty(n)
    brick = np.empty(n, np.int64)  # the brick holding each lower corner
    for e0 in range(0, n, _EVAL_CHUNK):
        part = edges[e0 : e0 + _EVAL_CHUNK]
        start[e0 : e0 + _EVAL_CHUNK] = _cubic_start(table, part)
        cell = (part["corner"] - table.gmin) // _BRICK
        brick[e0 : e0 + _EVAL_CHUNK] = np.ravel_multi_index(tuple(cell.T), tuple(table._nb))
    table.clear()
    # edges grouped by brick; a stable sort and a neighbour compare find each
    # brick's run
    order = np.argsort(brick, kind="stable")
    brick = brick[order]
    bounds = np.append(np.flatnonzero(np.diff(brick, prepend=-1)), n)
    axis = edges["axis"]
    roots = np.empty((n, 3))
    grads = np.empty((n, 3))

    def run(sl):
        # a batch of bricks lists its kernels in pieces; its chunks hold
        # disjoint edges, written back at their rows in the caller's order
        ends = bounds[sl.start : sl.stop + 1]
        for k0, k1, _, rows, kern in table._pieces(brick[ends[:-1]]):
            offsets = np.searchsorted(rows, np.arange(k1 - k0 + 1))
            ids = order[ends[k0] : ends[k1]]
            row = np.repeat(np.arange(k1 - k0), np.diff(ends[k0 : k1 + 1]))
            for a in range(3):
                pick = np.flatnonzero(axis[ids] == a)
                e, first = ids[pick], offsets[row[pick]]
                count = offsets[row[pick] + 1] - first
                cuts = _cuts(np.concatenate([[0], np.cumsum(count)]), _EDGE_PAIRS).tolist()
                for c0, c1 in zip(cuts[:-1], cuts[1:]):
                    ec = e[c0:c1]
                    chunk = edges[ec]
                    roots[ec], grads[ec] = _edge_roots_chunk(
                        model, table.origin + chunk["corner"] * table.width, a, table.width,
                        chunk["f_lo"], chunk["f_hi"], start[ec], kern, first[c0:c1], count[c0:c1], tol
                    )

    _dispatch(run, [slice(b0, b0 + _FILL_BRICKS) for b0 in range(0, len(bounds) - 1, _FILL_BRICKS)], workers)
    return roots, grads


def _dispatch(run, slices, workers):
    """Call ``run`` on each slice, in order or on ``workers`` threads.

    Each call writes the rows of its own slice, so writes never race and the
    result depends neither on the worker count nor on completion order.
    """
    if workers <= 1 or len(slices) <= 1:
        for sl in slices:
            run(sl)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for job in [pool.submit(run, sl) for sl in slices]:
            job.result()


def _cubic_start(table, edges):
    """First point s in [0, 1] on each ``EDGE_RECORD`` edge, with s = 0 at its
    lower corner and s = 1 one width along its axis.

    The cells one edge beyond both ends give the field at s = -1 and 2
    (``fetch`` fills the bricks the search left unfilled).  The start is the
    root of the Lagrange cubic through the four values, reached by Newton
    steps from the linear interpolant, which is kept where an outer value is
    nan (outside the table or every support) or where the steps end at a
    point that is not finite or lies outside [0, 1].
    """
    corner, f_lo, f_hi = edges["corner"], edges["f_lo"], edges["f_hi"]
    step = np.eye(3, dtype=np.int64)[edges["axis"]]
    f_before, f_after = table.fetch(corner - step), table.fetch(corner + 2 * step)
    linear = -f_lo / (f_hi - f_lo)
    # the cubic is f_lo + s (c1 + s (c2 + s c3))
    c3 = (f_after - f_before + 3.0 * (f_lo - f_hi)) / 6.0
    c2 = 0.5 * (f_hi + f_before) - f_lo
    c1 = 0.5 * (f_hi - f_before) - c3
    s = linear
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_START_STEPS):
            s = s - (f_lo + s * (c1 + s * (c2 + s * c3))) / (c1 + s * (2.0 * c2 + 3.0 * c3 * s))
    return np.where(np.isfinite(s) & (s >= 0.0) & (s <= 1.0), s, linear)


def _edge_roots_chunk(model, p_lo, axis, width, f_lo, f_hi, start, kern, first, count, tol):
    """Roots and gradients for one chunk of edges along ``axis`` from its
    candidate (edge, kernel) pairs: the kernels of edge i are
    ``kern[first[i] : first[i] + count[i]]``.  Edge i runs from its lower
    corner ``p_lo[i]`` (s = 0, value ``f_lo[i]``) to one ``width`` along
    ``axis`` (s = 1, value ``f_hi[i]``).

    The root of each edge is found on s in [0, 1] by regula falsi with the
    Illinois modification (Dowell & Jarratt, BIT 1971), starting from
    ``start``.  A bisection step replaces it wherever the last value is
    undefined or the regula-falsi point is not finite or leaves the bracket.
    """
    n = len(p_lo)
    qidx = np.repeat(np.arange(n), count)
    cidx = kern[np.arange(len(qidx)) + np.repeat(first - np.cumsum(count) + count, count)]
    u = [np.take(p_lo[:, k], qidx) - np.take(model.centers_t[k], cidx) for k in range(3)]
    aa = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    bb = u[axis] * width
    gg = width * width
    # drop pairs whose support misses the whole segment: the minimum of the
    # distance quadratic over s in [0, 1] already exceeds rho
    s_close = np.clip(-bb / gg, 0.0, 1.0)
    d2_min = aa + (2.0 * bb + gg * s_close) * s_close
    near = np.flatnonzero(d2_min < model.rho[cidx] ** 2)
    del s_close, d2_min
    qidx, cidx, aa, bb = qidx[near], cidx[near], aa[near], bb[near]
    u = [x[near] for x in u]
    g = [model.g_t[k][cidx] for k in range(3)]
    cc = g[0] * u[0] + g[1] * u[1] + g[2] * u[2]
    dd = g[axis] * width
    rho = model.rho[cidx]
    rho_sq = rho**2

    up = f_lo < 0.0  # the field rises along +axis
    lo = np.zeros(n)
    hi = np.ones(n)
    s = start
    kept = np.zeros(n, dtype=np.int8)  # end the last step kept: -1 lo, 1 hi
    active = np.ones(n, dtype=bool)
    # the passes read t^2 = |x - c|^2 / rho^2 and <g, x - c>
    pairs = (qidx, aa / rho_sq, 2.0 * bb / rho_sq, gg / rho_sq, cc, dd)
    del rho_sq
    runs = all_runs = _runs(qidx, n)
    for _ in range(ROOT_STEPS):
        if not active.any():
            break
        v = _edge_values(pairs, runs, s, n)
        # a value moves the end whose sign it shares; undefined values count
        # as positive, so they shrink the bracket from the positive end
        to_lo = active & ((v < 0.0) == up)
        to_hi = active & ((v < 0.0) != up)
        # Illinois: an end kept twice in a row has its stored value halved
        f_hi = np.where(to_lo & (kept == 1), 0.5 * f_hi, f_hi)
        f_lo = np.where(to_hi & (kept == -1), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(to_lo, s, lo), np.where(to_lo, v, f_lo)
        hi, f_hi = np.where(to_hi, s, hi), np.where(to_hi, v, f_hi)  # nan where undefined
        kept = np.where(to_lo, 1, np.where(to_hi, -1, kept))
        # the regula-falsi point, or the midpoint where it is not finite or
        # leaves the bracket
        s_next = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        s_next = np.where((s_next >= lo) & (s_next <= hi), s_next, 0.5 * (lo + hi))
        zero = v == 0.0
        s_next = np.where(zero, s, s_next)
        done = zero | (np.abs(s_next - s) <= tol)
        s = np.where(active, s_next, s)
        active &= ~done
        # pairs of finished edges only add to values nobody reads, so they
        # are dropped once they make up a quarter of the work
        live = np.flatnonzero(active[pairs[0]])
        if len(live) < 0.75 * len(pairs[0]):
            pairs = tuple(x[live] for x in pairs)
            runs = _runs(pairs[0], n)
    roots = p_lo.copy()
    roots[:, axis] += s * width

    # gradient of the field at the roots from the same pair set; the terms
    # are dropped as soon as they are read
    del pairs, runs
    s = s[qidx]
    u[axis] += s * width  # now x - c
    r = np.sqrt(aa + (2.0 * bb + gg * s) * s)
    gu = cc + dd * s
    del aa, bb, cc, dd, s
    return roots, _gradient_sums(all_runs, u, g, gu, r, rho, n)


def _gradient_sums(runs, u, g, gu, r, rho, n):
    """Field gradients (n, 3) from pair columns u = x - c and g (three rows
    each), gu = <g, u> and r = |u|: sums over each run of
    (1-t)^3 g - 3 (1-t)^2 <g, u> u / (rho r) with t = r / rho."""
    t = r / rho
    inside = t < 1.0
    w1 = np.maximum(np.subtract(1.0, t, out=t), 0.0, out=t)
    w2 = w1 * w1
    radial = 3.0 * w2 * gu / (rho * np.maximum(r, 1e-300))
    tang = np.multiply(w2, w1, out=w2)
    del t, w1
    # the three rows share the runs and the mask, so they are summed as one
    x = np.empty((3, len(r)))
    for k in range(3):
        np.multiply(tang, g[k], out=x[k])
        x[k] -= radial * u[k]
    return _segment_sums(runs, x, inside, n).T


def _pair_terms(t, gu):
    """The field's per-pair terms <g, x - c> max(1 - t, 0)^3 from t = |x - c| / rho
    and gu = <g, x - c>; works in place, so ``t`` and ``gu`` are overwritten
    and the result is ``gu``."""
    np.maximum(np.subtract(1.0, t, out=t), 0.0, out=t)
    for _ in range(3):
        gu *= t
    return gu


def _edge_values(pairs, runs, s, n):
    """Field values of n edges at parameters ``s``; nan where no support covers them.

    ``pairs`` holds the terms (edge, a0, a1, a2, c, d): t^2 is
    a0 + (a1 + a2 s) s and <g, x - c> is c + d s.  Kept apart from the root
    loop so that its per-pair temporaries are freed before the loop compacts
    the pairs.
    """
    qs, a0, a1, a2, c, d = pairs
    s = s[qs]
    t = a2 * s  # t^2 by Horner, then t, in place
    t += a1
    t *= s
    t += a0
    inside = t < 1.0
    np.sqrt(t, out=t)
    gu = d * s
    gu += c
    return _segment_sums(runs, _pair_terms(t, gu), inside, n)


def _runs(ids, n):
    """The values in [0, n) that occur in ascending ``ids``, and where each one's run starts."""
    # runs are long, so one search per value beats a pass over ids
    bounds = np.searchsorted(ids, np.arange(n + 1))
    some = np.flatnonzero(bounds[1:] > bounds[:-1])
    return some, bounds[some]


def _segment_sums(runs, x, inside, n):
    """Sums of ``x`` (..., pairs) over each of ``runs``, as (..., n).

    Each run is added by ``add.reduceat``, so its sum depends only on its own
    pairs.  Sums are nan for values in [0, n) that have no run, and for runs
    with no pair ``inside`` ((pairs,) or the shape of ``x``).  Only the runs
    present reach reduceat, which would return an element, not 0, for an
    empty one.
    """
    some, starts = runs
    out = np.full(x.shape[:-1] + (n,), np.nan)
    if len(starts):
        covered = np.logical_or.reduceat(inside, starts, axis=-1)
        out[..., some] = np.where(covered, np.add.reduceat(x, starts, axis=-1), np.nan)
    return out


_BRICK = 4  # lattice cells along each edge of a brick
_FILL_BRICKS = 1024  # bricks per thread batch; a batch is listed in ``_LIST_PAIRS`` pieces
_FILL_PAIRS = 4096  # (brick, kernel) pairs per evaluation step; bounds the scratch arrays


class LatticeTable:
    """Field values at lattice corners, evaluated one brick of 4^3 cells at a time.

    A brick is filled the first time ``fetch`` reads one of its cells, so
    only the bricks that extraction reads are ever evaluated, and it stays
    filled until ``clear``.  A fill takes the kernels near each
    brick from ``_brick_kernels``, the listing the edge roots read as well;
    both the squared distance and <g, x-c> decompose along the axes, so a
    kernel's share of a brick is assembled from three length-4 arrays by
    broadcasting.  A kernel reaches the cells of its support box [lo, hi]
    that lie strictly inside its support, and every cell is summed per brick
    by ``add.reduceat`` over the brick's ascending pair list.  Values
    therefore depend neither on which bricks are filled together nor on the
    worker count.  Cells outside every support hold nan.  Memory grows with
    the filled bricks, not with the bounding box: filled bricks are kept as
    a sorted index of flat brick numbers.

    Cells are keyed by their flat C-order index over ``shape`` (``keys``), so
    key order is lexicographic coordinate order; edge keys append the axis,
    which bounds the table at 2**63 / 4 cells.
    """

    def __init__(self, model: HrbfModel, origin, width, workers=1):
        origin = np.asarray(origin, dtype=np.float64)
        centers, rho = model.centers, model.rho
        lo = np.ceil((centers - rho[:, None] - origin) / width).astype(np.int64)
        hi = np.floor((centers + rho[:, None] - origin) / width).astype(np.int64)
        gmin = lo.min(axis=0)
        gmax = hi.max(axis=0)
        shape = gmax - gmin + 1
        if 4 * math.prod(int(v) for v in shape) >= 2**63:
            raise ValueError(
                f"voxel width {width:g} is too fine: {shape.tolist()} cells overflow int64 edge keys"
            )
        self.model = model
        self.origin = origin
        self.width = width
        self.gmin = gmin
        self.shape = shape
        self._ushape = shape.astype(np.uint64)
        self._workers = workers
        # per-kernel terms of the fill beside the model's (3, n) rows
        self._lo = np.ascontiguousarray((lo - gmin).T)  # box bounds in table cells
        self._hi = np.ascontiguousarray((hi - gmin).T)
        self._rho_sq = rho**2
        self._inv_rho = 1.0 / rho
        self._nb = -(-shape // _BRICK)  # bricks per axis
        self.clear()

    def clear(self):
        """Drop every filled brick; later reads fill them again."""
        # sorted flat numbers of the filled bricks and their store rows; the
        # sentinel key lies above every brick number, so a search always lands
        # on an entry
        self._keys = np.array([np.iinfo(np.int64).max])
        self._rows = np.array([-1])
        self._store = np.empty((0, _BRICK**3))
        self._n_filled = 0

    def keys(self, coords):
        """Flat C-order index over ``shape`` of integer lattice coords (..., 3); -1 outside."""
        c = np.asarray(coords, dtype=np.int64) - self.gmin
        flat = (c[..., 0] * self.shape[1] + c[..., 1]) * self.shape[2] + c[..., 2]
        return np.where(self._inside(c), flat, -1)

    def _inside(self, c):
        """Whether table-relative coords (..., 3) lie in the table.  Negative
        coords wrap high as unsigned, so one compare per column tests both bounds."""
        cu, top = c.view(np.uint64), self._ushape
        return (cu[..., 0] < top[0]) & (cu[..., 1] < top[1]) & (cu[..., 2] < top[2])

    def coords(self, keys):
        """Integer lattice coords (..., 3) of keys inside the table; inverse of ``keys``."""
        return np.stack(np.unravel_index(keys, tuple(self.shape)), axis=-1) + self.gmin

    @property
    def values_flat(self):
        """Values at every cell of the table, flat in C order over ``shape``."""
        bricks = np.arange(int(np.prod(self._nb)))
        self._fill(bricks[self._rows_of(bricks) < 0])
        nx, ny, nz = (int(v) for v in self._nb)
        b = _BRICK
        dense = (
            self._store[self._rows_of(bricks)]
            .reshape(nx, ny, nz, b, b, b)
            .transpose(0, 3, 1, 4, 2, 5)
            .reshape(nx * b, ny * b, nz * b)
        )
        sx, sy, sz = (int(v) for v in self.shape)
        return dense[:sx, :sy, :sz].ravel()

    def fetch(self, coords):
        """Values at integer lattice coords of any shape (..., 3)."""
        coords = np.asarray(coords, dtype=np.int64)
        c = coords.reshape(-1, 3) - self.gmin
        inside = self._inside(c)
        every = bool(inside.all())
        if not every:
            c = c[inside]
        # c is a copy, so it becomes the brick coords in place
        local = c % _BRICK
        c //= _BRICK
        brick = np.ravel_multi_index(tuple(c.T), tuple(self._nb))
        # neighbouring coords mostly share a brick (the eight corners of a
        # voxel, say), so the index is searched once per run of equal bricks
        start = np.flatnonzero(np.diff(brick, prepend=-1))
        rows = self._rows_of(brick[start])
        missing = rows < 0
        if missing.any():
            self._fill(_unique(brick[start[missing]]))
            rows[missing] = self._rows_of(brick[start[missing]])
        rows = np.repeat(rows, np.diff(start, append=len(brick)))
        local = (local[:, 0] * _BRICK + local[:, 1]) * _BRICK + local[:, 2]
        out = self._store[rows, local]
        if not every:
            full = np.full(len(inside), np.nan)
            full[inside] = out
            out = full
        return out.reshape(coords.shape[:-1])

    def _rows_of(self, bricks):
        """Store row of each flat brick number, -1 where the brick is not filled."""
        at = np.searchsorted(self._keys, bricks)
        return np.where(self._keys[at] == bricks, self._rows[at], -1)

    def _fill(self, bricks):
        """Evaluate unfilled bricks, given as ascending flat brick numbers."""
        n = len(bricks)
        if n == 0:
            return
        vals = np.empty((n, _BRICK**3))

        def run(sl):
            self._batch_values(bricks[sl], vals[sl])

        _dispatch(run, [slice(b0, b0 + _FILL_BRICKS) for b0 in range(0, n, _FILL_BRICKS)], self._workers)

        n0, n1 = self._n_filled, self._n_filled + n
        if n1 > len(self._store):
            # grown in place by a quarter: realloc can move a large store's
            # pages instead of holding it twice for a copy.  Reads gather by
            # index, which copies, so no view of the old buffer is left
            self._store.resize((max(n1, len(self._store) + len(self._store) // 4), _BRICK**3), refcheck=False)
        self._store[n0:n1] = vals
        # ascending bricks keep the index sorted when inserted at their search positions
        at = np.searchsorted(self._keys, bricks)
        self._keys = np.insert(self._keys, at, bricks)
        self._rows = np.insert(self._rows, at, np.arange(n0, n1))
        self._n_filled = n1

    def _brick_kernels(self, bricks):
        """First cells of a batch of bricks and their (row, kernel) pairs.

        A kernel is listed for a brick when its support can meet the brick's
        closed cube [first, first + 4] of cells, so one list serves the
        brick's own cells and every lattice edge whose lower corner lies in
        the brick.  The search at the cube centre and the gap test against the
        cube are both widened by a relative 1e-9 so that rounding never drops
        a pair; callers apply their exact tests.  Pairs are sorted by row,
        then by kernel.
        """
        first = np.stack(np.unravel_index(bricks, tuple(self._nb)), axis=1) * _BRICK
        centre = self.origin + (self.gmin + first + 0.5 * _BRICK) * self.width
        rows, kern = _candidate_pairs(self.model.bands, centre, 0.5 * np.sqrt(3.0) * _BRICK * self.width)
        # squared distance from each kernel's center to the brick's cube, one
        # axis at a time and in place, so that only a few (pairs,) columns
        # are live; the cube's faces are placed once per brick
        gap = np.zeros(len(rows))
        for a in range(3):
            c = np.take(self.model.centers[:, a], kern)
            near = np.take(self.origin[a] + (self.gmin[a] + first[:, a]) * self.width, rows)
            far = np.take(self.origin[a] + (self.gmin[a] + first[:, a] + _BRICK) * self.width, rows)
            near -= c
            far -= c
            np.maximum(near, 0.0, out=near)
            np.minimum(far, 0.0, out=far)
            near *= near
            far *= far
            near += far
            gap += near
            del c, near, far
        keep = np.flatnonzero(gap < (self.model.rho[kern] * (1.0 + 1e-9)) ** 2)
        del gap
        return first, rows[keep], kern[keep]

    def _pieces(self, bricks):
        """The kernel listings of ``bricks`` in pieces of consecutive bricks of
        about ``_LIST_PAIRS`` pairs each: (start, stop, first, rows, kern) per
        piece, as ``_brick_kernels`` gives them for ``bricks[start:stop]``.

        Bricks that fit the budget even if every kernel met every brick are
        listed whole.  Otherwise the first piece is sized from the pairs per
        brick of a listing of every 32nd brick, and each later one from those
        of the piece before it, so the pieces depend only on ``bricks``.
        """
        size = max(1, _LIST_PAIRS // len(self.model.rho))
        if len(bricks) > size:
            sample = bricks[::32]
            size = len(sample) * _LIST_PAIRS // max(len(self._brick_kernels(sample)[1]), 1)
        b0 = 0
        while b0 < len(bricks):
            b1 = min(b0 + max(1, size), len(bricks))
            first, rows, kern = self._brick_kernels(bricks[b0:b1])
            yield b0, b1, first, rows, kern
            size = (b1 - b0) * _LIST_PAIRS // max(len(rows), 1)
            b0 = b1

    def _batch_values(self, bricks, out):
        """Write the (len(bricks), 64) values of a batch of bricks to ``out``."""
        # the listing also serves edges that leave the brick, so some of its
        # kernels reach no cell of the brick; their slots add only zeros
        for k0, k1, first, rows, kern in self._pieces(bricks):
            offsets = np.searchsorted(rows, np.arange(k1 - k0 + 1))
            cuts = _cuts(offsets, _FILL_PAIRS).tolist()
            for b0, b1 in zip(cuts[:-1], cuts[1:]):
                p0, p1 = offsets[b0], offsets[b1]
                out[k0 + b0 : k0 + b1] = self._brick_values(first[b0:b1], rows[p0:p1] - b0, kern[p0:p1])

    def _brick_values(self, first, rows, kern):
        """(len(first), 64) values of bricks from their (row, kernel) pairs.

        Arrays run (x, y, z, pair) so that numpy's inner loops span the pairs.
        Most (cell, pair) slots lie inside the support, so every slot is
        evaluated and each brick's pairs are summed as one segment.
        """
        # the four cells of each brick along each axis and their positions, (3, 4, bricks)
        cells = first.T[:, None, :] + np.arange(_BRICK)[None, :, None]
        pos = self.origin[:, None, None] + (self.gmin[:, None, None] + cells) * self.width
        off, sq = [], []
        for a in range(3):
            # take keeps the (4, pairs) gathers C-ordered, which [:, rows] does not
            off.append(np.take(pos[a], rows, axis=1) - self.model.centers_t[a][kern])
            # squares outside the kernel's box are inf: a kernel reaches its box only
            c = np.take(cells[a], rows, axis=1)
            inbox = (c >= self._lo[a][kern]) & (c <= self._hi[a][kern])
            sq.append(np.where(inbox, off[a] ** 2, np.inf))
        d2 = (sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :]).reshape(_BRICK**3, -1)
        inside = d2 < self._rho_sq[kern]
        g = np.take(self.model.g_t, kern, axis=1)
        gu = (
            (g[0] * off[0])[:, None, None]
            + (g[1] * off[1])[None, :, None]
            + (g[2] * off[2])[None, None, :]
        ).reshape(_BRICK**3, -1)
        # d2 becomes t = sqrt(d2) / rho in place.  max(1 - t, 0) is 0 outside
        # the kernel's box, where d2 is inf, and outside the support up to
        # rounding (about 1e-16 where d2 is within ulps of rho^2, so its cube
        # is about 1e-48), which is why no mask is applied to the terms
        t = np.sqrt(d2, out=d2)
        t *= self._inv_rho[kern]
        return _segment_sums(_runs(rows, len(first)), _pair_terms(t, gu), inside, len(first)).T


def quasi_lambda(b):
    """The quasi-solution with vector coefficients ``b`` (n, 3) as a flat 4n
    vector of (a_j, b_j) blocks, a_j = 0."""
    lam = np.zeros((len(b), 4))
    lam[:, 1:] = b
    return lam.ravel()


def verify_error_bound(tp: TuningParams, b, exact_result=None) -> BoundReport:
    """Check the constant error bound of the quasi-solution, whose vector
    coefficients are ``b``, against an exact solve.

    ``applicable``/``holds`` refer to the a-priori bound; the a-posteriori
    bound of ``exact_result`` is carried alongside.  Without an exact solve
    (q >= 1) nothing is measured and the bound is not applicable.
    """
    a_bar = tp.a_bar
    eta = tp.eta
    applicable = a_bar / (1.0 + eta) < 1.0 and exact_result is not None
    bound = a_bar * tp.rho_max**2 / ((1.0 + eta - a_bar) * (kernel.D2_PEAK + eta * tp.rho_max**2)) if applicable else np.inf
    if exact_result is None:
        measured, bound_a_posteriori = np.nan, np.inf
    else:
        measured = float(np.max(np.abs(quasi_lambda(b) - exact_result.lam)))
        bound_a_posteriori = float(exact_result.bound_a_posteriori)
    return BoundReport(
        a_bar=a_bar,
        bound_value=float(bound),
        measured_inf_error=measured,
        applicable=applicable,
        holds=bool(applicable and measured <= bound),
        bound_a_posteriori=bound_a_posteriori,
    )
