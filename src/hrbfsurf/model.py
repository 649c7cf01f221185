"""Closed-form HRBF quasi-interpolation: support tuning, coefficients, evaluation.

The implicit value at x is f(x) = -sum_j <b_j, grad phi_j(x)> with
b_j = rho_j^2 n_j / (20 + eta rho_j^2), summed over kernels whose open
support contains x.  Outside every support the function is undefined.
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
ETA_MARGIN = 1e-5
_EVAL_CHUNK = 16384  # fixed so chunking (hence output) is worker-count independent
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

    @property
    def a_bar(self):
        return _a_bar(self.m, self.rho_min)

    def check(self):
        _check_rho_max(self.rho_max)
        if not (self.eta > self.a_bar - 1.0):
            raise ValueError("eta below the regularization threshold")


def _check_rho_max(rho_max):
    if not (rho_max < np.sqrt(kernel.D2_PEAK)):
        raise ValueError("rho_max must stay below sqrt(20); model not normalized?")


def _a_bar(m, rho_min):
    """A_bar = m (first + second_diag + 2 second_mixed) at the smallest radius.

    Built from the per-entry bounds of ``kernel.derivative_bounds``; the
    tuned damping keeps eta > A_bar - 1 so that the error bound applies.
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
    contraction: float  # A_bar / (1 + eta), estimate of ||D^-1||inf ||dA||inf
    bound_value: float
    measured_inf_error: float
    applicable: bool
    holds: bool
    bound_a_posteriori: float  # from the exact solve's first Neumann step; inf when q >= 1


def tune_parameters(
    ps,
    idx: PointOctree,
    s=1.0,
    noisy_mode=False,
    eta_override=None,
    workers=1,
) -> TuningParams:
    """Choose per-center support radii, the cover cap m, and eta.

    Base length d_bar is 3/4 of the mean octree leaf diagonal; temporary
    radii s * d_bar define m as the maximal number of points strictly inside
    any support.  Each radius then grows by 5% increments while its support
    holds <= m points; the step that would exceed m is rolled back.
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

    rho = np.full(n, rho0)
    active = np.ones(n, dtype=bool)
    # 1.05^420 * rho0 overflows any sane cap; the loop exits on the cap first.
    for _ in range(420):
        if not active.any():
            break
        trial = rho[active] * GROWTH_FACTOR
        trial = np.minimum(trial, RHO_HARD_CAP)
        cnt = strict_counts(idx, points[active], trial, workers=workers)
        over = cnt > m
        capped = trial >= RHO_HARD_CAP
        ai = np.flatnonzero(active)
        grow = ~over
        rho[ai[grow]] = trial[grow]
        active[ai[over | (capped & grow)]] = False

    if noisy_mode:
        rho = np.full(n, rho.min())

    rho_min = float(rho.min())
    rho_max = float(rho.max())
    threshold = _a_bar(m, rho_min) - 1.0
    eta = float(eta_override) if eta_override is not None else threshold + ETA_MARGIN

    tp = TuningParams(
        s=s,
        d_bar=d_bar,
        m=m,
        rho=rho,
        rho_min=rho_min,
        rho_max=rho_max,
        eta=eta,
        uniform_support=noisy_mode,
    )
    if eta_override is None:
        tp.check()
    else:
        _check_rho_max(tp.rho_max)
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


def _support_pairs(bands: RadiusBands, x):
    """(query, center) pairs with ||x[query] - c_j|| < rho_j, sorted by query, then center."""
    i, j = _candidate_pairs(bands, x)
    inside = np.linalg.norm(x[i] - bands.centers[j], axis=1) < bands.rho[j]
    return i[inside], j[inside]


# candidate pairs per chunk: a chunk's ~20 per-pair float64 arrays then take
# 0.5 MB each, so the few a pass touches at once fit a 2 MiB per-core L2
_EDGE_PAIRS = 1 << 16


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


def axis_edge_roots(table: LatticeTable, corner, p_neg, p_pos, f_neg, f_pos, tol, workers=1):
    """Roots on axis-aligned lattice edges; p_neg holds the negative endpoints.

    ``corner`` holds the integer lattice coords of each edge's lower end,
    which must lie inside the table, and ``f_neg``/``f_pos`` the field values
    at the two ends.  Each edge starts from ``_cubic_start``, which reads the
    table one edge beyond both ends.  ``tol`` is a fraction of the edge
    length: an edge stops once its next step would move by at most that
    much.  An edge lies in the closed cube of the brick holding its lower
    corner, so that brick's kernel listing supplies its candidates, and the
    iteration reduces to scalar work per (edge, kernel) pair: with
    u = p_neg - c and L the signed edge length
    along its axis a, the squared distance at parameter s is
    |u|^2 + 2 u_a L s + L^2 s^2 and <g, x-c> is <g,u> + g_a L s, so each step
    costs one sqrt per pair instead of a fresh neighbor search.  Edges are
    worked in chunks of one axis and about ``_EDGE_PAIRS`` pairs, and each
    edge is summed by ``add.reduceat`` over its ascending pair list, so the
    result depends neither on the chunking nor on the edge order.

    Returns (roots, gradients); gradients are nan where no support covers the
    root (callers substitute the edge direction).
    """
    model = table.model
    p_neg = np.asarray(p_neg, dtype=np.float64).reshape(-1, 3)
    p_pos = np.asarray(p_pos, dtype=np.float64).reshape(-1, 3)
    f_neg = np.asarray(f_neg, dtype=np.float64).reshape(-1)
    f_pos = np.asarray(f_pos, dtype=np.float64).reshape(-1)
    n = len(p_neg)
    if n == 0:
        return np.empty((0, 3)), np.empty((0, 3))
    corner = np.asarray(corner, dtype=np.int64).reshape(-1, 3)
    seg = p_pos - p_neg
    axis = np.argmax(np.abs(seg), axis=1)
    length = seg[np.arange(n), axis]
    start = _cubic_start(table, corner, axis, length, f_neg, f_pos)
    # edges sorted by axis, so that every chunk has a single one
    order = np.argsort(axis, kind="stable")
    axis, length, start = axis[order], length[order], start[order]
    p_neg, f_neg, f_pos = p_neg[order], f_neg[order], f_pos[order]
    cells = corner[order] - table.gmin
    bricks, brick_of = np.unique(
        np.ravel_multi_index(tuple((cells // _BRICK).T), tuple(table._nb)), return_inverse=True
    )
    counts, kernels = [], []
    for b0 in range(0, len(bricks), _FILL_BRICKS):
        batch = bricks[b0 : b0 + _FILL_BRICKS]
        _, rows, kern = table._brick_kernels(batch)
        counts.append(np.bincount(rows, minlength=len(batch)))
        kernels.append(kern)
    offsets = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    kernels = np.concatenate(kernels)
    first = offsets[brick_of]
    count = offsets[brick_of + 1] - first
    roots = np.empty((n, 3))
    grads = np.empty((n, 3))

    def run(sl):
        # chunks hold disjoint edges, written back at their rows in the caller's order
        c = count[sl]
        qidx = np.repeat(np.arange(len(c)), c)
        cidx = kernels[np.arange(len(qidx)) + np.repeat(first[sl] - np.cumsum(c) + c, c)]
        roots[order[sl]], grads[order[sl]] = _edge_roots_chunk(
            model, p_neg[sl], int(axis[sl.start]), length[sl], f_neg[sl], f_pos[sl], start[sl],
            qidx, cidx, tol,
        )

    cuts = np.union1d(
        _cuts(np.concatenate([[0], np.cumsum(count)]), _EDGE_PAIRS),
        np.searchsorted(axis, np.arange(4)),
    )
    _dispatch(run, [slice(a, b) for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())], workers)
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


def _cubic_start(table, corner, axis, length, f_neg, f_pos):
    """First point s in [0, 1] on each edge, with s = 0 at the negative end.

    The cells one edge beyond both ends give the field at s = -1 and 2
    (``fetch`` fills the bricks the search left unfilled).  The start is the
    root of the Lagrange cubic through the four values, reached by Newton
    steps from the linear interpolant, which is kept where an outer value is
    nan (outside the table or every support) or where the steps end at a
    point that is not finite or lies outside [0, 1].
    """
    step = np.eye(3, dtype=np.int64)[axis]
    below, above = table.fetch(corner - step), table.fetch(corner + 2 * step)
    up = length > 0  # the negative end is the lower corner
    f_before, f_after = np.where(up, below, above), np.where(up, above, below)
    linear = -f_neg / (f_pos - f_neg)
    # the cubic is f_neg + s (c1 + s (c2 + s c3))
    c3 = (f_after - f_before + 3.0 * (f_neg - f_pos)) / 6.0
    c2 = 0.5 * (f_pos + f_before) - f_neg
    c1 = 0.5 * (f_pos - f_before) - c3
    s = linear
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_START_STEPS):
            s = s - (f_neg + s * (c1 + s * (c2 + s * c3))) / (c1 + s * (2.0 * c2 + 3.0 * c3 * s))
    return np.where(np.isfinite(s) & (s >= 0.0) & (s <= 1.0), s, linear)


def _edge_roots_chunk(model, p_neg, axis, length, f_neg, f_pos, start, qidx, cidx, tol):
    """Roots and gradients for one chunk of edges along ``axis`` from its
    candidate (edge, kernel) pairs; ``length`` holds the signed edge lengths.

    The root of each edge is found on s in [0, 1] by regula falsi with the
    Illinois modification (Dowell & Jarratt, BIT 1971), starting from
    ``start``.  A bisection step replaces it wherever the last value is
    undefined or the regula-falsi point is not finite or leaves the bracket.
    """
    n = len(p_neg)
    u = [np.take(p_neg[:, k], qidx) - np.take(model.centers_t[k], cidx) for k in range(3)]
    p_len = length[qidx]
    aa = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    bb = u[axis] * p_len
    gg = np.maximum(p_len * p_len, 1e-300)
    # drop pairs whose support misses the whole segment: the minimum of the
    # distance quadratic over s in [0, 1] already exceeds rho
    s_close = np.clip(-bb / gg, 0.0, 1.0)
    d2_min = aa + (2.0 * bb + gg * s_close) * s_close
    near = np.flatnonzero(d2_min < model.rho[cidx] ** 2)
    del s_close, d2_min
    qidx, cidx, aa, bb, gg, p_len = qidx[near], cidx[near], aa[near], bb[near], gg[near], p_len[near]
    u = [x[near] for x in u]
    g = [model.g_t[k][cidx] for k in range(3)]
    cc = g[0] * u[0] + g[1] * u[1] + g[2] * u[2]
    dd = g[axis] * p_len
    rho = model.rho[cidx]
    rho_sq = rho**2

    lo = np.zeros(n)
    hi = np.ones(n)
    f_lo = f_neg.copy()
    f_hi = f_pos.copy()
    s = start
    kept = np.zeros(n, dtype=np.int8)  # end the last step kept: -1 lo, 1 hi
    active = np.ones(n, dtype=bool)
    # the passes read t^2 = |x - c|^2 / rho^2 and <g, x - c>
    pairs = (qidx, aa / rho_sq, 2.0 * bb / rho_sq, gg / rho_sq, cc, dd)
    runs = all_runs = _runs(qidx, n)
    for _ in range(ROOT_STEPS):
        if not active.any():
            break
        v = _edge_values(pairs, runs, s, n)
        # undefined values shrink the bracket from the positive side
        neg = active & (v < 0.0)
        pos = active & ~(v < 0.0)
        # Illinois: an end kept twice in a row has its stored value halved
        f_hi = np.where(neg & (kept == 1), 0.5 * f_hi, f_hi)
        f_lo = np.where(pos & (kept == -1), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(neg, s, lo), np.where(neg, v, f_lo)
        hi, f_hi = np.where(pos, s, hi), np.where(pos, v, f_hi)  # nan where undefined
        kept = np.where(neg, 1, np.where(pos, -1, kept))
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
    roots = p_neg.copy()
    roots[:, axis] += s * length

    # gradient of the field at the roots from the same pair set
    s = s[qidx]
    u[axis] += s * p_len  # now x - c
    r = np.sqrt(aa + (2.0 * bb + gg * s) * s)
    return roots, _gradient_sums(all_runs, u, g, cc + dd * s, r, rho, n)


def _gradient_sums(runs, u, g, gu, r, rho, n):
    """Field gradients (n, 3) from pair columns u = x - c and g (three rows
    each), gu = <g, u> and r = |u|: sums over each run of
    (1-t)^3 g - 3 (1-t)^2 <g, u> u / (rho r) with t = r / rho."""
    t = r / rho
    inside = t < 1.0
    w1 = np.maximum(1.0 - t, 0.0)
    w2 = w1 * w1
    radial = 3.0 * w2 * gu / (rho * np.maximum(r, 1e-300))
    tang = w2 * w1
    return np.stack([_segment_sums(runs, tang * g[k] - radial * u[k], inside, n) for k in range(3)], axis=1)


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
_FILL_BRICKS = 1024  # bricks per kernel listing; bounds the pair lists
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
        brick, local = np.divmod(c, _BRICK)
        brick = np.ravel_multi_index(tuple(brick.T), tuple(self._nb))
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
            vals[sl] = self._batch_values(bricks[sl])

        _dispatch(run, [slice(b0, b0 + _FILL_BRICKS) for b0 in range(0, n, _FILL_BRICKS)], self._workers)

        n0, n1 = self._n_filled, self._n_filled + n
        if n1 > len(self._store):
            grown = np.empty((max(n1, 2 * len(self._store)), _BRICK**3))
            grown[:n0] = self._store[:n0]
            self._store = grown
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
        # squared distance from each kernel's center to the brick's cube,
        # one axis at a time so that only (pairs,) columns are live
        gap = np.zeros(len(rows))
        for a in range(3):
            first_r = np.take(first[:, a], rows)
            c = np.take(self.model.centers[:, a], kern)
            near = self.origin[a] + (self.gmin[a] + first_r) * self.width - c
            far = self.origin[a] + (self.gmin[a] + first_r + _BRICK) * self.width - c
            gap += np.maximum(near, 0.0) ** 2 + np.minimum(far, 0.0) ** 2
        keep = np.flatnonzero(gap < (self.model.rho[kern] * (1.0 + 1e-9)) ** 2)
        return first, rows[keep], kern[keep]

    def _batch_values(self, bricks):
        """(len(bricks), 64) values of a batch of bricks."""
        # the listing also serves edges that leave the brick, so some of its
        # kernels reach no cell of the brick; their slots add only zeros
        first, rows, kern = self._brick_kernels(bricks)
        offsets = np.searchsorted(rows, np.arange(len(bricks) + 1))
        cuts = _cuts(offsets, _FILL_PAIRS).tolist()
        out = np.empty((len(bricks), _BRICK**3))
        for b0, b1 in zip(cuts[:-1], cuts[1:]):
            p0, p1 = offsets[b0], offsets[b1]
            out[b0:b1] = self._brick_values(first[b0:b1], rows[p0:p1] - b0, kern[p0:p1])
        return out

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


def _eval_chunk(model: HrbfModel, x, want_gradient):
    """Values (nan where undefined), gradients or None, and the defined mask at x (n, 3)."""
    n = len(x)
    qidx, cidx = _candidate_pairs(model.bands, x)
    u = [np.take(x[:, k], qidx) - np.take(model.centers_t[k], cidx) for k in range(3)]
    g = [np.take(model.g_t[k], cidx) for k in range(3)]
    gu = g[0] * u[0] + g[1] * u[1] + g[2] * u[2]
    d2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    rho = model.rho[cidx]
    r = np.sqrt(d2)
    runs = _runs(qidx, n)
    grads = _gradient_sums(runs, u, g, gu, r, rho, n) if want_gradient else None
    values = _segment_sums(runs, _pair_terms(r / rho, gu), d2 < rho**2, n)
    return values, grads, np.isfinite(values)


class ImplicitField:
    """Batched evaluator for the quasi-interpolant, optionally multi-threaded.

    Queries go to ``_dispatch`` in fixed chunks of ``_EVAL_CHUNK``, and
    per-query accumulation runs in center index order, so results are
    bitwise identical for any worker count.
    """

    def __init__(self, model: HrbfModel, workers=1):
        self.model = model
        self.workers = max(1, int(workers))

    def evaluate(self, x, want_gradient=False):
        """Values (nan where undefined), optional gradients, defined mask."""
        x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
        n = len(x)
        values, defined = np.empty(n), np.empty(n, dtype=bool)
        grads = np.empty((n, 3)) if want_gradient else None

        def run(sl):
            values[sl], g, defined[sl] = _eval_chunk(self.model, x[sl], want_gradient)
            if want_gradient:
                grads[sl] = g

        _dispatch(run, [slice(i, i + _EVAL_CHUNK) for i in range(0, n, _EVAL_CHUNK)], self.workers)
        return values, grads, defined

    def values(self, x):
        return self.evaluate(x, want_gradient=False)[0]


def quasi_lambda(model: HrbfModel):
    """The quasi-solution as a flat 4n vector of (a_j, b_j) blocks, a_j = 0."""
    lam = np.zeros((model.n_centers, 4))
    lam[:, 1:] = model.b_coeffs
    return lam.ravel()


def verify_error_bound(model: HrbfModel, tp: TuningParams, exact_result) -> BoundReport:
    """Check the constant error bound of the quasi-solution against an exact solve.

    ``applicable``/``holds`` refer to the a-priori bound; the a-posteriori
    bound of ``exact_result`` is carried alongside.
    """
    a_bar = tp.a_bar
    eta = tp.eta
    contraction = a_bar / (1.0 + eta)
    applicable = contraction < 1.0
    bound = a_bar * tp.rho_max**2 / ((1.0 + eta - a_bar) * (kernel.D2_PEAK + eta * tp.rho_max**2)) if applicable else np.inf
    measured = float(np.max(np.abs(quasi_lambda(model) - exact_result.lam)))
    return BoundReport(
        a_bar=a_bar,
        contraction=contraction,
        bound_value=float(bound),
        measured_inf_error=measured,
        applicable=applicable,
        holds=bool(applicable and measured <= bound),
        bound_a_posteriori=float(exact_result.bound_a_posteriori),
    )
