"""Exact solver operator and solution against dense and analytic oracles."""

import re
import tracemalloc

import numpy as np
import pytest

from hrbfsurf import exact, kernel
from hrbfsurf.exact import IllConditionedError, _neumann_ceiling, solve
from hrbfsurf.model import (
    RadiusBands,
    _candidate_pairs,
    _cuts,
    _support_pairs,
    build_operator,
    model_from_arrays,
    quasi_lambda,
)
from hrbfsurf.octree import build_octree
from hrbfsurf.pointset import HermitePointSet
from hrbfsurf.sampling import sphere_points, torus_points

from conftest import random_unit_vectors, tuned_model
from oracles import (
    assemble_whole,
    condition_estimate,
    eval_exact,
    kernel_gradient,
    kernel_hessian,
    lu_solve,
    radius_query,
)


def _random_ps(n, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-spread, spread, (n, 3))
    return HermitePointSet(pts, random_unit_vectors(n, rng))


def _dense(op, eta):
    """A + eta I column by column, as ``apply(e) + eta * e``."""
    return np.column_stack([op.apply(e) + eta * e for e in np.eye(4 * op.n)])


def test_single_point_block():
    ps = HermitePointSet(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
    rho, eta = 1.5, 0.25
    op = build_operator(ps, rho)
    dense = _dense(op, eta)
    # the self block is diag(1, 20/rho^2, ...) plus eta on the diagonal
    expect = np.diag([1.0, 20.0 / rho**2, 20.0 / rho**2, 20.0 / rho**2]) + eta * np.eye(4)
    np.testing.assert_allclose(dense, expect, atol=1e-14)
    assert op.delta_a_inf == 0.0
    res = solve(op, eta)
    np.testing.assert_allclose(res.lam[1:], ps.normals[0] / (20.0 / rho**2 + eta))


def test_support_pairs_match_radius_oracle():
    # per-center radii; p_1 lies exactly rho_1 from p_0, so (0, 1) is out and
    # (1, 0) is in; p_2 duplicates p_0, p_4 duplicates p_3, and p_5 lies just
    # inside the largest support, rho_0
    rng = np.random.default_rng(12)
    pts = np.vstack([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0], rng.uniform(-1.0, 1.0, (37, 3))])
    pts[4] = pts[3]
    pts[5] = [0.0, 0.0, 0.9999]
    rho = rng.uniform(0.3, 0.9, len(pts))
    rho[0], rho[1] = 1.0, 0.5
    bands = RadiusBands(pts, rho)
    assert len(bands.groups) > 1  # the radii span more than one band
    i_idx, j_idx = _support_pairs(bands, pts)
    keys = i_idx * len(pts) + j_idx
    assert np.all(np.diff(keys) > 0)  # sorted by i, then j, without repeats
    idx = build_octree(pts)
    for j in range(len(pts)):
        np.testing.assert_array_equal(np.sort(i_idx[j_idx == j]), radius_query(idx, pts[j], rho[j]))
    pairs = set(zip(i_idx.tolist(), j_idx.tolist()))
    # the widened candidate search keeps (0, 1); the strict test drops it
    cand_i, cand_j = _candidate_pairs(bands, pts)
    assert np.any((cand_i == 0) & (cand_j == 1))
    assert (0, 1) not in pairs and (1, 0) in pairs
    assert {(0, 2), (2, 0), (3, 4), (4, 3), (5, 0)} <= pairs


def test_assembly_matches_dense_oracle():
    ps = _random_ps(25, 0, spread=0.8)
    rho = np.random.default_rng(9).uniform(0.6, 1.1, 25)  # per-center radii
    eta = 0.1
    op = build_operator(ps, rho)
    pts = ps.points
    dense = eta * np.eye(100)
    for i in range(25):
        for j in range(25):
            d = pts[i] - pts[j]
            if np.linalg.norm(d) >= rho[j]:
                continue
            blk = np.empty((4, 4))
            blk[0, 0] = kernel.value(d[None], rho[j])[0]
            blk[0, 1:] = -kernel_gradient(d[None], rho[j])[0]
            blk[1:, 0] = kernel_gradient(d[None], rho[j])[0]
            blk[1:, 1:] = -kernel_hessian(d[None], rho[j])[0]
            dense[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] += blk
    np.testing.assert_allclose(_dense(op, eta), dense, atol=1e-13)
    lam = np.random.default_rng(10).normal(size=100)
    want = dense @ lam
    np.testing.assert_allclose(op.apply(lam) + eta * lam, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
    # row sums of |dA| and of |D^-1 dA| against the same dense assembly
    d_diag = np.repeat(20.0 / rho**2, 4) + eta
    d_diag[0::4] = 1.0 + eta
    row_sums = np.abs(dense - np.diag(d_diag)).sum(1)
    assert op.delta_a_inf == pytest.approx(row_sums.max(), rel=1e-12, abs=0.0)
    assert op.contraction(eta) == pytest.approx((row_sums / d_diag).max(), rel=1e-12, abs=0.0)
    assert op.contraction(eta) <= op.d_inv_inf(eta) * op.delta_a_inf * (1 + 1e-12)


def test_isolated_centers_match_quasi_solution():
    # centers farther apart than any support: A + eta I is exactly D
    pts = 4.0 * np.arange(6)[:, None] * np.array([[1.0, 0.0, 0.0]])
    rng = np.random.default_rng(1)
    nrm = random_unit_vectors(6, rng)
    ps = HermitePointSet(pts, nrm)
    eta = 0.5
    op = build_operator(ps, 1.0)
    res = solve(op, eta)
    model = model_from_arrays(pts, nrm, 1.0, eta)
    assert np.max(np.abs(res.lam - quasi_lambda(model.b_coeffs))) < 1e-12
    assert op.delta_a_inf == 0.0


def test_interpolation_constraints_without_regularization():
    # with eta = 0 the solution interpolates: f(p_i) = 0, grad f(p_i) = n_i
    ps = _random_ps(40, 2, spread=0.6)
    system = assemble_whole(ps, 1.1, 0.0)
    assert system.contraction >= 1.0  # beyond the Neumann series; LU solves it
    vals, grads = eval_exact(ps, 1.1, lu_solve(system), ps.points, want_gradient=True)
    assert np.max(np.abs(vals)) < 1e-8
    assert np.max(np.abs(grads - ps.normals)) < 1e-8


def test_d_inv_inf_formula():
    ps = _random_ps(10, 3)
    op = build_operator(ps, 1.0)
    # for rho < sqrt(20) the value-block diagonal dominates
    assert op.d_inv_inf(2.0) == pytest.approx(1.0 / 3.0)
    op_wide = build_operator(ps, 4.9)  # past the rho^2 = 20 crossover
    assert op_wide.d_inv_inf(2.0) == pytest.approx(4.9**2 / (20.0 + 2.0 * 4.9**2))


def test_solver_cap():
    # no point cap: solve refuses q >= 1, naming q, at any n (two coincident
    # centers at eta = 0 already give q >= 1), and takes any n at q < 1
    ps = _random_ps(30, 4)
    twin = HermitePointSet(np.zeros((2, 3)), ps.normals[:2])
    op = build_operator(ps, 1.0)
    for bare in (build_operator(twin, 1.0), op):
        assert bare.contraction(0.0) >= 1.0
        with pytest.raises(ValueError, match=re.escape(f"q = {bare.contraction(0.0):.3g} >= 1")):
            solve(bare, 0.0)
    assert op.contraction(50.0) < 1.0
    assert solve(op, 50.0).iterations > 0


def test_residual_gate_factors_nothing(monkeypatch):
    # a failed residual gate reports the residual alone and factors nothing
    def no_lu(*args, **kwargs):
        raise AssertionError("the residual gate factored the system")

    monkeypatch.setattr("scipy.sparse.linalg.splu", no_lu)
    monkeypatch.setattr(exact, "_RESIDUAL_TOL", -1.0)
    op = build_operator(_random_ps(30, 4), 1.0)
    assert op.contraction(50.0) < 1.0
    with pytest.raises(IllConditionedError, match="residual") as info:
        solve(op, 50.0)
    assert info.value.residual >= 0.0
    assert "eta" not in str(info.value)


def test_condition_estimate_reasonable():
    ps = _random_ps(15, 5)
    cond = condition_estimate(assemble_whole(ps, 0.8, 5.0))
    assert 1.0 <= cond < 1e4


def test_eval_exact_matches_dense_oracle():
    # per-center radii over two bands; x[0] lies outside every support and
    # x[1] exactly rho_0 from center 0, which must not count
    ps = _random_ps(30, 10, spread=0.8)
    rho = np.random.default_rng(11).uniform(0.35, 1.2, 30)
    rho[0] = 0.5
    assert len(RadiusBands(ps.points, rho).groups) > 1
    lam = np.random.default_rng(12).normal(size=120)
    inner = np.random.default_rng(13).uniform(-1.0, 1.0, (60, 3))
    x = np.vstack([[9.0, 9.0, 9.0], ps.points[0] + [0.5, 0.0, 0.0], inner])
    vals, grads = eval_exact(ps, rho, lam, x, want_gradient=True)
    blocks = lam.reshape(-1, 4)
    want_v, want_g = np.zeros(len(x)), np.zeros((len(x), 3))
    for q in range(len(x)):
        for j in range(30):
            d = x[q] - ps.points[j]
            if np.linalg.norm(d) >= rho[j]:
                continue
            g = kernel_gradient(d[None], rho[j])[0]
            h = kernel_hessian(d[None], rho[j])[0]
            want_v[q] += blocks[j, 0] * kernel.value(d[None], rho[j])[0] - blocks[j, 1:] @ g
            want_g[q] += blocks[j, 0] * g - h @ blocks[j, 1:]
    assert vals[0] == 0.0 and np.all(grads[0] == 0.0)
    assert np.linalg.norm(x[1] - ps.points[0]) == rho[0]
    qi, j = _support_pairs(RadiusBands(ps.points, rho), x)
    assert 0 not in j[qi == 1] and 0 not in qi
    np.testing.assert_allclose(vals, want_v, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(grads, want_g, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(eval_exact(ps, rho, lam, x), vals)


def test_eval_exact_gradient_matches_fd():
    ps = _random_ps(20, 7, spread=0.5)
    lam = lu_solve(assemble_whole(ps, 1.0, 0.3))  # q = 28.7: LU, not the Neumann series
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, (20, 3))
    vals, grads = eval_exact(ps, 1.0, lam, x, want_gradient=True)
    h = 1e-6
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (eval_exact(ps, 1.0, lam, x + e) - eval_exact(ps, 1.0, lam, x - e)) / (2 * h)
        assert np.max(np.abs(fd - grads[:, a])) < 1e-5


def test_tuned_eta_keeps_exact_near_quasi(sphere_ps):
    norm_ps, tp, model = tuned_model(sphere_ps)
    op = build_operator(norm_ps, tp.rho)
    res = solve(op, tp.eta)
    err = np.max(np.abs(res.lam - quasi_lambda(model.b_coeffs)))
    assert op.d_inv_inf(tp.eta) * op.delta_a_inf < 1.0
    assert err <= 1e-4




def _tuned_input(shape, s):
    ps = sphere_points(500, seed=3) if shape == "sphere" else torus_points(500, seed=4)
    norm_ps, tp, _ = tuned_model(ps, s=s)
    return norm_ps, tp.rho, tp.eta


def _lu_oracle(ps, rho, eta):
    return lu_solve(assemble_whole(ps, rho, eta))


@pytest.mark.parametrize("shape", ["sphere", "torus"])
@pytest.mark.parametrize("s", [1.0, 2.0, 3.5])
def test_neumann_matches_lu_oracle(shape, s):
    ps, rho, eta = _tuned_input(shape, s)
    op = build_operator(ps, rho)
    res = solve(op, eta)
    q = op.contraction(eta)
    assert q <= op.d_inv_inf(eta) * op.delta_a_inf * (1 + 1e-12)
    assert 0 < res.iterations < _neumann_ceiling(q)
    oracle = _lu_oracle(ps, rho, eta)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(res.lam - oracle)) <= 1e-12 * scale
    assert res.residual_inf <= 1e-13
    # the first Neumann step bounds the distance from the quasi-solution D^-1 y
    quasi_err = np.max(np.abs(op.y / op.d_diag(eta) - oracle))
    assert quasi_err <= res.bound_a_posteriori


@pytest.mark.parametrize("case", ["sphere", "torus", "bands", "wide"])
@pytest.mark.parametrize("budget", [64, None])
def test_operator_matches_whole_assembly(case, budget, monkeypatch):
    # a budget of 64 pairs cuts the pairs into many slices of whole rows, and
    # a row longer than the budget becomes a slice of its own; None keeps
    # the default slices
    if budget is not None:
        monkeypatch.setattr("hrbfsurf.model._PAIR_SLICE", budget)
    if case == "bands":  # per-center radii over three factor-2 bands
        ps = _random_ps(200, 14, spread=0.8)
        rho = np.random.default_rng(15).uniform(0.15, 0.9, 200)
        assert len(RadiusBands(ps.points, rho).groups) == 3
        etas = (0.0, 0.5)
    elif case == "wide":  # the 600-point sphere's tuned radii times 10
        ps, tp, _ = tuned_model(sphere_points(600, seed=1))
        rho, etas = 10.0 * tp.rho, (tp.eta, 0.0)
    else:  # verify3k's input, and the torus at s = 2
        ps = sphere_points(3000, seed=1) if case == "sphere" else torus_points(2000, seed=3)
        ps, tp, _ = tuned_model(ps, s=1.0 if case == "sphere" else 2.0)
        rho, etas = tp.rho, (tp.eta, 0.0)
    # one build serves every damping: A + eta I is apply(lam) + eta lam, and
    # the row sums of |dA| are the same at every eta
    op = build_operator(ps, rho)
    lam = np.random.default_rng(16).normal(size=4 * len(ps))
    for eta in etas:
        ref = assemble_whole(ps, rho, eta)
        assert op.y.tobytes() == ref.y.tobytes() and op.d_diag(eta).tobytes() == ref.d_diag.tobytes()
        # ||dA||inf and q to the bit: the row sums add each block row's
        # |entries| in the order the oracle's sums over stored blocks do
        assert op.row_sums.tobytes() == ref.row_sums.tobytes()
        assert op.delta_a_inf == ref.delta_a_inf and op.contraction(eta) == ref.contraction
        want = ref.matrix @ lam
        assert np.max(np.abs(op.apply(lam) + eta * lam - want)) <= 1e-12 * np.max(np.abs(want))
    # gradient rows hold ||dA||inf on tuned radii; on wide supports (phi near
    # 1 and H = O(1 / rho^2)) a value row does, and pins that row's sum
    assert (np.argmax(ref.row_sums) % 4 == 0) == (case == "wide")
    # the operator holds the oracle's support pairs, in the oracle's order
    np.testing.assert_array_equal(op.indptr, ref.matrix.indptr)
    np.testing.assert_array_equal(op.cols, ref.matrix.indices)
    # u and (phi, gamma, beta) to the bit, against (pairs, 3) offsets and their norms
    rows = np.repeat(np.arange(len(ps)), np.diff(op.indptr))
    offsets = ps.points[rows] - ps.points[op.cols]
    assert op.u.tobytes() == np.ascontiguousarray(offsets.T).tobytes()
    terms = kernel.radial_terms(np.linalg.norm(offsets, axis=1), np.broadcast_to(rho, len(ps))[op.cols])
    assert op.terms.tobytes() == np.stack(terms).tobytes()
    if budget is not None:
        cuts = _cuts(op.indptr, budget)
        assert len(cuts) > 10
        if case == "torus":  # s = 2 gives rows longer than the budget
            lone = cuts[:-1][np.diff(cuts) == 1]
            assert np.any(np.diff(op.indptr)[lone] > budget)
    # eta = 0: q >= 1, which solve refuses
    assert op.contraction(0.0) >= 1.0
    with pytest.raises(ValueError, match="q = "):
        solve(op, 0.0)


def test_neumann_ceiling_alone_reaches_rounding_level(monkeypatch):
    # with the a-posteriori stop disabled the iteration runs to the ceiling,
    # which must already leave the iterate at rounding level
    ps, rho, eta = _tuned_input("sphere", 2.0)
    op = build_operator(ps, rho)
    monkeypatch.setattr(exact, "_STOP_ULPS", -1.0)
    res = solve(op, eta)
    assert res.iterations == _neumann_ceiling(op.contraction(eta))
    oracle = _lu_oracle(ps, rho, eta)
    assert np.max(np.abs(res.lam - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_support_operator_memory_grows_with_pairs():
    # traced peak bytes of build_operator at two sizes: what doubling the
    # points adds to the peak, per added support pair, is the build's cost per
    # pair.  The operator holds 56 B per pair (a column index, u and phi,
    # gamma, beta); a stored 4x4 block and its index took 132 B
    runs = []
    for n in (1500, 3000):
        ps, tp, _ = tuned_model(sphere_points(n, seed=1))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            op = build_operator(ps, tp.rho)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        runs.append((len(op.cols), peak))
        del op
    (p0, peak0), (p1, peak1) = runs
    assert p1 > 1.5 * p0
    # measured 57 B
    assert (peak1 - peak0) / (p1 - p0) <= 100
