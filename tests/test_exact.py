"""Exact solver assembly and solution against dense and analytic oracles."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hrbfsurf import exact, kernel
from hrbfsurf.exact import (
    IllConditionedError,
    SolverCapError,
    _neumann_ceiling,
    assemble,
    condition_estimate,
    eval_exact,
    solve,
)
from hrbfsurf.model import RadiusBands, _support_pairs, model_from_arrays, quasi_lambda
from hrbfsurf.octree import build_octree
from hrbfsurf.pointset import HermitePointSet
from hrbfsurf.sampling import sphere_points, torus_points

from conftest import random_unit_vectors, tuned_model
from oracles import radius_query


def _random_ps(n, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-spread, spread, (n, 3))
    return HermitePointSet(pts, random_unit_vectors(n, rng))


def test_single_point_block():
    ps = HermitePointSet(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
    rho, eta = 1.5, 0.25
    sys = assemble(ps, rho, eta)
    dense = sys.matrix.toarray()
    # the self block is diag(1, 20/rho^2, ...) plus eta on the diagonal
    expect = np.diag([1.0, 20.0 / rho**2, 20.0 / rho**2, 20.0 / rho**2]) + eta * np.eye(4)
    np.testing.assert_allclose(dense, expect, atol=1e-14)
    assert sys.delta_a_inf == 0.0
    res = solve(sys)
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
    assert (0, 1) not in pairs and (1, 0) in pairs
    assert {(0, 2), (2, 0), (3, 4), (4, 3), (5, 0)} <= pairs


def test_assembly_matches_dense_oracle():
    ps = _random_ps(25, 0, spread=0.8)
    rho = np.random.default_rng(9).uniform(0.6, 1.1, 25)  # per-center radii
    eta = 0.1
    sys = assemble(ps, rho, eta)
    pts = ps.points
    dense = eta * np.eye(100)
    for i in range(25):
        for j in range(25):
            d = pts[i] - pts[j]
            if np.linalg.norm(d) >= rho[j]:
                continue
            blk = np.empty((4, 4))
            blk[0, 0] = kernel.value(d[None], rho[j])[0]
            blk[0, 1:] = -kernel.gradient(d[None], rho[j])[0]
            blk[1:, 0] = kernel.gradient(d[None], rho[j])[0]
            blk[1:, 1:] = -kernel.hessian(d[None], rho[j])[0]
            dense[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] += blk
    np.testing.assert_allclose(sys.matrix.toarray(), dense, atol=1e-13)
    # row sums of |dA| and of |D^-1 dA| against the same dense assembly
    d_diag = np.repeat(20.0 / rho**2, 4) + eta
    d_diag[0::4] = 1.0 + eta
    row_sums = np.abs(dense - np.diag(d_diag)).sum(1)
    assert sys.delta_a_inf == pytest.approx(row_sums.max(), rel=1e-12, abs=0.0)
    assert sys.contraction == pytest.approx((row_sums / d_diag).max(), rel=1e-12, abs=0.0)
    assert sys.contraction <= sys.d_inv_inf * sys.delta_a_inf * (1 + 1e-12)


def test_isolated_centers_match_quasi_solution():
    # centers farther apart than any support: A + eta I is exactly D
    pts = 4.0 * np.arange(6)[:, None] * np.array([[1.0, 0.0, 0.0]])
    rng = np.random.default_rng(1)
    nrm = random_unit_vectors(6, rng)
    ps = HermitePointSet(pts, nrm)
    eta = 0.5
    sys = assemble(ps, 1.0, eta)
    res = solve(sys)
    model = model_from_arrays(pts, nrm, 1.0, eta)
    assert np.max(np.abs(res.lam - quasi_lambda(model))) < 1e-12
    assert res.delta_a_inf == 0.0


def test_interpolation_constraints_without_regularization():
    # with eta = 0 the solution interpolates: f(p_i) = 0, grad f(p_i) = n_i
    ps = _random_ps(40, 2, spread=0.6)
    sys = assemble(ps, 1.1, 0.0)
    res = solve(sys)
    assert sys.contraction >= 1.0 and res.method == "lu"
    vals, grads = eval_exact(ps, 1.1, res.lam, ps.points, want_gradient=True)
    assert np.max(np.abs(vals)) < 1e-8
    assert np.max(np.abs(grads - ps.normals)) < 1e-8


def test_d_inv_inf_formula():
    ps = _random_ps(10, 3)
    sys = assemble(ps, 1.0, 2.0)
    # for rho < sqrt(20) the value-block diagonal dominates
    assert sys.d_inv_inf == pytest.approx(1.0 / 3.0)
    sys_wide = assemble(ps, 4.9, 2.0)  # past the rho^2 = 20 crossover
    assert sys_wide.d_inv_inf == pytest.approx(4.9**2 / (20.0 + 2.0 * 4.9**2))


def test_solver_cap():
    ps = _random_ps(30, 4)
    with pytest.raises(SolverCapError):
        assemble(ps, 1.0, 0.1, cap=20)


def test_condition_estimate_reasonable():
    ps = _random_ps(15, 5)
    well = assemble(ps, 0.8, 5.0)
    cond = condition_estimate(well)
    assert 1.0 <= cond < 1e4


def test_cond_limit_triggers():
    ps = _random_ps(15, 6)
    sys = assemble(ps, 0.8, 5.0)
    with pytest.raises(IllConditionedError):
        solve(sys, cond_limit=1.0)


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
            g = kernel.gradient(d[None], rho[j])[0]
            h = kernel.hessian(d[None], rho[j])[0]
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
    sys = assemble(ps, 1.0, 0.3)
    res = solve(sys)
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, (20, 3))
    vals, grads = eval_exact(ps, 1.0, res.lam, x, want_gradient=True)
    h = 1e-6
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (eval_exact(ps, 1.0, res.lam, x + e) - eval_exact(ps, 1.0, res.lam, x - e)) / (2 * h)
        assert np.max(np.abs(fd - grads[:, a])) < 1e-5


def test_tuned_eta_keeps_exact_near_quasi(sphere_ps):
    norm_ps, tp, model = tuned_model(sphere_ps)
    sys = assemble(norm_ps, tp.rho, tp.eta)
    res = solve(sys)
    err = np.max(np.abs(res.lam - quasi_lambda(model)))
    assert res.d_inv_inf * res.delta_a_inf < 1.0
    assert err <= 1e-4


def _tuned_system(shape, s):
    ps = sphere_points(500, seed=3) if shape == "sphere" else torus_points(500, seed=4)
    norm_ps, tp, _ = tuned_model(ps, s=s)
    return assemble(norm_ps, tp.rho, tp.eta)


@pytest.mark.parametrize("shape", ["sphere", "torus"])
@pytest.mark.parametrize("s", [1.0, 2.0, 3.5])
def test_neumann_matches_lu_oracle(shape, s):
    sys = _tuned_system(shape, s)
    res = solve(sys)
    assert res.method == "neumann"
    q = sys.contraction
    assert q <= res.d_inv_inf * res.delta_a_inf * (1 + 1e-12)
    assert 0 < res.iterations < _neumann_ceiling(q)
    oracle = spla.splu(sys.matrix.tocsc()).solve(sys.y)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(res.lam - oracle)) <= 1e-12 * scale
    assert res.residual_inf <= 1e-13
    # the first Neumann step bounds the distance from the quasi-solution D^-1 y
    quasi_err = np.max(np.abs(sys.y / sys.d_diag - oracle))
    assert quasi_err <= res.bound_a_posteriori


def test_neumann_ceiling_alone_reaches_rounding_level(monkeypatch):
    # with the a-posteriori stop disabled the iteration runs to the ceiling,
    # which must already leave the iterate at rounding level
    sys = _tuned_system("sphere", 2.0)
    monkeypatch.setattr(exact, "_STOP_ULPS", -1.0)
    res = solve(sys)
    assert res.iterations == _neumann_ceiling(sys.contraction)
    oracle = spla.splu(sys.matrix.tocsc()).solve(sys.y)
    assert np.max(np.abs(res.lam - oracle)) <= 1e-12 * np.max(np.abs(oracle))
