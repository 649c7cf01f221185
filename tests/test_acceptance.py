"""Acceptance suite: one test per top-level contract of the library.

Each test checks a single end-to-end property at its stated tolerance and
produces one pass or fail line.  Nothing here is weakened to pass: where a
documented constant is not actually attainable, or where the host lacks the
cores for a scaling measurement, the test fails and the assertion message
says why.
"""

import hashlib
import time

import numpy as np
import pytest

from hrbfsurf import exact, kernel
from hrbfsurf.covers import CoverParams, density_weights, quadric_error, select_centers
from hrbfsurf.dualcontour import boundary_edge_count, extract_surface, face_components
from hrbfsurf.metrics import two_sided_distance
from hrbfsurf.model import (
    ImplicitField,
    build_model,
    model_from_arrays,
    quasi_lambda,
    tune_parameters,
)
from hrbfsurf.octree import build_octree
from hrbfsurf.pipeline import ReconConfig, reconstruct_points, run_noise_bench, verify_bound_on_points
from hrbfsurf.pointset import HermitePointSet, normalize_to_unit_box
from hrbfsurf.sampling import icosphere, sphere_points, torus_points, two_density_sphere

from conftest import random_unit_vectors


def test_criterion_1_error_bound_verification():
    """Quasi-solution error bound holds on 20 random sphere/torus configs."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for run in range(20):
        n = int(rng.integers(50, 2001))
        seed = int(rng.integers(0, 2**31))
        ps = sphere_points(n, seed=seed) if run % 2 == 0 else torus_points(n, seed=seed)
        report, row = verify_bound_on_points(ps, ReconConfig())
        assert row["contraction_exact"] < 1.0, f"run {run}: contraction >= 1"
        # q <= contraction_exact < 1, so the a-posteriori bound applies
        assert report.measured_inf_error <= report.bound_a_posteriori, (
            f"run {run} (n={n}): measured {report.measured_inf_error:.3e} "
            f"exceeds a-posteriori bound {report.bound_a_posteriori:.3e}"
        )
        if report.applicable:
            assert report.holds, (
                f"run {run} (n={n}): measured {report.measured_inf_error:.3e} "
                f"exceeds bound {report.bound_value:.3e}"
            )
        assert report.measured_inf_error <= 1e-4, (
            f"run {run} (n={n}): measured error {report.measured_inf_error:.3e} > 1e-4"
        )
    assert time.perf_counter() - t0 < 300.0, "bound verification exceeded 5 minutes"


def test_criterion_2_kernel_derivatives_and_bounds():
    """Kernel derivatives match finite differences and stay under the
    documented per-entry constants over a million-sample sweep.

    The constants are those of ``kernel.derivative_bounds``: the first
    derivative peaks at 135/(64 rho), at r = rho/4 along an axis (the paper's
    5/(4 rho) is the value at r = rho/2 and is exceeded there); the diagonal
    second derivative peaks at 20/rho^2, at r = 0; the mixed second
    derivative peaks at 40/(9 rho^2), at t = 1/3 with x = y, and the
    documented 15/(2 rho^2) lies above it.
    """
    rng = np.random.default_rng(2)
    rho = 1.3
    x = rng.uniform(-rho, rho, (4000, 3))
    r = np.linalg.norm(x, axis=1)
    keep = (r > 1e-3 * rho) & (np.abs(r - rho) > 1e-3 * rho) & (r < rho)
    x = x[keep]
    h = 1e-6
    grad = kernel.gradient(x, rho)
    hess = kernel.hessian(x, rho)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd_g = (kernel.value(x + e, rho) - kernel.value(x - e, rho)) / (2 * h)
        denom = np.maximum(np.abs(grad[:, a]), 1e-3)
        assert np.max(np.abs(fd_g - grad[:, a]) / denom) <= 1e-5
        fd_h = (kernel.gradient(x + e, rho) - kernel.gradient(x - e, rho)) / (2 * h)
        denom = np.maximum(np.abs(hess[:, :, a]), 1e-2)
        assert np.max(np.abs(fd_h - hess[:, :, a]) / denom) <= 1e-5

    sweep = rng.uniform(-rho, rho, (1_000_000, 3))
    sweep = sweep[np.linalg.norm(sweep, axis=1) < rho]
    bounds = kernel.derivative_bounds(rho)
    g_max = np.max(np.abs(kernel.gradient(sweep, rho)))
    hs = kernel.hessian(sweep, rho)
    diag_max = np.max(np.abs(hs[:, (0, 1, 2), (0, 1, 2)]))
    mixed_max = max(
        np.max(np.abs(hs[:, 0, 1])), np.max(np.abs(hs[:, 0, 2])), np.max(np.abs(hs[:, 1, 2]))
    )
    assert diag_max <= bounds.second_diag + 1e-12
    assert g_max <= bounds.first + 1e-12, (
        f"documented first-derivative constant {bounds.first:.6f} is not an upper "
        f"bound: sweep reached {g_max:.6f} (true extreme 135/(64 rho) = "
        f"{135.0 / (64.0 * rho):.6f} at r = rho/4)"
    )
    assert mixed_max <= bounds.second_mixed + 1e-12, (
        f"documented mixed-derivative constant {bounds.second_mixed:.6f} is not an "
        f"upper bound: sweep reached {mixed_max:.6f} (true extreme 40/(9 rho^2) = "
        f"{40.0 / (9.0 * rho**2):.6f} at t = 1/3, x = y)"
    )


def test_criterion_3_isolated_center_exactness():
    """With disjoint supports the closed form equals the exact solution."""
    rng = np.random.default_rng(3)
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = 3.0 * grid + rng.uniform(-0.2, 0.2, grid.shape)
    normals = random_unit_vectors(len(pts), rng)
    ps = HermitePointSet(pts, normals)
    rho = rng.uniform(0.8, 1.2, len(pts))  # supports end well short of the 3.0 spacing
    dists = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > rho.max(), "setup failure: supports are not isolated"
    eta = 0.7
    model = model_from_arrays(pts, normals, rho, eta)
    res = exact.solve(exact.assemble(ps, rho, eta))
    assert np.max(np.abs(quasi_lambda(model) - res.lam)) <= 1e-12


def test_criterion_4_unit_sphere_reconstruction():
    """10k-sample unit sphere: closed mesh with vertex error within the voxel."""
    ps = sphere_points(10_000, seed=4)
    w = 0.01
    t0 = time.perf_counter()
    mesh, diag = reconstruct_points(ps, ReconConfig(s=1.0, voxel_width=w))
    elapsed = time.perf_counter() - t0
    err = np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)
    assert diag["n_boundary_edges"] == 0, "mesh is not closed"
    assert err.mean() <= w, f"mean radial error {err.mean():.4f} > {w}"
    assert err.max() <= 3 * w, f"max radial error {err.max():.4f} > {3 * w}"
    assert elapsed < 30.0, f"reconstruction took {elapsed:.1f} s"


def test_criterion_5_center_selection_contract():
    """Spherical-cover selection on a two-density sphere: coverage, per-sphere
    error, reduced count, and fewer boundary edges than the raw run."""
    n_dense, n_sparse = 6000, 60
    ps, _ = normalize_to_unit_box(two_density_sphere(n_dense, n_sparse, seed=0))
    idx = build_octree(ps)
    cover = select_centers(ps, idx, CoverParams(), seed=0)

    assert cover.doc.min() >= cover.params.g_min
    delta = density_weights(ps, idx)
    threshold = cover.params.q_err * cover.l_bar
    worst = max(
        quadric_error(ps, idx, c, r, delta) for c, r in zip(cover.centers, cover.radii)
    )
    assert worst <= threshold + 1e-15
    assert cover.n_centers <= 0.2 * n_dense

    cfg = ReconConfig(s=1.0, voxel_width=0.01, min_fragment_faces=0, seed=0)
    _, diag_raw = reconstruct_points(ps, cfg)
    cfg_sel = ReconConfig(
        s=1.0, voxel_width=0.01, min_fragment_faces=0, seed=0, center_select=True
    )
    _, diag_sel = reconstruct_points(ps, cfg_sel)
    assert diag_sel["n_boundary_edges"] < diag_raw["n_boundary_edges"], (
        f"selected-centers run ({diag_sel['n_boundary_edges']} boundary edges) "
        f"did not improve on the raw run ({diag_raw['n_boundary_edges']})"
    )


def test_criterion_6_noise_robustness_trend():
    """Noisy spheres at 10/30/60% with the published amplifier schedule stay
    closed, single-component, and degrade monotonically within 10x clean."""
    ps = sphere_points(600, seed=6)
    truth = icosphere(subdivisions=5)
    cfg = ReconConfig(voxel_width=0.02, seed=0)
    clean_mesh, clean_diag = reconstruct_points(ps, cfg)
    assert clean_diag["n_boundary_edges"] == 0
    clean = two_sided_distance(truth, clean_mesh, n_samples=20000, seed=0).backward_avg

    rows = run_noise_bench(ps, truth, [10.0, 30.0, 60.0], cfg, n_samples=20000)
    backward = [row["backward_avg"] for row in rows]
    for row in rows:
        assert row["n_boundary_edges"] == 0, f"open mesh at delta={row['delta_percent']}"
    assert backward[0] < backward[1] < backward[2], f"not monotone: {backward}"
    assert backward[2] <= 10.0 * clean, (
        f"backward avg {backward[2]:.5f} exceeds 10x clean baseline {clean:.5f}"
    )


def test_criterion_6b_single_component():
    """Companion check: the noisiest reconstruction is one connected piece."""
    ps = sphere_points(600, seed=6)
    from hrbfsurf.metrics import NoiseSpec, estimate_normals_pca, inject_noise

    noisy = inject_noise(ps, NoiseSpec(60.0, seed=60))
    noisy = estimate_normals_pca(noisy.points, ps.normals, p_neighbors=6)
    mesh, diag = reconstruct_points(noisy, ReconConfig(s=3.5, voxel_width=0.02, noisy_mode=True))
    assert diag["n_boundary_edges"] == 0
    assert len(np.unique(face_components(mesh))) == 1


def test_criterion_7_regularization_necessity():
    """Without damping, heavy support overlap makes the exact system
    ill-conditioned; the tuned damping keeps it well-conditioned."""
    ps = sphere_points(300, seed=9)
    norm_ps, _ = normalize_to_unit_box(ps)
    idx = build_octree(norm_ps)
    tp = tune_parameters(norm_ps, idx)
    assert tp.m >= 10, "setup failure: supports do not overlap heavily"

    limit = 1e6
    bare = exact.assemble(norm_ps, tp.rho, 0.0)
    with pytest.raises(exact.IllConditionedError):
        exact.solve(bare, cond_limit=limit)
    tuned = exact.assemble(norm_ps, tp.rho, tp.eta)
    res = exact.solve(tuned, cond_limit=limit)
    assert np.all(np.isfinite(res.lam))


def test_criterion_8_thread_scaling():
    """Evaluation plus extraction on a 500k-point synthetic: 8 threads must be
    at least 3x faster than 1 thread with byte-identical output.

    The determinism half passes by construction.  The speedup half fails on a
    single-core host: there is no parallel hardware to scale onto, so the
    measured ratio sits near 1x.  The assertion message reports the measured
    ratio and the core count.
    """
    import os

    ps = sphere_points(500_000, seed=8)
    norm_ps, _ = normalize_to_unit_box(ps)
    idx = build_octree(norm_ps)
    tp = tune_parameters(norm_ps, idx)
    model = build_model(norm_ps, tp)
    rng = np.random.default_rng(8)
    queries = norm_ps.points[rng.integers(0, len(norm_ps), 200_000)] + rng.normal(
        scale=0.002, size=(200_000, 3)
    )

    results = {}
    for workers in (1, 8):
        t0 = time.perf_counter()
        vals, _, defined = ImplicitField(model, workers=workers).evaluate(queries)
        mesh = extract_surface(
            model, model.centers, model.normals, 0.012, workers=workers
        )
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256()
        digest.update(vals.tobytes())
        digest.update(defined.tobytes())
        digest.update(mesh.vertices.tobytes())
        digest.update(mesh.faces.tobytes())
        digest.update(mesh.vertex_normals.tobytes())
        results[workers] = (elapsed, digest.hexdigest())

    assert results[1][1] == results[8][1], "outputs differ between thread counts"
    speedup = results[1][0] / results[8][0]
    assert speedup >= 3.0, (
        f"8-thread speedup {speedup:.2f}x < 3x "
        f"(host exposes {os.cpu_count()} CPU core(s); the deterministic "
        f"decomposition is in place but there is no hardware to scale onto)"
    )
