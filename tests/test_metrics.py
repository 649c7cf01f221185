"""Noise model, PCA normals, and sampled mesh distances."""

import numpy as np
import pytest

from hrbfsurf.metrics import (
    NoiseSpec,
    _point_triangle_distance,
    estimate_normals_pca,
    inject_noise,
    points_to_mesh_distance,
    sample_mesh_surface,
    surface_distance,
    two_sided_distance,
)
from hrbfsurf.pointset import QuadMesh
from hrbfsurf.sampling import icosphere, sphere_points


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(101.0)


def test_inject_noise_count_and_cap():
    ps = sphere_points(1000, seed=0)
    spec = NoiseSpec(30.0, seed=1)
    noisy = inject_noise(ps, spec)
    moved = np.linalg.norm(noisy.points - ps.points, axis=1)
    n_moved = int((moved > 0).sum())
    assert n_moved <= int(np.ceil(0.3 * 1000))
    assert n_moved > 250  # a zero draw is possible but rare
    cap = 30.0 * ps.bbox_diagonal / 1000.0
    assert moved.max() <= cap + 1e-12
    # displacement is along the point's own normal
    k = int(np.argmax(moved))
    step = (noisy.points[k] - ps.points[k]) / moved[k]
    np.testing.assert_allclose(step, ps.normals[k], atol=1e-9)


def test_inject_noise_zero_delta_identity():
    ps = sphere_points(100, seed=0)
    noisy = inject_noise(ps, NoiseSpec(0.0))
    np.testing.assert_array_equal(noisy.points, ps.points)


def test_inject_noise_seed_determinism():
    ps = sphere_points(500, seed=0)
    a = inject_noise(ps, NoiseSpec(60.0, seed=5))
    b = inject_noise(ps, NoiseSpec(60.0, seed=5))
    np.testing.assert_array_equal(a.points, b.points)


def test_pca_normals_on_sphere():
    ps = sphere_points(4000, seed=2)
    est = estimate_normals_pca(ps.points, ps.normals, p_neighbors=8)
    dots = np.einsum("ij,ij->i", est.normals, ps.normals)
    assert dots.min() > 0.0  # orientation follows the reference
    angles = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
    assert np.median(angles) < 3.0
    assert np.abs(np.linalg.norm(est.normals, axis=1) - 1.0).max() < 1e-12


def test_pca_normals_needs_enough_points():
    with pytest.raises(ValueError):
        estimate_normals_pca(np.zeros((3, 3)), np.zeros((3, 3)), p_neighbors=6)


def test_sample_mesh_surface_on_sphere():
    mesh = icosphere(subdivisions=3)
    pts = sample_mesh_surface(mesh, 5000, seed=0)
    r = np.linalg.norm(pts, axis=1)
    # samples lie on flat facets slightly inside the unit sphere
    assert r.max() <= 1.0 + 1e-9
    assert r.min() > 0.95


def test_point_triangle_distance_known_cases():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    c = np.array([[0.0, 1.0, 0.0]])
    # above the interior
    d = _point_triangle_distance(np.array([[0.2, 0.2, 0.5]]), a, b, c)
    assert d[0] == pytest.approx(0.5)
    # closest to vertex a
    d = _point_triangle_distance(np.array([[-1.0, -1.0, 0.0]]), a, b, c)
    assert d[0] == pytest.approx(np.sqrt(2.0))
    # closest to edge ab
    d = _point_triangle_distance(np.array([[0.5, -2.0, 0.0]]), a, b, c)
    assert d[0] == pytest.approx(2.0)
    # on the triangle itself
    d = _point_triangle_distance(np.array([[0.25, 0.25, 0.0]]), a, b, c)
    assert d[0] == pytest.approx(0.0, abs=1e-15)


def test_points_to_mesh_distance_brute_force():
    rng = np.random.default_rng(3)
    mesh = icosphere(subdivisions=1)
    tri = mesh.triangulated()
    v, f = tri.vertices, tri.faces
    samples = rng.uniform(-1.5, 1.5, (200, 3))
    got = points_to_mesh_distance(samples, mesh)
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    brute = np.empty(len(samples))
    for i, p in enumerate(samples):
        pp = np.tile(p, (len(f), 1))
        brute[i] = _point_triangle_distance(pp, a, b, c).min()
    np.testing.assert_allclose(got, brute, atol=1e-12)


def test_surface_distance_between_offset_spheres():
    inner = icosphere(subdivisions=4, radius=1.0)
    outer = icosphere(subdivisions=4, radius=1.1)
    fmax, favg, cnt = surface_distance(outer, inner, n_samples=20000, seed=0)
    assert cnt == 20000
    assert favg == pytest.approx(0.1, rel=0.02)
    assert fmax <= 0.11


def test_two_sided_distance_symmetric_fields():
    m = icosphere(subdivisions=3)
    rep = two_sided_distance(m, m, n_samples=5000)
    assert rep.forward_max < 1e-12
    assert rep.backward_avg < 1e-12
    assert rep.sample_count == 5000


def test_empty_mesh_rejected():
    empty = QuadMesh(np.empty((0, 3)), np.empty((0, 4), np.int64))
    with pytest.raises(ValueError):
        sample_mesh_surface(empty, 10)
    with pytest.raises(ValueError):
        points_to_mesh_distance(np.zeros((1, 3)), empty)
