"""Spherical-cover center selection: coverage, quadric error, determinism."""

import dataclasses

import numpy as np
import pytest

from hrbfsurf import kernel
from hrbfsurf.covers import (
    CoverParams,
    EmptySphereError,
    density_weights,
    doc_at,
    quadric_error,
    select_centers,
    selected_pointset,
)
from hrbfsurf.model import RadiusBands
from hrbfsurf.octree import build_octree
from hrbfsurf.pointset import normalize_to_unit_box
from hrbfsurf.sampling import sphere_points, two_density_sphere


@pytest.fixture(scope="module")
def setup():
    ps, _ = normalize_to_unit_box(two_density_sphere(2000, 100, seed=3))
    idx = build_octree(ps)
    cover = select_centers(ps, idx, CoverParams(), seed=0)
    return ps, idx, cover


def test_density_weights_reflect_spacing():
    ps, _ = normalize_to_unit_box(two_density_sphere(2000, 100, seed=3))
    idx = build_octree(ps)
    w = density_weights(ps, idx)
    dense = ps.points[:, 0] >= 0.0
    # sparse-side points sit farther from their neighbors
    assert np.median(w[~dense]) > 5.0 * np.median(w[dense])


def test_quadric_error_zero_on_plane():
    rng = np.random.default_rng(0)
    pts = np.zeros((200, 3))
    pts[:, :2] = rng.uniform(-1, 1, (200, 2))
    from hrbfsurf.pointset import HermitePointSet

    ps = HermitePointSet(pts, np.tile([0.0, 0.0, 1.0], (200, 1)))
    idx = build_octree(ps)
    delta = density_weights(ps, idx)
    q = quadric_error(ps, idx, pts[0], 0.5, delta)
    assert q == pytest.approx(0.0, abs=1e-18)


def test_quadric_error_positive_off_plane(setup):
    ps, idx, _ = setup
    delta = density_weights(ps, idx)
    # a big cap of a sphere is far from flat
    assert quadric_error(ps, idx, ps.points[0], 0.8, delta) > 0.0


def test_quadric_error_empty_sphere(setup):
    ps, idx, _ = setup
    delta = density_weights(ps, idx)
    with pytest.raises(EmptySphereError):
        quadric_error(ps, idx, np.array([50.0, 0.0, 0.0]), 0.1, delta)
    with pytest.raises(ValueError):
        quadric_error(ps, idx, ps.points[0], 0.0, delta)


def test_all_points_reach_target_coverage(setup):
    _, _, cover = setup
    assert cover.doc.min() >= cover.params.g_min


def test_every_sphere_respects_error_threshold(setup):
    ps, idx, cover = setup
    delta = density_weights(ps, idx)
    threshold = cover.params.q_err * cover.l_bar
    for c, r in zip(cover.centers, cover.radii):
        assert quadric_error(ps, idx, c, r, delta) <= threshold + 1e-15


def test_selected_indices_unique_and_valid(setup):
    ps, _, cover = setup
    assert len(np.unique(cover.center_indices)) == cover.n_centers
    np.testing.assert_array_equal(cover.centers, ps.points[cover.center_indices])
    assert np.all(cover.radii > 0.0)


def test_sparse_side_gets_larger_spheres(setup):
    _, _, cover = setup
    dense = cover.centers[:, 0] >= 0.0
    assert np.median(cover.radii[~dense]) > np.median(cover.radii[dense])


def test_doc_at_matches_brute_force(setup):
    ps, _, cover = setup
    rng = np.random.default_rng(1)
    # input points, points anywhere near the cloud, and one outside every sphere
    x = np.vstack([ps.points[rng.integers(0, len(ps), 50)], rng.uniform(-1.2, 1.2, (50, 3)), [[9.0, 9.0, 9.0]]])
    # the cover's radii lie in one band; shrinking the dense side's spheres spreads them over two
    for dense_scale, n_bands in ((1.0, 1), (0.4, 2)):
        radii = np.where(cover.centers[:, 0] >= 0.0, dense_scale, 1.0) * cover.radii
        scaled = dataclasses.replace(cover, radii=radii, bands=RadiusBands(cover.centers, radii))
        assert len(scaled.bands.groups) == n_bands
        got = doc_at(scaled, x)
        assert got[-1] == 0.0
        d = np.linalg.norm(x[:, None, :] - cover.centers[None, :, :], axis=2)
        inside = d < radii[None, :]
        t = d / radii[None, :]
        phi = np.where(inside, (1.0 - np.minimum(t, 1.0)) ** 4 * (4.0 * t + 1.0), 0.0)
        np.testing.assert_allclose(got, phi.sum(axis=1), rtol=0.0, atol=1e-12)
        assert doc_at(scaled, x[0]) == pytest.approx(got[0])


def test_seed_determinism():
    ps, _ = normalize_to_unit_box(sphere_points(800, seed=4))
    idx = build_octree(ps)
    a = select_centers(ps, idx, seed=7)
    b = select_centers(ps, idx, seed=7)
    np.testing.assert_array_equal(a.center_indices, b.center_indices)
    np.testing.assert_array_equal(a.radii, b.radii)
    c = select_centers(ps, idx, seed=8)
    assert len(c.center_indices) != len(a.center_indices) or not np.array_equal(
        c.center_indices, a.center_indices
    )


def test_selection_reduces_count(setup):
    ps, _, cover = setup
    assert cover.n_centers < 0.2 * len(ps)


def test_selected_pointset_roundtrip(setup):
    _, _, cover = setup
    sel = selected_pointset(cover)
    assert len(sel) == cover.n_centers
    np.testing.assert_array_equal(sel.points, cover.centers)


def test_cover_csv_dump(tmp_path, setup):
    _, _, cover = setup
    path = tmp_path / "cover.csv"
    cover.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (cover.n_centers, 4)
    np.testing.assert_allclose(data[:, 3], cover.radii, rtol=1e-6)
