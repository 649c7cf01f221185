"""Spherical-cover center selection: coverage, quadric error, determinism."""

import numpy as np
import pytest

from hrbfsurf.cli import main as cli_main
from hrbfsurf.covers import (
    G_MIN,
    Q_ERR,
    EmptySphereError,
    density_weights,
    quadric_error,
    select_centers,
    selected_pointset,
)
from hrbfsurf.octree import build_octree
from hrbfsurf.pointset import HermitePointSet, load_points, normalize_to_unit_box, save_points
from hrbfsurf.sampling import sphere_points, two_density_sphere


@pytest.fixture(scope="module")
def setup():
    ps, _ = normalize_to_unit_box(two_density_sphere(2000, 100, seed=3))
    idx = build_octree(ps)
    cover = select_centers(ps, idx, seed=0)
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
    assert cover.doc.min() >= G_MIN


def test_every_sphere_respects_error_threshold(setup):
    ps, idx, cover = setup
    delta = density_weights(ps, idx)
    threshold = Q_ERR * cover.l_bar
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
    # the cover of the points as the file holds them, at 9 significant
    # digits, in the file's units: the input spans 90-110, not [-1, 1]
    src = tmp_path / "in.xyz"
    save_points(HermitePointSet(100.0 + 10.0 * setup[0].points, setup[0].normals), src)
    raw = load_points(src)
    ps, tfm = normalize_to_unit_box(raw)
    cover = select_centers(ps, build_octree(ps), seed=0)
    path = tmp_path / "cover.csv"
    assert cli_main(["select-centers", str(src), "--csv", str(path)]) == 0
    assert path.read_text().startswith("cx,cy,cz,r\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (cover.n_centers, 4)
    np.testing.assert_allclose(data[:, :3], tfm.inverse().apply(cover.centers), rtol=1e-6)
    np.testing.assert_allclose(data[:, :3], raw.points[cover.center_indices], rtol=1e-6)
    np.testing.assert_allclose(data[:, 3], cover.radii / tfm.scale, rtol=1e-6)
