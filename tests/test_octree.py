"""Octree build invariants and neighbor queries against brute-force oracles."""

import numpy as np
import pytest

from hrbfsurf import octree
from hrbfsurf.octree import TREE_LEAF_SIZE, build_octree, strict_counts

from oracles import octree_leaves, radius_query


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(42)
    return rng.uniform(-1.0, 1.0, (500, 3))


def _build(points, capacity):
    """``build_octree`` with ``octree.LEAF_CAPACITY`` set to ``capacity``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(octree, "LEAF_CAPACITY", capacity)
        return build_octree(points)


@pytest.fixture(scope="module")
def index(cloud):
    return _build(cloud, 8)


def _oracle_diagonals(leaves):
    return np.array([diag for _, diag in leaves])


def test_leaves_partition_points(cloud, index):
    leaves = octree_leaves(cloud, 8)
    seen = np.concatenate([idx for idx, _ in leaves])
    assert np.array_equal(np.sort(seen), np.arange(len(cloud)))
    assert np.array_equal(index.leaf_diagonals, _oracle_diagonals(leaves))


def test_leaf_capacity_respected(cloud, index):
    # depth cap can only matter for coincident points, not a random cloud
    leaves = octree_leaves(cloud, 8)
    assert all(1 <= len(idx) <= 8 for idx, _ in leaves)
    assert np.array_equal(index.leaf_diagonals, _oracle_diagonals(leaves))
    # a larger capacity gives fewer, larger leaves
    coarse = _build(cloud, 64)
    assert np.array_equal(coarse.leaf_diagonals, _oracle_diagonals(octree_leaves(cloud, 64)))
    assert len(coarse.leaf_diagonals) < len(index.leaf_diagonals)


def test_mean_leaf_diagonal_positive(cloud, index):
    assert index.mean_leaf_diagonal > 0.0
    assert np.all(index.leaf_diagonals > 0.0)
    root_size = (cloud.max(axis=0) - cloud.min(axis=0)).max()
    assert index.leaf_diagonals.max() <= root_size * np.sqrt(3.0) + 1e-12


def test_build_deterministic(cloud):
    a = _build(cloud, 8)
    b = _build(cloud, 8)
    assert a.leaf_diagonals.tobytes() == b.leaf_diagonals.tobytes()
    assert np.array_equal(a.leaf_diagonals, _oracle_diagonals(octree_leaves(cloud, 8)))


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_octree(np.empty((0, 3)))


def test_coincident_points_terminate():
    # coincident points never separate: the depth cap ends the subdivision
    pts = np.zeros((40, 3))
    idx = _build(pts, 4)
    leaves = octree_leaves(pts, 4)
    assert sum(len(i) for i, _ in leaves) == 40
    assert np.array_equal(idx.leaf_diagonals, _oracle_diagonals(leaves))


def test_radius_query_matches_brute_force(cloud, index):
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.uniform(-1.2, 1.2, 3)
        r = rng.uniform(0.1, 0.8)
        got = radius_query(index, c, r)
        d = np.linalg.norm(cloud - c, axis=1)
        expect = np.flatnonzero(d < r)
        assert np.array_equal(got, expect)
        assert strict_counts(index, c[None], np.array([r]))[0] == len(got)


def test_radius_query_strict_boundary():
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
    idx = build_octree(pts)
    got = radius_query(idx, np.zeros(3), 0.5)
    assert got.tolist() == [0]  # the point at exactly r=0.5 is excluded


def test_radius_query_rejects_nonpositive():
    idx = build_octree(np.zeros((4, 3)) + np.arange(4)[:, None])
    with pytest.raises(ValueError):
        radius_query(idx, np.zeros(3), 0.0)


def test_strict_counts_matches_brute_force(cloud, index):
    rng = np.random.default_rng(6)
    centers = rng.uniform(-1.0, 1.0, (30, 3))
    radii = rng.uniform(0.05, 0.9, 30)
    got = strict_counts(index, centers, radii)
    d = np.linalg.norm(cloud[None, :, :] - centers[:, None, :], axis=2)
    expect = (d < radii[:, None]).sum(axis=1)
    assert np.array_equal(got, expect)


def test_strict_counts_on_lattice_spheres():
    # integer lattice points at radii equal to lattice distances: the points
    # exactly on each sphere stay outside, through the 64-point kd-tree leaves
    g = np.arange(12.0)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    idx = build_octree(pts)
    assert len(pts) > 16 * TREE_LEAF_SIZE
    centers = pts[np.random.default_rng(8).choice(len(pts), 40, replace=False)]
    d2 = np.square(pts[None] - centers[:, None]).sum(axis=2)  # integers, exact
    for k in (1, 2, 3, 4, 5, 6, 8, 9, 12, 17, 27):
        r = np.sqrt(float(k))
        got = strict_counts(idx, centers, np.full(len(centers), r))
        assert np.array_equal(got, [len(radius_query(idx, c, r)) for c in centers])
        assert np.array_equal(got, (d2 < k).sum(axis=1)) and np.any(d2 == k)


def test_strict_counts_boundary_exclusion():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    idx = build_octree(pts)
    got = strict_counts(idx, pts[:1], np.array([1.0]))
    assert got[0] == 1  # only the center itself; the boundary point is out
