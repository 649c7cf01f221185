import numpy as np
import pytest

from hrbfsurf.model import build_model, tune_parameters
from hrbfsurf.octree import build_octree
from hrbfsurf.pointset import normalize_to_unit_box
from hrbfsurf.sampling import sphere_points, torus_points


@pytest.fixture(scope="session")
def sphere_ps():
    return sphere_points(600, seed=1)


@pytest.fixture(scope="session")
def torus_ps():
    return torus_points(800, seed=2)


def tuned_model(ps, s=1.0, noisy_mode=False, eta_override=None):
    """Normalize, index, tune, and build; returns (normalized points, tuning, model)."""
    norm_ps, _ = normalize_to_unit_box(ps)
    idx = build_octree(norm_ps)
    tp = tune_parameters(norm_ps, idx, s, noisy_mode, eta_override)
    return norm_ps, tp, build_model(norm_ps, tp)


@pytest.fixture(scope="session")
def sphere_model(sphere_ps):
    return tuned_model(sphere_ps)


def random_unit_vectors(n, rng):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sign_change_edges(table, cells):
    """Lattice edges from ``cells`` along +x, +y and +z whose ends are defined
    and differ in sign: (lower corners, negative ends, positive ends, values
    at the negative ends, values at the positive ends)."""
    cells = np.unique(np.asarray(cells, dtype=np.int64).reshape(-1, 3), axis=0)
    corner, p_neg, p_pos, f_neg, f_pos = [], [], [], [], []
    for axis in range(3):
        upper = cells + np.eye(3, dtype=np.int64)[axis]
        va, vb = table.fetch(cells), table.fetch(upper)
        hit = np.isfinite(va) & np.isfinite(vb) & ((va < 0) != (vb < 0))
        a = table.origin + cells[hit] * table.width
        b = table.origin + upper[hit] * table.width
        neg = (va[hit] < 0)[:, None]
        corner.append(cells[hit])
        p_neg.append(np.where(neg, a, b))
        p_pos.append(np.where(neg, b, a))
        f_neg.append(np.where(neg[:, 0], va[hit], vb[hit]))
        f_pos.append(np.where(neg[:, 0], vb[hit], va[hit]))
    return tuple(np.concatenate(x) for x in (corner, p_neg, p_pos, f_neg, f_pos))


def cells_near(points, origin, width, reach):
    """Lattice cells within ``reach`` cells (per axis) of the cell holding each point."""
    base = np.floor((np.asarray(points) - origin) / width).astype(np.int64)
    span = np.arange(-reach, reach + 1)
    offsets = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    return (base[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
