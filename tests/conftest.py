import numpy as np
import pytest

from hrbfsurf.model import build_model, edge_records, tune_parameters
from hrbfsurf.octree import build_octree
from hrbfsurf.pointset import normalize_to_unit_box
from hrbfsurf.sampling import sphere_points, torus_points


@pytest.fixture(scope="session")
def sphere_ps():
    return sphere_points(600, seed=1)


@pytest.fixture(scope="session")
def torus_ps():
    return torus_points(800, seed=2)


def tuned_model(ps, s=1.0, noisy_mode=False):
    """Normalize, index, tune, and build; returns (normalized points, tuning, model)."""
    norm_ps, _ = normalize_to_unit_box(ps)
    idx = build_octree(norm_ps)
    tp = tune_parameters(norm_ps, idx, s, noisy_mode)
    return norm_ps, tp, build_model(norm_ps, tp)


@pytest.fixture(scope="session")
def sphere_model(sphere_ps):
    return tuned_model(sphere_ps)


def random_unit_vectors(n, rng):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sign_change_edges(table, cells):
    """Lattice edges from ``cells`` along +x, +y and +z whose ends are defined
    and differ in sign: (``EDGE_RECORD`` array, lower ends, upper ends).  The
    lower end lies at origin + corner * w and the upper one w further along
    the axis."""
    cells = np.unique(np.asarray(cells, dtype=np.int64).reshape(-1, 3), axis=0)
    corner, axis, f_lo, f_hi = [], [], [], []
    for a in range(3):
        va, vb = table.fetch(cells), table.fetch(cells + np.eye(3, dtype=np.int64)[a])
        hit = np.isfinite(va) & np.isfinite(vb) & ((va < 0) != (vb < 0))
        corner.append(cells[hit])
        axis.append(np.full(np.count_nonzero(hit), a))
        f_lo.append(va[hit])
        f_hi.append(vb[hit])
    corner, axis, f_lo, f_hi = (np.concatenate(x) for x in (corner, axis, f_lo, f_hi))
    lo = table.origin + corner * table.width
    hi = lo.copy()
    hi[np.arange(len(hi)), axis] += table.width
    return edge_records(corner, axis, f_lo, f_hi), lo, hi


def cells_near(points, origin, width, reach):
    """Lattice cells within ``reach`` cells (per axis) of the cell holding each point."""
    base = np.floor((np.asarray(points) - origin) / width).astype(np.int64)
    span = np.arange(-reach, reach + 1)
    offsets = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    return (base[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
