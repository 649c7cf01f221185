"""Center selection on a sphere sampled densely on one half, sparsely on the other.

Uneven sampling is the hard case for a fixed-amplifier reconstruction: the
support radii tuned for the dense half leave holes on the sparse half.  The
spherical-cover selection picks a small subset of points with per-center
radii sized so every input point stays covered, which is meant to close the
mesh with a fraction of the centers.  It does not yet: the reconstruction
drops the cover radii and re-tunes supports over the selected centers alone,
which leaves a mesh with no faces (an open item in ROADMAP.md).  So each run's face count
is printed beside its boundary edges; an empty mesh has no boundary edges
either.
"""

import numpy as np

from hrbfsurf.covers import select_centers
from hrbfsurf.octree import build_octree
from hrbfsurf.pipeline import ReconConfig, reconstruct_points
from hrbfsurf.pointset import normalize_to_unit_box
from hrbfsurf.sampling import two_density_sphere


def main():
    ps, _ = normalize_to_unit_box(two_density_sphere(6000, 60, seed=0))
    idx = build_octree(ps)
    cover = select_centers(ps, idx, seed=0)
    dense = cover.centers[:, 0] >= 0.0
    print(f"input points:      {len(ps)}")
    print(f"selected centers:  {cover.n_centers}")
    print(f"coverage min/mean: {cover.doc.min():.2f} / {cover.doc.mean():.2f}")
    print(
        f"median radius dense/sparse: "
        f"{np.median(cover.radii[dense]):.4f} / {np.median(cover.radii[~dense]):.4f}"
    )

    cfg = ReconConfig(voxel_width=0.01, min_fragment_faces=0)
    _, raw = reconstruct_points(ps, cfg)
    cfg_sel = ReconConfig(voxel_width=0.01, min_fragment_faces=0, center_select=True)
    _, sel = reconstruct_points(ps, cfg_sel)
    for name, diag in (("raw points", raw), ("selected centers", sel)):
        print(f"{name + ':':18s} {diag['n_faces']} faces, {diag['n_boundary_edges']} boundary edges")


if __name__ == "__main__":
    main()
