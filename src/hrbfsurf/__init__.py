"""Surface reconstruction from oriented points via closed-form HRBF quasi-interpolation.

The library builds a signed implicit function from point positions and unit
normals as a weighted sum of compactly supported Wendland kernels, without
solving a global linear system.  A matrix-free exact solver, the Neumann
series that converges when the damping makes the system a contraction, is
included as an oracle for verifying the quasi-solution's error bound, and a
dual-contouring variant extracts the zero isosurface over the supported
region only.
"""

from .pointset import (
    HermitePointSet,
    QuadMesh,
    SimilarityTransform,
    load_points,
    save_points,
    load_mesh,
    save_mesh,
    normalize_to_unit_box,
)
from .octree import PointOctree, build_octree
from . import kernel
from .model import (
    TuningParams,
    HrbfModel,
    BoundReport,
    SupportOperator,
    tune_parameters,
    build_model,
    build_operator,
    verify_error_bound,
)
from .exact import ExactSolveResult, solve
from .covers import SphericalCover, quadric_error, select_centers
from .dualcontour import extract_surface, remove_small_fragments, boundary_edge_count
from .metrics import (
    NoiseSpec,
    DistanceReport,
    inject_noise,
    estimate_normals_pca,
    surface_distance,
)
from .pipeline import ReconConfig, reconstruct_points, verify_bound_on_points, run_noise_bench

__version__ = "0.1.0"
