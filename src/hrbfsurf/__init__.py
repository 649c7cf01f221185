"""Surface reconstruction from oriented points via closed-form HRBF quasi-interpolation.

The library builds a signed implicit function from point positions and unit
normals as a weighted sum of compactly supported Wendland kernels, without
solving a global linear system.  A desk-scale exact solver is included as an
oracle for verifying the quasi-solution's error bound, and a dual-contouring
variant extracts the zero isosurface over the supported region only.
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
    tune_parameters,
    build_model,
    ImplicitField,
    verify_error_bound,
)
from .exact import ExactSystem, ExactSolveResult, assemble, solve, eval_exact
from .covers import SphericalCover, CoverParams, quadric_error, select_centers, doc_at
from .dualcontour import extract_surface, remove_small_fragments, boundary_edge_count
from .metrics import (
    NoiseSpec,
    DistanceReport,
    inject_noise,
    estimate_normals_pca,
    surface_distance,
)
from .pipeline import ReconConfig, run_reconstruct, run_verify_bound, run_noise_bench

__version__ = "0.1.0"
