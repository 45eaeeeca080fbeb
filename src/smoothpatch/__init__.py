"""Geometric continuity of multi-patch Bezier surfaces.

Verification of G1 (tangent plane) and G2 (curvature) continuity across
shared edges and 4-patch vertices, plus smooth constructions: fourth-patch
completion, (5,5) and (6,6) hole filling and fillet surfaces.
"""

from .bezier import (
    BezierPatch,
    bernstein_basis,
    boundary_row,
    bounding_diagonal,
    elevate_row,
    eval_grid,
    split_grid,
    split_patch,
    transform_patch,
)
from .continuity import (
    G0_TOL,
    G1_TOL,
    G2_TOL,
    LAMBDA_MIN,
    NORMAL_ANGLE_TOL,
    RANK_TOL,
    CompatReport,
    CornerConfig,
    CornerConsistencyError,
    DegenerateLinkError,
    DegenerateParametrizationError,
    EdgeChecks,
    EdgeCorrespondence,
    GeometryError,
    PreconditionError,
    check_edges,
    check_g1_edge,
    check_g2_edge,
    check_vertex_g1,
    check_vertex_g2,
    g0_gap,
    theorem1_residuals,
    theorem2_residuals,
)
from .construct import (
    NinePatchRing,
    build_fillet,
    complete_fourth_patch,
    default_interior,
    fill_hole,
    fill_hole_deg6,
    g1_band_offsets,
)
from .surfio import (
    SurfaceDocument,
    SurfaceFormatError,
    export_obj,
    load_surface,
    save_surface,
)

__version__ = "0.1.0"
