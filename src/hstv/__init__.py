"""Hessian-Schatten total variation of CPWL and smooth functions on (0,1)^2."""

from .approx import (
    MeshPlan,
    RationalAngle,
    SquareFrame,
    assemble_global,
    build_frames,
    convergence_experiment,
    interpolate,
    interpolation_error_estimate,
    plan_mesh,
    rational_angle_approx,
)
from .errors import ExtremalError, FieldError, HstvError, MeshError, PlanError
from .extremal import (
    Decomposition,
    constrained_space,
    decompose,
    is_extremal,
    perturbation_identity_check,
)
from .fields import (
    GridSample,
    SmoothField,
    builtin_field,
    discrete_htv,
    extend_reflection,
    htv_quadrature,
    mollify,
    parse_field,
)
from .htv import HtvReport, htv_cpwl, p_independence_check, support_mask_by_jump
from .mesh import (
    CpwlFunction,
    Triangulation,
    load_mesh,
    min_angle,
    render_svg,
    save_mesh,
    uniform_diagonal_mesh,
)
from .schatten import dual_norm_estimate, schatten_norms, sym_eigen_frame

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
