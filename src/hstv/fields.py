"""Smooth scalar test fields with analytic Hessians, the smooth-energy
quadrature, discrete mollification and the one-sided reflection extension."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FieldError
from .schatten import check_p, schatten_norms

# Ceiling on the points one computation scans: the quadrature grid here, the
# rotated-lattice points of a plan's cells (sum of (m + n + 1)^2) in hstv.approx.
MAX_LATTICE_POINTS = 2**24


@dataclass
class SmoothField:
    """Scalar field: its values f and its analytic Hessian.

    The four callables accept scalars or numpy arrays (they are built from
    numpy ufuncs).  The Hessian is symmetric by construction: only the three
    distinct second derivatives are stored.
    """

    f: Callable
    fxx: Callable
    fxy: Callable
    fyy: Callable

    def eval(self, x, y):
        return self.f(x, y)

    def hess_components(self, x, y):
        """Hessian entries (fxx, fxy, fyy), broadcast against each other.

        On an open grid (x a column, y a row) an entry that depends on x
        only stays a column: the entries broadcast to the grid only where
        the field needs it."""
        return np.broadcast_arrays(self.fxx(x, y), self.fxy(x, y), self.fyy(x, y))


def _quadratic(a11, a12, a22, b1=0.0, b2=0.0, c=0.0) -> SmoothField:
    a11, a12, a22, b1, b2, c = map(float, (a11, a12, a22, b1, b2, c))
    return SmoothField(
        f=lambda x, y: 0.5 * (a11 * x * x + 2 * a12 * x * y + a22 * y * y) + b1 * x + b2 * y + c,
        fxx=lambda x, y: a11 + 0.0 * x,
        fxy=lambda x, y: a12 + 0.0 * x,
        fyy=lambda x, y: a22 + 0.0 * x,
    )


def _rotated_quadratic(lam1, lam2, theta) -> SmoothField:
    lam1, lam2, theta = float(lam1), float(lam2), float(theta)
    ct, st = math.cos(theta), math.sin(theta)
    a11 = lam1 * ct * ct + lam2 * st * st
    a22 = lam1 * st * st + lam2 * ct * ct
    a12 = (lam1 - lam2) * st * ct
    return _quadratic(a11, a12, a22)


def _gaussian_bump(sigma=0.2, cx=0.5, cy=0.5) -> SmoothField:
    sigma, cx, cy = float(sigma), float(cx), float(cy)
    if sigma <= 0:
        raise FieldError("gaussian_bump needs sigma > 0")
    s2 = sigma * sigma
    # |x - cx| and |y - cy| stay below `reach` on the extended domain
    # (-1/2, 1] x [0, 1]; the second derivatives scale up to reach^2 / sigma^4.
    reach = 1.5 + max(abs(cx), abs(cy))
    if s2 * s2 == 0.0 or not math.isfinite(reach * reach / (s2 * s2)):
        raise FieldError(
            f"gaussian_bump(sigma={sigma!r}, cx={cx!r}, cy={cy!r}): sigma^4 underflows "
            "or the derivatives overflow")

    def g(x, y):
        return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * s2))

    return SmoothField(
        f=g,
        fxx=lambda x, y: ((x - cx) ** 2 / s2 - 1) / s2 * g(x, y),
        fxy=lambda x, y: (x - cx) * (y - cy) / (s2 * s2) * g(x, y),
        fyy=lambda x, y: ((y - cy) ** 2 / s2 - 1) / s2 * g(x, y),
    )


def _product_sine(omega=math.pi) -> SmoothField:
    w = float(omega)
    return SmoothField(
        f=lambda x, y: np.sin(w * x) * np.sin(w * y),
        fxx=lambda x, y: -w * w * np.sin(w * x) * np.sin(w * y),
        fxy=lambda x, y: w * w * np.cos(w * x) * np.cos(w * y),
        fyy=lambda x, y: -w * w * np.sin(w * x) * np.sin(w * y),
    )


_BUILTINS = {
    "quadratic": _quadratic,
    "rotated_quadratic": _rotated_quadratic,
    "gaussian_bump": _gaussian_bump,
    "product_sine": _product_sine,
}


def builtin_field(name: str, *params) -> SmoothField:
    """Construct one of the built-in fields by name.

    quadratic(a11, a12, a22[, b1, b2, c]), rotated_quadratic(lam1, lam2, theta),
    gaussian_bump([sigma, cx, cy]), product_sine([omega]).  Every parameter
    must be finite.
    """
    key = name.replace("-", "_")
    if key not in _BUILTINS:
        raise FieldError(f"unknown field {name!r}; known: {sorted(_BUILTINS)}")
    for v in params:
        if isinstance(v, numbers.Real) and not math.isfinite(v):
            raise FieldError(f"non-finite parameter {v!r} for field {name!r}")
    try:
        return _BUILTINS[key](*params)
    except TypeError as exc:
        raise FieldError(f"bad parameters for field {name!r}: {exc}") from exc


def parse_field(descriptor: str) -> SmoothField:
    """Parse the CLI mini-language, e.g. 'rotated-quadratic:2,1,0.4636'.

    'quadratic:iso' abbreviates the isotropic quadratic (x^2+y^2)/2.
    """
    name, _, rest = descriptor.partition(":")
    if name.replace("-", "_") == "quadratic" and rest.strip() == "iso":
        return _quadratic(1.0, 0.0, 1.0)
    if not rest:
        return builtin_field(name)
    try:
        params = [float(tok) for tok in rest.split(",")]
    except ValueError as exc:
        raise FieldError(f"bad field descriptor {descriptor!r}: {exc}") from exc
    return builtin_field(name, *params)


# Grid rows per block of the quadrature: 32 rows of 512 points keep each
# temporary at 128 KB.
_QUADRATURE_BLOCK_ROWS = 32


def htv_quadrature(fld: SmoothField, p, resolution: int = 512) -> float:
    """Midpoint-rule approximation of the Hessian-Schatten energy of a smooth
    field over the open unit square.

    Integrates the Schatten p-norm of the analytic Hessian on a resolution^2
    grid of cell midpoints; O(resolution^-2) accurate for smooth fields.
    Deterministic: numpy pairwise summation in fixed row-major order.  The
    norms are evaluated in blocks of rows, which bounds the temporaries, and
    summed in one pass over the whole grid.  Each block passes the open grid
    (a column of x, the row of y), so the field's ufuncs run once per row
    and per column and the norms only as often as the entries vary.  A grid
    of more than MAX_LATTICE_POINTS points, or a sum that overflows float,
    raises FieldError.
    """
    p = check_p(p)
    if resolution < 2:
        raise FieldError("resolution must be >= 2")
    if resolution * resolution > MAX_LATTICE_POINTS:
        raise FieldError(
            f"resolution {resolution} needs more than {MAX_LATTICE_POINTS} grid points")
    t = (np.arange(resolution) + 0.5) / resolution
    vals = np.empty((resolution, resolution))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, resolution, _QUADRATURE_BLOCK_ROWS):
            a, b, c = fld.hess_components(t[i:i + _QUADRATURE_BLOCK_ROWS, None], t[None, :])
            vals[i:i + _QUADRATURE_BLOCK_ROWS] = schatten_norms(a, b, b, c, p)
        total = float(np.sum(vals))
    if not math.isfinite(total):
        raise FieldError(f"smooth energy overflows float: quadrature sum {total!r}")
    return total / (resolution * resolution)


# -- grid samples -------------------------------------------------------------


@dataclass
class GridSample:
    """Uniform grid of samples: samples[i, j] lives at (i*h, j*h)."""

    spacing: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise FieldError("samples must be a 2D array")
        if not self.spacing > 0:
            raise FieldError("spacing must be positive")


def bump_kernel(radius_cells: int) -> np.ndarray:
    """Compactly supported polynomial bump (1 - r^2)^3 on a square stencil,
    normalized to unit sum."""
    r = radius_cells
    ii, jj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    rho2 = (ii**2 + jj**2) / float(r * r)
    k = np.where(rho2 < 1.0, (1.0 - rho2) ** 3, 0.0)
    return k / k.sum()


def mollify(u: GridSample, radius: float) -> GridSample:
    """Discrete convolution with the normalized bump kernel of given radius.

    The kernel support is radius/spacing cells; zero padding outside the
    grid.  Mass is preserved exactly (up to rounding) whenever u vanishes
    within `radius` of the border.
    """
    if radius < u.spacing:
        raise FieldError(f"radius {radius} smaller than grid spacing {u.spacing}")
    r = int(math.floor(radius / u.spacing))
    # The kernel is symmetric, so the convolution is a sum of shifted copies
    # of the zero-padded samples weighted by the kernel entries.
    z, (n0, n1) = np.pad(u.samples, r), u.samples.shape
    out = sum(w * z[i:i + n0, j:j + n1] for (i, j), w in np.ndenumerate(bump_kernel(r)) if w)
    return GridSample(u.spacing, out)


def discrete_htv(u: GridSample, margin: int = 0) -> float:
    """Discrete Hessian-Schatten energy of a grid sample.

    Central second differences on nodes at least 1 + margin cells away from
    the border, Schatten-1 (nuclear) norm per node, weighted by cell area.
    """
    z = u.samples
    n0, n1 = z.shape
    lo = 1 + margin
    if n0 - lo <= lo or n1 - lo <= lo:
        raise FieldError("grid too small for the requested margin")
    c = z[lo:-lo, lo:-lo]
    h2 = u.spacing**2
    uxx = (z[lo + 1:n0 - lo + 1, lo:-lo] - 2 * c + z[lo - 1:n0 - lo - 1, lo:-lo]) / h2
    uyy = (z[lo:-lo, lo + 1:n1 - lo + 1] - 2 * c + z[lo:-lo, lo - 1:n1 - lo - 1]) / h2
    uxy = (
        z[lo + 1:n0 - lo + 1, lo + 1:n1 - lo + 1]
        - z[lo + 1:n0 - lo + 1, lo - 1:n1 - lo - 1]
        - z[lo - 1:n0 - lo - 1, lo + 1:n1 - lo + 1]
        + z[lo - 1:n0 - lo - 1, lo - 1:n1 - lo - 1]
    ) / (4 * h2)
    vals = schatten_norms(uxx, uxy, uxy, uyy, 1.0)
    return float(np.sum(vals)) * h2


# -- reflection extension ------------------------------------------------------


def extend_reflection(f):
    """Extend a field defined for x in (0, 1) to x in (-1/2, 1).

    For x < 0 the extension is 3 f(-x, y) - 2 f(-2x, y), which matches value
    and first derivative across x = 0.  The result is a SmoothField with
    the chain-rule Hessian.
    """
    if not isinstance(f, SmoothField):
        raise FieldError("extend_reflection expects a SmoothField")

    def guard(x):
        xa = np.asarray(x, dtype=float)
        if np.any(xa <= -0.5) or np.any(xa > 1.0):
            raise FieldError("evaluation outside the extended domain x in (-1/2, 1]")
        return xa

    def combine(inner, c1, c2):
        # Chain-rule weights for the two reflected copies at -x and -2x.
        def h(x, y):
            xa = guard(x)
            left = c1 * inner(-xa, y) + c2 * inner(-2.0 * xa, y)
            return np.where(xa >= 0.0, inner(xa, y), left)
        return h

    return SmoothField(
        f=combine(f.f, 3.0, -2.0),
        fxx=combine(f.fxx, 3.0, -8.0),
        fxy=combine(f.fxy, -3.0, 4.0),
        fyy=combine(f.fyy, 3.0, -2.0),
    )
