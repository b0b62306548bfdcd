"""Constructive CPWL approximation pipeline on the unit square.

The square is partitioned into 2^N x 2^N dyadic cells.  Each cell gets a
rational rotation aligned with the local curvature eigenframe, a rotated
inner grid whose pitch is chosen so that all cells subdivide their
boundaries at one common spacing, and a self-similar transition band that
glues the rotated grid to the cell boundary.  Every vertex is an integer
numerator over the plan's one common denominator; the union of the
per-cell triangulations is conforming by construction, verified in exact
integer arithmetic.  Interpolating a smooth field on these meshes drives
its CPWL energy to the smooth energy as the band level K grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._delaunay import delaunay, orient2d
from .errors import HstvError, MeshError, PlanError
from .fields import MAX_LATTICE_POINTS, SmoothField, htv_quadrature
from .htv import htv_cpwl
from .mesh import CpwlFunction, Triangulation, _first_occurrence, _ranges, min_angle
from .schatten import schatten_norms, sym_eigen_frame

Coord = tuple[Fraction, Fraction]

# The common boundary spacing of a plan, at most 2^-(N + K), is at least
# 2^-MAX_SPACING_BITS.
MAX_SPACING_BITS = 40


# -- rational angles -----------------------------------------------------------


@dataclass(frozen=True)
class RationalAngle:
    """Angle in (0, pi/2) \\ {pi/4} with rational tangent q/p, gcd(p, q) = 1.

    The rotation by this angle has rational entries after scaling by
    sqrt(p^2 + q^2), which is what keeps all constructed mesh vertices
    rational.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise HstvError("p and q must be positive")
        if self.p == self.q:
            raise HstvError("angle pi/4 is excluded")
        if math.gcd(self.p, self.q) != 1:
            raise HstvError(f"({self.p}, {self.q}) not coprime")

    def rotation(self) -> tuple[float, float]:
        """(c, s) of the rotation [[c, -s], [s, c]] by this angle."""
        r = math.hypot(self.p, self.q)
        return self.p / r, self.q / r

    def reduced(self) -> tuple[int, int, bool]:
        """(p~, q~, reflected) with q~ > p~: angles below pi/4 are realized
        by building the mirror-image cell and reflecting it back."""
        if self.q > self.p:
            return self.p, self.q, False
        return self.q, self.p, True


def _rotation_distance(p: int, q: int, theta_hat: float) -> float:
    # Schatten-1 distance between the two rotations: 4 |sin((theta - theta_hat)/2)|.
    return 4.0 * abs(math.sin(0.5 * (math.atan2(q, p) - theta_hat)))


def rational_angle_approx(theta_hat: float, eps: float) -> RationalAngle:
    """Smallest Stern-Brocot node whose rotation is eps-close to theta_hat.

    Walks mediants toward tan(theta_hat) and returns the first admissible
    node (coprime, not pi/4) whose rotation matrix is within eps of the
    target in Schatten-1 norm.  Such a node always exists because rational
    angles are dense.
    """
    if not (0.0 <= theta_hat < 0.5 * math.pi):
        raise HstvError(f"theta_hat must lie in [0, pi/2), got {theta_hat}")
    if not eps > 0:
        raise HstvError("eps must be positive")
    lo_q, lo_p = 0, 1   # tan = 0
    hi_q, hi_p = 1, 0   # tan = inf
    for _ in range(200_000):
        q, p = lo_q + hi_q, lo_p + hi_p
        if q != p and _rotation_distance(p, q, theta_hat) <= eps:
            return RationalAngle(p, q)
        if theta_hat <= math.atan2(q, p):
            hi_q, hi_p = q, p
        else:
            lo_q, lo_p = q, p
    raise HstvError(f"no rational angle within eps={eps} of {theta_hat} found")


# -- per-square frames ---------------------------------------------------------


@dataclass
class SquareFrame:
    """Dyadic cell of the partition plus its local curvature frame."""

    index: int
    ix: int
    iy: int
    x0: Fraction
    y0: Fraction
    side: Fraction
    center: tuple[float, float]
    diag: tuple[float, float]
    angle: RationalAngle
    deviation: float


_TIE_ANGLE = RationalAngle(2, 1)

# The fewest rotated-lattice points one cell can scan: reduced pair (1, 2)
# at K = 0 has m = 2 and n = 1, so (m + n + 1)^2 = 16.
_MIN_CELL_LATTICE_POINTS = (2 + 1 + 1) ** 2

# Deviation samples per cell side, and per array batch (about 2 MB per float array).
_SAMPLES_PER_SIDE = 9
_SAMPLE_BATCH = 1 << 18


def build_frames(fld: SmoothField, N: int) -> list[SquareFrame]:
    """One frame per dyadic square of level N.

    The diagonal entries come from the curvature at the square center; the
    rational angle approximates the eigenframe angle within 1/max(N, 1).
    Isotropic centers (equal eigenvalues) take a fixed arbitrary angle.
    The recorded deviation is the max Schatten-1 distance between the
    rotated curvature and the diagonal over a 9 x 9 lattice.  Raises
    PlanError, before any per-cell work, when the 4^N cells could not fit
    under MAX_LATTICE_POINTS even at the smallest cell.
    """
    if N < 0:
        raise HstvError("N must be >= 0")
    # 4^N > MAX_LATTICE_POINTS from N = bit_length // 2 + 1 on; for larger N
    # the count would only be a huge integer, slow to form and to print.
    if (N > MAX_LATTICE_POINTS.bit_length() // 2
            or 4**N * _MIN_CELL_LATTICE_POINTS > MAX_LATTICE_POINTS):
        raise PlanError(
            f"N={N}: 4^{N} cells scan at least {_MIN_CELL_LATTICE_POINTS} x 4^{N} "
            f"rotated-lattice points, above {MAX_LATTICE_POINTS}: plan too fine to realize"
        )
    side = Fraction(1, 2**N)
    eps = 1.0 / max(N, 1)
    h = float(side)
    # Dyadic corners and centers, exact in float; cells in row-major order.
    iy, ix = np.divmod(np.arange(4**N), 2**N)
    x0, y0 = ix * h, iy * h
    cx, cy = x0 + 0.5 * h, y0 + 0.5 * h

    # Angle and diagonal: one scalar eigen-decision per cell center.  Each
    # angle carries its rotation [[c, -s], [s, c]].
    tie = (_TIE_ANGLE, *_TIE_ANGLE.rotation())
    by_theta: dict[float, tuple[RationalAngle, float, float]] = {}
    diags, rotated = [], []
    for hxx, hxy, hyy in zip(*(v.tolist() for v in fld.hess_components(cx, cy))):
        (d1, d2), theta_hat = sym_eigen_frame(hxx, hxy, hyy)
        if abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1), abs(d2)):
            choice = tie
        else:
            choice = by_theta.get(theta_hat)
            if choice is None:
                angle = rational_angle_approx(theta_hat, eps)
                choice = by_theta[theta_hat] = (angle, *angle.rotation())
        diags.append((d1, d2))
        rotated.append(choice)

    # Deviation: rot^T hess rot - diag over each cell's sample lattice,
    # evaluated as arrays in batches of whole cells.
    d = np.array(diags).reshape(-1, 2)
    c, s = (np.array([t[k] for t in rotated]) for k in (1, 2))
    offsets = np.arange(_SAMPLES_PER_SIDE) * (h / (_SAMPLES_PER_SIDE - 1))
    deviation = np.empty(len(cx))
    batch = max(1, _SAMPLE_BATCH // _SAMPLES_PER_SIDE**2)
    for lo in range(0, len(cx), batch):
        cells = slice(lo, lo + batch)
        fxx, fxy, fyy = fld.hess_components(x0[cells, None, None] + offsets[:, None],
                                            y0[cells, None, None] + offsets)
        ck, sk, d1, d2 = (v[cells, None, None] for v in (c, s, d[:, 0], d[:, 1]))
        # rot^T @ hess, then @ rot, each entry a row-times-column sum.
        p11, p12 = ck * fxx + sk * fxy, ck * fxy + sk * fyy
        p21, p22 = -sk * fxx + ck * fxy, -sk * fxy + ck * fyy
        m = (p11 * ck + p12 * sk - d1, p11 * -sk + p12 * ck - 0.0,
             p21 * ck + p22 * sk - 0.0, p21 * -sk + p22 * ck - d2)
        for entry in m:
            bad = entry[~np.isfinite(entry)]
            if bad.size:
                raise HstvError(f"non-finite matrix entry: {float(bad[0])!r}")
        deviation[cells] = schatten_norms(*m, 1).max(axis=(1, 2), initial=0.0)

    corners = [k * side for k in range(2**N)]
    return [
        SquareFrame(index=k, ix=i, iy=j, x0=corners[i], y0=corners[j], side=side,
                    center=center, diag=dg, angle=rot[0], deviation=dev)
        for k, (i, j, center, dg, rot, dev) in enumerate(zip(
            ix.tolist(), iy.tolist(), zip(cx.tolist(), cy.tolist()), diags,
            rotated, deviation.tolist()))
    ]


# -- mesh plans ----------------------------------------------------------------


@dataclass(eq=False)
class SquarePlan:
    """One cell type: reduced angle pair, grid counts and the exact rational
    lattice step vectors.  Cells of one type share one object, so a plan's
    types are its distinct SquarePlan objects."""

    pp: int            # reduced pair, qq > pp
    qq: int
    reflected: bool
    m: int             # boundary intervals per cell side (= side / spacing)
    n: int             # inner-grid steps along the long leg (= m * pp / qq)
    m0: int            # m / 2^K: building-block subdivision count
    hv: Coord          # lattice step along the rotated x-axis, |hv| = pitch
    hw: Coord          # lattice step along the rotated y-axis


@dataclass
class MeshPlan:
    N: int
    K: int
    spacing: Fraction          # common boundary spacing shared by all cells
    den: int                   # common denominator of every mesh vertex coordinate
    squares: list[SquarePlan]  # each cell's type, in frame order
    corners: np.ndarray        # (cells, 2) numerators over den of each cell's lower-left corner


def plan_mesh(frames: Sequence[SquareFrame], N: int, K: int) -> MeshPlan:
    """Choose per-cell grid pitches so all cell boundaries subdivide at one
    common spacing, 2^-(N + K) over the least common multiple of the cells'
    reduced angle denominators; the alignment invariants hold exactly.
    Cells with one reduced pair (pp, qq, reflected) share one SquarePlan.
    """
    if not frames:
        raise PlanError("no frames")
    if K < 0:
        raise PlanError("K must be >= 0")
    reduced = [f.angle.reduced() for f in frames]
    # The messages name each denominator once: one entry per cell would grow with 4^N.
    dens = sorted({qq for (_, qq, _) in reduced})
    m0_all = math.lcm(*dens)
    if N + K > MAX_SPACING_BITS:
        raise PlanError(
            f"boundary spacing at most 2^-(N + K), below 2^-{MAX_SPACING_BITS}: "
            f"N={N} and K={K} make the grid unrealizably fine")
    spacing = Fraction(1, (1 << (N + K)) * m0_all)
    if spacing < Fraction(1, 1 << MAX_SPACING_BITS):
        # The lcm is named by bit length: it can be too long to print.
        raise PlanError(
            f"boundary spacing 2^-{N + K} / lcm below 2^-{MAX_SPACING_BITS}: angle denominators "
            f"{dens} (lcm of {m0_all.bit_length()} bits) make the grid unrealizably fine"
        )
    if (m0_all << K) > 4096:
        raise PlanError(
            f"{m0_all << K} boundary intervals per cell side: plan too fine to "
            f"realize (angle denominators {dens}, K={K})"
        )
    lattice = sum((((m0_all + m0_all * pp // qq) << K) + 1) ** 2 for pp, qq, _ in reduced)
    if lattice > MAX_LATTICE_POINTS:
        raise PlanError(
            f"{lattice} rotated-lattice points to scan, above {MAX_LATTICE_POINTS}: "
            f"plan too fine to realize (angle denominators {dens}, K={K})"
        )
    side = Fraction(1, 1 << N)
    types: dict[tuple[int, int, bool], SquarePlan] = {}
    squares = []
    for frame, key in zip(frames, reduced):
        if frame.side != side:
            raise PlanError(f"frame {frame.index} has side {frame.side}, expected 2^-{N}")
        sp = types.get(key)
        if sp is None:
            pp, qq, refl = key
            m0 = m0_all
            if m0 * pp % qq:
                raise PlanError(f"pitch count {m0}*{pp}/{qq} not integral")
            m = m0 << K
            n = (m0 * pp // qq) << K
            r2 = pp * pp + qq * qq
            hv = (spacing * qq * pp / r2, spacing * qq * qq / r2)
            hw = (-spacing * qq * qq / r2, spacing * qq * pp / r2)
            # Alignment invariants, exact: pitch/sin(theta) = spacing, and the
            # cell corners sit on the rotated lattice.
            assert (spacing * qq) ** 2 == r2 * (hv[0] ** 2 + hv[1] ** 2)
            assert n * hv[0] - m * hw[0] == side and n * hv[1] - m * hw[1] == 0
            assert m * hv[0] + n * hw[0] == 0 and m * hv[1] + n * hw[1] == side
            sp = types[key] = SquarePlan(pp=pp, qq=qq, reflected=refl,
                                         m=m, n=n, m0=m0, hv=hv, hw=hw)
        squares.append(sp)
    # hv and hw are multiples of spacing / (pp^2 + qq^2); cell corners of 2^-N.
    den = (1 << (N + K)) * m0_all * math.lcm(*(pp * pp + qq * qq for pp, qq, _ in types))
    corners = _numerators(den, *(f.x0 for f in frames), *(f.y0 for f in frames))
    corners = np.array(corners, dtype=np.int64 if den < 2**63 else object).reshape(2, -1).T
    return MeshPlan(N=N, K=K, spacing=spacing, den=den, squares=squares,
                    corners=corners)


# -- the transition-band building block ----------------------------------------


@functools.cache
def _band_master(pp: int, qq: int, m0: int) -> tuple[np.ndarray, np.ndarray]:
    """Triangulated building block for the top edge of the canonical unit cell.

    The block is the right triangle with hypotenuse from A=(0,1) to B=(1,1)
    and right-angle vertex E inside the cell.  Its boundary vertices are
    fixed: hypotenuse points at the common spacing, leg points at the grid
    pitch.  The interior triangulation is the Delaunay triangulation of
    that boundary point set (deterministic, flat-angle-free).  Points are
    integer numerators over m0 (pp^2 + qq^2), with A, B and E at positions
    0, m0 and 2 m0.  Built once per process for each (pp, qq, m0).
    """
    if m0 * pp % qq:
        raise PlanError("inconsistent master counts")
    n0 = m0 * pp // qq
    r2 = pp * pp + qq * qq
    one = m0 * r2
    # Over `one` the lattice steps are hv = (qq pp, qq^2) and hw = (-qq^2, qq pp).
    e = (m0 * qq * qq, one - m0 * qq * pp)
    assert (e[0] + n0 * qq * pp, e[1] + n0 * qq * qq) == (one, one)
    pts = [(i * r2, one) for i in range(m0 + 1)]
    pts += [(j * qq * qq, one - j * qq * pp) for j in range(1, m0)]
    pts.append(e)
    pts += [(e[0] + j * qq * pp, e[1] + j * qq * qq) for j in range(1, n0)]
    tris = delaunay(pts)
    if sum(orient2d(*(pts[i] for i in t)) for t in tris) != abs(orient2d(pts[0], pts[m0], e)):
        raise MeshError("building-block triangulation does not tile the block")
    return np.array(pts, dtype=np.int64), np.array(tris, dtype=np.int64)


def _numerators(den: int, *values: Fraction) -> list[int]:
    """Numerators over den of plan-level rationals (MeshError if one is off that grid)."""
    if any(den % v.denominator for v in values):
        raise MeshError(f"plan coordinates are not multiples of 1/{den}")
    return [v.numerator * (den // v.denominator) for v in values]


def _square_local_mesh(sp: SquarePlan, plan: MeshPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex numerators over plan.den, CCW triangles and the cell-boundary
    mask of one cell placed at (0, 0) (exact).

    Depends on the plan only through N, K and den, so cells that share sp
    share this mesh up to an integer translation.
    Vertices are numbered by first occurrence in this sequence: the points
    of the band copies (four families of 2^K copies, each in master order),
    then the corners of the inner lattice cells, cell by cell.  Raises
    MeshError unless the inner lattice cells and the band copies tile the
    cell area exactly, so a successful return certifies the tiling.
    """
    copies = 1 << plan.K
    one = sp.m0 * (sp.pp * sp.pp + sp.qq * sp.qq)
    master_pts, master_tris = _band_master(sp.pp, sp.qq, sp.m0)
    cell_side = Fraction(1, 1 << plan.N)
    side, hvx, hvy, hwx, hwy, unit = _numerators(
        plan.den, cell_side, *sp.hv, *sp.hw, cell_side / (copies * one))
    m, n = sp.m, sp.n
    # Coordinates and lattice products below (cell offsets times steps, two
    # terms) stay within 2 * big^2.
    big = side + (m + n + 2) * max(map(abs, (hvx, hvy, hwx, hwy)))
    dtype = np.int64 if 2 * big * big < 2**63 else object

    # Band copies, as offsets from the cell's lower-left corner: the top
    # family is the master scaled by `unit` and shifted along the top side;
    # the others are its rotations by -90, -180 and -270 degrees about the
    # cell center.
    master = master_pts.astype(dtype)
    j = np.arange(copies).astype(dtype)[:, None]
    bx = (unit * (j * one + master[:, 0])).ravel()
    by = np.tile(side + unit * (master[:, 1] - one), copies)
    band = np.concatenate([np.stack(f, axis=1) for f in (
        (bx, by), (by, side - bx), (side - bx, side - by), (side - by, bx))])

    # Grid coordinates of each copy's corners A, B, E on the rotated lattice.
    n_pts = len(master_pts)
    corners = band.reshape(4 * copies, n_pts, 2)[:, [0, sp.m0, 2 * sp.m0]]
    sq = hvx * hvx + hvy * hvy
    gu = corners[..., 0] * hvx + corners[..., 1] * hvy
    gv = corners[..., 0] * hwx + corners[..., 1] * hwy
    if (gu % sq != 0).any() or (gv % sq != 0).any():
        raise MeshError("band corner off the rotated lattice")
    # Lattice indices lie in [-m, n + m], so int64 holds them; rows A, B, E.
    gu, gv = (gu // sq).astype(np.int64).T, (gv // sq).astype(np.int64).T

    # Inner cells: rotated-lattice squares inside the cell and clear of the band.
    us = np.arange(0, n + m + 1, dtype=np.int64)
    vs = np.arange(-m, n + 1, dtype=np.int64)
    uu = us[:, None]
    vv = vs[None, :]
    # Quadrilateral (cell) corners in grid coordinates, CCW.
    quad = [(0, 0), (n, -m), (n + m, n - m), (m, n)]
    inside = np.ones((len(us), len(vs)), dtype=bool)
    for (qa_u, qa_v), (qb_u, qb_v) in zip(quad, quad[1:] + quad[:1]):
        inside &= (qb_u - qa_u) * (vv - qa_v) - (qb_v - qa_v) * (uu - qa_u) >= 0
    cell_ok = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]

    # Lattice cells (ci, cj) that meet the interior of a copy's bounding
    # box, rows ci and columns cj + m, enumerated over all copies at once.
    i0, i1 = np.clip(gu.min(axis=0), 0, n + m), np.clip(gu.max(axis=0), 0, n + m)
    j0, j1 = np.clip(gv.min(axis=0) + m, 0, n + m), np.clip(gv.max(axis=0) + m, 0, n + m)
    rows, cols = i1 - i0, j1 - j0
    copy = np.repeat(np.arange(len(rows)), rows * cols)
    ci, cj = np.divmod(_ranges(rows * cols), cols[copy])
    ci += i0[copy]
    cj += j0[copy]
    # Each copy's open halfplane on E's side of its hypotenuse AB.
    (au, bu, eu), (av, bv, ev) = gu, gv
    ha, hb = av - bv, bu - au
    sgn = np.where(ha * eu + hb * ev > ha * au + hb * av, 1, -1)
    ha, hb = ha * sgn, hb * sgn
    hc = ha * au + hb * av - np.maximum(ha, 0) - np.maximum(hb, 0)
    hit = ha[copy] * ci + hb[copy] * (cj - m) > hc[copy]
    band_overlap = np.zeros_like(cell_ok)
    band_overlap[ci[hit], cj[hit]] = True
    inner = cell_ok & ~band_overlap

    # Exact tiling check, in twice the area over den^2: inner cells plus the
    # band copies (the master block scaled by unit) must cover the cell.
    n_inner = int(inner.sum())
    master_area2 = abs(orient2d(*master_pts[[0, sp.m0, 2 * sp.m0]].tolist()))
    covered2 = 2 * n_inner * sq + 4 * copies * unit * unit * master_area2
    if covered2 != 2 * side * side:
        raise MeshError(
            "inner cells and transition band do not tile the cell exactly "
            f"(got {Fraction(covered2, 2 * plan.den ** 2)}, want {cell_side ** 2})"
        )

    # Inner cell corners p00, p10, p01, p11 and the standard split along the
    # (v - w) diagonal.
    iu, jv = np.nonzero(inner)
    u = (iu[:, None] + [0, 1, 0, 1]).ravel().astype(dtype)
    v = (jv[:, None] - m + [0, 0, 1, 1]).ravel().astype(dtype)
    pts = np.concatenate([band, np.stack([u * hvx + v * hwx, u * hvy + v * hwy], axis=1)])
    first = _first_occurrence(pts)
    new = first == np.arange(len(pts))
    ids = (np.cumsum(new) - 1)[first]
    tris = ids[np.concatenate([
        (n_pts * np.arange(4 * copies)[:, None, None] + master_tris).reshape(-1, 3),
        (len(band) + 4 * np.arange(len(iu))[:, None, None]
         + np.array([[0, 1, 2], [1, 3, 2]])).reshape(-1, 3),
    ])]
    verts = pts[new]
    if sp.reflected:
        # Mirror across the anti-diagonal of the cell; orientation flips.
        verts = np.stack([side - verts[:, 1], side - verts[:, 0]], axis=1)
        tris = tris[:, [0, 2, 1]]
    return verts, tris, ((verts == 0) | (verts == side)).any(axis=1)


def assemble_global(plan: MeshPlan) -> Triangulation:
    """Union of all cell triangulations as one conforming mesh.

    Each cell type (one SquarePlan object) has its local mesh built, and
    its tiling checked, once; every cell of that type is placed by adding
    its plan.corners row.  Vertices on cell boundaries are matched exactly
    (integer numerators over plan.den), each keeping the number of its
    first occurrence; any spacing mismatch surfaces as a MeshError.
    """
    types: dict[SquarePlan, int] = {}
    kind = np.array([types.setdefault(sp, len(types)) for sp in plan.squares], dtype=np.int64)
    local = [_square_local_mesh(sp, plan) for sp in types]
    # Every coordinate lies in [0, den], so int64 holds the sums when den does.
    exact = plan.den < 2**62 and all(v.dtype == np.int64 for v, _, _ in local)
    corner = plan.corners.astype(np.int64 if exact else object)

    # Cells keep plan order: cell i's vertices and triangles start at
    # vstart[i] and tstart[i].
    nv = np.array([len(v) for v, _, _ in local])[kind]
    nt = np.array([len(t) for _, t, _ in local])[kind]
    vstart = np.cumsum(nv) - nv
    tstart = np.cumsum(nt) - nt
    pts = np.empty((int(nv.sum()), 2), dtype=corner.dtype)
    tris = np.empty((int(nt.sum()), 3), dtype=np.int64)
    on_boundary = np.empty(len(pts), dtype=bool)
    for k, (v, t, b) in enumerate(local):
        cells = np.flatnonzero(kind == k)
        vrows = vstart[cells, None] + np.arange(len(v))
        pts[vrows] = corner[cells, None, :] + v
        on_boundary[vrows] = b
        tris[tstart[cells, None] + np.arange(len(t))] = vstart[cells, None, None] + t

    first = np.arange(len(pts))
    shared = np.flatnonzero(on_boundary)
    first[shared] = shared[_first_occurrence(pts[shared])]
    new = first == np.arange(len(pts))
    ids = (np.cumsum(new) - 1)[first]
    try:
        mesh = Triangulation(pts[new], ids[tris], plan.den)
    except MeshError as exc:
        raise MeshError(f"cell boundaries do not match: {exc}") from exc
    if not mesh.covers_bbox_exactly():
        raise MeshError("assembled mesh does not tile the domain: boundary mismatch")
    return mesh


# -- interpolation and experiments ---------------------------------------------


def interpolate(fld: SmoothField, mesh: Triangulation) -> CpwlFunction:
    """CPWL interpolant: vertex values are exact field evaluations."""
    fv = mesh.float_vertices
    vals = np.asarray(fld.eval(fv[:, 0], fv[:, 1]), dtype=float)
    return CpwlFunction(mesh, vals)


def interpolation_error_estimate(fld: SmoothField, g: CpwlFunction) -> float:
    """Max |field - interpolant| sampled at triangle centroids and edge
    midpoints (cheap, location-free estimate of the sup error)."""
    x, y = g.mesh.float_vertices.T
    t0, t1, t2 = g.mesh.triangle_array.T
    (xa, ya, za), (xb, yb, zb), (xc, yc, zc) = ((x[t], y[t], g.values[t]) for t in (t0, t1, t2))
    worst = 0.0
    probes = [
        ((xa + xb + xc) / 3.0, (ya + yb + yc) / 3.0, (za + zb + zc) / 3.0),
        ((xa + xb) / 2.0, (ya + yb) / 2.0, (za + zb) / 2.0),
        ((xb + xc) / 2.0, (yb + yc) / 2.0, (zb + zc) / 2.0),
        ((xc + xa) / 2.0, (yc + ya) / 2.0, (zc + za) / 2.0),
    ]
    for px, py, gvals in probes:
        fvals = np.asarray(fld.eval(px, py), dtype=float)
        worst = max(worst, float(np.max(np.abs(fvals - gvals))))
    return worst


@dataclass
class ExperimentRow:
    K: int
    vertices: int
    triangles: int
    min_angle: float
    sup_error: float
    htv_cpwl: float
    htv_reference: float


@dataclass
class ExperimentTable:
    rows: list[ExperimentRow]

    COLUMNS = ("K", "vertices", "triangles", "min_angle", "sup_error",
               "htv_cpwl", "htv_reference")

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for r in self.rows:
            lines.append(
                f"{r.K},{r.vertices},{r.triangles},{r.min_angle!r},"
                f"{r.sup_error!r},{r.htv_cpwl!r},{r.htv_reference!r}"
            )
        return "\n".join(lines) + "\n"


def convergence_experiment(
    fld: SmoothField,
    N: int,
    K_range: Sequence[int],
    p=1,
    ref_resolution: int = 512,
    frames: Optional[list[SquareFrame]] = None,
    collect=None,
) -> ExperimentTable:
    """Interpolate the field on the level-K meshes and tabulate CPWL energy
    against the smooth quadrature reference at exponent p; `collect(K, g)`,
    when given, receives each level's interpolant."""
    ks = list(K_range)
    if not ks or any(b < a for a, b in zip(ks, ks[1:])):
        raise HstvError("K_range must be nonempty and ascending")
    if frames is None:
        frames = build_frames(fld, N)
    plans = [plan_mesh(frames, N, K) for K in ks]  # reject bad plans first
    reference = htv_quadrature(fld, p, ref_resolution)
    rows = []
    for K, plan in zip(ks, plans):
        mesh = assemble_global(plan)
        g = interpolate(fld, mesh)
        report = htv_cpwl(g)
        rows.append(
            ExperimentRow(
                K=K,
                vertices=mesh.n_vertices,
                triangles=mesh.n_triangles,
                min_angle=min_angle(mesh),
                sup_error=interpolation_error_estimate(fld, g),
                htv_cpwl=report.total,
                htv_reference=reference,
            )
        )
        if collect is not None:
            collect(K, g)
    return ExperimentTable(rows)
