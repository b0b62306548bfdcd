"""Extremality tests and decomposition of CPWL functions modulo affine maps.

A CPWL function (with unit energy, affine part quotiented out) is an extreme
point of the energy ball iff the only functions whose curvature lives on its
support are its own multiples; concretely, iff the nullspace of the
jump-vanishing constraints off that support is one-dimensional.  Non-extremal
functions are decomposed by greedy support reduction: each step subtracts a
multiple of an extremal direction chosen inside the current support with
jump signs aligned, which zeroes at least one support edge, never flips the
remaining signs, and therefore splits the energy additively.  The collected
coefficients sum to the input's energy, which is the discrete form of the
rigidity identity.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import ExtremalError
from .htv import htv_cpwl, support_mask_by_jump
from .mesh import CpwlFunction, Triangulation

SUPPORT_REL_TOL = 1e-9


# -- linear structure of a mesh -------------------------------------------------


class _MeshAlgebra:
    """The linear algebra of the extremality constraints on one mesh.

    Every part is built on first use and kept for the mesh's lifetime: the
    affine design matrix and its orthonormal basis, the orthonormal basis of
    the affine complement and the jump operators.  Only the mesh's own
    arrays are referenced, so the cache does not keep the mesh alive.
    """

    def __init__(self, mesh: Triangulation):
        self._fv = mesh.float_vertices
        self._tris = mesh.triangle_array
        self._edges = mesh.interior_edge_array
        self._tpairs = mesh.interior_tri_array

    @cached_property
    def design(self) -> np.ndarray:
        """(V, 3) samples of the affine functions 1, x, y at the vertices."""
        fv = self._fv
        return np.stack([np.ones(len(fv)), fv[:, 0], fv[:, 1]], axis=1)

    @cached_property
    def affine_basis(self) -> np.ndarray:
        """Orthonormal basis (V, 3) of the affine functions."""
        q, _ = np.linalg.qr(self.design)
        return q

    @cached_property
    def complement(self) -> np.ndarray:
        """Orthonormal basis (V, V - 3) of the affine complement (read-only)."""
        u, _, _ = np.linalg.svd(self.affine_basis, full_matrices=True)
        u.flags.writeable = False
        return u[:, 3:]

    @cached_property
    def jump_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(full, normal) jump operators over interior edges in id order.

        full: (2E, V), rows are both components of the gradient jump across
        each edge (second triangle minus first); normal: (E, V), the jump
        projected on the fixed unit edge normal.
        """
        fv, tris = self._fv, self._tris
        # Per-triangle gradient coefficient stencils (2 x 3 each).
        pa, pb, pc = fv[tris[:, 0]], fv[tris[:, 1]], fv[tris[:, 2]]
        e1 = pb - pa
        e2 = pc - pa
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        gx = np.stack([(e1[:, 1] - e2[:, 1]) / det, e2[:, 1] / det, -e1[:, 1] / det], axis=1)
        gy = np.stack([(e2[:, 0] - e1[:, 0]) / det, -e2[:, 0] / det, e1[:, 0] / det], axis=1)

        edges, tpairs = self._edges, self._tpairs
        n_edges, nv = len(edges), len(fv)
        d = fv[edges[:, 1]] - fv[edges[:, 0]]
        ln = np.array([math.hypot(dx, dy) for dx, dy in d.tolist()])
        nux, nuy = -d[:, 1] / ln, d[:, 0] / ln
        # Six stencil entries per edge: the second triangle's three slots
        # (+), then the first's (-), accumulated in that order.
        t = np.repeat(tpairs[:, ::-1], 3, axis=1)
        slot = np.tile(np.arange(3), 2)
        sign = np.repeat([1.0, -1.0], 3)
        col = tris[t, slot]
        sx, sy = gx[t, slot], gy[t, slot]
        row = np.arange(n_edges)[:, None]
        full = np.zeros((2 * n_edges, nv))
        normal = np.zeros((n_edges, nv))
        np.add.at(full, (2 * row, col), sign * sx)
        np.add.at(full, (2 * row + 1, col), sign * sy)
        np.add.at(normal, (row, col), sign * (sx * nux[:, None] + sy * nuy[:, None]))
        return full, normal


_ALGEBRA: "weakref.WeakKeyDictionary[Triangulation, _MeshAlgebra]" = (
    weakref.WeakKeyDictionary())


def _algebra(mesh: Triangulation) -> _MeshAlgebra:
    alg = _ALGEBRA.get(mesh)
    if alg is None:
        alg = _ALGEBRA[mesh] = _MeshAlgebra(mesh)
    return alg


# -- quotient representatives ----------------------------------------------------


@dataclass
class QuotientRep:
    """CPWL function with its best-fit affine part removed."""

    cpwl: CpwlFunction
    affine: tuple[float, float, float]

    @property
    def values(self) -> np.ndarray:
        return self.cpwl.values

    @property
    def mesh(self) -> Triangulation:
        return self.cpwl.mesh


def normalize_mod_affine(g: CpwlFunction) -> QuotientRep:
    """Remove the least-squares affine part of the vertex values.

    The energy is unchanged (affine shifts move all gradients equally), and
    the returned values are orthogonal to {1, x, y} at the vertices.
    """
    alg = _algebra(g.mesh)
    a = alg.design
    coef, *_ = np.linalg.lstsq(a, g.values, rcond=None)
    reduced = g.values - a @ coef
    q = alg.affine_basis
    reduced = reduced - q @ (q.T @ reduced)
    return QuotientRep(g.with_values(reduced), tuple(float(c) for c in coef))


def _as_cpwl(g: Union[CpwlFunction, QuotientRep]) -> CpwlFunction:
    return g.cpwl if isinstance(g, QuotientRep) else g


# -- constrained spaces ----------------------------------------------------------


@dataclass
class JumpSpaceBasis:
    """Orthonormal basis of {h : jumps vanish on interior edges outside S},
    modulo affine functions."""

    mesh: Triangulation
    support_mask: np.ndarray  # (E,) bool over interior-edge ids: S
    basis: np.ndarray  # (V, dim)
    dim: int


def constrained_space(mesh: Triangulation, support: np.ndarray) -> JumpSpaceBasis:
    """Nullspace of the jump constraints on edges outside `support`.

    `support` is an (E,) boolean mask over interior-edge ids; anything else
    raises ExtremalError.  Constraints are both gradient-jump components per
    excluded edge; the nullspace is extracted by SVD with threshold 1e-10
    times the largest singular value, inside the orthogonal complement of
    the affine span.
    """
    n_edges = len(mesh.interior_edge_array)
    if not (isinstance(support, np.ndarray) and support.dtype == bool
            and support.shape == (n_edges,)):
        raise ExtremalError(
            f"support must be a boolean mask of shape ({n_edges},) over interior-edge ids")
    mask = support.copy()
    alg = _algebra(mesh)
    comp = alg.complement
    if mask.all():
        basis = comp
    else:
        full, _ = alg.jump_operators
        rows = full.reshape(len(mask), 2, -1)[~mask].reshape(-1, full.shape[1])
        a = rows @ comp
        # A tall a's reduced V^T is already square; a wide a needs the
        # full one for its nullspace rows.
        _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
        thr = 1e-10 * (sv[0] if len(sv) else 0.0)
        rank = int(np.sum(sv > thr))
        basis = comp @ vt[rank:].T
    return JumpSpaceBasis(mesh=mesh, support_mask=mask, basis=basis, dim=basis.shape[1])


@dataclass
class ExtremalCertificate:
    space: JumpSpaceBasis
    witness: Optional[np.ndarray]  # vertex values of a non-span direction


def is_extremal(g: Union[CpwlFunction, QuotientRep], tol: float = SUPPORT_REL_TOL
                ) -> tuple[bool, ExtremalCertificate]:
    """Extremality test: the constrained space of the support must be a line.

    The certificate carries the computed space; when the answer is False it
    also holds a witness direction inside the support that is not a multiple
    of g.
    """
    g = _as_cpwl(g)
    return _extremality(g, support_mask_by_jump(g, tol))


def _extremality(g: CpwlFunction, support: np.ndarray
                 ) -> tuple[bool, ExtremalCertificate]:
    """`is_extremal` for g whose support mask is already known."""
    if not support.any():
        raise ExtremalError("function is affine (zero energy): not on the unit sphere")
    space = constrained_space(g.mesh, support)
    if space.dim < 1:
        raise ExtremalError("numerical rank failure: g not inside its own constraint space")
    if space.dim == 1:
        return True, ExtremalCertificate(space, None)
    rep = normalize_mod_affine(g)
    gn = rep.values / np.linalg.norm(rep.values)
    resid = space.basis - np.outer(gn, gn @ space.basis)
    norms = np.linalg.norm(resid, axis=0)
    w = resid[:, int(np.argmax(norms))]
    return False, ExtremalCertificate(space, w / np.linalg.norm(w))


def perturbation_identity_check(g: Union[CpwlFunction, QuotientRep],
                                h: Union[CpwlFunction, QuotientRep],
                                tol: float = SUPPORT_REL_TOL) -> float:
    """|htv(g + eps h) + htv(g - eps h) - 2 htv(g)| for the canonical eps.

    eps is the ratio (smallest nonzero jump of g) / (largest jump of h); at
    that size the perturbation cannot flip any jump sign, so the identity
    must vanish whenever h's curvature lives inside g's support.  Returns 0
    for h = 0.
    """
    g = _as_cpwl(g)
    h = _as_cpwl(h)
    report_g = htv_cpwl(g)
    jumps_g = report_g.jumps
    norms_g = np.hypot(jumps_g[:, 0], jumps_g[:, 1])
    jumps_h = htv_cpwl(h).jumps
    norms_h = np.hypot(jumps_h[:, 0], jumps_h[:, 1])
    delta_cap = float(norms_h.max()) if len(norms_h) else 0.0
    if delta_cap <= 1e-300:
        return 0.0
    thr = tol * float(norms_g.max())
    nonzero = norms_g[norms_g > thr]
    if len(nonzero) == 0:
        raise ExtremalError("g has empty support")
    eps = float(nonzero.min()) / delta_cap
    plus = htv_cpwl(g.with_values(g.values + eps * h.values)).total
    minus = htv_cpwl(g.with_values(g.values - eps * h.values)).total
    return abs(plus + minus - 2.0 * report_g.total)


# -- greedy support reduction ----------------------------------------------------


def support_reduce(g: Union[CpwlFunction, QuotientRep], tol: float = SUPPORT_REL_TOL
                   ) -> tuple[CpwlFunction, float, QuotientRep]:
    """One reduction step: (h, lambda, g - lambda h) with strictly smaller support.

    h is a unit direction from the constrained space of g's support that is
    not a multiple of g; lambda is the smallest-magnitude jump ratio over
    the support, which zeroes at least one edge and never flips the sign of
    any other jump.
    """
    g = _as_cpwl(g)
    extremal, cert = is_extremal(g, tol)
    if extremal:
        raise ExtremalError("input is extremal: nothing to reduce")
    h, lam, nxt, _ = _reduce_step(g, cert, tol)
    return h, lam, nxt


def _reduce_step(g: CpwlFunction, cert: ExtremalCertificate, tol: float
                 ) -> tuple[CpwlFunction, float, QuotientRep, np.ndarray]:
    """`support_reduce` for a non-extremal g with its certificate in hand;
    also returns the support mask of the result."""
    h_vec = cert.witness
    support = cert.space.support_mask
    _, normal_op = _algebra(g.mesh).jump_operators
    jn_g = normal_op @ g.values
    jn_h = normal_op @ h_vec
    h_thr = tol * float(np.abs(jn_h).max())
    usable = support & (np.abs(jn_h) > h_thr)
    if not usable.any():
        raise ExtremalError("witness has no usable jump inside the support")
    ratios = jn_g[usable] / jn_h[usable]
    lam = ratios[np.argmin(np.abs(ratios))]  # the first of the smallest
    nxt = normalize_mod_affine(g.with_values(g.values - lam * h_vec))
    new_support = support_mask_by_jump(nxt.cpwl, tol)
    if not (np.all(new_support <= support) and new_support.sum() < support.sum()):
        raise ExtremalError("support did not strictly decrease: numerical rank failure")
    return g.with_values(h_vec), float(lam), nxt, new_support


def find_extremal_in_support(g: Union[CpwlFunction, QuotientRep],
                             tol: float = SUPPORT_REL_TOL) -> QuotientRep:
    """Extremal direction with support inside g's, normalized to unit energy.

    Each step solves for one constrained space: the extremality test's
    certificate drives the reduction, and the support the reduction has
    checked is the next step's support.
    """
    rep = normalize_mod_affine(_as_cpwl(g))
    support = support_mask_by_jump(rep.cpwl, tol)
    for _ in range(len(support) + 2):
        extremal, cert = _extremality(rep.cpwl, support)
        if extremal:
            total = htv_cpwl(rep.cpwl).total
            return QuotientRep(rep.cpwl.with_values(rep.values / total), (0.0, 0.0, 0.0))
        _, _, rep, support = _reduce_step(rep.cpwl, cert, tol)
    raise ExtremalError("support reduction did not terminate")


@dataclass
class Decomposition:
    """g = sum_i coefficients[i] * terms[i] + residual, all terms extremal
    with unit energy and support inside g's."""

    terms: list[QuotientRep]
    coefficients: list[float]
    residual: float           # energy of the unexplained remainder
    value_residual: float     # sup-norm of the remainder at vertices
    total: float              # energy of the input

    @property
    def coefficient_sum(self) -> float:
        return float(sum(self.coefficients))


def decompose(g: Union[CpwlFunction, QuotientRep], tol: float = 1e-8) -> Decomposition:
    """Write g (mod affine) as a nonnegative combination of extremal directions.

    Greedy peeling: find an extremal direction in the current support, then
    subtract the largest multiple that keeps every remaining jump on its
    original side of zero.  Each step zeroes at least one support edge, so
    the loop terminates, and because no sign ever flips the energies add up:
    the coefficient sum equals the input energy (rigidity).
    """
    g = _as_cpwl(g)
    rep0 = normalize_mod_affine(g)
    total = htv_cpwl(rep0.cpwl).total
    if total <= tol:
        raise ExtremalError("input is affine: nothing to decompose")
    _, normal_op = _algebra(rep0.mesh).jump_operators
    x = rep0.values.copy()
    terms: list[QuotientRep] = []
    coeffs: list[float] = []
    for _ in range(len(rep0.mesh.interior_edge_array) + 2):
        current = htv_cpwl(rep0.cpwl.with_values(x)).total
        if current <= tol * max(1.0, total):
            break
        t = find_extremal_in_support(rep0.cpwl.with_values(x))
        jn_x = normal_op @ x
        jn_t = normal_op @ t.values
        t_thr = SUPPORT_REL_TOL * float(np.abs(jn_t).max())
        used = np.abs(jn_t) > t_thr
        ratios = jn_x[used] / jn_t[used]
        pos = ratios[ratios > 0]
        if not len(pos) or ratios.min() < -tol * max(1.0, total):
            raise ExtremalError(
                "jump signs of the extremal direction disagree with the input: "
                "numerical rank failure"
            )
        c = pos.min()
        terms.append(t)
        coeffs.append(float(c))
        x = x - c * t.values
    residual = htv_cpwl(rep0.cpwl.with_values(x)).total
    if residual > tol * max(1.0, total):
        raise ExtremalError(
            f"decomposition stalled: achieved energy residual {residual:.3e} > {tol:.1e}"
        )
    return Decomposition(
        terms=terms,
        coefficients=coeffs,
        residual=float(residual),
        value_residual=float(np.max(np.abs(x))) if len(x) else 0.0,
        total=float(total),
    )


def rigidity_check(f: Union[CpwlFunction, QuotientRep],
                   g: Union[CpwlFunction, QuotientRep],
                   total_tol: float = 1e-10, edge_tol: float = 1e-9) -> bool:
    """Verify that additivity of the totals forces per-edge additivity.

    Precondition (checked): htv(f + g) = htv(f) + htv(g) within total_tol.
    Returns True iff every interior edge splits its contribution additively
    within edge_tol.
    """
    f = _as_cpwl(f)
    g = _as_cpwl(g)
    if f.mesh is not g.mesh:
        raise ExtremalError("f and g must share a mesh")
    rf = htv_cpwl(f)
    rg = htv_cpwl(g)
    rs = htv_cpwl(f.with_values(f.values + g.values))
    if abs(rs.total - rf.total - rg.total) > total_tol * max(1.0, rf.total + rg.total):
        raise ExtremalError(
            "precondition failed: totals are not additive "
            f"({rs.total} vs {rf.total} + {rg.total})"
        )
    gap = np.abs(rs.contributions - rf.contributions - rg.contributions)
    return bool(np.all(gap <= edge_tol * max(1.0, rf.total + rg.total)))
