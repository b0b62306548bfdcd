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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ExtremalError
from .htv import SUPPORT_REL_TOL, _EdgeKernel
from .mesh import CpwlFunction, Triangulation


def _check_tol(tol: float, bound: float = math.inf) -> None:
    """Refuse a tolerance that would switch its checks off."""
    if not 0.0 <= tol < bound:
        raise ExtremalError(f"tolerance {tol!r} is not in [0, {bound:g})")


# -- linear structure of a mesh -------------------------------------------------


class _MeshAlgebra(_EdgeKernel):
    """The edge kernel of one mesh plus the linear algebra of the
    extremality constraints on it.

    It is the mesh's one kernel (`_EdgeKernel.of`), so every part is kept
    for the mesh's lifetime, and read-only: the kernel's gradient stencil
    and edge vectors, and, built on first use, the affine design matrix and
    its orthonormal basis, the orthonormal basis of the affine complement
    and the jump operators.  The greedy loop runs on plain value vectors
    through the methods below.
    """

    def __init__(self, mesh: Triangulation):
        super().__init__(mesh)
        self._fv = mesh.float_vertices
        self._tris = mesh.triangle_array

    @cached_property
    def design(self) -> np.ndarray:
        """(V, 3) samples of the affine functions 1, x, y at the vertices."""
        fv = self._fv
        design = np.stack([np.ones(len(fv)), fv[:, 0], fv[:, 1]], axis=1)
        design.flags.writeable = False
        return design

    @cached_property
    def affine_basis(self) -> np.ndarray:
        """Orthonormal basis (V, 3) of the affine functions (read-only)."""
        q, _ = np.linalg.qr(self.design)
        q.flags.writeable = False
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
        projected on the fixed unit edge normal.  Both are read-only.
        """
        fv, tris = self._fv, self._tris
        # Per-triangle gradient coefficient stencils (2 x 3 each).
        st = self.stencil
        e1x, e1y, e2x, e2y, det = st.e1x, st.e1y, st.e2x, st.e2y, st.det
        gx = np.stack([(e1y - e2y) / det, e2y / det, -e1y / det], axis=1)
        gy = np.stack([(e2x - e1x) / det, -e2x / det, e1x / det], axis=1)

        n_edges, nv = len(self.tpairs), len(fv)
        # math.hypot: np.hypot differs in the last bit, and the decompose digests pin these.
        ln = np.array([math.hypot(*d) for d in zip(self.dx.tolist(), self.dy.tolist())])
        nux, nuy = -self.dy / ln, self.dx / ln
        # Six stencil entries per edge: the second triangle's three slots
        # (+), then the first's (-), accumulated in that order.
        t = np.repeat(self.tpairs[:, ::-1], 3, axis=1)
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
        full.flags.writeable = normal.flags.writeable = False
        return full, normal

    # -- the greedy step on value vectors -----------------------------------------

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """`values` minus their least-squares affine part.

        The result is orthogonal to {1, x, y} at the vertices, and its
        energy is that of `values` (an affine shift moves every gradient
        equally).
        """
        a = self.design
        coef, *_ = np.linalg.lstsq(a, values, rcond=None)
        reduced = values - a @ coef
        q = self.affine_basis
        return reduced - q @ (q.T @ reduced)

    def witness(self, values: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Unit column of the span of `basis` farthest from the line of the
        affine-normalized `values`."""
        rep = self.normalize(values)
        gn = rep / np.linalg.norm(rep)
        # np.outer(gn, gn @ basis) and np.linalg.norm(resid, axis=0),
        # spelled out: the same products and sums without the wrappers.
        resid = basis - gn[:, None] * (gn @ basis)
        norms = np.sqrt(np.add.reduce(resid * resid, axis=0))
        w = resid[:, int(np.argmax(norms))]
        return w / np.linalg.norm(w)

    def jump_ratios(self, values: np.ndarray, direction: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(ratios, mask): the normal jumps of `values` over those of
        `direction` on `direction`'s support `mask`, in edge-id order."""
        _, normal_op = self.jump_operators
        jn_d = normal_op @ direction
        mask = self.support(np.abs(jn_d), SUPPORT_REL_TOL)
        return (normal_op @ values)[mask] / jn_d[mask], mask

    def reduce(self, values: np.ndarray, witness: np.ndarray, support: np.ndarray
               ) -> tuple[float, np.ndarray, np.ndarray]:
        """One support reduction of `values` along `witness`.

        Returns (lambda, the normalized values - lambda * witness, their
        support mask); lambda is the smallest-magnitude jump ratio over the
        usable support edges, and the new support must be a strict subset
        of `support`.  Non-finite values raise MeshError.
        """
        ratios, mask = self.jump_ratios(values, witness)
        ratios = ratios[support[mask]]
        if not len(ratios):
            raise ExtremalError("witness has no usable jump inside the support")
        lam = ratios[np.argmin(np.abs(ratios))]  # the first of the smallest
        nxt = self.normalize(values - lam * witness)
        new_support = self.support(self.norms(self.jumps(nxt)), SUPPORT_REL_TOL)
        if (new_support > support).any() or (
                np.count_nonzero(new_support) >= np.count_nonzero(support)):
            raise ExtremalError("support did not strictly decrease: numerical rank failure")
        return float(lam), nxt, new_support


# The extremality kernel of a mesh: its edge kernel, kept while the mesh lives.
_algebra = _MeshAlgebra.of


# -- constrained spaces ----------------------------------------------------------


def constrained_space(mesh: Triangulation, support: np.ndarray) -> np.ndarray:
    """Orthonormal basis (V, dim) of {h : jumps vanish on interior edges
    outside `support`}, modulo affine functions.

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
    alg = _algebra(mesh)
    comp = alg.complement
    if support.all():
        return comp
    full, _ = alg.jump_operators
    rows = full.reshape(n_edges, 2, -1)[~support].reshape(-1, full.shape[1])
    a = rows @ comp
    # A tall a's reduced V^T is already square; a wide a needs the
    # full one for its nullspace rows.
    _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = np.count_nonzero(sv > 1e-10 * sv[0])
    return comp @ vt[rank:].T


@dataclass
class ExtremalCertificate:
    basis: np.ndarray  # (V, dim) constrained space of the support
    witness: Optional[np.ndarray]  # vertex values of a non-span direction

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _canonical(g: CpwlFunction) -> tuple[np.ndarray, int]:
    """(g's values times 2^-e, e), with e chosen so that the largest |value|
    lies in [1/2, 1).  The scaling is exact, so results computed on the
    canonical values scale back exactly.  Values whose jumps or energy
    overflow float are refused on the caller's values first."""
    _algebra(g.mesh).jumps(g.values)
    _, e = math.frexp(float(np.max(np.abs(g.values))))
    return np.ldexp(g.values, -e), e


def is_extremal(g: CpwlFunction, tol: float = SUPPORT_REL_TOL
                ) -> tuple[bool, ExtremalCertificate]:
    """Extremality test: the constrained space of the support must be a line.

    The certificate carries the computed space; when the answer is False it
    also holds a witness direction inside the support that is not a multiple
    of g.  `tol` is relative to the largest jump, so it must lie in [0, 1):
    from 1 on every support is empty.  The test runs on g's canonical
    scaling (see `_canonical`), so its answer does not depend on g's units.
    """
    _check_tol(tol, 1.0)
    alg = _algebra(g.mesh)
    values, _ = _canonical(g)
    cert = _certify(g.mesh, values, alg.support(alg.norms(alg.jumps(values)), tol), tol)
    return cert.witness is None, cert


def _certify(mesh: Triangulation, values: np.ndarray, support: np.ndarray,
             tol: float) -> ExtremalCertificate:
    """The extremality certificate of `values`, whose support mask at
    relative tolerance `tol` is known."""
    if not support.any():
        raise ExtremalError("function is affine (zero energy): not on the unit sphere")
    basis = constrained_space(mesh, support)
    alg = _algebra(mesh)
    if basis.shape[1] < 1:
        norms = alg.norms(alg.jumps(values))
        dropped = norms[~support & (norms > 0)]
        if len(dropped):
            raise ExtremalError(
                f"g is not inside its own constraint space: tolerance {tol!r} left "
                f"{len(dropped)} edges with a nonzero jump out of the support, the "
                f"largest {dropped.max() / norms.max():.3e} times the largest jump")
        raise ExtremalError("numerical rank failure: g not inside its own constraint space")
    if basis.shape[1] == 1:
        return ExtremalCertificate(basis, None)
    return ExtremalCertificate(basis, alg.witness(values, basis))


def perturbation_identity_check(g: CpwlFunction, h: CpwlFunction) -> float:
    """|htv(g + eps h) + htv(g - eps h) - 2 htv(g)| for the canonical eps.

    eps is the ratio (smallest nonzero jump of g) / (largest jump of h); at
    that size the perturbation cannot flip any jump sign, so the identity
    must vanish whenever h's curvature lives inside g's support.  Returns 0
    for h = 0.
    """
    if h.mesh is not g.mesh:
        raise ExtremalError("g and h must share a mesh")
    alg = _algebra(g.mesh)
    delta_cap = float(alg.norms(alg.jumps(h.values)).max(initial=0.0))
    if delta_cap <= 1e-300:
        return 0.0
    norms = alg.norms(alg.jumps(g.values))
    nonzero = norms[alg.support(norms, SUPPORT_REL_TOL)]
    if len(nonzero) == 0:
        raise ExtremalError("g has empty support")
    eps = float(nonzero.min()) / delta_cap
    plus = alg.energy(g.values + eps * h.values)
    minus = alg.energy(g.values - eps * h.values)
    return abs(plus + minus - 2.0 * alg.energy(g.values))


# -- greedy support reduction ----------------------------------------------------


def _extremal_in_support(mesh: Triangulation, values: np.ndarray) -> np.ndarray:
    """Values of a unit-energy extremal direction with support inside that
    of the affine-normalized `values`.

    Each step solves for one constrained space: the extremality test's
    certificate drives the reduction, and the support the reduction has
    checked is the next step's support.
    """
    alg = _algebra(mesh)
    support = alg.support(alg.norms(alg.jumps(values)), SUPPORT_REL_TOL)
    for _ in range(len(support) + 2):
        cert = _certify(mesh, values, support, SUPPORT_REL_TOL)
        if cert.witness is None:
            return values / alg.energy(values)
        _, values, support = alg.reduce(values, cert.witness, support)
    raise ExtremalError("support reduction did not terminate")


@dataclass
class Decomposition:
    """g = sum_i coefficients[i] * terms[i] + residual, all terms extremal
    with unit energy and support inside g's."""

    terms: list[CpwlFunction]
    coefficients: list[float]
    residual: float           # energy of the unexplained remainder
    value_residual: float     # sup-norm of the remainder at vertices
    total: float              # energy of the input

    @property
    def coefficient_sum(self) -> float:
        return float(sum(self.coefficients))


# The energy left over, relative to max(1, total) on the canonical scale
# (see `_canonical`), at which decompose stops.
DECOMPOSE_TOL = 1e-8


def decompose(g: CpwlFunction, tol: float = DECOMPOSE_TOL) -> Decomposition:
    """Write g (mod affine) as a nonnegative combination of extremal directions.

    Greedy peeling: find an extremal direction in the current support, then
    subtract the largest multiple that keeps every remaining jump on its
    starting side of zero.  Each step zeroes at least one support edge, so
    the loop terminates, and because no sign ever flips the energies add up:
    the coefficient sum equals the input energy (rigidity).  `tol` must be
    finite and >= 0.  The loop and its tolerance rules run on g's canonical
    scaling (see `_canonical`); the energies, residuals and coefficients are
    scaled back exactly, and so are the numbers in error messages.
    """
    _check_tol(tol)
    mesh = g.mesh
    alg = _algebra(mesh)
    values, e = _canonical(g)
    x = alg.normalize(values)
    total = alg.energy(x)
    if total <= tol:
        raise ExtremalError("input is affine: nothing to decompose")
    bound = tol * max(1.0, total)
    terms: list[CpwlFunction] = []
    coeffs: list[float] = []
    for _ in range(len(mesh.interior_edge_array) + 2):
        if alg.energy(x) <= bound:
            break
        t = _extremal_in_support(mesh, alg.normalize(x))
        ratios, _ = alg.jump_ratios(x, t)
        pos = ratios[ratios > 0]
        if len(ratios) and ratios.min() < -bound:
            raise ExtremalError(
                "jump signs of the extremal direction disagree with the input: jump "
                f"ratio {math.ldexp(ratios.min(), e):.3e} is below the sign bound "
                f"{-math.ldexp(bound, e):.3e} at tolerance {tol!r}")
        if not len(pos):
            raise ExtremalError(
                "jump signs of the extremal direction disagree with the input: "
                "no positive jump ratio: numerical rank failure")
        c = pos.min()
        terms.append(CpwlFunction(mesh, t))
        coeffs.append(float(c))
        x = x - c * t
    residual = alg.energy(x)
    if residual > bound:
        raise ExtremalError(
            f"decomposition stalled: achieved energy residual "
            f"{math.ldexp(residual, e):.3e} > {tol:.1e}"
        )
    return Decomposition(
        terms=terms,
        coefficients=[math.ldexp(c, e) for c in coeffs],
        residual=math.ldexp(residual, e),
        value_residual=math.ldexp(float(np.max(np.abs(x))), e),
        total=math.ldexp(total, e),
    )
