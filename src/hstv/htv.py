"""Exact Hessian-Schatten total variation of CPWL functions.

For a CPWL function the energy concentrates on the interior edges of its
mesh: each edge contributes the Euclidean norm of the gradient jump between
its two triangles times the edge length.  The jump tensor has rank one, so
the total is the same for every Schatten exponent; `p_independence_check`
verifies that identity through the independent outer-product route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshError
from .mesh import CpwlFunction, Edge, Triangulation, _GradientStencil
from .schatten import INF, schatten_norms

# An edge is in a function's support iff its jump norm exceeds this share of
# the largest jump norm.
SUPPORT_REL_TOL = 1e-9


@dataclass
class HtvReport:
    """Total CPWL energy plus the per-edge breakdown, edges in id order."""

    total: float
    edge_array: np.ndarray      # (E, 2) interior edges, as Triangulation.interior_edge_array
    jumps: np.ndarray           # (E, 2) gradient jumps, second triangle minus first
    lengths: np.ndarray         # (E,)
    contributions: np.ndarray   # (E,) |jump| * length

    @cached_property
    def edges(self) -> list[Edge]:
        """edge_array as a list of vertex-id pairs, built on first read."""
        return [tuple(e) for e in self.edge_array.tolist()]


class _EdgeKernel:
    """The CPWL edge rules on one mesh: interior-edge vectors (dx, dy) and
    lengths, gradient jumps, jump norms, contributions |jump| * length,
    energy and jump-norm support.  A non-tiling mesh is refused."""

    def __init__(self, mesh: Triangulation):
        if not mesh.covers_bbox_exactly():
            raise MeshError(
                "mesh does not cover its bounding square: CPWL energy needs a full tiling")
        self.stencil = _GradientStencil(mesh)
        self.tpairs = mesh.interior_tri_array
        x, y = mesh.float_vertices.T
        u, v = mesh.interior_edge_array.T
        self.dx, self.dy = x[v] - x[u], y[v] - y[u]
        self.lengths = np.hypot(self.dx, self.dy)

    def jumps(self, values: np.ndarray) -> np.ndarray:
        """(E, 2) gradient jumps across the interior edges in id order, second
        triangle minus first.  Non-finite values raise MeshError."""
        if not np.isfinite(values).all():
            raise MeshError("non-finite vertex value")
        grads = self.stencil.gradients(values)
        return grads.take(self.tpairs[:, 1], axis=0) - grads.take(self.tpairs[:, 0], axis=0)

    def norms(self, jumps: np.ndarray) -> np.ndarray:
        """(E,) jump norms |jump|."""
        return np.hypot(jumps[:, 0], jumps[:, 1])

    def contributions(self, jumps: np.ndarray) -> np.ndarray:
        """(E,) per-edge energies |jump| * length."""
        return self.norms(jumps) * self.lengths

    def energy(self, values: np.ndarray) -> float:
        """The contributions summed in edge-id order (numpy's pairwise sum)."""
        return float(np.sum(self.contributions(self.jumps(values))))

    def support(self, norms: np.ndarray, rel_tol: float) -> np.ndarray:
        """The mask |jump| > rel_tol * max |jump| over interior-edge ids."""
        return norms > rel_tol * float(norms.max(initial=0.0))


def htv_cpwl(g: CpwlFunction) -> HtvReport:
    """Exact CPWL Hessian-Schatten total variation over the open square.

    Boundary edges contribute nothing (the energy is measured on the open
    domain).  The value is the same for every Schatten exponent p because
    every jump tensor has rank one, so no p is taken.  Contributions are
    summed in edge-id order with numpy's pairwise reduction.
    """
    kernel = _EdgeKernel(g.mesh)
    jumps = kernel.jumps(g.values)
    contributions = kernel.contributions(jumps)
    return HtvReport(
        total=float(np.sum(contributions)),
        edge_array=g.mesh.interior_edge_array,
        jumps=jumps,
        lengths=kernel.lengths,
        contributions=contributions,
    )


def support_mask_by_jump(g: CpwlFunction) -> np.ndarray:
    """Support detected by jump norm relative to the largest jump, as a
    boolean mask over interior-edge ids.

    This is the tolerance rule shared by the extremality pipeline: an edge
    is in the support iff |jump| > SUPPORT_REL_TOL * max |jump|.  A mesh
    that does not tile its bounding square is refused, as in htv_cpwl.
    """
    kernel = _EdgeKernel(g.mesh)
    return kernel.support(kernel.norms(kernel.jumps(g.values)), SUPPORT_REL_TOL)


def p_independence_check(g: CpwlFunction) -> float:
    """Maximum relative spread of the energy across p in {1, 2, inf}, with
    each edge evaluated through the rank-one outer-product tensor.

    Unlike htv_cpwl (which uses the Euclidean shortcut), this assembles the
    jump (x) normal tensor per edge and takes genuine Schatten norms, so the
    equality across p is checked, not assumed.  Returns 0 for affine input.
    """
    kernel = _EdgeKernel(g.mesh)
    jumps, lengths = kernel.jumps(g.values), kernel.lengths
    nx, ny = -kernel.dy / lengths, kernel.dx / lengths
    jx, jy = jumps[:, 0], jumps[:, 1]
    tensor = jx * nx, jx * ny, jy * nx, jy * ny
    totals = [float(np.sum(schatten_norms(*tensor, p) * lengths)) for p in (1.0, 2.0, INF)]
    base = max(totals)
    if base == 0.0:
        return 0.0
    return (max(totals) - min(totals)) / base
