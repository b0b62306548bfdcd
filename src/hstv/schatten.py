"""Schatten p-norms of 2x2 matrices and the symmetric eigenframe extraction.

Everything here is closed-form: at size 2x2 the singular values, the
eigendecomposition and the dual-norm candidates are all explicit, so no
iterative linear algebra is needed.  The singular-value closed form is
written once, in `_singular_values`; `schatten_norms` evaluates it on whole
numpy arrays of matrices, and every Schatten norm in the package goes
through `schatten_norms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HstvError

INF = math.inf

# Kronecker lattice increments for the deterministic dual-norm sampler.
_ALPHA1 = 0.8191725133961644
_ALPHA2 = 0.6710436067037892
_ALPHA3 = 0.5497004779019703


def check_p(p) -> float:
    """Validate a Schatten exponent: any real p >= 1, or math.inf."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise HstvError(f"Schatten exponent must satisfy p >= 1, got {p}")
    return p


def conjugate_exponent(p) -> float:
    p = check_p(p)
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class Mat2:
    """A real 2x2 matrix with finite entries."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self):
        for v in (self.m11, self.m12, self.m21, self.m22):
            if not math.isfinite(v):
                raise HstvError(f"non-finite matrix entry: {v!r}")

    @staticmethod
    def from_rows(row1, row2) -> "Mat2":
        return Mat2(float(row1[0]), float(row1[1]), float(row2[0]), float(row2[1]))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def rotation(theta: float) -> "Mat2":
        c, s = math.cos(theta), math.sin(theta)
        return Mat2(c, -s, s, c)

    @staticmethod
    def diag(d1: float, d2: float) -> "Mat2":
        return Mat2(float(d1), 0.0, 0.0, float(d2))

    @staticmethod
    def outer(u, v) -> "Mat2":
        return Mat2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])

    def transpose(self) -> "Mat2":
        return Mat2(self.m11, self.m21, self.m12, self.m22)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 + other.m11, self.m12 + other.m12,
                    self.m21 + other.m21, self.m22 + other.m22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 - other.m11, self.m12 - other.m12,
                    self.m21 - other.m21, self.m22 - other.m22)

    def scale(self, a: float) -> "Mat2":
        return Mat2(a * self.m11, a * self.m12, a * self.m21, a * self.m22)

    def dot(self, other: "Mat2") -> float:
        """Frobenius inner product."""
        return (self.m11 * other.m11 + self.m12 * other.m12
                + self.m21 * other.m21 + self.m22 * other.m22)

    def to_rows(self):
        return ((self.m11, self.m12), (self.m21, self.m22))


def _singular_values(m11, m12, m21, m22):
    """(s1, s2) with s1 >= s2 >= 0, by the stable closed form: with
    e = (m11+m22)/2, f = (m11-m22)/2, g = (m21+m12)/2, h = (m21-m12)/2 the
    singular values are hypot(e, h) +/- hypot(f, g)."""
    q = np.hypot(0.5 * (m11 + m22), 0.5 * (m21 - m12))
    r = np.hypot(0.5 * (m11 - m22), 0.5 * (m21 + m12))
    return q + r, np.abs(q - r)


def schatten_norms(m11, m12, m21, m22, p):
    """Schatten p-norms of 2x2 matrices given entrywise, as floats or as
    numpy arrays that broadcast together: the lp norm of the singular
    value pair, elementwise."""
    p = check_p(p)
    s1, s2 = _singular_values(m11, m12, m21, m22)
    if p == 1.0:
        return s1 + s2
    if p == INF:
        return s1
    if p == 2.0:
        return np.hypot(s1, s2)
    return (s1**p + s2**p) ** (1.0 / p)


def singular_values(m: Mat2) -> tuple[float, float]:
    """Both singular values of a 2x2 matrix, returned as (s1, s2) with s1 >= s2 >= 0."""
    s1, s2 = _singular_values(m.m11, m.m12, m.m21, m.m22)
    return float(s1), float(s2)


def schatten_norm(m: Mat2, p) -> float:
    """Schatten p-norm of one matrix."""
    return float(schatten_norms(m.m11, m.m12, m.m21, m.m22, p))


def sym_eigen_frame(m: Mat2, tol: float = 1e-9) -> tuple[Mat2, float]:
    """Diagonalize a symmetric 2x2 matrix with a rotation of angle in [0, pi/2).

    Returns (d, theta) with rotation(theta)^T m rotation(theta) = d.  The
    angle is normalized to [0, pi/2) by composing the raw eigenframe with
    sign/permutation matrices, which permutes the two eigenvalues
    accordingly.  Equal eigenvalues yield theta = 0.
    """
    if abs(m.m12 - m.m21) > tol:
        raise HstvError(
            f"matrix is not symmetric within tol={tol}: |m12-m21|={abs(m.m12 - m.m21)}"
        )
    a, c = m.m11, m.m22
    b = 0.5 * (m.m12 + m.m21)
    # Raw eigenframe angle in (-pi/2, pi/2].
    phi = 0.5 * math.atan2(2.0 * b, a - c)
    cs, sn = math.cos(phi), math.sin(phi)
    d1 = a * cs * cs + 2.0 * b * sn * cs + c * sn * sn
    d2 = (a + c) - d1
    theta = math.fmod(phi, 0.5 * math.pi)
    if theta < 0.0:
        theta += 0.5 * math.pi
    if theta >= 0.5 * math.pi:  # fmod rounding guard
        theta -= 0.5 * math.pi
    quarter_turns = round((phi - theta) / (0.5 * math.pi))
    if quarter_turns % 2:
        d1, d2 = d2, d1
    return Mat2.diag(d1, d2), theta


def _unit_pstar(psi: float, pstar: float) -> tuple[float, float]:
    """Point (cos psi, sin psi) rescaled to unit lp* norm."""
    g1, g2 = math.cos(psi), math.sin(psi)
    if pstar == INF:
        nrm = max(abs(g1), abs(g2))
    elif pstar == 1.0:
        nrm = abs(g1) + abs(g2)
    else:
        nrm = (abs(g1) ** pstar + abs(g2) ** pstar) ** (1.0 / pstar)
    if nrm == 0.0:
        return 0.0, 0.0
    return g1 / nrm, g2 / nrm


def dual_norm_estimate(m: Mat2, p, samples: int) -> float:
    """Lower bound of the Schatten p-norm by sampled duality.

    Maximizes the Frobenius pairing m . n over a deterministic family of
    test matrices n with unit Schatten p*-norm (p* conjugate to p).  The
    estimate increases toward schatten_norm(m, p) as `samples` grows and
    never exceeds it; it exists for property tests, not production use.
    """
    p = check_p(p)
    if samples < 1:
        raise HstvError("samples must be >= 1")
    pstar = conjugate_exponent(p)
    best = 0.0

    def pair(alpha: float, beta: float, psi: float) -> float:
        g1, g2 = _unit_pstar(psi, pstar)
        ca, sa = math.cos(alpha), math.sin(alpha)
        cb, sb = math.cos(beta), math.sin(beta)
        # n = R(alpha) @ diag(g1, g2) @ R(beta)^T, unit Schatten p*-norm
        n11 = ca * g1 * cb + sa * g2 * sb
        n12 = ca * g1 * sb - sa * g2 * cb
        n21 = sa * g1 * cb - ca * g2 * sb
        n22 = sa * g1 * sb + ca * g2 * cb
        return (m.m11 * n11 + m.m12 * n12 + m.m21 * n21 + m.m22 * n22)

    # Deterministic Kronecker lattice over (alpha, beta, psi).
    for k in range(samples):
        alpha = math.pi * math.fmod(k * _ALPHA1, 1.0)
        beta = math.pi * math.fmod(k * _ALPHA2, 1.0)
        psi = 2.0 * math.pi * math.fmod(k * _ALPHA3, 1.0)
        best = max(best, pair(alpha, beta, psi))
    # Structured candidates: aligned frames with sign-pattern diagonals.
    psis = [i * math.pi / 4.0 for i in range(8)]
    n_axis = min(samples, 90)
    for t in range(n_axis):
        alpha = math.pi * t / n_axis
        for psi in psis:
            best = max(best, pair(alpha, alpha, psi))
    return best
