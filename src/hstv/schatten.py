"""Schatten p-norms of 2x2 matrices and the symmetric eigenframe extraction.

Everything here is closed-form: at size 2x2 the singular values, the
eigendecomposition and the dual-norm candidates are all explicit, so no
iterative linear algebra is needed.  A matrix is passed as its four
entries (m11, m12, m21, m22), each a float or a numpy array, the arrays
broadcasting together.  The singular-value closed form is written once, in
`_singular_values`; `schatten_norms` evaluates it on whole arrays of
matrices, and every Schatten norm in the package goes through it.
"""

from __future__ import annotations

import math

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


def _check_finite(*entries: float) -> None:
    for v in entries:
        if not math.isfinite(v):
            raise HstvError(f"non-finite matrix entry: {v!r}")


def sym_eigen_frame(a: float, b: float, c: float) -> tuple[tuple[float, float], float]:
    """Diagonalize the symmetric 2x2 matrix [[a, b], [b, c]] with a rotation
    of angle in [0, pi/2).

    Returns ((d1, d2), theta) with R(theta)^T [[a, b], [b, c]] R(theta) =
    diag(d1, d2), R(theta) = [[cos, -sin], [sin, cos]].  The angle is
    normalized to [0, pi/2) by composing the raw eigenframe with
    sign/permutation matrices, which permutes the two eigenvalues
    accordingly.  Equal eigenvalues yield theta = 0.  A non-finite entry,
    given or computed, raises HstvError.
    """
    _check_finite(a, b, c)
    # Raw eigenframe angle in (-pi/2, pi/2].
    phi = 0.5 * math.atan2(2.0 * b, a - c)
    cs, sn = math.cos(phi), math.sin(phi)
    d1 = a * cs * cs + 2.0 * b * sn * cs + c * sn * sn
    d2 = (a + c) - d1
    _check_finite(d1, d2)
    theta = math.fmod(phi, 0.5 * math.pi)
    if theta < 0.0:
        theta += 0.5 * math.pi
    if theta >= 0.5 * math.pi:  # fmod rounding guard
        theta -= 0.5 * math.pi
    quarter_turns = round((phi - theta) / (0.5 * math.pi))
    if quarter_turns % 2:
        d1, d2 = d2, d1
    return (d1, d2), theta


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


def _dual_candidates(p: float, samples: int) -> np.ndarray:
    """Entries (n11, n12, n21, n22), shape (4, C), of the test matrices
    n = R(alpha) diag(g1, g2) R(beta)^T of unit Schatten p*-norm: a
    deterministic Kronecker lattice over (alpha, beta, psi), then aligned
    frames with sign-pattern diagonals."""
    pstar = conjugate_exponent(p)
    angles = [(math.pi * math.fmod(k * _ALPHA1, 1.0), math.pi * math.fmod(k * _ALPHA2, 1.0),
               2.0 * math.pi * math.fmod(k * _ALPHA3, 1.0)) for k in range(samples)]
    n_axis = min(samples, 90)
    angles += [(math.pi * t / n_axis,) * 2 + (i * math.pi / 4.0,)
               for t in range(n_axis) for i in range(8)]
    entries = []
    for alpha, beta, psi in angles:
        g1, g2 = _unit_pstar(psi, pstar)
        ca, sa = math.cos(alpha), math.sin(alpha)
        cb, sb = math.cos(beta), math.sin(beta)
        entries.append((ca * g1 * cb + sa * g2 * sb, ca * g1 * sb - sa * g2 * cb,
                        sa * g1 * cb - ca * g2 * sb, sa * g1 * sb + ca * g2 * cb))
    return np.array(entries).T


def dual_norm_estimate(m11, m12, m21, m22, p, samples: int):
    """Lower bound of the Schatten p-norm by sampled duality, for 2x2
    matrices given entrywise as in `schatten_norms`.

    Maximizes the Frobenius pairing m . n over a deterministic family of
    test matrices n with unit Schatten p*-norm (p* conjugate to p), and
    over 0.  The estimate increases toward schatten_norms(m, p) as
    `samples` grows and never exceeds it; it exists for property tests,
    not production use.
    """
    p = check_p(p)
    if samples < 1:
        raise HstvError("samples must be >= 1")
    n11, n12, n21, n22 = _dual_candidates(p, samples)
    m11, m12, m21, m22 = (np.asarray(v, dtype=float)[..., None] for v in (m11, m12, m21, m22))
    pairs = m11 * n11 + m12 * n12 + m21 * n21 + m22 * n22
    return np.maximum(0.0, pairs.max(axis=-1))
