"""Acceptance suite: one callable per criterion, shared by the CLI selftest
and the pytest acceptance tests.

Each criterion returns a CriterionResult with a pass flag and a detail
string; nothing is cached between runs except an explicit context dict that
lets consecutive criteria share the expensive isotropic-quadratic meshes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .approx import (
    RationalAngle,
    SquareFrame,
    assemble_global,
    convergence_experiment,
    interpolate,
    plan_mesh,
)
from .errors import MeshError
from .extremal import (
    decompose,
    is_extremal,
    perturbation_identity_check,
)
from .fields import GridSample, builtin_field, discrete_htv, extend_reflection, htv_quadrature, mollify
from .htv import htv_cpwl, p_independence_check, support_mask_by_jump
from .mesh import CpwlFunction, Triangulation, min_angle, uniform_diagonal_mesh
from .schatten import INF, dual_norm_estimate, schatten_norms

DEFAULT_SEED = 20240801


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def _geomean(ratios) -> float:
    return float(np.exp(np.mean(np.log(ratios))))


def _iso_context(ctx: dict) -> dict:
    """Shared isotropic-quadratic pipeline data for criteria 1 and 2."""
    if "iso" in ctx:
        return ctx["iso"]
    fld = builtin_field("quadratic", 1, 0, 1)
    meshes = {}
    table = convergence_experiment(fld, 1, range(1, 7), p=1, collect=meshes.__setitem__)
    ctx["iso"] = {"field": fld, "table": table, "interpolants": meshes}
    return ctx["iso"]


def criterion_1(ctx: dict) -> CriterionResult:
    """Isotropic quadratic density: energy within [1.9, 2.1] for K >= 4 and
    sup error shrinking >= 3x per step on average, under 60 s."""
    t0 = time.perf_counter()
    iso = _iso_context(ctx)
    rows = iso["table"].rows
    checks = []
    for r in rows:
        if r.K >= 4:
            checks.append(1.9 <= r.htv_cpwl <= 2.1)
    sups = [r.sup_error for r in rows]
    ratios = [a / b for a, b in zip(sups, sups[1:])]
    rate = _geomean(ratios)
    checks.append(rate >= 3.0)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed <= 60.0)
    htvs = {r.K: round(r.htv_cpwl, 6) for r in rows}
    return CriterionResult(
        1, "isotropic quadratic density",
        all(checks),
        f"htv={htvs}, reference={rows[0].htv_reference}, sup-error rate {rate:.2f}x/step",
        elapsed,
    )


def criterion_2(ctx: dict) -> CriterionResult:
    """Seminorm gap: CPWL energy is p-independent and stays near 2.0, far
    above the Frobenius-energy sqrt(2) of the smooth function."""
    t0 = time.perf_counter()
    iso = _iso_context(ctx)
    fld = iso["field"]
    q2 = htv_quadrature(fld, 2, 512)
    ok = abs(q2 - math.sqrt(2)) <= 1e-4
    spreads = []
    for K in (4, 5, 6):
        g = iso["interpolants"][K]
        total = htv_cpwl(g).total
        spread = p_independence_check(g)
        spreads.append(spread)
        ok = ok and spread <= 1e-12
        ok = ok and total >= 1.9 and total > q2 + 0.4
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        2, "seminorm gap",
        ok,
        f"p-spread max {max(spreads):.2e}, smooth Frobenius energy {q2:.6f} "
        f"vs CPWL >= 1.9",
        elapsed,
    )


def criterion_3(ctx: dict) -> CriterionResult:
    """Anisotropic rotated quadratic: pipeline within 5% of 3.0, axis-aligned
    mesh of comparable size strictly worse by >= 2%."""
    t0 = time.perf_counter()
    fld = builtin_field("rotated_quadratic", 2, 1, math.atan(0.5))
    rows = convergence_experiment(fld, 1, (4, 5, 6)).rows
    ref = rows[0].htv_reference
    ok = abs(ref - 3.0) <= 1e-6
    pipeline = {r.K: r.htv_cpwl for r in rows}
    ok = ok and all(abs(v - 3.0) <= 0.05 * 3.0 for v in pipeline.values())
    n = round(math.sqrt(rows[-1].vertices))
    axis_htv = htv_cpwl(interpolate(fld, uniform_diagonal_mesh(n, "main"))).total
    ok = ok and axis_htv >= 1.02 * max(pipeline.values()) and axis_htv >= 1.02 * 3.0
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        3, "anisotropic eigenframe alignment",
        ok,
        f"reference {ref:.6f}, pipeline {({k: round(v, 4) for k, v in pipeline.items()})}, "
        f"axis-aligned ({n}x{n} grid) {axis_htv:.4f}",
        elapsed,
    )


_ANGLE_POOL = [
    RationalAngle(1, 2), RationalAngle(2, 1), RationalAngle(1, 3),
    RationalAngle(3, 1), RationalAngle(2, 3), RationalAngle(3, 2),
]


def synthetic_frames(N: int, angles: list[RationalAngle]) -> list[SquareFrame]:
    """Frames with prescribed angles (curvature data irrelevant for meshing)."""
    side = Fraction(1, 2**N)
    frames = []
    k = 0
    for iy in range(2**N):
        for ix in range(2**N):
            frames.append(
                SquareFrame(
                    index=k, ix=ix, iy=iy, x0=ix * side, y0=iy * side, side=side,
                    center=(float((ix + 0.5) * float(side)), float((iy + 0.5) * float(side))),
                    diag=(1.0, 1.0), angle=angles[k % len(angles)], deviation=0.0,
                )
            )
            k += 1
    return frames


def criterion_4(ctx: dict, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Alignment exactness: random mixed angle sets assemble conformingly at
    zero tolerance and the minimum angle is identical across K."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    for N in (1, 2):
        for trial in range(2):
            angles = [_ANGLE_POOL[int(rng.integers(len(_ANGLE_POOL)))] for _ in range(4**N)]
            frames = synthetic_frames(N, angles)
            minima = []
            for K in range(4):
                plan = plan_mesh(frames, N, K)
                mesh = assemble_global(plan)
                # Independent revalidation from raw arrays: full conformity
                # and the exact area sum.
                fresh = Triangulation(mesh.numerators, mesh.triangle_array, mesh.den)
                ok = ok and fresh.covers_bbox_exactly()
                minima.append(min_angle(mesh))
            ok = ok and all(m == minima[0] for m in minima)
            details.append(f"N={N}#{trial}: min_angle={minima[0]:.6f}")
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        4, "alignment exactness", ok, "; ".join(details), elapsed,
    )


def mesh_with_hat(n: int, i: int, j: int) -> CpwlFunction:
    mesh = uniform_diagonal_mesh(n)
    values = np.zeros(mesh.n_vertices)
    values[j * (n + 1) + i] = 1.0
    return CpwlFunction(mesh, values)


def random_cpwl(rng, n_interior: int = 8, denom: int = 64) -> CpwlFunction:
    """Random conforming mesh over the unit square with random vertex values.

    Corners plus random interior lattice points, Delaunay connectivity,
    exact rational coordinates.
    """
    from scipy.spatial import Delaunay  # a slow import, needed only here

    while True:
        pts = {(0, 0), (denom, 0), (denom, denom), (0, denom)}
        while len(pts) < 4 + n_interior:
            pts.add((int(rng.integers(8, denom - 7)), int(rng.integers(8, denom - 7))))
        ordered = sorted(pts)
        arr = np.array(ordered, dtype=float) / denom
        simplices = Delaunay(arr).simplices
        try:
            mesh = Triangulation(np.array(ordered), simplices, denom)
        except MeshError:
            continue
        if mesh.covers_bbox_exactly():
            return CpwlFunction(mesh, rng.standard_normal(mesh.n_vertices))


def criterion_5(ctx: dict, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Extremality suite: hat certified, two-hat refuted with a witness, and
    100 random functions decomposed with the rigidity identity, under 30 s."""
    t0 = time.perf_counter()
    ok = True
    # Hat at the center of a 4x4 grid: its star is interior, nullspace dim 1.
    hat = mesh_with_hat(4, 2, 2)
    ext, cert = is_extremal(hat)
    ok = ok and ext and cert.dim == 1
    # Two hats with disjoint supports on a 6x6 grid.
    ha, hb = mesh_with_hat(6, 2, 2), mesh_with_hat(6, 2, 4)
    sa, sb = support_mask_by_jump(ha), support_mask_by_jump(hb)
    ok = ok and not (sa & sb).any()
    two = ha.with_values(ha.values + hb.values)
    ext2, cert2 = is_extremal(two)
    ok = ok and not ext2 and cert2.witness is not None
    if cert2.witness is not None:
        w = two.with_values(cert2.witness)
        ok = ok and not (support_mask_by_jump(w) & ~(sa | sb)).any()
        gq = two.values - np.mean(two.values)
        cosang = abs(np.dot(cert2.witness, gq)) / (
            np.linalg.norm(cert2.witness) * np.linalg.norm(gq)
        )
        ok = ok and cosang < 0.99
    # 100 random decompositions.
    rng = np.random.default_rng(seed)
    worst_sum = 0.0
    worst_resid = 0.0
    worst_pert = 0.0
    for _ in range(100):
        g = random_cpwl(rng)
        total = htv_cpwl(g).total
        dec = decompose(g, 1e-8)
        worst_sum = max(worst_sum, abs(dec.coefficient_sum - total))
        worst_resid = max(worst_resid, dec.residual)
        for term in dec.terms:
            text, tcert = is_extremal(term)
            ok = ok and text
            pert = perturbation_identity_check(
                term, term.with_values(tcert.basis[:, 0])
            )
            worst_pert = max(worst_pert, pert)
    ok = ok and worst_sum <= 1e-8 and worst_resid <= 1e-8 and worst_pert <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 30.0
    return CriterionResult(
        5, "extremality suite", ok,
        f"hat dim=1, two-hat refuted; 100 decompositions: worst |sum-htv|={worst_sum:.2e}, "
        f"residual={worst_resid:.2e}, perturbation={worst_pert:.2e}",
        elapsed,
    )


def criterion_6(ctx: dict, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Schatten property suite on 10^4 random matrices, each within 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((10_000, 2, 2))
    angles = rng.uniform(0, 2 * math.pi, size=10_000)
    ps = (1.0, 2.0, INF, 1.7)
    worst = {"unitary": 0.0, "submult": 0.0, "dual": 0.0, "rank1": 0.0, "sym": 0.0}

    def norms(a, p):
        return schatten_norms(*a.reshape(-1, 4).T, p)

    c, s = np.cos(angles), np.sin(angles)
    rots = np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0)
    nxt = np.roll(mats, -1, axis=0)  # mats[(i + 1) % len(mats)]
    for p in ps:
        nm = norms(mats, p)
        worst["unitary"] = max(
            worst["unitary"],
            float(np.max(np.abs(norms(rots @ mats, p) - nm))),
            float(np.max(np.abs(norms(mats @ rots, p) - nm))),
        )
        gap = norms(mats @ nxt, p) - nm * norms(nxt, p)
        worst["submult"] = max(worst["submult"], float(np.max(gap)))
    for p in (1.0, 2.0, INF):
        gap = dual_norm_estimate(*mats.reshape(-1, 4).T, p, 4) - norms(mats, p)
        worst["dual"] = max(worst["dual"], float(np.max(gap)))
    r1 = mats[:, 0, :, None] * mats[:, 1, None, :]  # outer(row 1, row 2)
    n1, nf, ni = (norms(r1, p) for p in (1.0, 2.0, INF))
    worst["rank1"] = float(max(np.max(np.abs(n1 - nf)), np.max(np.abs(nf - ni))))
    sym = mats.copy()
    sym[:, 0, 1] = sym[:, 1, 0] = 0.5 * (mats[:, 0, 1] + mats[:, 1, 0])
    ev = np.abs(np.linalg.eigvalsh(sym))
    s1 = norms(sym, INF)
    s2 = norms(sym, 1.0) - s1
    worst["sym"] = float(max(np.max(np.abs(s1 - ev.max(axis=1))),
                             np.max(np.abs(s2 - ev.min(axis=1)))))
    ok = all(v <= 1e-10 for v in worst.values())
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    return CriterionResult(6, "Schatten property suite", ok, detail, elapsed)


def criterion_7(ctx: dict, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Field calculus: reflection extension matches value and slope across
    x=0 within 1e-5; mollification never gains energy (20 random grids)."""
    t0 = time.perf_counter()
    ok = True
    worst_c1 = 0.0
    h = 1e-4
    for fld in (builtin_field("gaussian_bump", 0.2, 0.4, 0.5),
                builtin_field("product_sine", math.pi),
                builtin_field("rotated_quadratic", 2, 1, 0.3)):
        ext = extend_reflection(fld)
        for y in (0.21, 0.5, 0.83):
            gap_val = abs(float(ext.eval(0.0, y)) - float(fld.eval(0.0, y)))
            # second-order one-sided slopes from each side of x = 0
            right = (-3 * float(ext.eval(0.0, y)) + 4 * float(ext.eval(h, y))
                     - float(ext.eval(2 * h, y))) / (2 * h)
            left = (3 * float(ext.eval(0.0, y)) - 4 * float(ext.eval(-h, y))
                    + float(ext.eval(-2 * h, y))) / (2 * h)
            worst_c1 = max(worst_c1, gap_val, abs(right - left))
    ok = ok and worst_c1 <= 1e-5
    rng = np.random.default_rng(seed)
    worst_gain = -math.inf
    for _ in range(20):
        n = int(rng.integers(40, 64))
        u = GridSample(1.0 / (n - 1), rng.standard_normal((n, n)))
        radius = float(rng.uniform(2.0, 4.0)) * u.spacing
        sm = mollify(u, radius)
        margin = int(math.floor(radius / u.spacing))
        gain = discrete_htv(sm, margin=margin) - discrete_htv(u, margin=0)
        worst_gain = max(worst_gain, gain)
    ok = ok and worst_gain <= 1e-6
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        7, "field calculus", ok,
        f"C1 mismatch {worst_c1:.2e}, worst mollification energy gain {worst_gain:.2e}",
        elapsed,
    )


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7]


def run_all(numbers=None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    ctx: dict = {}
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers and i not in numbers:
            continue
        if fn in (criterion_4, criterion_5, criterion_6, criterion_7):
            results.append(fn(ctx, seed=seed))
        else:
            results.append(fn(ctx))
    return results
