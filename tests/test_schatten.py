import math

import numpy as np
import pytest

from hstv.errors import HstvError
from hstv.schatten import (
    INF,
    Mat2,
    conjugate_exponent,
    dual_norm_estimate,
    schatten_norm,
    schatten_norms,
    singular_values,
    sym_eigen_frame,
)


def assert_array_kernel_matches(mats, ps):
    """schatten_norms on the stacked entries equals schatten_norm per matrix.

    Bit for bit at p in {1, 2, inf}.  Otherwise numpy may evaluate the power
    of an array with a vectorized routine that rounds differently from the
    scalar one, so a few units in the last place are allowed.
    """
    entries = [np.array([m.to_rows()[i][j] for m in mats]) for i in (0, 1) for j in (0, 1)]
    for p in ps:
        expect = np.array([schatten_norm(m, p) for m in mats])
        maxulp = 0 if p in (1.0, 2.0, INF) else 4
        np.testing.assert_array_max_ulp(schatten_norms(*entries, p), expect, maxulp)


def test_singular_values_examples():
    assert singular_values(Mat2.diag(3, -4)) == (4.0, 3.0)
    assert singular_values(Mat2.identity()) == (1.0, 1.0)
    s1, s2 = singular_values(Mat2.from_rows((3, 0), (6, 0)))
    assert abs(s1 - math.sqrt(45)) <= 1e-12
    assert abs(s2) <= 1e-12


def test_singular_values_against_svd_oracle():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        m = rng.standard_normal((2, 2))
        expect = np.linalg.svd(m, compute_uv=False)
        got = singular_values(Mat2.from_rows(m[0], m[1]))
        assert abs(got[0] - expect[0]) <= 1e-12 * max(1, expect[0])
        assert abs(got[1] - expect[1]) <= 1e-12 * max(1, expect[0])


def test_schatten_norm_examples():
    m = Mat2.diag(3, -4)
    assert schatten_norm(m, 1) == 7.0
    assert schatten_norm(m, 2) == 5.0
    assert schatten_norm(m, INF) == 4.0


def test_frobenius_identity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rng.standard_normal((2, 2))
        m = Mat2.from_rows(a[0], a[1])
        assert abs(schatten_norm(m, 2) - math.sqrt((a * a).sum())) <= 1e-12


def test_rank_one_norms_coincide():
    rng = np.random.default_rng(2)
    mats = []
    for _ in range(200):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        m = Mat2.outer(u, v)
        mats.append(m)
        n1 = schatten_norm(m, 1)
        n2 = schatten_norm(m, 2)
        ni = schatten_norm(m, INF)
        n17 = schatten_norm(m, 1.7)
        assert abs(n1 - n2) <= 1e-10
        assert abs(n2 - ni) <= 1e-10
        assert abs(n17 - n2) <= 1e-10
    assert_array_kernel_matches(mats, (1.0, 2.0, INF, 1.7))


def test_p_ordering():
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(200):
        m = Mat2.from_rows(*rng.standard_normal((2, 2)))
        mats.append(m)
        n1 = schatten_norm(m, 1)
        n17 = schatten_norm(m, 1.7)
        ninf = schatten_norm(m, INF)
        assert n1 + 1e-12 >= n17 >= ninf - 1e-12
    assert_array_kernel_matches(mats, (1.0, 1.7, INF))


def test_invalid_p_and_nonfinite_entries():
    with pytest.raises(HstvError):
        schatten_norm(Mat2.identity(), 0.5)
    with pytest.raises(HstvError):
        Mat2(1.0, float("nan"), 0.0, 1.0)
    with pytest.raises(HstvError):
        Mat2(float("inf"), 0.0, 0.0, 1.0)
    assert conjugate_exponent(1) == INF
    assert conjugate_exponent(INF) == 1.0
    assert abs(conjugate_exponent(1.5) - 3.0) <= 1e-15


def test_sym_eigen_frame_examples():
    d, theta = sym_eigen_frame(Mat2.diag(2, -1))
    assert (d.m11, d.m22) == (2.0, -1.0)
    assert theta == 0.0

    d, theta = sym_eigen_frame(Mat2.from_rows((0, 1), (1, 0)))
    assert abs(theta - math.pi / 4) <= 1e-12
    assert sorted((d.m11, d.m22)) == [-1.0, 1.0]


def test_sym_eigen_frame_assembled_roundtrip():
    # Assemble M = R D R^T for the frozen frame and recover it.
    theta = math.atan(0.5)
    r = Mat2.rotation(theta)
    m = r @ Mat2.diag(2, 1) @ r.transpose()
    d, got = sym_eigen_frame(m)
    assert abs(got - theta) <= 1e-12
    assert abs(d.m11 - 2.0) <= 1e-12
    assert abs(d.m22 - 1.0) <= 1e-12


def test_sym_eigen_frame_random_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(500):
        a = rng.standard_normal((2, 2))
        sym = Mat2.from_rows(
            (a[0, 0], 0.5 * (a[0, 1] + a[1, 0])),
            (0.5 * (a[0, 1] + a[1, 0]), a[1, 1]),
        )
        d, theta = sym_eigen_frame(sym)
        assert 0.0 <= theta < math.pi / 2
        r = Mat2.rotation(theta)
        back = r.transpose() @ sym @ r
        assert abs(back.m11 - d.m11) <= 1e-10
        assert abs(back.m22 - d.m22) <= 1e-10
        assert abs(back.m12) <= 1e-10


def test_sym_eigen_frame_rejects_asymmetric():
    with pytest.raises(HstvError):
        sym_eigen_frame(Mat2.from_rows((1, 1), (0, 1)), tol=1e-12)


def test_dual_norm_estimate_examples():
    assert dual_norm_estimate(Mat2.identity(), 1, 4000) >= 1.99
    assert dual_norm_estimate(Mat2.diag(0, 0), 2, 10) == 0.0
    assert dual_norm_estimate(Mat2.diag(3, -4), INF, 4000) >= 3.99


def test_dual_norm_is_a_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = Mat2.from_rows(*rng.standard_normal((2, 2)))
        for p in (1.0, 2.0, INF, 1.7):
            for samples in (1, 8, 64):
                assert dual_norm_estimate(m, p, samples) <= schatten_norm(m, p) + 1e-10


def test_dual_norm_monotone_in_samples():
    m = Mat2.from_rows((1.0, 0.4), (-0.3, 2.0))
    estimates = [dual_norm_estimate(m, 1, s) for s in (4, 64, 1024, 8192)]
    assert all(b >= a - 1e-12 for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] >= 0.98 * schatten_norm(m, 1)


def test_unitary_invariance():
    rng = np.random.default_rng(6)
    ps = (1.0, 2.0, INF, 3.0)
    mats = []
    for _ in range(500):
        m = Mat2.from_rows(*rng.standard_normal((2, 2)))
        r = Mat2.rotation(rng.uniform(0, 2 * math.pi))
        mats += [m, r @ m, m @ r]
        for p in ps:
            nm = schatten_norm(m, p)
            assert abs(schatten_norm(r @ m, p) - nm) <= 1e-10
            assert abs(schatten_norm(m @ r, p) - nm) <= 1e-10
    assert_array_kernel_matches(mats, ps)


def test_submultiplicativity():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = Mat2.from_rows(*rng.standard_normal((2, 2)))
        n = Mat2.from_rows(*rng.standard_normal((2, 2)))
        for p in (1.0, 2.0, INF, 1.3):
            assert schatten_norm(m @ n, p) <= schatten_norm(m, p) * schatten_norm(n, p) + 1e-10


def test_norm_equivalence_constant_two():
    rng = np.random.default_rng(8)
    ps = (1.0, 2.0, INF)
    for _ in range(10_000):
        m = Mat2.from_rows(*rng.standard_normal((2, 2)))
        norms = {p: schatten_norm(m, p) for p in ps}
        for p in ps:
            for q in ps:
                assert norms[p] <= 2.0 * norms[q] + 1e-10


def test_symmetric_eigenvalue_identity():
    rng = np.random.default_rng(9)
    for _ in range(500):
        a = rng.standard_normal((2, 2))
        sym = np.array([[a[0, 0], 0.5 * (a[0, 1] + a[1, 0])],
                        [0.5 * (a[0, 1] + a[1, 0]), a[1, 1]]])
        ev = np.abs(np.linalg.eigvalsh(sym))
        m = Mat2.from_rows(sym[0], sym[1])
        for p in (1.0, 2.0, INF):
            expect = np.linalg.norm(ev, 1 if p == 1 else (2 if p == 2 else np.inf))
            assert abs(schatten_norm(m, p) - expect) <= 1e-10
