import math

import numpy as np
import pytest

from conftest import dual_norm_reference
from hstv.errors import HstvError
from hstv.schatten import (
    INF,
    _singular_values,
    conjugate_exponent,
    dual_norm_estimate,
    schatten_norms,
    sym_eigen_frame,
)


def norm(m, p) -> float:
    """Schatten p-norm of one 2x2 matrix (a nested sequence or an array)."""
    return float(schatten_norms(*np.ravel(m).tolist(), p))


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def assert_array_kernel_matches(mats, ps):
    """schatten_norms on the stacked entries equals its value per matrix.

    Bit for bit at p in {1, 2, inf}.  Otherwise numpy may evaluate the power
    of an array with a vectorized routine that rounds differently from the
    scalar one, so a few units in the last place are allowed.
    """
    entries = np.asarray(mats, dtype=float).reshape(-1, 4).T
    for p in ps:
        expect = np.array([norm(m, p) for m in mats])
        maxulp = 0 if p in (1.0, 2.0, INF) else 4
        np.testing.assert_array_max_ulp(schatten_norms(*entries, p), expect, maxulp)


def test_singular_values_examples():
    assert _singular_values(3.0, 0.0, 0.0, -4.0) == (4.0, 3.0)
    assert _singular_values(1.0, 0.0, 0.0, 1.0) == (1.0, 1.0)
    s1, s2 = _singular_values(3.0, 0.0, 6.0, 0.0)
    assert abs(s1 - math.sqrt(45)) <= 1e-12
    assert abs(s2) <= 1e-12


def test_singular_values_against_svd_oracle():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        m = rng.standard_normal((2, 2))
        expect = np.linalg.svd(m, compute_uv=False)
        got = _singular_values(*m.ravel().tolist())
        assert abs(got[0] - expect[0]) <= 1e-12 * max(1, expect[0])
        assert abs(got[1] - expect[1]) <= 1e-12 * max(1, expect[0])


def test_schatten_norm_examples():
    m = np.diag([3.0, -4.0])
    assert norm(m, 1) == 7.0
    assert norm(m, 2) == 5.0
    assert norm(m, INF) == 4.0


def test_frobenius_identity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rng.standard_normal((2, 2))
        assert abs(norm(a, 2) - math.sqrt((a * a).sum())) <= 1e-12


def test_rank_one_norms_coincide():
    rng = np.random.default_rng(2)
    mats = []
    for _ in range(200):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        m = np.outer(u, v)
        mats.append(m)
        n1 = norm(m, 1)
        n2 = norm(m, 2)
        ni = norm(m, INF)
        n17 = norm(m, 1.7)
        assert abs(n1 - n2) <= 1e-10
        assert abs(n2 - ni) <= 1e-10
        assert abs(n17 - n2) <= 1e-10
    assert_array_kernel_matches(mats, (1.0, 2.0, INF, 1.7))


def test_p_ordering():
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(200):
        m = rng.standard_normal((2, 2))
        mats.append(m)
        n1 = norm(m, 1)
        n17 = norm(m, 1.7)
        ninf = norm(m, INF)
        assert n1 + 1e-12 >= n17 >= ninf - 1e-12
    assert_array_kernel_matches(mats, (1.0, 1.7, INF))


def test_tuple_of_exponents_matches_one_call_each():
    """A tuple of exponents gives one norm array per exponent, in order,
    with the bits of one call per exponent; every exponent is checked."""
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((4, 200))
    ps = (1.0, 2.0, INF, 1.7)
    got = schatten_norms(*entries, ps)
    assert isinstance(got, tuple) and len(got) == len(ps)
    for p, norms in zip(ps, got):
        assert np.array_equal(norms, schatten_norms(*entries, p)), p
    with pytest.raises(HstvError):
        schatten_norms(*entries, (1.0, 0.5))


def test_invalid_p_and_nonfinite_entries():
    with pytest.raises(HstvError):
        schatten_norms(1.0, 0.0, 0.0, 1.0, 0.5)
    with pytest.raises(HstvError, match="non-finite matrix entry: nan"):
        sym_eigen_frame(1.0, float("nan"), 1.0)
    with pytest.raises(HstvError, match="non-finite matrix entry: inf"):
        sym_eigen_frame(float("inf"), 0.0, 1.0)
    # finite entries whose eigenvalues overflow
    with pytest.raises(HstvError, match="non-finite matrix entry"):
        sym_eigen_frame(1e308, 1e308, 1e308)
    assert conjugate_exponent(1) == INF
    assert conjugate_exponent(INF) == 1.0
    assert abs(conjugate_exponent(1.5) - 3.0) <= 1e-15


def test_sym_eigen_frame_examples():
    d, theta = sym_eigen_frame(2.0, 0.0, -1.0)
    assert d == (2.0, -1.0)
    assert theta == 0.0

    d, theta = sym_eigen_frame(0.0, 1.0, 0.0)
    assert abs(theta - math.pi / 4) <= 1e-12
    assert sorted(d) == [-1.0, 1.0]


def test_sym_eigen_frame_assembled_roundtrip():
    # Assemble M = R D R^T for the frozen frame and recover it.
    theta = math.atan(0.5)
    r = rotation(theta)
    m = r @ np.diag([2.0, 1.0]) @ r.T
    (d1, d2), got = sym_eigen_frame(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])
    assert abs(got - theta) <= 1e-12
    assert abs(d1 - 2.0) <= 1e-12
    assert abs(d2 - 1.0) <= 1e-12


def test_sym_eigen_frame_random_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(500):
        a = rng.standard_normal((2, 2))
        b = 0.5 * (a[0, 1] + a[1, 0])
        sym = np.array([[a[0, 0], b], [b, a[1, 1]]])
        (d1, d2), theta = sym_eigen_frame(a[0, 0], b, a[1, 1])
        assert 0.0 <= theta < math.pi / 2
        r = rotation(theta)
        back = r.T @ sym @ r
        assert abs(back[0, 0] - d1) <= 1e-10
        assert abs(back[1, 1] - d2) <= 1e-10
        assert abs(back[0, 1]) <= 1e-10


def test_dual_norm_estimate_examples():
    assert dual_norm_estimate(1.0, 0.0, 0.0, 1.0, 1, 4000) >= 1.99
    assert dual_norm_estimate(0.0, 0.0, 0.0, 0.0, 2, 10) == 0.0
    assert dual_norm_estimate(3.0, 0.0, 0.0, -4.0, INF, 4000) >= 3.99


def test_dual_norm_needs_a_sample():
    for samples in (0, -3):
        with pytest.raises(HstvError, match="^samples must be >= 1$"):
            dual_norm_estimate(1.0, 0.0, 0.0, 1.0, 2, samples)


def test_dual_norm_is_a_lower_bound():
    rng = np.random.default_rng(5)
    entries = rng.standard_normal((200, 4)).T
    # At p = 1 + 1e-7, p* is about 1e7 and the lp* norm of (cos psi, sin psi)
    # underflows to 0 off the axes: those candidates are the zero matrix.
    for p in (1.0, 2.0, INF, 1.7, 1.0 + 1e-7):
        closed = schatten_norms(*entries, p)
        for samples in (1, 8, 64):
            assert np.all(dual_norm_estimate(*entries, p, samples) <= closed + 1e-10)


def test_dual_norm_monotone_in_samples():
    m = (1.0, 0.4, -0.3, 2.0)
    estimates = [dual_norm_estimate(*m, 1, s) for s in (4, 64, 1024, 8192)]
    assert all(b >= a - 1e-12 for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] >= 0.98 * norm(m, 1)


@pytest.mark.parametrize("samples", [4, 64])
def test_dual_norm_stack_matches_scalar_loop(samples):
    """The stacked estimator against the per-matrix scalar loop in conftest:
    the same candidates and the same pairing arithmetic, so bit for bit."""
    mats = np.random.default_rng(27).standard_normal((10_000, 4))
    for p in (1.0, 2.0, INF, 1.7):
        got = dual_norm_estimate(*mats.T, p, samples)
        want = np.array(dual_norm_reference(mats.tolist(), p, samples))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_unitary_invariance():
    rng = np.random.default_rng(6)
    ps = (1.0, 2.0, INF, 3.0)
    mats = []
    for _ in range(500):
        m = rng.standard_normal((2, 2))
        r = rotation(rng.uniform(0, 2 * math.pi))
        mats += [m, r @ m, m @ r]
        for p in ps:
            nm = norm(m, p)
            assert abs(norm(r @ m, p) - nm) <= 1e-10
            assert abs(norm(m @ r, p) - nm) <= 1e-10
    assert_array_kernel_matches(mats, ps)


def test_submultiplicativity():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = rng.standard_normal((2, 2))
        n = rng.standard_normal((2, 2))
        for p in (1.0, 2.0, INF, 1.3):
            assert norm(m @ n, p) <= norm(m, p) * norm(n, p) + 1e-10


def test_norm_equivalence_constant_two():
    rng = np.random.default_rng(8)
    entries = rng.standard_normal((10_000, 4)).T
    ps = (1.0, 2.0, INF)
    norms = {p: schatten_norms(*entries, p) for p in ps}
    for p in ps:
        for q in ps:
            assert np.all(norms[p] <= 2.0 * norms[q] + 1e-10)


def test_symmetric_eigenvalue_identity():
    rng = np.random.default_rng(9)
    for _ in range(500):
        a = rng.standard_normal((2, 2))
        sym = np.array([[a[0, 0], 0.5 * (a[0, 1] + a[1, 0])],
                        [0.5 * (a[0, 1] + a[1, 0]), a[1, 1]]])
        ev = np.abs(np.linalg.eigvalsh(sym))
        for p in (1.0, 2.0, INF):
            expect = np.linalg.norm(ev, 1 if p == 1 else (2 if p == 2 else np.inf))
            assert abs(norm(sym, p) - expect) <= 1e-10
