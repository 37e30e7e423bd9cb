import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from rislink.special import PoleError, digamma, erfc, gammasgn, log_gamma, zeta

# High-precision reference values, computed with mpmath at 40 digits.
MPMATH_REFERENCE = [
    (3.7 + 2.1j, 0.7853469580738223888 + 2.5830129251152622486j),
    (-3.2 + 0.7j, -2.3406078939632625747 - 10.7136359156265875611j),
    (150.3 - 40.2j, 596.18093363001828317 - 201.84639801036284221j),
]


def test_gamma_of_one_is_one():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)


def test_gamma_of_half():
    assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
    assert log_gamma(0.5).imag == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("z,expected", MPMATH_REFERENCE)
def test_against_mpmath(z, expected):
    got = log_gamma(z)
    # Branch may differ by 2*pi*i on the left half plane.
    assert got.real == pytest.approx(expected.real, rel=1e-12, abs=1e-12)
    assert cmath.exp(got) == pytest.approx(cmath.exp(expected), rel=1e-11)


def test_vectorized_matches_scalar():
    zs = np.array([1.5 + 0.3j, 7.0 - 2.0j, 0.2 + 5.0j])
    vec = log_gamma(zs)
    for i, z in enumerate(zs):
        assert vec[i] == pytest.approx(log_gamma(complex(z)))


def test_two_dimensional_arguments():
    # the contour passes 2-d grids; a point on the real axis sends them through the pole check
    zs = np.array([[1.5 + 0.3j, -2.5 + 0.0j, 7.0 - 2.0j], [0.5 + 0j, -0.2 + 5.0j, 3.0 + 0j]])
    got = log_gamma(zs)
    assert got.shape == zs.shape
    for z, g in zip(zs.ravel(), got.ravel()):
        assert g == pytest.approx(log_gamma(complex(z)), rel=1e-14)
    with pytest.raises(PoleError):
        log_gamma(np.array([[1.0 + 1j, 2.0 + 0j], [-3.0 + 0j, 0.5 + 0j]]))


def test_pole_rejection():
    for z in [0.0, -1.0, -7.0, -3.0 + 1e-13j]:
        with pytest.raises(PoleError):
            log_gamma(z)


def test_nan_rejected():
    with pytest.raises(ValueError):
        log_gamma(complex(float("nan"), 0.0))


finite_z = st.builds(
    complex,
    st.floats(-80.0, 80.0),
    st.floats(-80.0, 80.0),
).filter(
    lambda z: abs(z.imag) > 1e-3
    or (z.real > 0.1 and abs(z.real - round(z.real)) > 1e-3)
)


@settings(max_examples=200, deadline=None)
@given(finite_z)
def test_reflection_identity(z):
    # log G(z) + log G(1-z) = log(pi / sin(pi z))  (mod 2*pi*i)
    lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
    rhs = cmath.pi / cmath.sin(cmath.pi * z)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


@settings(max_examples=200, deadline=None)
@given(finite_z.filter(lambda z: abs(z) <= 100 and abs(z + 1) > 1e-3))
def test_recurrence(z):
    # Gamma(z+1) = z * Gamma(z)
    lhs = log_gamma(z + 1.0)
    rhs = log_gamma(z) + cmath.log(z)
    assert cmath.exp(lhs - rhs) == pytest.approx(1.0, rel=1e-11)


@settings(max_examples=200, deadline=None)
@given(finite_z)
def test_conjugate_symmetry(z):
    assert log_gamma(z.conjugate()) == pytest.approx(log_gamma(z).conjugate(), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# oracles: scipy.special and mpmath, which rislink itself does not import

TINY = np.finfo(float).tiny


def mp_log_gamma(z):
    with mpmath.workdps(40):
        return np.array([complex(mpmath.loggamma(mpmath.mpc(complex(v)))) for v in np.ravel(z)])


def log_gamma_error(got, ref):
    """|got - ref| modulo 2 pi i, over max(1, |ref|): the relative error of exp(got) where |ref| <= 1."""
    d = got - ref
    d = d.real + 1j * ((d.imag + math.pi) % (2.0 * math.pi) - math.pi)
    return np.abs(d) / np.maximum(1.0, np.abs(ref))


def wide_plane(count, seed):
    # Re in [-80, 200], |Im| <= 300, kept 1e-6 off the poles
    rng = np.random.default_rng(seed)
    z = rng.uniform(-80.0, 200.0, count) + 1j * rng.uniform(-300.0, 300.0, count)
    near_axis = rng.uniform(-80.0, 200.0, count // 4) + 1j * rng.uniform(-1.0, 1.0, count // 4)
    z = np.concatenate([z, near_axis])
    k = np.round(z.real)
    return z[(np.abs(z.imag) > 1e-6) | (k > 0) | (np.abs(z.real - k) > 1e-6)]


def test_log_gamma_matches_scipy_on_the_wide_plane():
    z = wide_plane(20_000, 1)
    assert log_gamma_error(log_gamma(z), scipy.special.loggamma(z)).max() <= 1e-14


def test_log_gamma_matches_mpmath_on_the_wide_plane():
    z = wide_plane(400, 2)
    assert log_gamma_error(log_gamma(z), mp_log_gamma(z)).max() <= 1e-14


def test_log_gamma_matches_mpmath_on_the_contour_arguments():
    # the arguments of the exact N=2 and verify contours: Re 0.375-2.8, |Im| <= 19.3
    rng = np.random.default_rng(3)
    z = rng.uniform(0.375, 2.8, 400) + 1j * rng.uniform(-19.3, 19.3, 400)
    assert log_gamma_error(log_gamma(z), mp_log_gamma(z)).max() <= 5e-15


@pytest.mark.parametrize(
    "z",
    [-2.5, -7.5 + 0j, -0.999999, -3.000001, -79.5 + 1e-9j, -1e-7 - 1e-7j, 1e-10, 0.5 - 300j,
     1e15 + 3j, -1e15 - 0.25 + 2j, 3e150j, 1e300],
)
def test_log_gamma_edge_arguments(z):
    # real negative arguments (the sign of Gamma), next to poles, and past the shifted series' range
    got, ref = log_gamma(z), mp_log_gamma(z)[0]
    assert log_gamma_error(np.array([got]), np.array([ref]))[0] <= 1e-14


def test_log_gamma_rejects_infinity():
    with pytest.raises(ValueError):
        log_gamma(np.array([1.0, complex(math.inf, 0.0)]))


def erfc_error(got, ref):
    """Relative error, over the least normal double where ref is subnormal."""
    return np.abs(got - ref) / np.maximum(np.abs(ref), TINY)


ERFC_POINTS = np.concatenate([
    np.linspace(0.0, 27.0, 2701),
    np.linspace(0.46, 0.48, 41),  # Cody's range ends, 0.46875 and 4
    np.linspace(3.99, 4.01, 41),
    np.linspace(26.0, 27.5, 301),  # the subnormal tail, from 26.55, and underflow to 0, from about 27.25
])


def test_erfc_matches_mpmath_to_1e13():
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.erfc(mpmath.mpf(float(v)))) for v in ERFC_POINTS])
    assert erfc_error(erfc(ERFC_POINTS), ref).max() <= 1e-13
    assert erfc_error(erfc(-ERFC_POINTS), 2.0 - ref).max() <= 1e-13


def test_erfc_matches_scipy():
    x = np.random.default_rng(4).uniform(0.0, 26.5, 100_000)
    assert erfc_error(erfc(x), scipy.special.erfc(x)).max() <= 1e-13


def test_erfc_in_place_and_special_values():
    x = np.concatenate([ERFC_POINTS, -ERFC_POINTS])
    expected = erfc(x)
    assert erfc(x, out=x) is x
    np.testing.assert_array_equal(x, expected)
    got = erfc(np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300]))
    np.testing.assert_array_equal(got, [math.nan, 0.0, 2.0, 1.0, 1.0, 0.0])
    assert erfc(0.5) == pytest.approx(math.erfc(0.5), rel=1e-15)
    grid = np.linspace(0.0, 6.0, 12).reshape(3, 4)
    out = np.empty((4, 3)).T  # not contiguous
    erfc(grid, out=out)
    np.testing.assert_array_equal(out, erfc(grid.ravel()).reshape(3, 4))


# (a, largest j) of the Taylor series that leading_residue expands in the Tier-1 tests, and
# negative a, which the argument of a joint factor at the leading poles can be
ZETA_CASES = [
    (1.0, 2), (1.5, 3), (2.25, 3), (2.5, 3), (3.25, 3), (3.5, 3), (3.75, 2), (3.85, 2), (4.75, 3),
    (6.0, 3), (7.5, 10), (9.25, 10), (11.75, 10), (15.0, 10), (20.0, 10), (37.5, 50), (39.25, 50),
    (75.0, 50), (200.0, 200), (201.75, 200), (400.0, 200), (10000.0, 10000), (10001.75, 10000),
    (20000.0, 10000), (0.5, 60), (-0.5, 30), (-1.3, 30), (-2.5, 30), (-10.25, 50),
]


@pytest.mark.parametrize("a,top", ZETA_CASES)
def test_zeta_matches_scipy(a, top):
    j = np.arange(2, top + 1)
    ref = scipy.special.zeta(j, a)
    # scipy's own sum loses digits in the last 1e-18 of the double range (test_zeta_near_underflow)
    normal = np.isfinite(ref) & (np.abs(ref) >= 1e-290)
    got = zeta(j, a)
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    # negative a: terms of both signs, so the error is relative to the sum of their sizes
    size = np.abs(ref) if a > 0 else np.power.outer(np.abs(a + np.arange(200)), -j).sum(axis=0)
    assert np.all(np.abs(got - ref)[normal] <= 1e-13 * size[normal])


@pytest.mark.parametrize("a,top", [c for c in ZETA_CASES if c[1] <= 60])
def test_zeta_matches_mpmath(a, top):
    j = np.arange(2, top + 1)
    with mpmath.workdps(120):  # mpmath's own cancellation costs it 50 digits at a = 200
        ref = np.array([float(mpmath.zeta(int(k), a)) for k in j])
        size = np.array([float(mpmath.zeta(int(k), abs(a) - math.floor(abs(a))) + sum(
            abs(mpmath.mpf(a) + i) ** -int(k) for i in range(math.ceil(-a) + 1))) if a < 0 else abs(r)
            for k, r in zip(j, ref)])
    assert np.all(np.abs(zeta(j, a) - ref) <= 1e-13 * size)


def test_zeta_near_underflow():
    # scipy reads 1.9011371673610412e-306 here, 5.7e-11 off
    with mpmath.workdps(120):
        ref = float(mpmath.zeta(133, 200))
    assert zeta(np.array([133]), 200.0)[0] == pytest.approx(ref, rel=1e-13)


DIGAMMA_POINTS = [0.5, 0.75, 1.0, 1.004975, 1.086758, 1.4616321449683622, 1.5, 2.1, 3.85, 7.5, 9.999, 10.0,
                  21.75, 200.0, 10001.75, 20000.0, 1e-9, -1e-9, -0.5, -1.3, -2.5, -10.25, -79.999]


@pytest.mark.parametrize("x", DIGAMMA_POINTS)
def test_digamma_matches_mpmath_and_scipy(x):
    with mpmath.workdps(40):
        ref = float(mpmath.digamma(x))
    assert digamma(x) == pytest.approx(ref, rel=1e-14, abs=1e-15)
    assert digamma(x) == pytest.approx(float(scipy.special.psi(x)), rel=1e-14, abs=1e-15)


def test_digamma_and_zeta_refuse_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            digamma(x)
        with pytest.raises(PoleError):
            zeta(np.arange(2, 5), x)


@pytest.mark.parametrize("x", [1e-300, 0.5, 3.7, 171.5, 0.0, -0.0, -1e-300, -0.5, -1.5, -2.5, -3.25, -170.5,
                               -1.0, -2.0, -math.inf, math.inf, math.nan])
def test_gammasgn_on_both_sides_of_zero(x):
    ref = float(scipy.special.gammasgn(x))
    got = gammasgn(x)
    assert (math.isnan(got) and math.isnan(ref)) or got == ref
    if math.isfinite(x) and x != math.floor(x):
        with mpmath.workdps(30):
            assert got == math.copysign(1.0, float(mpmath.gamma(x)))
