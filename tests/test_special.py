import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rislink.special import PoleError, log_gamma

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
