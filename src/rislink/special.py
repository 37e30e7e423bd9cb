"""Special functions for Mellin-Barnes integrands and their residues, in numpy and ``math`` alone.

``log_gamma`` is complex and vectorized: the evaluator multiplies dozens of
Gamma factors per integrand sample, so all products are accumulated in log
space and exponentiated once by the caller. It is Stirling's series after a
fixed upward shift, with reflection on the left half plane (Hare, "Computing
the principal branch of log-Gamma", J. Algorithms 25, 1997). ``erfc`` is
vectorized over the Monte-Carlo samples (Cody, "Rational Chebyshev
approximations for the error function", Math. Comp. 23, 1969). ``digamma``,
``zeta`` and ``gammasgn`` serve the scalar Taylor series of the leading
residue.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["PoleError", "log_gamma", "erfc", "digamma", "zeta", "gammasgn"]


class PoleError(ValueError):
    """Argument landed on (or within 1e-12 of) a non-positive integer."""


_POLE_TOL = 1e-12


def _check_poles(z: np.ndarray, abs_imag: np.ndarray) -> None:
    near_axis = abs_imag < _POLE_TOL
    if not near_axis.any():
        return
    re = z.real
    k = np.round(re)
    on_pole = near_axis & (k <= 0) & (np.abs(re - k) < _POLE_TOL)
    if on_pole.any():
        bad = z[on_pole].flat[0]
        raise PoleError(f"log_gamma argument {bad} is at a Gamma pole")


def _constant(c) -> np.ndarray:
    # a 0-d array: a ufunc takes it in about half the time of a Python scalar
    return np.array(c, dtype=complex)


# Gamma(z) = Gamma(z + 8) / (z (z + 1) ... (z + 7)): with u = z (z + 7), the pairs (z + k)(z + 7 - k)
# are u + k (7 - k). Stirling's series at w = z + 8 then needs seven terms B_2k / (2k (2k - 1) w^(2k-1)):
# the eighth is below 1e-15 at Re z >= 0.
_SHIFT, _LAST = _constant(8.0), _constant(7.0)
_PAIRS = tuple(_constant(k * (7 - k)) for k in (1, 2, 3))
_STIRLING = tuple(_constant(c) for c in (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_HALF_LOG_2PI_LESS_8 = _HALF_LOG_2PI - 8.0
# |Re z| or |Im z| from which Stirling's leading terms alone are exact; the shift product overflows from 1e38
_FAR = 1e15


def _log_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log |v|, arg v) of complex v from real arrays: numpy's complex log costs several times more."""
    log_abs = v.real * v.real
    log_abs += v.imag * v.imag
    np.log(log_abs, out=log_abs)
    log_abs *= 0.5
    return log_abs, np.arctan2(v.imag, v.real)


def _log_gamma_right(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) for Re z >= 0 short of _FAR: Stirling's series at w = z + 8 less the log of the shift product
    p, as (z - 1/2) log w - log(p / w^8) - z - 8 + log(2 pi)/2 + s. Written so, no term grows with w: the
    terms are no larger than log Gamma(z) itself, and so are their rounding errors."""
    w = z + _SHIFT
    u = z + _LAST
    u *= z
    q, pair = u + _PAIRS[0], np.empty_like(u)
    for c in _PAIRS[1:]:
        q *= np.add(u, c, out=pair)
    q *= u
    r = 1.0 / w
    r2 = r * r
    s = r2 * _STIRLING[0]
    for c in _STIRLING[1:-1]:
        s += c
        s *= r2
    s += _STIRLING[-1]
    s *= r
    r2 *= r2
    r2 *= r2
    q *= r2  # p / w^8
    (log_w, arg_w), (log_q, arg_q) = _log_parts(w), _log_parts(q)
    a, y = z.real, z.imag
    ah = a - 0.5
    out = np.empty_like(w)
    re = ah * log_w
    re -= y * arg_w
    re -= log_q
    re -= a
    re += s.real
    # w's real part is rounded to w - e, e = a - (w - 8) exactly: the terms in w move by e (1 - 1/(2w)) there
    re += a - (w.real - 8.0)
    out.real = re + _HALF_LOG_2PI_LESS_8
    im = y * (log_w - 1.0)  # exact subtraction: one rounding fewer at the size of the result
    im += ah * arg_w
    im -= arg_q
    out.imag = im + s.imag
    return out


def _log_gamma_far(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) for |z| >= _FAR off the negative axis: the series' first term is below 1e-16 there."""
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + 1.0 / (12.0 * z)


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log sin(pi z) on the principal branch. With z = k + x + iy, |x| <= 1/2 and t = exp(-2 pi |y|),
    sin(pi z) = (-1)^k e^(pi |y|) ((1 + t) sin(pi x) + i sign(y) (1 - t) cos(pi x)) / 2, and
    |sin(pi z)|^2 = e^(2 pi |y|) ((1 - t)^2 + 4 t sin^2(pi x)) / 4: no overflow, and no cancellation at the poles."""
    k = np.round(z.real)
    x, ay = z.real - k, np.abs(z.imag)
    t = np.exp(-2.0 * np.pi * ay)
    one_less_t = -np.expm1(-2.0 * np.pi * ay)
    parity = 1.0 - 2.0 * (k % 2.0)
    sin, cos = parity * np.sin(np.pi * x), parity * np.cos(np.pi * x)
    log_abs = np.pi * ay - math.log(2.0) + 0.5 * np.log(one_less_t**2 + 4.0 * t * sin**2)
    return log_abs + 1j * np.arctan2(np.sign(z.imag) * cos * one_less_t, sin * (1.0 + t))


def log_gamma(z):
    """log Gamma for complex argument(s), analytic off the pole cuts.

    Stirling's series at z + 8 less the log of the shift product for
    Re z >= 0, and the reflection
    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z) left of it.
    The error is below 1e-14 * max(1, |log Gamma(z)|) against mpmath, and
    below 5e-15 on the contour arguments (Re 0.375-2.8, |Im| <= 19.3).
    Raises PoleError within 1e-12 of a non-positive integer, so contour
    code fails loudly instead of propagating infinities. The result may
    differ from the principal branch by a multiple of 2*pi*i, which is
    irrelevant after exponentiation.
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex, order="C"))
    parts = np.abs(z.view(float))  # |Re z|, |Im z| interleaved
    top = parts.max()
    if not top < math.inf:
        raise ValueError("log_gamma argument must be finite")
    _check_poles(z, parts[..., 1::2])
    reflect = z.real.min() < 0.0
    left = z.real < 0.0 if reflect else None
    w = np.where(left, 1.0 - z, z) if reflect else z
    if top < _FAR:
        out = _log_gamma_right(w)
    else:
        far = np.abs(w) >= _FAR
        out = np.empty_like(w)
        out[far] = _log_gamma_far(w[far])
        out[~far] = _log_gamma_right(w[~far])
    if reflect:
        out[left] = math.log(math.pi) - _log_sin_pi(z[left]) - out[left]
    return complex(out[0]) if scalar else out


# Cody's coefficients: erf(x) = x P(x^2)/Q(x^2) up to 0.46875, erfc(x) = exp(-x^2) P(x)/Q(x) up to 4,
# and erfc(x) = exp(-x^2)/x (1/sqrt(pi) - z P(z)/Q(z)) with z = 1/x^2 beyond.
_ERF_P = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_Q = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03)
_MID_P = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03,
          2.15311535474403846e-8)
_MID_Q = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03)
_FAR_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_FAR_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)
# past 27.3, exp(-x^2) is below the least subnormal
_ERF_END, _MID_END, _ERFC_END = 0.46875, 4.0, 27.3
_RSQRT_PI = 5.6418958354775628695e-1
_TAIL_SCALE, _SPLIT = 600.0, 2.0**31


def _rational(y: np.ndarray, p, q) -> np.ndarray:
    """(p[-1] y^n + p[0] y^(n-1) + ... + p[n-1]) / (y^n + q[0] y^(n-1) + ... + q[n-1]), in Cody's order."""
    num, den = p[-1] * y, y.copy()
    for a, b in zip(p[:-2], q[:-1]):
        num += a
        num *= y
        den += b
        den *= y
    num += p[-2]
    den += q[-1]
    num /= den
    return num


def _times_exp_minus_square(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """r * exp(-y^2) in r (y is overwritten), with y^2 = s^2 + (y - s)(y + s) for s = y rounded to 2^-21, so that
    s^2 is exact below 32: rounding y^2 (up to 745 here) would cost 6e-14. Scaled by e^600 and back, a
    subnormal result is rounded once."""
    s = y + _SPLIT
    s -= _SPLIT
    d = y - s
    y += s
    d *= y
    r *= np.exp(np.negative(d, out=d), out=d)
    np.square(s, out=s)
    np.subtract(_TAIL_SCALE, s, out=s)
    r *= np.exp(s, out=s)
    r *= math.exp(-_TAIL_SCALE)
    return r


def _erfc_block(x: np.ndarray, out: np.ndarray) -> None:
    """erfc of the 1-d block x into out, which may be x itself."""
    negative = np.flatnonzero(x < 0.0) if x.size and not x.min() >= 0.0 else None  # one pass when none is
    y = np.abs(x) if negative is not None else x
    inner = np.flatnonzero(y <= _ERF_END)
    within = y <= _MID_END
    middle = np.flatnonzero(within & (y > _ERF_END))
    outer = np.flatnonzero(np.logical_not(within, out=within))  # nan included: it stays nan
    # every index set is taken before out is written
    yi, ym, yo = y[inner], y[middle], y[outer]
    if yi.size:
        r = _rational(yi * yi, _ERF_P, _ERF_Q)
        r *= yi
        out[inner] = np.subtract(1.0, r, out=r)
    if ym.size:
        r = _rational(ym, _MID_P, _MID_Q)
        np.square(ym, out=ym)
        np.negative(ym, out=ym)
        r *= np.exp(ym, out=ym)  # y^2 <= 16: its rounding moves the result by at most 2e-15
        out[middle] = r
    if yo.size:
        np.minimum(yo, _ERFC_END, out=yo)  # exp(-y^2) is 0 from there; inf is kept off the split
        z = np.square(yo)
        np.divide(1.0, z, out=z)
        r = _rational(z, _FAR_P, _FAR_Q)
        r *= z
        np.subtract(_RSQRT_PI, r, out=r)
        r /= yo
        out[outer] = _times_exp_minus_square(r, yo)
    if negative is not None:
        out[negative] = 2.0 - out[negative]


# elements per pass: a block's temporaries come back from the allocator's free lists, where those of
# whole 1e5-sample arrays are fresh pages on every call (6,500 page faults in one `rislink verify`)
_BLOCK = 32768


def erfc(x, out=None):
    """Complementary error function of real x, elementwise; ``out`` may be ``x`` itself.

    Within 1e-13 relative of mpmath wherever the result is a normal double,
    and within 1e-13 of the least normal double where it is subnormal.
    """
    x = np.asarray(x, dtype=float)
    scalar = out is None and x.ndim == 0
    if out is None:
        out = np.empty_like(x)
    contiguous = out.flags.c_contiguous
    flat_x, flat_out = x.reshape(-1), out.reshape(-1) if contiguous else np.empty(x.size)
    for lo in range(0, flat_x.size, _BLOCK):
        _erfc_block(flat_x[lo : lo + _BLOCK], flat_out[lo : lo + _BLOCK])
    if not contiguous:
        out[...] = flat_out.reshape(out.shape)
    return float(out) if scalar else out


def gammasgn(x: float) -> float:
    """Sign of Gamma(x) for real x: +1 right of 0, the sign of a zero's side at 0, (-1)^ceil(-x) between
    the poles, and nan at the poles -1, -2, ..., at -inf and at nan."""
    if x > 0.0:
        return 1.0
    if x == 0.0:
        return math.copysign(1.0, x)
    if not x > -math.inf or x == math.floor(x):
        return math.nan
    return -1.0 if math.floor(x) % 2 else 1.0


def _check_real_pole(a: float, name: str) -> None:
    if a <= 0.0 and a == math.floor(a):
        raise PoleError(f"{name} argument {a} is at a pole")


# B_2k / 2k for k = 7 down to 1: psi(x) = log x - 1/(2x) - sum_k B_2k / (2k x^2k), 1e-15 from x = 10
_DIGAMMA = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for real x off the poles 0, -1, -2, ...: reflection left of 1/2,
    the recurrence up to 10, then the asymptotic series."""
    x = float(x)
    _check_real_pole(x, "digamma")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    r2 = 1.0 / (x * x)
    series = 0.0
    for c in _DIGAMMA:
        series = series * r2 + c
    return acc + math.log(x) - 0.5 / x - series * r2


# B_2k / (2k)! for k = 1..10: the Euler-Maclaurin tail of the Hurwitz zeta sum
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
                    1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000,
                    -174611 / 802857662698291200000)
# The Euler-Maclaurin tail at w is used where j <= w - 10: its (k+1)-th term is about
# 2 (j - 1) (j)_(2k-1) / (2 pi w)^(2k) of its first, below 1e-17 from the eleventh on there. Past it,
# _ZETA_TERMS more terms are summed first; past w + 30 as well, the dropped tail is below
# (b / (w + 40))^(w + 30) < 1e-17 of the largest term 1/b^j, b the least |a + k|.
_EM_MARGIN, _ZETA_TERMS = 10.0, 40


def _euler_maclaurin(j: np.ndarray, w: float) -> np.ndarray:
    """sum_{k>=0} (w + k)^-j by its Euler-Maclaurin series where j <= w - _EM_MARGIN, else 0."""
    rising, tail = j / w, w / (j - 1.0) + 0.5
    for k, c in enumerate(_EULER_MACLAURIN):
        if k:
            rising = rising * (j + 2 * k - 1) * (j + 2 * k) / (w * w)
        tail = tail + c * rising
    return np.where(j <= w - _EM_MARGIN, np.power(w, -j) * tail, 0.0)


def zeta(j, a: float) -> np.ndarray:
    """Hurwitz zeta(j, a) = sum_{k>=0} (a + k)^-j for an array of integers j >= 2 and real a off the poles 0,
    -1, -2, ...; a may be negative. The terms below w = a + m >= 20 are summed directly, then the
    Euler-Maclaurin tail at w, or for larger j _ZETA_TERMS more terms and the tail after them. inf past the
    double range."""
    _check_real_pole(a, "zeta")
    j = np.asarray(j, dtype=float)
    m = max(0, math.ceil(2.0 * _EM_MARGIN - a))
    w = a + m
    out = np.power.outer(a + np.arange(m), -j).sum(axis=0) + _euler_maclaurin(j, w)
    high = j > w - _EM_MARGIN
    if high.any():
        jh = j[high]
        out[high] += np.power.outer(w + np.arange(_ZETA_TERMS), -jh).sum(axis=0) + _euler_maclaurin(jh, w + _ZETA_TERMS)
    return out
