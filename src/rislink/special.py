"""Complex log-gamma machinery for Mellin-Barnes integrands.

Everything here is pure and vectorized over numpy arrays. The evaluator
multiplies dozens of Gamma factors per integrand sample, so all products
are accumulated in log space and exponentiated once by the caller.
"""
from __future__ import annotations

import numpy as np
import scipy.special

__all__ = ["PoleError", "log_gamma"]


class PoleError(ValueError):
    """Argument landed on (or within 1e-12 of) a non-positive integer."""


_POLE_TOL = 1e-12


def _check_poles(z: np.ndarray) -> None:
    near_axis = np.abs(z.imag) < _POLE_TOL
    if not near_axis.any():
        return
    re = z.real
    k = np.round(re)
    on_pole = near_axis & (k <= 0) & (np.abs(re - k) < _POLE_TOL)
    if on_pole.any():
        bad = z[on_pole].flat[0]
        raise PoleError(f"log_gamma argument {bad} is at a Gamma pole")


def log_gamma(z):
    """log Gamma for complex argument(s), analytic off the pole cuts.

    Thin wrapper over scipy's complex loggamma that additionally raises
    PoleError within 1e-12 of a non-positive integer, so contour code
    fails loudly instead of propagating infinities. The branch is the
    analytic continuation from the positive real axis; it may differ from
    log of the principal-branch Gamma by a multiple of 2*pi*i, which is
    irrelevant after exponentiation.
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.isfinite(z).all():
        raise ValueError("log_gamma argument must be finite")
    _check_poles(z)
    out = scipy.special.loggamma(z)
    return complex(out[0]) if scalar else out

