"""Numerical evaluation of univariate and N-variate Fox H-functions.

The value computed is

    (1/(2*pi*i))^N  * closed contour integral of
        prod_k Gamma(arg_k(t))^{sign_k} * prod_i z_i^{-t_i}  dt

over vertical lines t_i = contour_re[i] + i*y_i, where each Gamma factor's
argument is affine in the contour variables. Quadrature is a truncated
trapezoid tensor product over at most MAX_DIMS contour variables.

Gamma factors whose argument involves a single contour variable are
evaluated once per 1-D axis and broadcast; only the cross-variable factors
are evaluated on the full grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import log_gamma

__all__ = [
    "MAX_DIMS",
    "GammaTerm",
    "FoxHSpec",
    "QuadratureConfig",
    "NoValidContour",
    "NotConverged",
    "validate_contour",
    "suggest_anchors",
    "eval_foxh",
    "dump_spec",
]

# The tensor grid grows as K^dims; beyond three variables it is out of
# reach at desk scale.
MAX_DIMS = 3
_CHUNK_ROWS = 200_000


class NoValidContour(ValueError):
    def __init__(self, var_index: int, detail: str = ""):
        self.var_index = var_index
        super().__init__(f"no valid contour anchor for variable {var_index}: {detail}")


class NotConverged(RuntimeError):
    def __init__(self, last_delta: float, value: float):
        self.last_delta = last_delta
        self.value = value
        super().__init__(f"quadrature did not converge (last delta {last_delta:.3e}, value {value:.6e})")


@dataclass(frozen=True)
class GammaTerm:
    """One Gamma factor: Gamma(offset + orientation * sum_i coeffs[i]*t_i)^sign."""

    offset: float
    coeffs: tuple[float, ...]
    sign: int = 1  # +1 numerator, -1 denominator
    orientation: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1) or self.orientation not in (1, -1):
            raise ValueError("sign and orientation must be +1 or -1")
        if not all(math.isfinite(c) for c in self.coeffs) or not math.isfinite(self.offset):
            raise ValueError("GammaTerm coefficients must be finite")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def effective_coeffs(self) -> np.ndarray:
        return self.orientation * np.asarray(self.coeffs)

    def argument(self, t: np.ndarray) -> np.ndarray:
        return self.offset + t @ self.effective_coeffs()


@dataclass(frozen=True)
class QuadratureConfig:
    half_length: float = 40.0
    step: float = 0.08
    rel_tol: float = 1e-6
    max_refinements: int = 4

    def __post_init__(self):
        if min(self.half_length, self.step, self.rel_tol) <= 0:
            raise ValueError("half_length, step and rel_tol must be positive")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be nonnegative")


@dataclass(frozen=True)
class FoxHSpec:
    args: tuple[complex, ...]
    terms: tuple[GammaTerm, ...]
    contour_re: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(complex(a) for a in self.args))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "contour_re", tuple(float(c) for c in self.contour_re))
        if len(self.args) != len(self.contour_re) or not self.args:
            raise ValueError("args and contour_re must have equal nonzero length")
        for term in self.terms:
            if len(term.coeffs) != self.num_vars:
                raise ValueError("GammaTerm coefficient count must match num_vars")
        if any(not np.isfinite(a) or a == 0 for a in self.args):
            raise ValueError("arguments must be finite and nonzero")
        intervals = validate_contour(self)
        for i, (lo, hi) in enumerate(intervals):
            if not (lo < self.contour_re[i] < hi):
                raise NoValidContour(i, f"anchor {self.contour_re[i]} outside ({lo}, {hi})")

    @property
    def num_vars(self) -> int:
        return len(self.args)


def validate_contour(spec: FoxHSpec) -> list[tuple[float, float]]:
    """Feasible real-anchor interval per variable.

    A numerator Gamma factor must keep the real part of its argument
    positive along the contour (its poles all stay on one side). For a
    factor coupling several variables, the other anchors are held at the
    spec's values.
    """
    n = spec.num_vars
    intervals = [[-math.inf, math.inf] for _ in range(n)]
    anchors = np.asarray(spec.contour_re)
    for term in spec.terms:
        if term.sign != 1:
            continue
        eff = term.effective_coeffs()
        active = np.nonzero(eff)[0]
        if len(active) == 0:
            if term.offset <= 0:
                raise NoValidContour(0, f"constant numerator term with offset {term.offset} <= 0")
            continue
        for i in active:
            rest = float(term.offset + eff @ anchors - eff[i] * anchors[i])
            if eff[i] > 0:
                intervals[i][0] = max(intervals[i][0], -rest / eff[i])
            else:
                intervals[i][1] = min(intervals[i][1], rest / -eff[i])
    out = []
    for i, (lo, hi) in enumerate(intervals):
        if lo >= hi:
            raise NoValidContour(i, f"empty interval ({lo}, {hi})")
        out.append((lo, hi))
    return out


def suggest_anchors(terms, num_vars: int) -> tuple[float, ...]:
    """Midpoints of the per-variable feasible intervals.

    Only single-variable numerator factors are used, which is exact for
    every spec family built in this package (cross factors never bind).
    Unbounded sides are clipped one unit from the finite side.
    """
    intervals = [[-math.inf, math.inf] for _ in range(num_vars)]
    for term in terms:
        if term.sign != 1:
            continue
        eff = term.effective_coeffs()
        active = np.nonzero(eff)[0]
        if len(active) != 1:
            continue
        i = active[0]
        if eff[i] > 0:
            intervals[i][0] = max(intervals[i][0], -term.offset / eff[i])
        else:
            intervals[i][1] = min(intervals[i][1], term.offset / -eff[i])
    anchors = []
    for i, (lo, hi) in enumerate(intervals):
        if lo >= hi:
            raise NoValidContour(i, f"empty interval ({lo}, {hi})")
        if math.isinf(lo) and math.isinf(hi):
            anchors.append(0.0)
        elif math.isinf(hi):
            anchors.append(lo + 1.0)
        elif math.isinf(lo):
            anchors.append(hi - 1.0)
        else:
            anchors.append(0.5 * (lo + hi))
    return tuple(anchors)


def _split_terms(spec: FoxHSpec):
    """Partition factors into per-variable groups and cross-variable ones."""
    per_var = [[] for _ in range(spec.num_vars)]
    cross = []
    for term in spec.terms:
        active = np.nonzero(term.effective_coeffs())[0]
        if len(active) == 1:
            per_var[active[0]].append(term)
        else:
            cross.append(term)
    return per_var, cross


def _axis_logs(spec: FoxHSpec, per_var, axes_y):
    """Combined log contribution of single-variable factors + kernel, per axis."""
    logz = np.log(np.asarray(spec.args, dtype=complex))
    out = []
    for i in range(spec.num_vars):
        t_i = spec.contour_re[i] + 1j * axes_y[i]
        acc = -t_i * logz[i]
        for term in per_var[i]:
            eff = term.effective_coeffs()[i]
            acc = acc + term.sign * log_gamma(term.offset + eff * t_i)
        out.append(acc)
    return out


def _log_at(spec: FoxHSpec, y: np.ndarray) -> np.ndarray:
    """Full integrand log at imaginary parts y, shape (m, N)."""
    t = np.asarray(spec.contour_re) + 1j * np.atleast_2d(y)
    logz = np.log(np.asarray(spec.args, dtype=complex))
    acc = -(t @ logz)
    for term in spec.terms:
        acc = acc + term.sign * log_gamma(term.argument(t))
    return acc


def _scan_truncation(spec: FoxHSpec, quad: QuadratureConfig) -> np.ndarray:
    """Per-variable half-length where the integrand has decayed to noise.

    Scans each imaginary axis with the other variables at zero, plus the
    joint diagonal: denominator factors coupling several variables grow
    when those variables move together, so the joint decay can be slower
    than any single-axis scan suggests.
    """
    n = spec.num_vars
    probe = np.arange(0.0, quad.half_length + 0.25, 0.25)
    base = float(np.real(_log_at(spec, np.zeros((1, n)))[0]))
    threshold = base + math.log(min(1e-10, quad.rel_tol * 1e-4))

    def reach(pts: np.ndarray) -> float:
        above = np.nonzero(np.real(_log_at(spec, pts)) > threshold)[0]
        return float(probe[above[-1]]) if above.size else 0.0

    T = np.empty(n)
    for i in range(n):
        pts = np.zeros((probe.size, n))
        pts[:, i] = probe
        T[i] = reach(pts)
    if n > 1:
        for signs in ((1.0,) * n, (1.0,) * (n - 1) + (-1.0,)):
            diag = reach(probe[:, None] * np.asarray(signs))
            T = np.maximum(T, diag)
    return np.minimum(np.maximum(T + 1.0, 4.0), quad.half_length)


def _tensor_pass(spec: FoxHSpec, cross, axis_logs, axes_y, T):
    """One equal-weight pass over a tensor grid.

    Returns raw sums of exp(log integrand - ref) over the full grid, the
    outer band (any |y_i| > T_i - 1, kept *signed* so the oscillatory
    cancellation that shrinks the true tail is reflected), and the
    absolute mass; ref is the max axis log level, factored out to avoid
    overflow.
    """
    n = spec.num_vars
    sizes = [a.size for a in axes_y]
    ref = float(sum(np.max(np.real(g)) for g in axis_logs))
    shifted = [g - ref / n for g in axis_logs]

    anchors = np.asarray(spec.contour_re)
    total_chunks = []
    band_chunks = []
    absmass_chunks = []
    nrows = int(np.prod(sizes))
    for start in range(0, nrows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, nrows)
        idx = np.unravel_index(np.arange(start, stop), sizes)
        logv = shifted[0][idx[0]].copy()
        for i in range(1, n):
            logv += shifted[i][idx[i]]
        if cross:
            y = np.column_stack([axes_y[i][idx[i]] for i in range(n)])
            t = anchors + 1j * y
            for term in cross:
                logv += term.sign * log_gamma(term.argument(t))
        v = np.exp(logv)
        total_chunks.append(v.sum())
        absmass_chunks.append(np.abs(v).sum())
        band = np.zeros(stop - start, dtype=bool)
        for i in range(n):
            band |= np.abs(axes_y[i][idx[i]]) > T[i] - 1.0
        band_chunks.append(v[band].sum())
    total = complex(math.fsum(c.real for c in total_chunks), math.fsum(c.imag for c in total_chunks))
    band = complex(math.fsum(c.real for c in band_chunks), math.fsum(c.imag for c in band_chunks))
    absmass = math.fsum(absmass_chunks)
    return total, band, absmass, ref


def _make_axes(T: np.ndarray, h: float, shift: float = 0.0):
    """Symmetric grids k*h (trapezoid) or (k + 1/2)*h (midpoint)."""
    axes = []
    for Ti in T:
        k = max(2, math.ceil(Ti / h))
        if shift:
            axes.append((np.arange(-k, k) + 0.5) * h)
        else:
            axes.append(np.arange(-k, k + 1) * h)
    return axes


def _initial_step(spec: FoxHSpec, quad: QuadratureConfig) -> float:
    """Step small enough to resolve the kernel oscillation z^{-i y}.

    The trapezoid error behaves like exp(-d * (2*pi/h - omega)) with
    omega = |log|z|| the kernel frequency and d the contour-to-pole
    distance; the constant budgets ~1e-8 accuracy for d ~ 0.25.
    """
    omega = float(np.max(np.abs(np.log(np.abs(np.asarray(spec.args, dtype=complex))))))
    return min(quad.step, 2.0 * math.pi / (omega + 75.0))


def _eval_tensor(spec: FoxHSpec, quad: QuadratureConfig):
    per_var, cross = _split_terms(spec)
    T = _scan_truncation(spec, quad)
    h = _initial_step(spec, quad)
    n = spec.num_vars
    norm = (2.0 * math.pi) ** n

    value = None
    delta = math.inf
    for refinement in range(quad.max_refinements + 1):
        # Two equal-step grids, one offset by h/2: both converge
        # exponentially in 1/h, so their disagreement bounds the error
        # without the 2^n cost of halving the step for comparison.
        results = []
        for shift in (0.0, 0.5):
            axes_y = _make_axes(T, h, shift)
            axis_logs = _axis_logs(spec, per_var, axes_y)
            results.append(_tensor_pass(spec, cross, axis_logs, axes_y, T))
        ref = max(r[3] for r in results)
        scale_log = ref + n * math.log(h) - math.log(norm)
        vals, bands, noises = [], [], []
        for total, band, absmass, r_ref in results:
            adj = math.exp(min(r_ref - ref, 0.0))
            vals.append(_from_log(scale_log, adj * total))
            bands.append(abs(_from_log(scale_log, adj * band)))
            noises.append(abs(_from_log(scale_log - 30.0, adj * absmass)))
        value = 0.5 * (vals[0] + vals[1])
        delta = abs(vals[0] - vals[1])
        trunc = max(bands)
        noise = max(noises)
        # cancellation noise floor: below it the result is numerically zero
        floor = quad.rel_tol * (abs(value) + 1e-300) + noise
        if delta <= floor and trunc <= floor:
            return float(value.real), float(max(delta, noise))
        if refinement == quad.max_refinements:
            break
        if trunc > floor and max(T) < quad.half_length:
            T = np.minimum(1.5 * T, quad.half_length)
        else:
            h /= 2.0
    raise NotConverged(float(delta), float(value.real))


def _from_log(log_scale: float, raw: complex) -> complex:
    """exp(log_scale) * raw without overflow in the scale factor."""
    if log_scale < 600.0:
        return math.exp(log_scale) * raw
    mag = abs(raw)
    if mag == 0.0:
        return 0.0j
    return math.exp(min(log_scale + math.log(mag), 700.0)) * (raw / mag)


def eval_foxh(spec: FoxHSpec, quad: QuadratureConfig = QuadratureConfig()):
    """Evaluate the contour integral; returns (real value, error estimate).

    The error estimate is the disagreement of the trapezoid and offset
    midpoint grids, floored at the cancellation noise. Specs with more
    than MAX_DIMS contour variables are rejected before any evaluation.
    """
    if spec.num_vars > MAX_DIMS:
        raise ValueError(f"{spec.num_vars} contour variables; the evaluator takes at most {MAX_DIMS}")
    return _eval_tensor(spec, quad)


def dump_spec(spec: FoxHSpec, fh) -> None:
    """Write a human-readable description of a spec for diagnosis."""
    intervals = validate_contour(spec)
    fh.write(f"variables: {spec.num_vars}\n")
    for i, (z, c, iv) in enumerate(zip(spec.args, spec.contour_re, intervals)):
        fh.write(f"var {i}: arg={z!r} anchor={c:.6g} feasible=({iv[0]:.6g}, {iv[1]:.6g})\n")
    for k, term in enumerate(spec.terms):
        side = "num" if term.sign == 1 else "den"
        sgn = "+" if term.orientation == 1 else "-"
        lin = " ".join(f"{c:g}*t{i}" for i, c in enumerate(term.coeffs) if c != 0.0) or "0"
        fh.write(f"term {k}: {side} Gamma({term.offset:g} {sgn} ({lin}))\n")
