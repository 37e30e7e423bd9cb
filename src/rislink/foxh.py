"""Numerical evaluation of univariate and N-variate Fox H-functions.

The value computed is

    (1/(2*pi*i))^N  * closed contour integral of
        prod_k Gamma(arg_k(t))^{sign_k} * prod_i z_i^{-t_i}  dt

over vertical lines t_i = contour_re[i] + i*y_i, where each Gamma factor's
argument is affine in the contour variables. Quadrature is a truncated
tensor product over at most MAX_DIMS members of the variables, on the
trapezoid grid k*h and the offset midpoint grid (k + 1/2)*h: both grids
run in one pass, as two rows of every weight array, and their gap is the
error estimate.

A variable stands for a count of identical members, each with the
variable's argument and its own copy of the variable's single-variable
("own") factors; a joint factor sees only the sum of the members' values.
A spec's factors are one table, their arguments read by one rule
(``_Factors.at``). Every Gamma factor that reads one variable folds into
that variable's weight, log Gamma running once per point of its index
line, and the weight is convolved once per member onto the lattice of the
members' index sums. The grid sum then eliminates the variables along the
joint factors' keys: a factor whose coefficients are a rational multiple
of integer steps p_c reads the lattice indices m_c only through
d = sum_c p_c * m_c, so its variables merge into one on d when every
other factor reads them only through d too. Only factors that no merge
takes (coefficient ratios that are not rational, keys that do not nest)
are evaluated at every point of a lattice.

Each axis is truncated where Stirling's formula for every Gamma factor
puts the integrand below the noise threshold along the axes and the two
diagonals (Paris & Kaminski, Asymptotics and Mellin-Barnes Integrals).

``leading_residue`` gives the small-argument asymptote: the residue at the
pole tuple nearest the contour, for poles of any order (Kilbas & Saigo, ch. 1).
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .special import digamma, gammasgn, log_gamma, zeta

__all__ = [
    "MAX_DIMS",
    "HALF_LENGTH",
    "GammaTerm",
    "FoxHSpec",
    "QuadratureConfig",
    "NoValidContour",
    "NotConverged",
    "validate_contour",
    "suggest_anchors",
    "eval_foxh",
    "leading_residue",
    "dump_spec",
]

# The one cap on exact evaluation, in members. Accuracy binds, not cost: with midpoint anchors the
# error estimate grows with the members (FP1 combined at 40 dBm: 2e-12 at N=2, 7e-6 at 10, 0.16 at 20).
MAX_DIMS = 3
# longest half-length of an imaginary axis, and step halvings or
# truncation extensions before giving up
HALF_LENGTH = 40.0
_MAX_REFINEMENTS = 4
# lattice points of the cross table evaluated per chunk
_CHUNK_ROWS = 200_000
# relative gap below which poles are one multiple pole, and the largest leading-residue series lattice
_TIE_REL = 1e-9
_MAX_SERIES = 50_000


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
    """One Gamma factor Gamma(offset + sum_i coeffs[i]*t_i)^sign: one copy per member of its one variable or,
    if ``joint`` (always so for several variables or none), of t_i summed over the members. The constructor
    keyword ``orientation=-1`` negates the coefficients given; ``coeffs`` holds them signed."""

    offset: float
    coeffs: tuple[float, ...]
    sign: int = 1  # +1 numerator, -1 denominator
    orientation: InitVar[int] = 1
    joint: bool = False

    def __post_init__(self, orientation: int):
        if self.sign not in (1, -1) or orientation not in (1, -1):
            raise ValueError("sign and orientation must be +1 or -1")
        if not all(math.isfinite(c) for c in self.coeffs) or not math.isfinite(self.offset):
            raise ValueError("GammaTerm coefficients must be finite")
        object.__setattr__(self, "coeffs", tuple(orientation * float(c) for c in self.coeffs))
        object.__setattr__(self, "joint", bool(self.joint) or sum(c != 0.0 for c in self.coeffs) != 1)


# The InitVar's default would stay a class attribute and read 1 whatever the keyword was: only coeffs holds it.
del GammaTerm.orientation


class _Factors:
    """Gamma factors as one table, built once per spec: row k holds factor k's sign, offset, signed
    coefficients and joint flag, over variables of counts[i] members each; ``own`` marks those reading one member."""

    def __init__(self, terms, counts):
        self.signs = np.array([t.sign for t in terms], dtype=int)
        self.offsets = np.array([t.offset for t in terms], dtype=float)
        self.coeffs = np.array([t.coeffs for t in terms], dtype=float).reshape(len(terms), len(counts))
        self.joint = np.array([t.joint for t in terms], dtype=bool)
        self.counts = np.asarray(counts)
        self.own = ~self.joint | ((self.coeffs != 0.0) @ self.counts == 1)

    def at(self, x, sums=None) -> np.ndarray:
        """Each factor's complex argument where a member of variable i is at x[i] (arrays, variables last) and
        the members sum to sums[i], by default counts[i] * x[i]: a joint factor reads the sums, any other the member."""
        sums = self.counts * x if sums is None else sums

        def read(member, total):
            return np.where(self.joint, total @ self.coeffs.T, member @ self.coeffs.T)

        # real and imaginary parts apart: a complex product sums them in another order than a real one
        return self.offsets + read(x.real, sums.real) + 1j * read(x.imag, sums.imag)


@dataclass(frozen=True)
class QuadratureConfig:
    step: float = 0.08
    rel_tol: float = 1e-6

    def __post_init__(self):
        if min(self.step, self.rel_tol) <= 0:
            raise ValueError("step and rel_tol must be positive")


@dataclass(frozen=True)
class FoxHSpec:
    """One contour integral at positive real arguments, variable i standing for ``counts[i]`` identical members
    (default 1); ``contour_re=None`` places the anchors by ``suggest_anchors``, and all anchors are checked."""

    args: tuple[complex, ...]
    terms: tuple[GammaTerm, ...]
    contour_re: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None
    factors: _Factors = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(complex(a) for a in self.args))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "counts", tuple(self.counts or (1,) * self.num_vars))
        if len(self.counts) != self.num_vars or not all(isinstance(n, int) and n >= 1 for n in self.counts):
            raise ValueError("counts must be one positive integer per variable")
        if any(len(term.coeffs) != self.num_vars for term in self.terms):
            raise ValueError("GammaTerm coefficient count must match num_vars")
        if any(not (np.isfinite(a) and a.imag == 0 and a.real > 0) for a in self.args):
            raise ValueError("arguments must be finite positive real numbers")
        object.__setattr__(self, "factors", _Factors(self.terms, self.counts))
        anchors = _suggest(self.factors) if self.contour_re is None else self.contour_re
        object.__setattr__(self, "contour_re", tuple(float(c) for c in anchors))
        if len(self.args) != len(self.contour_re) or not self.args:
            raise ValueError("args and contour_re must have equal nonzero length")
        for i, (lo, hi) in enumerate(validate_contour(self)):
            if not (lo < self.contour_re[i] < hi):
                raise NoValidContour(i, f"anchor {self.contour_re[i]} outside ({lo}, {hi})")

    @property
    def num_vars(self) -> int:
        return len(self.args)


def _feasible_intervals(factors: _Factors, anchors: np.ndarray, joint: bool = True) -> list[tuple[float, float]]:
    """Feasible real-anchor interval per variable.

    A numerator Gamma factor must keep the real part of its argument
    positive along the contour (its poles all stay on one side). It bounds
    each member of its variables with every other member at its variable's
    anchor; joint factors are skipped unless ``joint``.
    """
    bad = (factors.signs == 1) & ~factors.coeffs.any(axis=1) & (factors.offsets <= 0)
    if bad.any():
        raise NoValidContour(0, f"constant numerator term with offset {factors.offsets[bad][0]} <= 0")
    use = (factors.signs == 1) & (joint | ~factors.joint)
    c = factors.coeffs[use]
    rest = factors.at(anchors).real[use, None] - c * anchors
    bound = np.divide(-rest, c, out=np.zeros_like(rest), where=c != 0.0)
    lows = np.max(np.where(c > 0.0, bound, -np.inf), axis=0, initial=-np.inf)
    highs = np.min(np.where(c < 0.0, bound, np.inf), axis=0, initial=np.inf)
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        if lo >= hi:
            raise NoValidContour(i, f"empty interval ({lo}, {hi})")
    return [(float(lo), float(hi)) for lo, hi in zip(lows, highs)]


def validate_contour(spec: FoxHSpec) -> list[tuple[float, float]]:
    """Feasible interval per variable under every numerator factor, other anchors at the spec's."""
    return _feasible_intervals(spec.factors, np.asarray(spec.contour_re))


def suggest_anchors(terms, num_vars: int) -> tuple[float, ...]:
    """Midpoints of the per-variable feasible intervals.

    Only own numerator factors are used, which is exact for every spec
    family built in this package (joint factors never bind).
    Unbounded sides are clipped one unit from the finite side.
    """
    return _suggest(_Factors(terms, (1,) * num_vars))


def _suggest(factors: _Factors) -> tuple[float, ...]:
    anchors = []
    for lo, hi in _feasible_intervals(factors, np.zeros(factors.counts.size), joint=False):
        if math.isinf(lo) and math.isinf(hi):
            anchors.append(0.0)
        elif math.isinf(hi):
            anchors.append(lo + 1.0)
        elif math.isinf(lo):
            anchors.append(hi - 1.0)
        else:
            anchors.append(0.5 * (lo + hi))
    return tuple(anchors)


def _scan_truncation(spec: FoxHSpec, quad: QuadratureConfig) -> np.ndarray:
    """Per-variable half-length where the integrand has decayed to noise.

    Probes each member's imaginary axis with the other members at zero, and
    the diagonal over all members with and without the last one reversed:
    denominator factors coupling several members grow when those move
    together, so the joint decay can be slower than any axis shows. Along
    direction d a factor's argument is w = sigma + i*s*r, r the imaginary
    part of its argument at the step i*d, and its log-modulus is Stirling's
    (sigma - 1/2) ln|w| - Im(w) arg w - sigma + ln(2 pi)/2, even in r; log
    Gamma itself gives only the level at y = 0, kept by each factor that d
    leaves constant. d moves m of a variable's n members, so m copies of
    each own factor, and joint factors by the signed member sums.
    """
    n, f = spec.num_vars, spec.factors
    probe = np.arange(0.0, HALF_LENGTH + 0.25, 0.25)
    # members moved, and their signed sum, per variable along each direction
    moved = np.vstack([np.eye(n), f.counts, f.counts])
    sums = np.vstack([np.eye(n), f.counts, f.counts - 2.0 * np.eye(n)[-1]])
    sigma = f.at(np.asarray(spec.contour_re)).real
    exact = np.real(log_gamma(sigma))
    copies = np.where(f.joint, 1, (f.coeffs != 0.0) @ f.counts)
    # the kernel z^{-t} has constant modulus along every direction
    rate = f.at(1j * (moved > 0), 1j * sums).imag
    movers = np.where(f.joint, rate != 0.0, moved @ (f.coeffs != 0.0).T)
    w = sigma + 1j * probe[:, None, None] * rate
    stirling = (sigma - 0.5) * np.log(np.abs(w)) - w.imag * np.angle(w) - sigma + 0.5 * math.log(2.0 * math.pi)
    level = np.where(movers > 0, movers * stirling, 0.0) + np.where(copies > movers, (copies - movers) * exact, 0.0)
    above = level @ f.signs > (copies * exact) @ f.signs + math.log(min(1e-10, quad.rel_tol * 1e-4))
    reach = np.max(np.where(above, probe[:, None], 0.0), axis=0)
    T = np.maximum(reach[:n], reach[n:].max())
    return np.minimum(np.maximum(T + 1.0, 4.0), HALF_LENGTH)


def _denominator(r: float, limit: int) -> int | None:
    """Least q <= limit, among the denominators of r's continued fraction, with q * r an integer
    within 1e-13 relative; None if there is none."""
    q_prev, q, x = 0, 1, abs(r)
    while q <= limit:
        if abs(q * r - round(q * r)) <= 1e-13 * abs(q * r):
            return q
        if x == math.floor(x):
            return None
        x = 1.0 / (x - math.floor(x))
        q_prev, q = q, math.floor(x) * q + q_prev
    return None


def _merge_key(cols: np.ndarray, sizes):
    """(S, p, lam) for the first factor, fewest variables first, whose coefficients are a multiple of
    integer steps p on the variables S it reads, when its key d = sum_c p_c * m_c spans fewer values
    than the lattice of S has points and every factor's coefficients on S are lam times p (it reads S
    only through d); None when no factor qualifies."""
    for col in sorted(cols, key=np.count_nonzero):
        S = np.flatnonzero(col)
        ratios = col[S] / min(col[S], key=abs)
        lattice = math.prod(int(sizes[c]) for c in S)  # a Python int: an int64 product wraps at ten 128-point axes
        # every |ratio| >= 1, so past a denominator of `lattice` the key spans more values than the lattice has points
        denominators = [_denominator(r, lattice) for r in ratios]
        if None in denominators:
            continue
        p = np.round(ratios * math.lcm(*denominators))
        if np.abs(p) @ (np.take(sizes, S) - 1) + 1 >= lattice:
            continue
        lam = cols[:, S[0]] / p[0]
        if np.all(np.abs(cols[:, S] - np.outer(lam, p)) <= 1e-13 * np.abs(cols[:, S])):
            return S, p.astype(int), lam
    return None


def _dilate(w: np.ndarray, p: int) -> np.ndarray:
    """w at every |p|-th point, reversed for p < 0: the weight of key p*m, shifted to start at 0."""
    out = np.zeros((w.size - 1) * abs(p) + 1, dtype=w.dtype)
    out[:: abs(p)] = w if p > 0 else w[::-1]
    return out


def _fold(sets, signs, origins, cols, h) -> np.ndarray:
    """Multiply each variable's weights by the factors that read only it, a factor of no variable going to the
    first, with one log Gamma call per variable on both rows' index lines z0 + i*h*c*k. Returns each row's log
    level per variable factored out (over the row's own length), the weights' absolute maximum kept at 1."""
    levels = np.zeros((2, len(sets)))
    homes = (cols != 0.0).argmax(axis=1)
    for v in np.unique(homes):
        mine = homes == v
        (signed, inner, absolute), n = sets[v]
        k = np.arange(signed.shape[1])
        line = (signs[mine, None] * log_gamma(origins[:, mine, None] + 1j * h * cols[mine, v, None] * k)).sum(axis=1)
        level = np.max(line.real, axis=1, where=k < n[:, None], initial=-np.inf)
        x = np.exp(line - level[:, None])
        signed, inner, absolute = signed * x, inner * x, absolute * np.abs(x)
        scale = absolute.max(axis=1)
        sets[v] = [signed / scale[:, None], inner / scale[:, None], absolute / scale[:, None]], n
        levels[:, v] = [lv + math.log(sc) for lv, sc in zip(level, scale)]
    return levels


def _by_row(fn, sets):
    """fn per weight kind of the variables' valid rows, as one variable's weights (zero-padded) and lengths."""
    out = []
    for k in range(3):
        first, second = (fn([w[k][r, : n[r]] for w, n in sets]) for r in (0, 1))
        out.append(np.zeros((2, first.size), dtype=first.dtype))
        out[-1][0], out[-1][1, : second.size] = first, second
    return out, np.array([first.size, second.size])


def _contract(x: np.ndarray, weights) -> complex:
    """sum over the variable lattices of x * prod_c weights[c], last axis first.

    einsum's own loop, not a BLAS gemv, which pays for waking its threads.
    """
    for w in reversed(weights):
        x = np.einsum("...i,i->...", x, w)
    return complex(x)


def _lattice_sum(signs, origins, cols, sets, h):
    """The weighted sums over the broadcast lattice of the variables, with the joint factors
    evaluated at every lattice point, chunk by chunk along the first variable.

    Returns the total, in-box and absolute sums and the log level factored out of them.
    """
    sizes = [w[0].size for w in sets]
    grids = [np.arange(k).reshape([-1 if a == c else 1 for a in range(len(sizes))]) for c, k in enumerate(sizes)]
    rest = tuple(sizes[1:])
    rows = max(1, _CHUNK_ROWS // math.prod(rest))
    signed, inner, absolute = ([w[k] for w in sets] for k in range(3))
    levels, sums = [], []
    for start in range(0, sizes[0], rows):
        rs = slice(start, start + rows)
        index = [grids[0][rs]] + grids[1:]
        logx = sum(
            s * log_gamma(z0 + 1j * h * sum(e * m for e, m in zip(col, index) if e))
            for s, z0, col in zip(signs, origins, cols)
        )
        levels.append(float(np.max(np.real(logx))))
        x = np.broadcast_to(np.exp(logx - levels[-1]), (index[0].size,) + rest)
        sums.append((
            _contract(x, [signed[0][rs]] + signed[1:]),
            _contract(x, [inner[0][rs]] + inner[1:]),
            _contract(np.abs(x), [absolute[0][rs]] + absolute[1:]),
        ))
    top = max(levels)
    sums = np.array(sums) * np.exp(np.array(levels) - top)[:, None]
    return [complex(math.fsum(s.real), math.fsum(s.imag)) for s in sums.T], top


def _tensor_pass(spec: FoxHSpec, axes_y, h, T):
    """One equal-weight pass over both grids of ``_make_axes``, by elimination of the variables.

    A variable's weights hold the trapezoid grid in row 0 and the midpoint grid
    in row 1, each row valid over its own length and zero past it. They start
    as the kernel's unit phase on the variable's axis; its own factors fold in
    once (``_fold``), and they are convolved once per further member onto the
    lattice of the members' index sums. Until no joint factor is left, the
    factors that read at most one variable fold in the same way, and the
    variables of a factor whose key nests in every other factor merge into one
    on that key (``_merge_key``, on row 0's sizes, and ``_dilate``). Factors
    that no merge takes are summed point by point (``_lattice_sum``).

    Returns per row the raw sums of exp(log integrand - ref) over the full
    grid, the outer band (any |y_i| > T_i - 1, kept *signed* so the
    oscillatory cancellation that shrinks the true tail is reflected), and
    the absolute mass; ref is the log level factored out to avoid overflow.
    """
    f, logz = spec.factors, np.log(np.real(spec.args))
    # the midpoint row's last point pads it to the trapezoid row's length
    valid = [np.arange(y.shape[1]) < [[y.shape[1]], [y.shape[1] - 1]] for y in axes_y]
    # the kernel z^-t at level -c*log z; signed, inner-box (every |y_i| <= T_i - 1) and absolute weights
    ref0 = float(-np.multiply(spec.counts, spec.contour_re) @ logz)
    phases = [np.where(m, np.exp(-1j * y * lz), 0.0) for y, lz, m in zip(axes_y, logz, valid)]
    sets = [([w, np.where(np.abs(y) <= Ti - 1.0, w, 0.0), m * 1.0], m.sum(axis=1))
            for w, y, Ti, m in zip(phases, axes_y, T, valid)]
    # each factor's argument at index 0 of the index lines: a joint factor's line is over its members' index sums
    origins = np.array([f.at(np.asarray(spec.contour_re) + 1j * np.array([y[r, 0] for y in axes_y])) for r in (0, 1)])
    # an own factor's level counts once per member
    ref = [ref0 + float(f.counts @ lv) for lv in _fold(sets, f.signs[f.own], origins[:, f.own], f.coeffs[f.own], h)]
    # Direct convolution on each row's own length, not an FFT: its absolute error would swamp the signed
    # cancellation, and zeros past the length would change numpy's blocking of the products.
    sets = [_by_row(lambda w: reduce(np.convolve, w * n), [s]) if n > 1 else s for s, n in zip(sets, spec.counts)]
    signs, origins, cols = f.signs[~f.own], origins[:, ~f.own], f.coeffs[~f.own]
    while True:
        fold = np.count_nonzero(cols, axis=1) <= 1
        ref = [r + float(lv.sum()) for r, lv in zip(ref, _fold(sets, signs[fold], origins[:, fold], cols[fold], h))]
        signs, origins, cols = signs[~fold], origins[:, ~fold], cols[~fold]
        key = _merge_key(cols, [w[0].shape[1] for w, _ in sets]) if signs.size else None
        if key is None:
            break
        S, p, lam = key
        # the merged variable's index 0 is the least key
        least = sum(p_c * (sets[c][1] - 1) for c, p_c in zip(S, p) if p_c < 0)
        origins = origins + 1j * h * lam * np.reshape(least, (-1, 1))
        merged = _by_row(lambda w: reduce(np.convolve, map(_dilate, w, p)), [sets[c] for c in S])
        sets = [w for c, w in enumerate(sets) if c not in S] + [merged]
        cols = np.column_stack([np.delete(cols, S, axis=1), lam])
    read = cols.any(axis=0)
    results = []
    for r in (0, 1):
        rows = [[x[r, : n[r]] for x in w] for w, n in sets]
        # a variable no factor reads contributes its weight sums
        unread = ([x.sum() for x in w] for w, u in zip(rows, read) if not u)
        sums = reduce(np.multiply, unread, np.ones(3, dtype=complex))
        lattice = [w for w, u in zip(rows, read) if u]
        totals, level = _lattice_sum(signs, origins[r], cols[:, read], lattice, h) if signs.size else (1.0, 0.0)
        total, in_box, absmass = sums * totals
        results.append((total, total - in_box, absmass.real, ref[r] + level))
    return results


def _make_axes(T: np.ndarray, h: float):
    """Each variable's trapezoid grid k*h (row 0) and midpoint grid (k + 1/2)*h (row 1), |k| <= max(2, ceil(T/h)):
    the midpoint row's last point pads it to the trapezoid row's length."""
    ks = [np.arange(-k, k + 1) for k in (max(2, math.ceil(Ti / h)) for Ti in T)]
    return [np.stack([k * h, (k + 0.5) * h]) for k in ks]


def _initial_step(spec: FoxHSpec, quad: QuadratureConfig) -> float:
    """Step small enough to resolve the kernel oscillation z^{-i y}.

    The trapezoid error behaves like exp(-d * (2*pi/h - omega)) with
    omega = |log|z|| the kernel frequency and d the contour-to-pole
    distance; the constant budgets ~1e-8 accuracy for d ~ 0.25.
    """
    omega = float(np.max(np.abs(np.log(np.abs(np.asarray(spec.args, dtype=complex))))))
    return min(quad.step, 2.0 * math.pi / (omega + 75.0))


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
    than MAX_DIMS members are rejected before any evaluation.
    """
    n = sum(spec.counts)
    if n > MAX_DIMS:
        raise ValueError(f"MAX_DIMS: at most {MAX_DIMS} members, got {n}")
    T = _scan_truncation(spec, quad)
    h = _initial_step(spec, quad)
    norm = (2.0 * math.pi) ** n

    value, delta = None, math.inf
    for refinement in range(_MAX_REFINEMENTS + 1):
        # Two equal-step grids, one offset by h/2, in one pass: both converge exponentially in 1/h, so their
        # disagreement bounds the error without the 2^n cost of halving the step for comparison.
        results = _tensor_pass(spec, _make_axes(T, h), h, T)
        ref = max(r[3] for r in results)
        scale_log = ref + n * math.log(h) - math.log(norm)
        vals, bands, noises = [], [], []
        for total, band, absmass, r_ref in results:
            adj = math.exp(min(r_ref - ref, 0.0))
            vals.append(_from_log(scale_log, adj * total))
            bands.append(abs(_from_log(scale_log, adj * band)))
            noises.append(abs(_from_log(scale_log - 30.0, adj * absmass)))
        value, delta = 0.5 * (vals[0] + vals[1]), abs(vals[0] - vals[1])
        trunc, noise = max(bands), max(noises)
        # cancellation noise floor: below it the result is numerically zero
        floor = quad.rel_tol * (abs(value) + 1e-300) + noise
        if delta <= floor and trunc <= floor:
            return float(value.real), float(max(delta, noise))
        if refinement == _MAX_REFINEMENTS:
            break
        if trunc > floor and max(T) < HALF_LENGTH:
            T = np.minimum(1.5 * T, HALF_LENGTH)
        else:
            h /= 2.0
    raise NotConverged(float(delta), float(value.real))


def _log_gamma_taylor(a: float, scale: float, degree: int) -> np.ndarray:
    """Taylor coefficients 1..degree of log Gamma(a + scale*x): scale*psi(a), then (-scale)^j zeta(j, a)/j,
    formed in log scale so that neither factor leaves the double range alone (a coefficient below it is 0)."""
    j = np.arange(2, degree + 1)
    z = zeta(j, a)
    tail = np.sign(z) * np.sign(-scale) ** j * np.exp(np.log(np.abs(z)) + j * math.log(abs(scale))) / j
    return np.r_[scale * digamma(a), tail][:degree]


def _exp_taylor(c: np.ndarray) -> np.ndarray:
    """Taylor coefficients 0..len(c) of exp(sum_j c[j-1] x^j)."""
    jc, e = np.arange(1, c.size + 1) * c, np.ones(c.size + 1)
    for k in range(1, e.size):
        e[k] = jc[:k] @ e[k - 1 :: -1] / k
    return e


def _power_taylor(a: np.ndarray, n: int) -> np.ndarray:
    """k! [y^k] (1 + sum_j a[j-1] y^j)^n for k = 0..n*len(a), by J.C.P. Miller's recurrence."""
    h = np.ones(n * a.size + 1)
    for k in range(1, h.size):
        terms = range(1, min(k, a.size) + 1)
        h[k] = sum(((n + 1) * j - k) * a[j - 1] * math.prod(range(k - j + 1, k)) * h[k - j] for j in terms)
    return h


def _shift(x: np.ndarray, weights) -> np.ndarray:
    """sum_c weights[c] * x[i + e_c] at every lattice point i, zero past the lattice."""
    out = np.zeros_like(x)
    for axis, w in enumerate(weights):
        if w:
            out[(slice(None),) * axis + (slice(None, -1),)] += w * x[(slice(None),) * axis + (slice(1, None),)]
    return out


def _shift_series(g: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k g[k] S^k x, S the ``_shift`` by weights v. With E_c the unit shift along the longest
    axis c that v moves and S' the rest of S, g(v_c E_c + S') = sum_l S'^l sum_r C(r+l, l) g[r+l]
    v_c^r E_c^r: one sliding-window product along axis c per power l of S'."""
    c = np.argmax(np.where(v != 0, x.shape, 0))
    size, r = x.shape[c], np.arange(x.shape[c])
    y = np.moveaxis(x, c, -1)
    windows = sliding_window_view(np.concatenate([y, np.zeros_like(y[..., 1:])], axis=-1), size, axis=-1)
    acc = np.zeros_like(x)
    # C(r + l, l) at every r, for l = 0, 1, ...: by Pascal's rule each row is the running sum of the one before
    binomials = [np.ones(size)]
    for _ in range(g.size - size):
        binomials.append(np.cumsum(binomials[-1]))
    for l in range(g.size - size, -1, -1):
        k = g[l : l + size] * binomials[l] * v[c] ** r
        acc = np.moveaxis(windows @ k, -1, c) + _shift(acc, np.where(np.arange(v.size) == c, 0.0, v))
    return acc


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a series leaving the double range is refused
def leading_residue(spec: FoxHSpec) -> tuple[float, float]:
    """(log |R|, sign of R), R the integrand's residue at the pole tuple nearest the contour
    on its left: the leading term of the integral for small arguments.

    A variable's pole is at t = -p, the lower end of its feasible interval
    under its own numerator factors: p is their least offset/coefficient
    with a positive coefficient, and the pole is of order m when m tie.
    With u = t + p for each of a variable's n members, r_j the Taylor
    coefficients of u^m * (own factors) * z^{-t} and C_k those of the joint
    factors in the variables' member sums of u,
        R = sum_k C_k * prod_variables k! [x^k] (sum_{j<m} r_{m-1-j} x^j / j!)^n.
    Joint factors' linear terms move into the r_j; the rest of each is summed
    over the scaled lattice k_v <= n_v (m_v - 1) by shifts along its linear
    form. ValueError: no pole on the left, a joint factor singular there, or a
    lattice over _MAX_SERIES coefficients or outside the double range.
    """
    f = spec.factors
    poles = -np.array([lo for lo, _ in _feasible_intervals(f, np.zeros(spec.num_vars), joint=False)])
    if np.isinf(poles).any():
        raise ValueError(f"variable {np.isinf(poles).argmax()} has no pole left of the contour")
    rows = list(zip(f.offsets, f.coeffs, f.signs, f.at(-poles).real, f.own))
    cross = [(s, a, c) for _, c, s, a, o in rows if not o]
    if any(a <= 0 and a == round(a) for _, a, _ in cross):
        raise ValueError("a joint factor is singular at the leading poles")
    log_abs = sum(s * math.lgamma(a) for s, a, _ in cross)
    sign = math.prod(gammasgn(a) for _, a, _ in cross)
    scales, series = [], []
    for i, (z, n, p) in enumerate(zip(spec.args, spec.counts, poles)):
        own = sorted((off, c[i], s, a) for off, c, s, a, o in rows if o and c[i])
        tied = [s == 1 and c > 0 and math.isclose(off / c, p, rel_tol=_TIE_REL, abs_tol=_TIE_REL)
                for off, c, s, _ in own]
        # u^m * z^{-t} * own factors, where u * Gamma(c*u) = Gamma(1 + c*u) / c
        const, coef = p * math.log(z.real), np.zeros(sum(tied) - 1)
        coef[:1] = sum(s * digamma(a) * c[i] for s, a, c in cross) - math.log(z.real)
        for (off, c, s, a), is_tied in zip(own, tied):
            a = 1.0 if is_tied else a
            const += s * math.lgamma(a) - (math.log(c) if is_tied else 0.0)
            sign *= gammasgn(a) ** n
            coef += s * _log_gamma_taylor(a, c, coef.size)
        e = _exp_taylor(coef)  # r_j / r_0
        log_abs += n * (const + math.log(abs(e[-1])))
        sign *= math.copysign(1.0, e[-1]) ** n
        # the variable's polynomial over r_{m-1}, at x = y / S with S = n * max_j |d_j|^(1/j)
        j = np.arange(1, e.size)
        d = e[-2::-1] / (e[-1] * np.cumprod(j))
        scale = n * max(np.abs(d) ** (1.0 / j), default=0.0) or 1.0
        scales.append(scale)
        series.append(_power_taylor(d / scale**j, n))
    size = math.prod(q.size for q in series)
    if size > _MAX_SERIES:
        raise ValueError(f"leading-residue series of {size} coefficients exceeds {_MAX_SERIES}")
    lattice = reduce(np.multiply.outer, series)
    for s, a, c in cross:
        v = c * scales * [q.size > 1 for q in series]
        nu = float(np.abs(v).sum())
        if nu:
            coef = s * _log_gamma_taylor(a, nu, sum(q.size - 1 for q, w in zip(series, v) if w))
            g = _exp_taylor(np.r_[0.0, coef[1:]])
            lattice = _shift_series(g, v / nu, lattice)
    total = float(lattice.flat[0])
    if not (math.isfinite(log_abs) and math.isfinite(total) and total):
        raise ValueError(f"leading-residue series leaves the double range (log {log_abs}, sum {total})")
    return float(log_abs + math.log(abs(total))), float(sign * math.copysign(1.0, total))


def dump_spec(spec: FoxHSpec, fh) -> None:
    """Write a human-readable description of a spec for diagnosis."""
    fh.write(f"variables: {spec.num_vars}\n")
    for i, (z, n, c, (lo, hi)) in enumerate(zip(spec.args, spec.counts, spec.contour_re, validate_contour(spec))):
        # + 0.0 prints a -0.0 bound as 0
        fh.write(f"var {i}: arg={z!r} count={n} anchor={c:.6g} feasible=({lo + 0.0:.6g}, {hi + 0.0:.6g})\n")
    for k, term in enumerate(spec.terms):
        side = ("num" if term.sign == 1 else "den") + (" joint" if term.joint else "")
        lin = "".join(f" {'-' if c < 0 else '+'} {abs(c):g}*t{i}" for i, c in enumerate(term.coeffs) if c != 0.0)
        fh.write(f"term {k}: {side} Gamma({term.offset:g}{lin})\n")
