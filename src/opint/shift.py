"""Spectral shift functions for hermitian pairs, by four routes.

For matrices the shift function of a pair (A, B) is the difference of
eigenvalue counting functions, xi = N_B - N_A: the unique piecewise
constant, integer valued, compactly supported function making the trace
identity tr(f(A) - f(B)) = int f' xi exact.  The other three routes -- a
regularized arctan trace, an oscillatory Fourier integral, and the
argument of a rank-one Cauchy transform -- approximate the same xi and
converge to it as their regularization parameters shrink.

Every route takes (A, B) diagonalized once, as one `doi.SpectralPair`
(from `doi.make_spectral_pair`), which the double operator integrals take
too; the rank-one route needs only B and takes B's `EigenSystem`.

The counting route and the identities checked on it take a stacked pair
through the code that takes one pair, and give each pair the bits of its
own call: `xi_counting` gives a stack of `ShiftFunction`s, each with a
breakpoint at each of its pair's 2n eigenvalues, whose `integral`, `l1`,
`support`, `integrate_derivative`, `resolvent_integral`, `is_nonnegative`
and `is_zero` give one value per function; `krein_properties`,
`trace_formula_check` and `resolvent_identity_check` give one per pair,
and `AtomicMeasure` and `admissible_f` take a stack of measures, one per
pair.  A value per pair is a float for one pair and an array for a stack
(`linalg.per_matrix`).  The regularized routes and `far_from_spectra`
take one pair and refuse a stack (`doi.SpectralPair.require_one`).

The Fourier route and the arctan representation sum over quadrature
nodes through the square-root phase split of
`quadrature.QuadratureRule.phase_factors`, whose docstring bounds the
phase error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Complex, Real

import numpy as np

from .doi import SpectralPair
from .errors import IllPosedError, InputDomainError
from .linalg import (EigenSystem, apply_function, as_finite_array, as_finite_vectors,
                     as_numeric_array, evaluate, per_matrix, scalar_abs, trace_norm)
from .quadrature import QuadratureRule, symmetric_open_rule

DEFAULT_FOURIER_QUAD = (200.0, 8000)   # half-width, node count
DEFAULT_ARCTAN_QUAD = (40.0, 32000)
DEFAULT_ETA = 1e-6


@dataclass(frozen=True)
class ShiftFunction:
    """Piecewise-constant integer function: values[k] on
    [breakpoints[k], breakpoints[k+1]), zero outside the span; or a stack of
    them, breakpoints (..., W) and values (..., W - 1).

    Breakpoints ascend, not strictly, and an interval of length 0 holds 0,
    so each functional is one sum over every interval, and a function of a
    stack gets the bits of the same function alone.  The canonical empty
    instance (no breakpoints) is the zero function.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = as_finite_vectors(self.breakpoints, "breakpoints", float)
        v = as_finite_array(self.values, "values", bp.ndim, float)
        width = bp.shape[-1]
        if width == 1 or v.shape != bp.shape[:-1] + (max(width - 1, 0),):
            raise InputDomainError("need one value per interval between breakpoints")
        lengths = np.diff(bp, axis=-1)
        if (lengths < 0).any():
            raise InputDomainError("breakpoints must ascend")
        if (v[lengths == 0] != 0).any():
            raise InputDomainError("an interval of length 0 must hold 0")
        if not np.array_equal(v, v.astype(np.int64)):
            raise InputDomainError("shift function values must be integers")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", v.astype(np.int64))

    def _span(self) -> np.ndarray:
        """(..., 2): each function's first and last breakpoint around its
        nonzero values, NaN for a zero function."""
        bp, nonzero = self.breakpoints, self.values != 0
        ends = np.stack([np.where(nonzero, bp[..., :-1], np.inf).min(axis=-1, initial=np.inf),
                         np.where(nonzero, bp[..., 1:], -np.inf).max(axis=-1, initial=-np.inf)],
                        axis=-1)
        return np.where(nonzero.any(axis=-1, keepdims=True), ends, np.nan)

    @property
    def is_zero(self):
        return per_matrix((self.values == 0).all(axis=-1))

    def __call__(self, x) -> np.ndarray:
        if self.breakpoints.ndim != 1:
            raise InputDomainError("a stack of shift functions is evaluated one function at a time")
        x = as_numeric_array(x, "x", float)
        out = np.zeros(x.shape, dtype=np.int64)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size)
        out[inside] = self.values[idx[inside]]
        return out

    def integral(self):
        return per_matrix((self.values * np.diff(self.breakpoints, axis=-1)).sum(axis=-1))

    def l1(self):
        return per_matrix((np.abs(self.values) * np.diff(self.breakpoints, axis=-1)).sum(axis=-1))

    def support(self):
        """(first, last) breakpoint, None for the zero function; for a stack,
        two arrays, NaN for its zero functions."""
        span = self._span()
        if span.ndim > 1:
            return span[..., 0], span[..., 1]
        return None if self.is_zero else (float(span[0]), float(span[1]))

    def integrate_derivative(self, f):
        """Exact integral of f' against this function: telescoped
        antiderivative differences over each constancy interval.  f is
        called once, on the breakpoints (`linalg.evaluate`)."""
        fb = evaluate(f, self.breakpoints, "breakpoint")
        return per_matrix((self.values * (fb[..., 1:] - fb[..., :-1])).sum(axis=-1))

    def resolvent_integral(self, z: complex):
        """Exact integral of xi(l) / (l - z)^2 dl for Im z != 0."""
        inv = 1.0 / (self.breakpoints - z)
        return per_matrix((self.values * (inv[..., :-1] - inv[..., 1:])).sum(axis=-1))

    @property
    def is_nonnegative(self):
        """Krein's property (c) for a pair with A >= B: xi >= 0 everywhere."""
        return per_matrix((self.values >= 0).all(axis=-1))


def xi_counting(pair: SpectralPair) -> ShiftFunction:
    """Exact shift function: xi(l) = #{eigs of B <= l} - #{eigs of A <= l},
    with a breakpoint at each of the 2n eigenvalues of A and B; for a
    stacked pair, the stack of each pair's function.

    The 2n eigenvalues are sorted together, and xi after each is the
    running count of +1 per eigenvalue of B and -1 per one of A, but 0 on
    an interval of length 0, between equal eigenvalues."""
    wa = pair.left.eigenvalues
    points = np.concatenate([wa, pair.right.eigenvalues], axis=-1)
    order = points.argsort(axis=-1, kind="stable")
    bp = np.take_along_axis(points, order, axis=-1)
    after = np.where(order < wa.shape[-1], -1, 1).cumsum(axis=-1)[..., :-1]
    return ShiftFunction(bp, np.where(np.diff(bp, axis=-1) > 0, after, 0))


@dataclass(frozen=True)
class KreinProperties:
    """Krein's properties of xi = xi_counting(A, B) that hold for every
    pair: (a) int xi = tr(A - B), (b) int |xi| <= |A - B|_1 and (d) supp xi
    lies in the joint spectral interval [min spec, max spec] of A and B.
    Property (c), xi >= 0, holds for the pairs that are `monotone`.  For a
    stacked pair each field, and each value below, is an array with one
    entry per pair."""

    MONOTONE_TOL = 1e-12  # relative rounding slack on |A - B|_1 = tr(A - B)

    trace: float          # tr(A - B)
    integral: float       # int xi
    trace_norm: float     # |A - B|_1
    l1: float             # int |xi|
    support_reach: float  # how far supp xi reaches outside the interval; -inf for xi = 0

    @property
    def trace_scale(self):
        """max(1, |tr(A - B)|): (a) is judged relative to it, so a tolerance
        tol allows |int xi - tr(A - B)| up to tol * trace_scale."""
        return per_matrix(np.maximum(1.0, np.abs(self.trace)))

    @property
    def trace_norm_scale(self):
        """max(1, |A - B|_1): (b) is judged relative to it, so a tolerance
        tol allows int |xi| to exceed |A - B|_1 by up to tol * trace_norm_scale."""
        return per_matrix(np.maximum(1.0, self.trace_norm))

    def errors(self) -> tuple:
        """(a) relative to `trace_scale`, (b) relative to `trace_norm_scale`
        and (d) as an error, each at most rounding when its property holds."""
        return (per_matrix(np.abs(self.integral - self.trace) / self.trace_scale),
                per_matrix((self.l1 - self.trace_norm) / self.trace_norm_scale),
                self.support_reach)

    @property
    def monotone(self):
        """A >= B, decided without another eigendecomposition: |A - B|_1
        exceeds tr(A - B) by twice the size of A - B's negative part."""
        return per_matrix(np.asarray(self.trace_norm - self.trace
                                     <= self.MONOTONE_TOL * np.maximum(1.0, self.trace_norm)))


def krein_properties(pair: SpectralPair, xi: ShiftFunction, difference) -> KreinProperties:
    """Properties (a), (b) and (d) of xi = xi_counting(pair), where
    `difference` is A - B for the two matrices the pair diagonalizes (or
    the stack of them)."""
    wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
    span = xi._span()
    reach = np.maximum(np.minimum(wa.min(axis=-1), wb.min(axis=-1)) - span[..., 0],
                       span[..., 1] - np.maximum(wa.max(axis=-1), wb.max(axis=-1)))
    return KreinProperties(
        trace=per_matrix(np.trace(difference, axis1=-2, axis2=-1).real), integral=xi.integral(),
        trace_norm=trace_norm(difference), l1=xi.l1(),
        support_reach=per_matrix(np.where(np.isnan(span[..., 0]), -np.inf, reach)))


@dataclass(frozen=True)
class SampledCurve:
    """A function sampled on an ascending grid."""

    abscissae: np.ndarray
    ordinates: np.ndarray

    def __post_init__(self):
        x = as_finite_array(self.abscissae, "abscissae", 1, float)
        y = as_finite_array(self.ordinates, "ordinates", 1, float)
        if x.shape != y.shape:
            raise InputDomainError("curve needs matching abscissae/ordinates")
        object.__setattr__(self, "abscissae", x)
        object.__setattr__(self, "ordinates", y)

    def to_csv(self) -> str:
        lines = ["lambda,xi"]
        lines += [f"{float(x)!r},{float(y)!r}" for x, y in zip(self.abscissae, self.ordinates)]
        return "\n".join(lines) + "\n"


def _as_grid(grid) -> np.ndarray:
    g = as_finite_array(grid, "grid", 1, float)
    if g.size == 0:
        raise InputDomainError("grid must be non-empty")
    return g


def far_from_spectra(pair: SpectralPair, grid, distance: float) -> np.ndarray:
    """Mask of the grid points at distance >= `distance` from the joint
    spectrum of A and B, where a regularized xi is compared with xi_counting."""
    pair.require_one()
    _require_positive(distance, "distance")
    g = _as_grid(grid)
    evs = np.concatenate([pair.left.eigenvalues, pair.right.eigenvalues])
    return np.abs(g[:, None] - evs).min(axis=1) >= distance


def _arctan_trace(wa: np.ndarray, wb: np.ndarray, s, eps: float):
    """(1/pi) tr[arctan((A-s)/eps) - arctan((B-s)/eps)] from the eigenvalues,
    at a scalar s or at each entry of a column s of shape (G, 1)."""
    return (np.arctan((wa - s) / eps).sum(axis=-1)
            - np.arctan((wb - s) / eps).sum(axis=-1)) / np.pi


def _require_positive(x, name: str) -> None:
    if isinstance(x, bool) or not isinstance(x, Real) or not 0 < x <= sys.float_info.max:
        raise InputDomainError(f"need finite {name} > 0, got {x}")


def xi_arctan(pair: SpectralPair, epsilon: float, grid) -> SampledCurve:
    """Regularized route: (1/pi) tr[arctan((A-s)/eps) - arctan((B-s)/eps)]."""
    pair.require_one()
    _require_positive(epsilon, "epsilon")
    g = _as_grid(grid)
    ords = _arctan_trace(pair.left.eigenvalues, pair.right.eigenvalues, g[:, None], epsilon)
    return SampledCurve(abscissae=g, ordinates=ords)


def xi_arctan_extrapolated(pair: SpectralPair, epsilon: float, grid) -> SampledCurve:
    """Two-term Richardson extrapolation of the arctan route over the
    geometric ladder (eps, eps/2); first-order in eps, so 2 xi_{e/2} - xi_e."""
    pair.require_one()
    coarse = xi_arctan(pair, epsilon, grid)
    fine = xi_arctan(pair, epsilon / 2.0, grid)
    return SampledCurve(abscissae=coarse.abscissae,
                        ordinates=2.0 * fine.ordinates - coarse.ordinates)


def xi_fourier(pair: SpectralPair, epsilon: float, grid,
               quad: QuadratureRule | None = None) -> SampledCurve:
    """Oscillatory-integral route:

        xi_eps(s) = (1/2 pi i) int e^{-i s x - eps|x|} tr(e^{i x A} - e^{i x B}) / x dx,

    summed over the M nodes x_m of `quad`, which must not place a node at
    0 (the integrand is defined there only by continuous extension): an
    odd M does, and raises `ConfigError`.  Note the kernel orientation: pairing e^{-isx} with
    tr(e^{+ixA} - e^{+ixB}) is what reproduces the counting function;
    flipping both signs reproduces -xi.

    The sum is sum_m c_m e^{-i s x_m} / (2 pi i) with node coefficients

        c_m = w_m e^{-eps |x_m|} tr(e^{i x_m A} - e^{i x_m B}) / x_m.

    The node traces are the rule's `node_sums` over each spectrum, and the
    grid sum is its `phase_sum`, so only O((G + n) M^{1/4}) exponentials
    are formed.  The coefficients are built in place on A's node sums: B's
    are subtracted, w_m e^{-eps |x_m|} is formed in one real M-vector and
    multiplied in, and the result is divided by x_m.  So at most two
    complex node-sum vectors, or one and the real M-vector, are alive at
    once (about 32 M bytes), and `phase_sum` adds one block of 64 phases
    over sqrt(M) columns: memory does not grow with G.

    With E(phi) the per-entry error bound of `phase_factors`, the
    ordinates are within
    (1/2 pi) [E(s) sum_m |c_m| + sum_lambda E(lambda) sum_m w_m / |x_m|]
    of the exact node sum, to first order in u and up to the rounding of
    the matrix products, where lambda runs over the eigenvalues of A and
    B.  The errors do not align: at n = 32, X = 4000 and M = 40,000 the
    observed difference is 3e-14 to 5e-14.
    """
    pair.require_one()
    _require_positive(epsilon, "epsilon")
    if quad is None:
        quad = symmetric_open_rule(*DEFAULT_FOURIER_QUAD)
    quad.require_zero_free()
    g = _as_grid(grid)
    x = quad.nodes
    coeff = quad.node_sums(pair.left.eigenvalues)
    coeff -= quad.node_sums(pair.right.eigenvalues)
    damping = np.abs(x)
    damping *= -epsilon
    np.exp(damping, out=damping)
    damping *= quad.weights
    coeff *= damping
    del damping
    coeff /= x
    ords = quad.phase_sum(-g, coeff) / (2j * np.pi)
    return SampledCurve(abscissae=g, ordinates=ords.real)


def rank_one_cauchy_transform(eb: EigenSystem, w, z):
    """F(z) = sum_i |<v_i, w>|^2 / (mu_i - z) over the eigenpairs of B, for
    w of shape (n,): a complex number for scalar z, else an array of z's
    shape, real for real z.  The points z are finite numbers, real or
    complex, else InputDomainError naming z; one on an eigenvalue mu_i, a
    pole of F, raises IllPosedError."""
    w = as_finite_array(w, "w", 1)
    if w.shape != eb.eigenvalues.shape:
        raise InputDomainError(f"w has shape {w.shape}, expected {eb.eigenvalues.shape}")
    weights = np.abs(eb.unitary.conj().T @ w) ** 2
    z = as_finite_array(z, "z", None, np.complex128 if np.iscomplexobj(z) else float)
    gaps = eb.eigenvalues - z[..., None]
    if not gaps.all():
        pole = z[(gaps == 0).any(axis=-1)].flat[0]
        raise IllPosedError(f"z = {pole} is an eigenvalue of B, a pole of F")
    f = np.sum(weights / gaps, axis=-1)
    return complex(f) if f.ndim == 0 else f


def xi_rank_one(eb: EigenSystem, w, alpha: float, grid,
                eta: float = DEFAULT_ETA) -> SampledCurve:
    """Boundary-argument route for A = B + alpha (., w) w, from the
    eigensystem `eb` of B:

        xi(x) ~= (1/pi) Arg(1 + alpha F(x + i eta)),  Arg in [0, 2 pi),

    so the values land in [0, 1), matching the counting function for a
    positive rank-one perturbation away from the spectra.
    """
    _require_positive(eta, "eta")
    _require_positive(alpha, "alpha")
    g = _as_grid(grid)
    f = rank_one_cauchy_transform(eb, w, g + 1j * eta)  # validates w
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-10:
        raise InputDomainError(f"w must be a unit vector, |w| = {norm!r}")
    ang = np.angle(1.0 + alpha * f)
    ang = np.where(ang < 0, ang + 2.0 * np.pi, ang)
    return SampledCurve(abscissae=g, ordinates=ang / np.pi)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive measure sum_m weights[m] delta(points[m]), points != 0;
    or a stack of them, points and weights (..., M)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = as_finite_vectors(self.points, "points", float)
        w = as_finite_vectors(self.weights, "weights", float)
        if s.shape != w.shape:
            raise InputDomainError("atomic measure needs matching points/weights")
        if (s == 0.0).any():
            raise InputDomainError("atomic measure may not charge the point 0")
        if (w <= 0.0).any():
            raise InputDomainError("atomic measure weights must be positive")
        object.__setattr__(self, "points", s)
        object.__setattr__(self, "weights", w)


def admissible_f(mu: AtomicMeasure):
    """Build f(x) = i sum_m w_m (e^{-i s_m x} - 1)/s_m and its derivative
    f'(x) = sum_m w_m e^{-i s_m x}; |f'| is bounded by the total mass.

    For a stack of measures (points (..., M)), f and f' take points x whose
    leading axes are the stack's, and x[i, ...] meets measure i."""
    stack = mu.points.shape[:-1]

    def atoms(x):
        """x, and the points and weights with one axis per axis of x."""
        x = as_numeric_array(x, "x", float)
        if x.shape[:len(stack)] != stack:
            raise InputDomainError(f"x has shape {x.shape}, expected leading axes {stack}")
        shape = stack + (1,) * (x.ndim - len(stack)) + mu.points.shape[-1:]
        return x, mu.points.reshape(shape), mu.weights.reshape(shape)

    def f(x):
        x, s, w = atoms(x)
        return 1j * np.sum(w * (np.exp(-1j * (x[..., None] * s)) - 1.0) / s, axis=-1)

    def f_prime(x):
        x, s, w = atoms(x)
        return np.sum(w * np.exp(-1j * (x[..., None] * s)), axis=-1)

    return f, f_prime


@dataclass(frozen=True)
class TraceFormulaResult:
    """The two sides of the trace formula, or of each pair of a stack."""

    lhs: complex
    rhs: complex

    @property
    def gap(self):
        return per_matrix(scalar_abs(np.asarray(self.lhs) - self.rhs))


def trace_formula_check(pair: SpectralPair, f) -> TraceFormulaResult:
    """Compare tr(f(A) - f(B)) with the exact integral of f' against the
    counting-function xi, computed from the antiderivative f itself."""
    lhs = np.trace(apply_function(pair.left, f) - apply_function(pair.right, f),
                   axis1=-2, axis2=-1)
    return TraceFormulaResult(lhs=per_matrix(lhs), rhs=xi_counting(pair).integrate_derivative(f))


def resolvent_identity_check(pair: SpectralPair, z: complex):
    """Gap in tr((A-z)^-1 - (B-z)^-1) = -int xi(l)/(l-z)^2 dl, both sides
    in closed form, for the pair or each pair of a stack.  Requires a
    finite z with Im z != 0."""
    if isinstance(z, bool) or not isinstance(z, Complex) or not (z.imag != 0 and np.isfinite(z)):
        raise InputDomainError(f"z must be finite with nonzero imaginary part, got {z}")
    z = complex(z)
    wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
    lhs = np.sum(1.0 / (wa - z), axis=-1) - np.sum(1.0 / (wb - z), axis=-1)
    rhs = -xi_counting(pair).resolvent_integral(z)
    return per_matrix(scalar_abs(lhs - rhs))


def arctan_rep_value(t, quad: QuadratureRule | None = None):
    """Quadrature of (1/2i) int (e^{i s t} - 1)/s e^{-|s|} ds, which
    reproduces arctan(t): a float for scalar t, else an array of t's shape.

    On the nodes s_m this is (1/2i) (sum_m c_m e^{i s_m t} - sum_m c_m) with
    real c_m = w_m e^{-|s_m|} / s_m; the second sum is real and drops out of
    the real part, which is Im(sum_m c_m e^{i s_m t}) / 2.  The c_m are
    formed once per call and the sums for every t are one
    `QuadratureRule.phase_sum`, within the error bound that
    `QuadratureRule.phase_factors` gives.  A node at 0, which a rule has
    just when its node count is odd, raises `ConfigError`.
    """
    if quad is None:
        quad = symmetric_open_rule(*DEFAULT_ARCTAN_QUAD)
    quad.require_zero_free()
    s = quad.nodes
    t = as_numeric_array(t, "t", float)
    values = quad.phase_sum(t, quad.weights * np.exp(-np.abs(s)) / s).imag.reshape(t.shape) / 2.0
    return float(values) if values.ndim == 0 else values


def arctan_rep_check(t, quad: QuadratureRule | None = None):
    error = np.abs(arctan_rep_value(t, quad) - np.arctan(t))
    return float(error) if error.ndim == 0 else error
