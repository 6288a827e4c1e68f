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

The Fourier route needs quadrature nodes in arithmetic progression,
x_m = x0 + h m, and refuses others with `ConfigError`.  It splits each
node index as m = B j + r with B = ceil(sqrt(M)), so every e^{i phi x_m}
is a product of two factors from tables of about sqrt(M) columns, and
its sums over the M nodes are matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .doi import SpectralPair
from .errors import InputDomainError
from .linalg import EigenSystem, apply_function
from .quadrature import QuadratureRule, symmetric_open_rule

DEFAULT_FOURIER_QUAD = (200.0, 8000)   # half-width, node count
DEFAULT_ARCTAN_QUAD = (40.0, 32000)
DEFAULT_EPSILON = 1e-2
DEFAULT_ETA = 1e-6


@dataclass(frozen=True)
class ShiftFunction:
    """Piecewise-constant integer function: values[k] on
    [breakpoints[k], breakpoints[k+1]), zero outside the span.

    The canonical empty instance (no breakpoints) is the zero function.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values)
        if bp.size == 0:
            v = v.astype(np.int64) if v.size == 0 else v
            if v.size != 0:
                raise InputDomainError("empty breakpoints require empty values")
        else:
            if bp.size < 2 or v.size != bp.size - 1:
                raise InputDomainError("need one value per interval between breakpoints")
            if not np.isfinite(bp).all():
                raise InputDomainError("breakpoints must be finite")
            if (np.diff(bp) <= 0).any():
                raise InputDomainError("breakpoints must be strictly ascending")
            if not np.array_equal(v, v.astype(np.int64)):
                raise InputDomainError("shift function values must be integers")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", v.astype(np.int64))

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=np.int64)
        if self.is_zero:
            return out
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size)
        out[inside] = self.values[idx[inside]]
        return out

    def _lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints) if not self.is_zero else np.zeros(0)

    def integral(self) -> float:
        return float(np.sum(self.values * self._lengths()))

    def l1(self) -> float:
        return float(np.sum(np.abs(self.values) * self._lengths()))

    def support(self):
        if self.is_zero:
            return None
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def integrate_derivative(self, f) -> complex:
        """Exact integral of f' against this function: telescoped
        antiderivative differences over each constancy interval."""
        if self.is_zero:
            return 0.0 + 0.0j
        fb = np.asarray(f(self.breakpoints), dtype=np.complex128)
        return complex(np.sum(self.values * (fb[1:] - fb[:-1])))

    def resolvent_integral(self, z: complex) -> complex:
        """Exact integral of xi(l) / (l - z)^2 dl for Im z != 0."""
        if self.is_zero:
            return 0.0 + 0.0j
        inv = 1.0 / (self.breakpoints - z)
        return complex(np.sum(self.values * (inv[:-1] - inv[1:])))

    def l1_distance(self, other: "ShiftFunction") -> float:
        grid = np.unique(np.concatenate([self.breakpoints, other.breakpoints]))
        if grid.size < 2:
            return 0.0
        mids = (grid[:-1] + grid[1:]) / 2.0
        diff = self(mids) - other(mids)
        return float(np.sum(np.abs(diff) * np.diff(grid)))


def xi_counting(pair: SpectralPair) -> ShiftFunction:
    """Exact shift function: xi(l) = #{eigs of B <= l} - #{eigs of A <= l},
    kept at the points where it changes value (none for the zero function)."""
    wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
    bp = np.unique(np.concatenate([wa, wb]))
    counts = (np.searchsorted(wb, bp[:-1], side="right")
              - np.searchsorted(wa, bp[:-1], side="right"))
    padded = np.concatenate([[0], counts, [0]])  # xi = 0 outside the spectra
    change = np.flatnonzero(np.diff(padded))
    return ShiftFunction(bp[change], padded[change[:-1] + 1])


@dataclass(frozen=True)
class SampledCurve:
    """A function sampled on an ascending grid."""

    abscissae: np.ndarray
    ordinates: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.abscissae, dtype=float)
        y = np.asarray(self.ordinates, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise InputDomainError("curve needs matching 1-D abscissae/ordinates")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InputDomainError("curve entries must be finite")
        object.__setattr__(self, "abscissae", x)
        object.__setattr__(self, "ordinates", y)

    def to_csv(self) -> str:
        lines = ["lambda,xi"]
        lines += [f"{float(x)!r},{float(y)!r}" for x, y in zip(self.abscissae, self.ordinates)]
        return "\n".join(lines) + "\n"


def _as_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0 or not np.isfinite(g).all():
        raise InputDomainError("grid must be a non-empty finite 1-D array")
    return g


def harmonic_h(pair: SpectralPair, x: float, y: float) -> float:
    """Harmonic extension h(x, y) = (1/pi) tr[arctan((A-x)/y) - arctan((B-x)/y)]."""
    if y <= 0:
        raise InputDomainError(f"need y > 0, got {y}")
    return float(_arctan_trace(pair.left.eigenvalues, pair.right.eigenvalues, float(x), float(y)))


def _arctan_trace(wa: np.ndarray, wb: np.ndarray, s, eps: float):
    """(1/pi) tr[arctan((A-s)/eps) - arctan((B-s)/eps)] from the eigenvalues,
    at a scalar s or at each entry of a column s of shape (G, 1)."""
    return (np.arctan((wa - s) / eps).sum(axis=-1)
            - np.arctan((wb - s) / eps).sum(axis=-1)) / np.pi


def xi_arctan(pair: SpectralPair, epsilon: float, grid) -> SampledCurve:
    """Regularized route: (1/pi) tr[arctan((A-s)/eps) - arctan((B-s)/eps)]."""
    if epsilon <= 0:
        raise InputDomainError(f"need epsilon > 0, got {epsilon}")
    g = _as_grid(grid)
    ords = _arctan_trace(pair.left.eigenvalues, pair.right.eigenvalues, g[:, None], epsilon)
    return SampledCurve(abscissae=g, ordinates=ords)


def xi_arctan_extrapolated(pair: SpectralPair, epsilon: float, grid) -> SampledCurve:
    """Two-term Richardson extrapolation of the arctan route over the
    geometric ladder (eps, eps/2); first-order in eps, so 2 xi_{e/2} - xi_e."""
    coarse = xi_arctan(pair, epsilon, grid)
    fine = xi_arctan(pair, epsilon / 2.0, grid)
    return SampledCurve(abscissae=coarse.abscissae,
                        ordinates=2.0 * fine.ordinates - coarse.ordinates)


def xi_fourier_integrand(pair: SpectralPair, s: float, epsilon: float, x) -> np.ndarray:
    """Integrand e^{-isx - eps|x|} tr(e^{ixA} - e^{ixB}) / x of the Fourier
    route at frequencies x (continuous at 0, where it takes the value
    i tr(A - B))."""
    wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tr_diff = (np.exp(1j * np.outer(x, wa)).sum(axis=1)
               - np.exp(1j * np.outer(x, wb)).sum(axis=1))
    core = np.empty_like(tr_diff)
    nz = x != 0.0
    core[nz] = tr_diff[nz] / x[nz]
    core[~nz] = 1j * (wa.sum() - wb.sum())
    return np.exp(-1j * s * x - epsilon * np.abs(x)) * core


def _phase_split(phi: np.ndarray, x0: float, h: float, rows: int, cols: int):
    """Factor tables of e^{i phi x_m} on the nodes x_m = x0 + h m, m = cols j + r:
    e^{i phi x_m} = P[:, j] Q[:, r] with P = e^{i phi (x0 + h cols j)} and
    Q = e^{i phi h r}, of shapes (len(phi), rows) and (len(phi), cols)."""
    p = np.exp(1j * np.outer(phi, x0 + h * cols * np.arange(rows)))
    q = np.exp(1j * np.outer(phi, h * np.arange(cols)))
    return p, q


def xi_fourier(pair: SpectralPair, epsilon: float, grid,
               quad: QuadratureRule | None = None) -> SampledCurve:
    """Oscillatory-integral route:

        xi_eps(s) = (1/2 pi i) int e^{-i s x - eps|x|} tr(e^{i x A} - e^{i x B}) / x dx,

    summed over the M nodes of `quad`, which must be an arithmetic
    progression x_m = x0 + h m (as both rules of `quadrature` are) and must
    not place a node at 0 (the integrand is defined there only by
    continuous extension); either fault raises `ConfigError`.  Note the
    kernel orientation: pairing e^{-isx} with tr(e^{+ixA} - e^{+ixB}) is
    what reproduces the counting function; flipping both signs
    reproduces -xi.

    Square-root phase split: with B = ceil(sqrt(M)) and m = B j + r,
    e^{i phi x_m} = e^{i phi (x0 + h B j)} e^{i phi h r}.  The node traces
    are then one (J x n)(n x B) product per operand and the grid sum one
    (J x B)(B x G) product, and only O((G + n) sqrt(M)) exponentials are
    formed.  With u the unit roundoff and X = max|x_m|, each exponential
    has a phase error of at most about 4u|phi|X, phi a grid point or an
    eigenvalue (2u from rounding, and for the rules of `quadrature` 2u
    from the nodes' distance to the progression), so the ordinates are within
    (4uX / 2 pi) [|s| sum_m |c_m| + (sum|eig A| + sum|eig B|) sum_m w_m / |x_m|]
    of the exact node sum, where c_m = w_m xi_fourier_integrand(pair, 0,
    eps, x_m).  The errors do not align: at n = 32, X = 4000 and
    M = 40,000 the observed difference is 3e-14 to 5e-14.
    """
    if epsilon <= 0:
        raise InputDomainError(f"need epsilon > 0, got {epsilon}")
    if quad is None:
        quad = symmetric_open_rule(*DEFAULT_FOURIER_QUAD)
    quad.require_zero_free()
    x0, h = quad.require_uniform()
    g = _as_grid(grid)
    x = quad.nodes
    cols = math.isqrt(x.size - 1) + 1  # B = ceil(sqrt(M))
    rows = -(-x.size // cols)          # J = ceil(M / B); coeff is zero-padded to J B
    pa, qa = _phase_split(pair.left.eigenvalues, x0, h, rows, cols)
    pb, qb = _phase_split(pair.right.eigenvalues, x0, h, rows, cols)
    tr_diff = (pa.T @ qa - pb.T @ qb).ravel()[:x.size]
    coeff = np.zeros(rows * cols, dtype=np.complex128)
    coeff[:x.size] = quad.weights * np.exp(-epsilon * np.abs(x)) * tr_diff / x
    pg, qg = _phase_split(-g, x0, h, rows, cols)
    partial = coeff.reshape(rows, cols) @ qg.T
    ords = np.einsum("kj,jk->k", pg, partial) / (2j * np.pi)
    return SampledCurve(abscissae=g, ordinates=ords.real)


def rank_one_cauchy_transform(eb: EigenSystem, w, z):
    """F(z) = sum_i |<v_i, w>|^2 / (mu_i - z) over the eigenpairs of B:
    a complex number for scalar z, an array of the shape of z otherwise."""
    w = np.asarray(w, dtype=np.complex128)
    weights = np.abs(eb.unitary.conj().T @ w) ** 2
    z = np.asarray(z)
    f = np.sum(weights / (eb.eigenvalues - z[..., None]), axis=-1)
    return complex(f) if f.ndim == 0 else f


def xi_rank_one(eb: EigenSystem, w, alpha: float, grid,
                eta: float = DEFAULT_ETA) -> SampledCurve:
    """Boundary-argument route for A = B + alpha (., w) w, from the
    eigensystem `eb` of B:

        xi(x) ~= (1/pi) Arg(1 + alpha F(x + i eta)),  Arg in [0, 2 pi),

    so the values land in [0, 1), matching the counting function for a
    positive rank-one perturbation away from the spectra.
    """
    if eta <= 0:
        raise InputDomainError(f"need eta > 0, got {eta}")
    if alpha <= 0:
        raise InputDomainError(f"need alpha > 0, got {alpha}")
    w = np.asarray(w, dtype=np.complex128)
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-10:
        raise InputDomainError(f"w must be a unit vector, |w| = {norm!r}")
    g = _as_grid(grid)
    ang = np.angle(1.0 + alpha * rank_one_cauchy_transform(eb, w, g + 1j * eta))
    ang = np.where(ang < 0, ang + 2.0 * np.pi, ang)
    return SampledCurve(abscissae=g, ordinates=ang / np.pi)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive measure sum_m weights[m] delta(points[m]), points != 0."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.ndim != 1 or s.shape != w.shape:
            raise InputDomainError("atomic measure needs matching 1-D points/weights")
        if not (np.isfinite(s).all() and np.isfinite(w).all()):
            raise InputDomainError("atomic measure entries must be finite")
        if (s == 0.0).any():
            raise InputDomainError("atomic measure may not charge the point 0")
        if (w <= 0.0).any():
            raise InputDomainError("atomic measure weights must be positive")
        object.__setattr__(self, "points", s)
        object.__setattr__(self, "weights", w)

    def total(self) -> float:
        return float(self.weights.sum())


def admissible_f(mu: AtomicMeasure):
    """Build f(x) = i sum_m w_m (e^{-i s_m x} - 1)/s_m and its derivative
    f'(x) = sum_m w_m e^{-i s_m x}; |f'| is bounded by the total mass."""
    s = mu.points
    w = mu.weights

    def f(x):
        x = np.asarray(x, dtype=float)
        phase = np.exp(-1j * np.multiply.outer(x, s))
        return 1j * np.sum(w * (phase - 1.0) / s, axis=-1)

    def f_prime(x):
        x = np.asarray(x, dtype=float)
        phase = np.exp(-1j * np.multiply.outer(x, s))
        return np.sum(w * phase, axis=-1)

    return f, f_prime


@dataclass(frozen=True)
class TraceFormulaResult:
    lhs: complex
    rhs: complex

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def trace_formula_check(pair: SpectralPair, f) -> TraceFormulaResult:
    """Compare tr(f(A) - f(B)) with the exact integral of f' against the
    counting-function xi, computed from the antiderivative f itself."""
    lhs = complex(np.trace(apply_function(pair.left, f) - apply_function(pair.right, f)))
    return TraceFormulaResult(lhs=lhs, rhs=xi_counting(pair).integrate_derivative(f))


def resolvent_identity_check(pair: SpectralPair, z: complex) -> float:
    """Gap in tr((A-z)^-1 - (B-z)^-1) = -int xi(l)/(l-z)^2 dl, both sides
    in closed form.  Requires Im z != 0."""
    z = complex(z)
    if z.imag == 0.0:
        raise InputDomainError("z must have nonzero imaginary part")
    wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
    lhs = np.sum(1.0 / (wa - z)) - np.sum(1.0 / (wb - z))
    rhs = -xi_counting(pair).resolvent_integral(z)
    return float(abs(lhs - rhs))


def arctan_rep_value(t: float, quad: QuadratureRule | None = None) -> float:
    """Quadrature of (1/2i) int (e^{i s t} - 1)/s e^{-|s|} ds, which
    reproduces arctan(t)."""
    if quad is None:
        quad = symmetric_open_rule(*DEFAULT_ARCTAN_QUAD)
    quad.require_zero_free()
    s = quad.nodes
    g = (np.exp(1j * s * float(t)) - 1.0) / s * np.exp(-np.abs(s))
    return float((np.sum(quad.weights * g) / 2j).real)


def arctan_rep_check(t: float, quad: QuadratureRule | None = None) -> float:
    return abs(arctan_rep_value(t, quad) - float(np.arctan(t)))
