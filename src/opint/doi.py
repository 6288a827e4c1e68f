"""Double operator integrals as Schur multipliers in joint eigenbases.

For hermitian A, B with eigensystems (w_A, U) and (w_B, V), the integral
of a two-variable symbol phi against the product of their spectral
measures acts on a matrix T as

    U (Phi .* (U* T V)) V*,        Phi[i, j] = phi(w_A[i], w_B[j]),

i.e. entrywise multiplication in the rotated coordinates.  A symbol
(`SymbolGrid`) is the matrix Phi alone: it carries no copy of the
eigenvalues, which live only in the pair's two `EigenSystem`s.  This module
holds that transformer together with the routes that feed it: divided
difference symbols, the Fourier-kernel route through a time integral,
finite decompositions phi = sum_t w_t a_t(x) b_t(y), triangular
truncation, and sampled transformer norms on Schatten classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError
from .linalg import (EigenSystem, apply_function, as_complex_matrix, as_finite_array,
                     eig_hermitians, evaluate, schatten_norm)
from .quadrature import QuadratureRule, trapezoid_rule
from .rng import random_complex, random_hermitian, substream

DEFAULT_FOURIER_QUAD = (40.0, 4000)  # half-width, node count
PELLER_SLACK = 1e-10  # relative rounding slack on the Peller bound


@dataclass(frozen=True)
class SpectralPair:
    """Eigensystems of two hermitian matrices of equal dimension."""

    left: EigenSystem
    right: EigenSystem

    def __post_init__(self):
        if self.left.dim != self.right.dim:
            raise InputDomainError(
                f"spectral pair dimension mismatch: {self.left.dim} vs {self.right.dim}")

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def spectral_scale(self) -> float:
        return float(max(np.abs(self.left.eigenvalues).max(),
                         np.abs(self.right.eigenvalues).max()))


def make_spectral_pair(a, b) -> SpectralPair:
    """The eigensystems of A and B from one `eig_hermitians` call: A and B
    of one shape are validated and diagonalized as one stack, and a bad
    operand is named as `as_hermitian` names a bad matrix of a stack."""
    left, right = eig_hermitians([a, b], ["A", "B"])
    return SpectralPair(left=left, right=right)


@dataclass(frozen=True)
class SymbolGrid:
    """Values of a symbol on the product of a pair's two spectra.

    Row i belongs to the i-th eigenvalue of the left operand and column j
    to the j-th of the right one; the eigenvalues themselves live only in
    the pair's `EigenSystem`s.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_complex_matrix(self.values, "values"))

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def symbol_from_function(pair: SpectralPair, phi) -> SymbolGrid:
    """Sample a closed-form symbol phi(lambda, mu) on the spectra."""
    lam = pair.left.eigenvalues
    mu = pair.right.eigenvalues
    return SymbolGrid(values=phi(lam[:, None], mu[None, :]))


def divided_difference_symbol(pair: SpectralPair, f, f_prime) -> SymbolGrid:
    """Difference-quotient symbol (f(l) - f(m))/(l - m), with f' on the
    near-diagonal |l - m| <= 1e-9 * spectral scale to avoid cancellation."""
    lam = pair.left.eigenvalues[:, None]
    mu = pair.right.eigenvalues[None, :]
    gap = lam - mu
    near = np.abs(gap) <= 1e-9 * pair.spectral_scale
    safe_gap = np.where(near, 1.0, gap)
    fl = np.asarray(f(pair.left.eigenvalues), dtype=np.complex128)
    fm = np.asarray(f(pair.right.eigenvalues), dtype=np.complex128)
    quotient = (fl[:, None] - fm[None, :]) / safe_gap
    diag = np.asarray(f_prime((lam + mu) / 2.0), dtype=np.complex128)
    values = np.where(near, diag, quotient)
    if not np.isfinite(values).all():
        raise InputDomainError("divided difference not finite on the spectra")
    return SymbolGrid(values=values)


def _check_grid(pair: SpectralPair, sym: SymbolGrid):
    if sym.values.shape != (pair.dim, pair.dim):
        raise InputDomainError(
            f"symbol grid {sym.values.shape} does not match pair dimension {pair.dim}")


def doi_apply(pair: SpectralPair, sym: SymbolGrid, t) -> np.ndarray:
    """Apply the double operator integral of `sym` to T."""
    _check_grid(pair, sym)
    tm = as_complex_matrix(t, "T")
    if tm.shape != (pair.dim, pair.dim):
        raise InputDomainError(f"T has shape {tm.shape}, expected {(pair.dim, pair.dim)}")
    u = pair.left.unitary
    v = pair.right.unitary
    return u @ (sym.values * (u.conj().T @ tm @ v)) @ v.conj().T


def hs_multiplier_norm(pair: SpectralPair, sym: SymbolGrid) -> float:
    """Exact C2 -> C2 transformer norm: the sup of |phi| on the grid."""
    _check_grid(pair, sym)
    return sym.sup_norm()


def doi_fourier(pair: SpectralPair, f, t, quad: QuadratureRule | None = None) -> np.ndarray:
    """Time-integral route: sum_m w_m e^{-i t_m A} T e^{i t_m B} f(t_m).

    In the joint eigenbases this sum is the Schur multiplier with symbol
    sum_m w_m f(t_m) e^{-i t_m (lambda - mu)}, built here as one product
    L (w f) R* of two (dim x nodes) tables L = e^{-i lambda t_m} and
    R = e^{-i mu t_m}.  `QuadratureRule.phase_table` builds them as
    products of the square-root phase factors, whose error bound
    `QuadratureRule.phase_factors` gives.  For integrable f the sum
    approximates the integral whose symbol is the Fourier transform
    fhat(lambda - mu), fhat(x) = int e^{-i x s} f(s) ds; it must agree
    with `doi_apply` on that symbol to quadrature tolerance.  f is called
    once, on the array of nodes; `doi_apply` validates T.
    """
    if quad is None:
        quad = trapezoid_rule(*DEFAULT_FOURIER_QUAD)
    samples = evaluate(f, quad.nodes, "quadrature node")
    left = quad.phase_table(-pair.left.eigenvalues)
    left *= quad.weights * samples
    values = left @ quad.phase_table(pair.right.eigenvalues).T  # the table of +mu is conj(R)
    return doi_apply(pair, SymbolGrid(values=values), t)


@dataclass(frozen=True)
class Decomposition:
    """Finite family phi(l, m) = sum_t weights[t] alphas[t](l) betas[t](m)."""

    alphas: np.ndarray  # (terms, n_left)
    betas: np.ndarray   # (terms, n_right)
    weights: np.ndarray  # (terms,) non-negative

    def __post_init__(self):
        a = as_finite_array(self.alphas, "alphas", 2)
        b = as_finite_array(self.betas, "betas", 2)
        w = as_finite_array(self.weights, "weights", 1, float)
        if a.shape[0] != w.size or b.shape[0] != w.size or w.size == 0:
            raise InputDomainError("decomposition term counts disagree or are empty")
        if (w < 0).any():
            raise InputDomainError("decomposition weights must be non-negative")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "weights", w)


def peller_bound(d: Decomposition) -> float:
    """Trace-class transformer bound sum_t w_t |a_t|_inf |b_t|_inf; a
    sampled C1 norm passes against it up to bound * (1 + PELLER_SLACK)."""
    return float(np.sum(d.weights
                        * np.abs(d.alphas).max(axis=1)
                        * np.abs(d.betas).max(axis=1)))


def symbol_from_decomposition(pair: SpectralPair, d: Decomposition) -> SymbolGrid:
    if d.alphas.shape[1] != pair.dim or d.betas.shape[1] != pair.dim:
        raise InputDomainError(
            f"decomposition vectors sized ({d.alphas.shape[1]}, {d.betas.shape[1]}), "
            f"pair dimension is {pair.dim}")
    values = np.einsum("t,ti,tj->ij", d.weights.astype(np.complex128), d.alphas, d.betas)
    return SymbolGrid(values=values)


def triangular_truncation_symbol(pair: SpectralPair) -> SymbolGrid:
    return symbol_from_function(pair, lambda lam, mu: (lam > mu) * 1.0)  # strict: ties map to 0


def triangular_truncation(pair: SpectralPair, t) -> np.ndarray:
    """Integral of the indicator {lambda > mu}: the abstract 'take the
    strictly lower triangle' transformer in the joint eigenbases."""
    return doi_apply(pair, triangular_truncation_symbol(pair), t)


def sampled_transformer_norm(pair: SpectralPair, sym: SymbolGrid, p, trials: int,
                             seed: int, tag: str = "transformer-norm") -> float:
    """Sampled lower bound of the C_p -> C_p norm of the multiplier.

    Exact C_p transformer norms are not computable for p != 2; this is a
    best-of-N random search over the unit ball of C_p, so the value it
    returns is a certified lower bound only.
    """
    _check_grid(pair, sym)
    best = 0.0
    n = pair.dim
    for trial in range(trials):
        rng = substream(seed, tag, trial)
        t = random_complex(rng, (n, n))
        best = max(best, schatten_norm(doi_apply(pair, sym, t), p) / schatten_norm(t, p))
    return best


@dataclass
class ExperimentReport:
    """Seeded-experiment record; the doi report stores it as `dataclasses.asdict`."""

    op: str
    params: dict
    seed: int
    trials: int
    max_ratio: float
    per_trial: list = field(default_factory=list)
    skipped: int = 0


def lipschitz_ratio_experiment(f, lip_const: float, p: float, trials: int, seed: int,
                               dim: int = 8, f_name: str = "f") -> ExperimentReport:
    """Max observed |f(A)-f(B)|_p / |A-B|_p over seeded hermitian pairs.

    For p = 2 the ratio is provably <= lip_const; for other p the theory
    guarantees a finite constant without giving its value, so the report
    only records what was seen.  Trials with A = B carry no ratio and are
    skipped (counted in `skipped`).
    """
    if not 1 < p < np.inf:
        raise InputDomainError(f"p must lie in the open interval (1, inf), got {p}")
    if trials < 1:
        raise InputDomainError("need at least one trial")
    ratios = []
    skipped = 0
    for trial in range(trials):
        rng = substream(seed, "lipschitz", trial)
        a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
        diff_norm = schatten_norm(a - b, p)
        if diff_norm == 0.0:
            skipped += 1
            continue
        pair = make_spectral_pair(a, b)
        num = schatten_norm(apply_function(pair.left, f) - apply_function(pair.right, f), p)
        ratios.append(float(num / diff_norm))
    return ExperimentReport(
        op="lipschitz_ratio", params={"f": f_name, "lip_const": lip_const, "p": p, "dim": dim},
        seed=seed, trials=trials, max_ratio=max(ratios) if ratios else 0.0,
        per_trial=ratios, skipped=skipped)
