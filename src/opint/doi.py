"""Double operator integrals as Schur multipliers in joint eigenbases.

For hermitian A, B with eigensystems (w_A, U) and (w_B, V), the integral
of a two-variable symbol phi against the product of their spectral
measures acts on a matrix T as

    U (Phi .* (U* T V)) V*,        Phi[i, j] = phi(w_A[i], w_B[j]),

i.e. entrywise multiplication in the rotated coordinates.  A symbol
(`SymbolGrid`) is the matrix Phi alone: it carries no copy of the
eigenvalues, which live only in the pair's two `EigenSystem`s.  This module
holds that transformer together with the routes that feed it: divided
difference symbols, the Fourier-kernel route through a time integral
(one `QuadratureRule.phase_sum` per pair, no (n x M) table), finite
decompositions phi = sum_t w_t a_t(x) b_t(y), triangular truncation, and
sampled transformer norms on Schatten classes.

A `SpectralPair` of two stacked eigensystems holds k pairs, and the
symbols and transformers of this module then hold k matrices: `SymbolGrid`,
`symbol_from_function`, `divided_difference_symbol`,
`symbol_from_decomposition` (of a stacked `Decomposition`),
`hs_multiplier_norm`, `doi_apply` and `doi_fourier` take it through the
code that takes one pair, and give each pair the bits of its own call.
`sampled_transformer_norm` takes one pair and stacks its trials' T the
same way, and `lipschitz_ratio_experiment` its trials' pairs; both take
their trials a block of `rng.trial_blocks`, the suite's block rule, at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import InputDomainError
from .linalg import (EigenSystem, adjoint, apply_function, as_complex_matrices, as_finite_array,
                     as_hermitian, as_numeric_array, eig_hermitians, evaluate, per_matrix,
                     require_size, schatten_norm)
from .quadrature import QuadratureRule, trapezoid_rule
from .rng import complex_stacks, hermitian_stacks, substreams, trial_blocks

DEFAULT_FOURIER_QUAD = (40.0, 4000)  # half-width, node count
PELLER_SLACK = 1e-10  # relative rounding slack on the Peller bound


@dataclass(frozen=True)
class SpectralPair:
    """Eigensystems of two hermitian matrices of equal dimension, or of two
    stacks of them of equal shape (pair k is left[k] and right[k])."""

    left: EigenSystem
    right: EigenSystem

    def __post_init__(self):
        if self.left.eigenvalues.shape != self.right.eigenvalues.shape:
            raise InputDomainError(f"spectral pair dimension mismatch: "
                                   f"{self.left.eigenvalues.shape} vs {self.right.eigenvalues.shape}")

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def shape(self) -> tuple:
        """The shape (..., n, n) of the pair's operators, and of its symbols."""
        return self.left.unitary.shape

    @property
    def spectral_scale(self):
        return per_matrix(np.maximum(np.abs(self.left.eigenvalues).max(axis=-1),
                                     np.abs(self.right.eigenvalues).max(axis=-1)))

    def require_one(self) -> None:
        """Refuse a stacked pair, for the routes that take one pair."""
        if self.left.eigenvalues.ndim != 1:
            raise InputDomainError(f"need one spectral pair, got a stack of shape {self.shape}")


def make_spectral_pair(a, b) -> SpectralPair:
    """The eigensystems of A and B of one shape, validated and diagonalized
    as one stack by `eig_hermitians`, which names a bad operand as it names
    a bad matrix of a stack.  A and B of two shapes are refused: a bad one
    with the error `eig_hermitian` gives it alone (A's first), else with the
    dimension mismatch."""
    a, b = as_numeric_array(a, "A"), as_numeric_array(b, "B")
    if a.shape != b.shape:
        for m, name in ((a, "A"), (b, "B")):
            as_hermitian(m[None], [name])  # a stack of one, as eig_hermitian validates it
        raise InputDomainError(f"spectral pair dimension mismatch: {a.shape[:1]} vs {b.shape[:1]}")
    e = eig_hermitians(np.stack([a, b]), ["A", "B"])
    return SpectralPair(*(EigenSystem(w, u) for w, u in zip(e.eigenvalues, e.unitary)))


@dataclass(frozen=True)
class SymbolGrid:
    """Values of a symbol on the product of a pair's two spectra (of each
    pair of a stack: values (..., n, n)).

    Row i belongs to the i-th eigenvalue of the left operand and column j
    to the j-th of the right one; the eigenvalues themselves live only in
    the pair's `EigenSystem`s.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_complex_matrices(self.values, "values"))

    def sup_norm(self):
        return per_matrix(np.abs(self.values).max(axis=(-2, -1)))


def symbol_from_function(pair: SpectralPair, phi) -> SymbolGrid:
    """Sample a closed-form symbol phi(lambda, mu) on the spectra."""
    lam = pair.left.eigenvalues
    mu = pair.right.eigenvalues
    return SymbolGrid(values=phi(lam[..., :, None], mu[..., None, :]))


def divided_difference_symbol(pair: SpectralPair, f, f_prime) -> SymbolGrid:
    """Difference-quotient symbol (f(l) - f(m))/(l - m), with f' on the
    near-diagonal |l - m| <= 1e-9 * spectral scale to avoid cancellation."""
    lam = pair.left.eigenvalues[..., :, None]
    mu = pair.right.eigenvalues[..., None, :]
    gap = lam - mu
    near = np.abs(gap) <= 1e-9 * np.asarray(pair.spectral_scale)[..., None, None]
    safe_gap = np.where(near, 1.0, gap)
    fl = evaluate(f, pair.left.eigenvalues, "eigenvalue")
    fm = evaluate(f, pair.right.eigenvalues, "eigenvalue")
    with np.errstate(over="ignore", invalid="ignore"):
        quotient = (fl[..., :, None] - fm[..., None, :]) / safe_gap
    values = np.where(near, evaluate(f_prime, (lam + mu) / 2.0, "midpoint"), quotient)
    if not np.isfinite(values).all():
        raise InputDomainError("divided difference not finite on the spectra")
    return SymbolGrid(values=values)


def _check_grid(pair: SpectralPair, sym: SymbolGrid):
    if sym.values.shape != pair.shape:
        raise InputDomainError(
            f"symbol grid {sym.values.shape} does not match pair dimension {pair.shape}")


def doi_apply(pair: SpectralPair, sym: SymbolGrid, t) -> np.ndarray:
    """Apply the double operator integral of `sym` to T: U (Phi .* (U* T V)) V*
    for each pair of a stack.  T is (..., n, n), its leading axes
    broadcast against the pair's (numpy's rules), and each matrix product
    is the one of a pair and a matrix alone."""
    _check_grid(pair, sym)
    tm = as_complex_matrices(t, "T")
    if tm.shape[-2:] != pair.shape[-2:] or not all(
            i == j or 1 in (i, j) for i, j in zip(tm.shape[::-1], pair.shape[::-1])):
        raise InputDomainError(f"T has shape {tm.shape}, expected {pair.shape}")
    u = pair.left.unitary
    v = pair.right.unitary
    return u @ (sym.values * (adjoint(u) @ tm @ v)) @ adjoint(v)


def hs_multiplier_norm(pair: SpectralPair, sym: SymbolGrid):
    """Exact C2 -> C2 transformer norm: the sup of |phi| on the grid."""
    _check_grid(pair, sym)
    return sym.sup_norm()


def doi_fourier(pair: SpectralPair, f, t, quad: QuadratureRule | None = None) -> np.ndarray:
    """Time-integral route: sum_m w_m e^{-i t_m A} T e^{i t_m B} f(t_m).

    In the joint eigenbases this sum is the Schur multiplier with symbol
    sum_m w_m f(t_m) e^{-i t_m (lambda - mu)}, built here as one
    `QuadratureRule.phase_sum` over the dim^2 phases mu_j - lambda_i, which
    holds one 64-phase block and no (dim x nodes) table, within the bound that
    `QuadratureRule.phase_factors` gives.  For integrable f the sum
    approximates the integral whose symbol is the Fourier transform
    fhat(lambda - mu), fhat(x) = int e^{-i x s} f(s) ds; it must agree
    with `doi_apply` on that symbol to quadrature tolerance.  f is called
    once, on the array of nodes; `doi_apply` validates T.

    For a stacked pair the symbols are built one pair at a time, so each
    has the bits of its one-pair call, and the transformer is
    one `doi_apply` on the stack.
    """
    if quad is None:
        quad = trapezoid_rule(*DEFAULT_FOURIER_QUAD)
    coeff = quad.weights * evaluate(f, quad.nodes, "quadrature node")
    lam, mu = pair.left.eigenvalues, pair.right.eigenvalues
    values = [quad.phase_sum(mu[k] - lam[k][:, None], coeff) for k in np.ndindex(lam.shape[:-1])]
    return doi_apply(pair, SymbolGrid(values=np.reshape(values, pair.shape)), t)


@dataclass(frozen=True)
class Decomposition:
    """Finite family phi(l, m) = sum_t weights[t] alphas[t](l) betas[t](m),
    or a stack of them: alphas (..., terms, n_left), betas (..., terms,
    n_right) and weights (..., terms).  Members of a stack with fewer terms
    fill the rest with terms of weight 0, which change no consumer's bits."""

    alphas: np.ndarray  # (terms, n_left)
    betas: np.ndarray   # (terms, n_right)
    weights: np.ndarray  # (terms,) non-negative

    def __post_init__(self):
        a = as_finite_array(self.alphas, "alphas", None)
        if a.ndim < 2:
            raise InputDomainError(f"alphas has shape {a.shape}, expected a 2-D array")
        b = as_finite_array(self.betas, "betas", a.ndim)
        w = as_finite_array(self.weights, "weights", a.ndim - 1, float)
        if a.shape[:-1] != w.shape or b.shape[:-1] != w.shape or w.shape[-1] == 0:
            raise InputDomainError("decomposition term counts disagree or are empty")
        if (w < 0).any():
            raise InputDomainError("decomposition weights must be non-negative")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "weights", w)


def peller_bound(d: Decomposition):
    """Trace-class transformer bound sum_t w_t |a_t|_inf |b_t|_inf; a
    sampled C1 norm passes against it up to bound * (1 + PELLER_SLACK)."""
    return per_matrix(np.sum(d.weights
                             * np.abs(d.alphas).max(axis=-1)
                             * np.abs(d.betas).max(axis=-1), axis=-1))


def symbol_from_decomposition(pair: SpectralPair, d: Decomposition) -> SymbolGrid:
    if d.alphas.shape[-1] != pair.dim or d.betas.shape[-1] != pair.dim:
        raise InputDomainError(
            f"decomposition vectors sized ({d.alphas.shape[-1]}, {d.betas.shape[-1]}), "
            f"pair dimension is {pair.dim}")
    values = np.einsum("...t,...ti,...tj->...ij", d.weights.astype(np.complex128),
                       d.alphas, d.betas)
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
    returns is a certified lower bound only.  Trial k's T is drawn from
    substream(seed, tag, k); the trials go through `doi_apply` and the two
    Schatten norms as the stacks of `rng.trial_blocks` (one matrix per
    trial).  A NaN ratio is skipped, as Python's max(best, ratio) skips it.
    A stacked pair is refused: its trials would mix the pairs.
    """
    pair.require_one()
    _check_grid(pair, sym)
    require_size(trials, "trials")
    best = 0.0
    n = pair.dim
    for block in trial_blocks(trials, [n], 1):
        t = complex_stacks(substreams(seed, tag, block[n]), 1, (n, n))[0]
        ratios = schatten_norm(doi_apply(pair, sym, t), p) / schatten_norm(t, p)
        for ratio in ratios.tolist():
            best = max(best, ratio)
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
    skipped (counted in `skipped`).  Trial k's A and B are drawn from
    substream(seed, "lipschitz", k).  Each block of `rng.trial_blocks` takes
    one Schatten norm of its differences A - B, one `eig_hermitians` and
    `apply_function` of the A's and B's of its trials not skipped, and one
    norm of the f(A) - f(B), so each ratio has the bits of a trial alone.
    """
    if not isinstance(p, Real) or not 1 < p < np.inf:  # True is 1, outside the interval
        raise InputDomainError(f"p must lie in the open interval (1, inf), got {p!r}")
    require_size(trials, "trials")
    require_size(dim, "dim")
    ratios = []
    skipped = 0
    for block in trial_blocks(trials, [dim], 2):
        a, b = hermitian_stacks(substreams(seed, "lipschitz", block[dim]), 2, dim)
        diff_norms = schatten_norm(a - b, p)
        kept = diff_norms != 0.0
        k = int(kept.sum())
        skipped += len(kept) - k
        if k:
            f_ab = apply_function(eig_hermitians(np.concatenate([a[kept], b[kept]]),
                                                 ["A"] * k + ["B"] * k), f)
            ratios += (schatten_norm(f_ab[:k] - f_ab[k:], p) / diff_norms[kept]).tolist()
    return ExperimentReport(
        op="lipschitz_ratio", params={"f": f_name, "lip_const": lip_const, "p": p, "dim": dim},
        seed=seed, trials=trials, max_ratio=max(ratios) if ratios else 0.0,
        per_trial=ratios, skipped=skipped)
