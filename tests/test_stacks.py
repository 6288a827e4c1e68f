"""The spectral core on (k, n, n) stacks: each entry point that takes a stack
gives each matrix the bits of its one-matrix call, and refuses a bad stack
with the error that names the argument (or the matrix, as `as_hermitian`
names it)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from opint import doi, errors, linalg, sylvester
from opint.quadrature import trapezoid_rule
from opint.rng import random_complex, random_hermitian, substream

SHIFT = 4.0  # A + 4 I and B - 4 I: spectra of radius ~2 sqrt(n) stay apart


def _operands(k: int, n: int, trial: int = 0):
    """Stacked operands of k trials, and the same operands one trial at a time."""
    rng = substream(3, f"stacks-{k}-{n}", trial)
    a = np.stack([random_hermitian(rng, n) + SHIFT * np.eye(n) for _ in range(k)])
    b = np.stack([random_hermitian(rng, n) - SHIFT * np.eye(n) for _ in range(k)])
    t = random_complex(rng, (k, n, n))
    mask = rng.random((k, n)) < 0.5
    terms = 2
    decomposition = (random_complex(rng, (k, terms, n)), random_complex(rng, (k, terms, n)),
                     rng.uniform(0.1, 2.0, (k, terms)))
    left = linalg.eig_hermitians(a, ["A"] * k)
    right = linalg.eig_hermitians(b, ["B"] * k)
    stacked = SimpleNamespace(a=a, b=b, t=t, mask=mask, decomposition=decomposition,
                              pair=doi.SpectralPair(left, right))
    singles = [SimpleNamespace(a=a[i], b=b[i], t=t[i], mask=list(mask[i]),
                               decomposition=tuple(x[i] for x in decomposition),
                               pair=doi.make_spectral_pair(a[i], b[i]))
               for i in range(k)]
    return stacked, singles


QUAD = trapezoid_rule(10.0, 64)


def _decomposition(ops):
    alphas, betas, weights = ops.decomposition
    return doi.Decomposition(alphas=alphas, betas=betas, weights=weights)


def _solution(ops):
    y = ops.t
    solution = sylvester.solve_gap_pair(ops.pair, ops.a, ops.b, y)
    reports = [solution.report(p) for p in (1, 2, np.inf)]
    return (solution.x, solution.delta, *(getattr(r, f) for r in reports
                                          for f in ("x_norm", "y_norm", "bound", "residual",
                                                    "residual_small", "bound_holds")))


ENTRY_POINTS = {
    "EigenSystem.dim": lambda ops: ops.pair.left.dim,
    "EigenSystem.reconstruct": lambda ops: ops.pair.left.reconstruct(),
    "EigenSystem.projector": lambda ops: ops.pair.right.projector(ops.mask),
    "apply_function": lambda ops: linalg.apply_function(ops.pair.left, np.sin),
    "evaluate": lambda ops: linalg.evaluate(np.exp, ops.pair.right.eigenvalues),
    "SymbolGrid.sup_norm": lambda ops: doi.SymbolGrid(values=ops.t).sup_norm(),
    "symbol_from_function": lambda ops: doi.symbol_from_function(
        ops.pair, lambda lam, mu: np.cos(lam) / (1.0 + mu ** 2)).values,
    "divided_difference_symbol": lambda ops: doi.divided_difference_symbol(
        ops.pair, np.arctan, lambda x: 1.0 / (1.0 + x ** 2)).values,
    "symbol_from_decomposition": lambda ops: doi.symbol_from_decomposition(
        ops.pair, _decomposition(ops)).values,
    "peller_bound": lambda ops: doi.peller_bound(_decomposition(ops)),
    "hs_multiplier_norm": lambda ops: doi.hs_multiplier_norm(
        ops.pair, doi.SymbolGrid(values=ops.t)),
    "doi_apply": lambda ops: doi.doi_apply(
        ops.pair, doi.symbol_from_function(ops.pair, lambda lam, mu: lam * mu + 1j), ops.t),
    "doi_fourier": lambda ops: doi.doi_fourier(ops.pair, lambda s: np.exp(-s * s), ops.t, QUAD),
    "schatten_norm": lambda ops: tuple(linalg.schatten_norm(ops.t, p) for p in (1, 1.5, 2, 7)),
    "operator_norm": lambda ops: linalg.operator_norm(ops.t),
    "trace_norm": lambda ops: linalg.trace_norm(ops.t),
    "solve_gap_pair": _solution,
    "kron_oracle": lambda ops: sylvester.kron_oracle(ops.a, ops.pair.right, ops.t),
}


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_stack_gives_each_matrix_the_bits_of_its_one_matrix_call(entry, k, n):
    stacked, singles = _operands(k, n)
    run = ENTRY_POINTS[entry]
    out = run(stacked)
    for i, ops in enumerate(singles):
        alone = run(ops)
        if isinstance(alone, tuple):
            assert [_bits(x[i]) for x in out] == [_bits(x) for x in alone], entry
        elif isinstance(alone, int):  # the dimension of each matrix of the stack
            assert out == alone
        else:
            assert type(alone) is not np.ndarray or alone.shape == out[i].shape
            assert _bits(out[i]) == _bits(alone), entry


def _with_nan(m):
    m = m.copy()
    m[-1, 0, 0] = np.nan
    return m


def _not_hermitian(m):
    m = m.copy()
    m[-1, 0, -1] += 1e-3
    return m


BAD_STACKS = {
    "doi_apply T": (lambda ops: doi.doi_apply(ops.pair, doi.SymbolGrid(values=ops.t),
                                              _with_nan(ops.t)),
                    errors.InputDomainError, "^T has non-finite entries"),
    "doi_apply T of another dimension": (
        lambda ops: doi.doi_apply(ops.pair, doi.SymbolGrid(values=ops.t), ops.t[:, :2, :2]),
        errors.InputDomainError, "^T has shape"),
    "SymbolGrid values": (lambda ops: doi.SymbolGrid(values=_with_nan(ops.t)),
                          errors.InputDomainError, "^values has non-finite entries"),
    "symbol of another stack": (
        lambda ops: doi.hs_multiplier_norm(ops.pair, doi.SymbolGrid(values=ops.t[:1, :1, :1])),
        errors.InputDomainError, "^symbol grid"),
    "projector mask of another shape": (
        lambda ops: ops.pair.left.projector(np.ones((len(ops.a), ops.pair.dim + 1), bool)),
        errors.InputDomainError, "^projector mask must have one flag per eigenvalue"),
    "schatten_norm": (lambda ops: linalg.schatten_norm(_with_nan(ops.t), 2),
                      errors.InputDomainError, "^matrix has non-finite entries"),
    "Decomposition": (lambda ops: doi.Decomposition(alphas=ops.decomposition[0],
                                                    betas=ops.decomposition[1][:, :1],
                                                    weights=ops.decomposition[2]),
                      errors.InputDomainError, "^decomposition term counts disagree"),
    "SpectralPair": (lambda ops: doi.SpectralPair(ops.pair.left, linalg.eig_hermitian(ops.b[0])),
                     errors.InputDomainError, "^spectral pair dimension mismatch"),
    "solve_gap_pair A": (lambda ops: sylvester.solve_gap_pair(ops.pair, _not_hermitian(ops.a),
                                                              ops.b, ops.t),
                         errors.InputDomainError, "^A is not hermitian"),
    "solve_gap_pair Y": (lambda ops: sylvester.solve_gap_pair(ops.pair, ops.a, ops.b,
                                                              _with_nan(ops.t)),
                         errors.InputDomainError, "^Y has non-finite entries"),
    "kron_oracle B": (lambda ops: sylvester.kron_oracle(ops.a, linalg.eig_hermitian(ops.b[0]),
                                                        ops.t),
                      errors.IllPosedError, "^shape mismatch: A"),
    "kron_oracle A": (lambda ops: sylvester.kron_oracle(_with_nan(ops.a), ops.pair.right, ops.t),
                      errors.InputDomainError, "^A has non-finite entries"),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("case", sorted(BAD_STACKS))
def test_a_bad_stack_is_refused_naming_the_argument(case, k):
    stacked, _ = _operands(k, 3)
    call, error, message = BAD_STACKS[case]
    with pytest.raises(error, match=message):
        call(stacked)


def test_a_stack_with_a_gap_below_the_floor_names_its_closest_eigenvalue_pair():
    stacked, singles = _operands(3, 2)
    # the last trial's B is A: its gap is 0
    b = stacked.b.copy()
    b[-1] = stacked.a[-1]
    pair = doi.SpectralPair(stacked.pair.left, linalg.eig_hermitians(b, ["B"] * 3))
    with pytest.raises(errors.IllPosedError) as stacked_error:
        sylvester.solve_gap_pair(pair, stacked.a, b, stacked.t)
    with pytest.raises(errors.IllPosedError) as alone:
        sylvester.solve_gap(stacked.a[-1], b[-1], stacked.t[-1])
    assert str(stacked_error.value) == str(alone.value)
    assert stacked_error.value.detail == alone.value.detail
