"""The spectral core, the shift functions and the quantization on stacks:
each entry point that takes a stack gives each matrix (or pair, measure,
symbol or sequence) the bits of its one-matrix call, and refuses a bad
stack with the error that names the argument (or the matrix, as
`as_hermitian` names it)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from opint import doi, errors, linalg, quantization, shift, sylvester
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
    atoms = (rng.uniform(0.3, 2.5, (k, 3)) * rng.choice([-1.0, 1.0], (k, 3)),
             rng.uniform(0.2, 1.5, (k, 3)))
    left = linalg.eig_hermitians(a, ["A"] * k)
    right = linalg.eig_hermitians(b, ["B"] * k)
    stacked = SimpleNamespace(a=a, b=b, t=t, mask=mask, decomposition=decomposition,
                              atoms=atoms, pair=doi.SpectralPair(left, right))
    singles = [SimpleNamespace(a=a[i], b=b[i], t=t[i], mask=list(mask[i]),
                               decomposition=tuple(x[i] for x in decomposition),
                               atoms=tuple(x[i] for x in atoms),
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


def _xi(ops):
    return shift.xi_counting(ops.pair)


def _admissible_f(ops):
    points, weights = ops.atoms
    return shift.admissible_f(shift.AtomicMeasure(points=points, weights=weights))[0]


def _krein(ops):
    props = shift.krein_properties(ops.pair, _xi(ops), ops.a - ops.b)
    return (props.trace, props.integral, props.trace_norm, props.l1, props.support_reach,
            props.trace_scale, props.trace_norm_scale, *props.errors(), props.monotone)


def _trace_formula(ops):
    result = shift.trace_formula_check(ops.pair, _admissible_f(ops))
    return result.lhs, result.rhs, result.gap


def _space(ops):
    return quantization.cycle_space(ops.pair.dim)


def _bimeasure(ops):
    return quantization.SequenceBimeasure(ops.t[..., 0, :])


def _polymeasure(ops):
    slots = [ops.t[..., 0, :], ops.t[..., -1, :], ops.t[..., :, 0]]
    return quantization.polymeasure_eval(slots, [0.5, 1.2], ops.pair.left)


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
    # complex node coefficients, whose phase sums round with the other
    # phases of their call: each pair's symbol must be a call of its own
    "doi_fourier complex f": lambda ops: doi.doi_fourier(
        ops.pair, lambda s: np.exp(-s * s) * (1 + 0.5j * np.cos(s)), ops.t, QUAD),
    "schatten_norm": lambda ops: tuple(linalg.schatten_norm(ops.t, p) for p in (1, 1.5, 2, 7)),
    "operator_norm": lambda ops: linalg.operator_norm(ops.t),
    "trace_norm": lambda ops: linalg.trace_norm(ops.t),
    "solve_gap_pair": _solution,
    "kron_oracle": lambda ops: sylvester.kron_oracle(ops.a, ops.pair.right, ops.t),
    "ShiftFunction.integral": lambda ops: _xi(ops).integral(),
    "ShiftFunction.l1": lambda ops: _xi(ops).l1(),
    "ShiftFunction.support": lambda ops: _xi(ops).support(),
    "ShiftFunction.integrate_derivative": lambda ops: _xi(ops).integrate_derivative(
        _admissible_f(ops)),
    "ShiftFunction.resolvent_integral": lambda ops: _xi(ops).resolvent_integral(0.3 + 0.7j),
    "ShiftFunction.is_nonnegative": lambda ops: np.asarray(_xi(ops).is_nonnegative),
    "ShiftFunction.is_zero": lambda ops: np.asarray(_xi(ops).is_zero),
    "krein_properties": _krein,
    "admissible_f": lambda ops: _admissible_f(ops)(ops.pair.left.eigenvalues),
    "trace_formula_check": _trace_formula,
    "resolvent_identity_check": lambda ops: shift.resolvent_identity_check(ops.pair, 0.3 + 0.7j),
    "quantize": lambda ops: quantization.quantize(_space(ops), ops.t),
    "qp_norm_upper_bound": lambda ops: tuple(
        quantization.qp_norm_upper_bound(_space(ops), ops.t)[key]
        for key in ("upper_bound", "hilbert_schmidt", "shift_triangle")),
    "polymeasure_eval": _polymeasure,
    "SequenceBimeasure.l1_norm": lambda ops: _bimeasure(ops).l1_norm(),
    "bimeasure_eval": lambda ops: quantization.bimeasure_eval(
        _bimeasure(ops), [1, ops.pair.dim], [ops.pair.dim]),
    "grothendieck_norm": lambda ops: quantization.grothendieck_norm(_decomposition(ops)),
    "bimeasure_integrate": lambda ops: quantization.bimeasure_integrate(
        _bimeasure(ops), _decomposition(ops)),
    "bimeasure_integrate_grid": lambda ops: quantization.bimeasure_integrate_grid(
        _bimeasure(ops), ops.t),
    "semivariation": lambda ops: quantization.semivariation(_bimeasure(ops)),
}


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_stack_gives_each_matrix_the_bits_of_its_one_matrix_call(entry, k, n):
    _assert_each_matrix_has_its_bits(ENTRY_POINTS[entry], *_operands(k, n))


# the entry points that take a value per matrix from an operation whose
# rounding differs between numpy's one-number and array forms on some CPUs
# (a power, a complex modulus or product), which a stack of 3 rarely shows
ROUNDING_ENTRY_POINTS = ["schatten_norm", "trace_formula_check", "resolvent_identity_check",
                         "bimeasure_eval", "semivariation"]


@pytest.mark.parametrize("entry", ROUNDING_ENTRY_POINTS)
def test_a_large_stack_gives_each_matrix_the_bits_of_its_one_matrix_call(entry):
    _assert_each_matrix_has_its_bits(ENTRY_POINTS[entry], *_operands(200, 3))


def _tied_operands():
    """Stacked 4 x 4 pairs whose members have A = B, a repeated eigenvalue,
    an eigenvalue shared by A and B, and no ties; and the same pairs one at
    a time."""
    rng = substream(3, "stacks-tied")
    h = random_hermitian(rng, 4)
    a = np.stack([h, np.diag([1.0, 1.0, 2.0, 2.0]), np.diag([0.0, 1.0, 2.0, 9.0]),
                  random_hermitian(rng, 4)])
    b = np.stack([h, np.diag([0.0, 1.0, 1.0, 3.0]), np.diag([1.0, 2.0, 5.0, 9.0]),
                  random_hermitian(rng, 4)])
    atoms = (rng.uniform(0.3, 2.5, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3)),
             rng.uniform(0.2, 1.5, (4, 3)))
    pair = doi.SpectralPair(linalg.eig_hermitians(a, ["A"] * 4),
                            linalg.eig_hermitians(b, ["B"] * 4))
    stacked = SimpleNamespace(a=a, b=b, atoms=atoms, pair=pair)
    singles = [SimpleNamespace(a=a[i], b=b[i], atoms=tuple(x[i] for x in atoms),
                               pair=doi.make_spectral_pair(a[i], b[i])) for i in range(4)]
    return stacked, singles


def _support(ops):
    """The support, with the stack's (NaN, NaN) for the zero function's None."""
    support = _xi(ops).support()
    return (np.nan, np.nan) if support is None else support


SHIFT_ENTRY_POINTS = {entry: ENTRY_POINTS[entry] for entry in ENTRY_POINTS
                      if entry.startswith("ShiftFunction.") or entry in (
                          "krein_properties", "trace_formula_check", "resolvent_identity_check")}
SHIFT_ENTRY_POINTS["ShiftFunction.support"] = _support


@pytest.mark.parametrize("entry", sorted(SHIFT_ENTRY_POINTS))
def test_a_stack_of_tied_spectra_gives_each_pair_the_bits_of_its_one_pair_call(entry):
    _assert_each_matrix_has_its_bits(SHIFT_ENTRY_POINTS[entry], *_tied_operands())


def test_a_stack_of_tied_spectra_has_the_joint_spectrum_as_breakpoints():
    stacked, singles = _tied_operands()
    xi = shift.xi_counting(stacked.pair)
    assert xi.breakpoints.shape == (4, 8)
    assert np.asarray(xi.is_zero).tolist() == [True, False, False, False]
    for i, ops in enumerate(singles):
        alone = shift.xi_counting(ops.pair)
        assert _bits(xi.breakpoints[i]) == _bits(alone.breakpoints)
        assert _bits(xi.values[i]) == _bits(alone.values)


def _assert_each_matrix_has_its_bits(run, stacked, singles):
    out = run(stacked)
    for i, ops in enumerate(singles):
        alone = run(ops)
        if isinstance(alone, tuple):
            assert [_bits(x[i]) for x in out] == [_bits(x) for x in alone]
        elif isinstance(alone, int):  # the dimension of each matrix of the stack
            assert out == alone
        else:
            assert type(alone) is not np.ndarray or alone.shape == out[i].shape
            assert _bits(out[i]) == _bits(alone)


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
    "ShiftFunction values of another width": (
        lambda ops: shift.ShiftFunction(breakpoints=_xi(ops).breakpoints,
                                        values=_xi(ops).values[..., :-1]),
        errors.InputDomainError, "^need one value per interval"),
    "ShiftFunction interval of length 0 holding a value": (
        lambda ops: shift.ShiftFunction(breakpoints=np.tile([0.0, 1.0, 1.0], (len(ops.a), 1)),
                                        values=np.ones((len(ops.a), 2))),
        errors.InputDomainError, "^an interval of length 0 must hold 0"),
    "ShiftFunction evaluated as a stack": (
        lambda ops: _xi(ops)(np.zeros(2)),
        errors.InputDomainError, "^a stack of shift functions is evaluated one function at a time"),
    "AtomicMeasure weights of another shape": (
        lambda ops: shift.AtomicMeasure(points=ops.atoms[0], weights=ops.atoms[1][..., :2]),
        errors.InputDomainError, "^atomic measure needs matching points/weights"),
    "admissible_f x of another stack": (
        lambda ops: _admissible_f(ops)(np.zeros((len(ops.a) + 1, 2))),
        errors.InputDomainError, "^x has shape"),
    "quantize sigma": (lambda ops: quantization.quantize(_space(ops), _with_nan(ops.t)),
                       errors.InputDomainError, "^sigma has non-finite entries"),
    "quantize sigma of another size": (
        lambda ops: quantization.quantize(_space(ops), ops.t[:, :2, :2]),
        errors.InputDomainError, "^sigma must be 3x3"),
    "polymeasure_eval slot of another stack": (
        lambda ops: quantization.polymeasure_eval([ops.t[[0, *range(len(ops.a))], 0]], [],
                                                  ops.pair.left),
        errors.InputDomainError, "^slot 0 must be of shape"),
    "SequenceBimeasure phi": (
        lambda ops: quantization.SequenceBimeasure(_with_nan(ops.t)[..., 0]),
        errors.InputDomainError, "^phi has non-finite entries"),
    "bimeasure_integrate decomposition of another stack": (
        lambda ops: quantization.bimeasure_integrate(
            quantization.SequenceBimeasure(ops.t[0, 0]), _decomposition(ops)),
        errors.InputDomainError, "^decomposition stack"),
    "bimeasure_integrate_grid psi of another stack": (
        lambda ops: quantization.bimeasure_integrate_grid(_bimeasure(ops), ops.t[0]),
        errors.InputDomainError, "^psi has shape"),
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
