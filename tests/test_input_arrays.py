"""Every entry point that takes a numeric array validates it through
`linalg.as_finite_array`: ragged rows, booleans, strings, objects, complex
numbers in a real slot and non-finite entries are refused with
InputDomainError naming the argument, never cast or passed on."""

import numpy as np
import pytest

import opint.quantization as qz
from opint import doi, errors, linalg, shift
from opint.rng import random_hermitian, substream

EB = linalg.eig_hermitian(np.diag([0.0, 1.0]))
PAIR = doi.make_spectral_pair(np.eye(2), np.diag([0.0, 1.0]))
ONES = np.ones(2)
SQUARE = np.array([[0.5, 1.5], [2.5, 3.5]])
PAIR_OF = np.array([0.5, 1.5])

# (argument name, a valid argument, real slot, call with the argument); each
# bad input is the valid one changed in kind, so only its kind is wrong
ENTRY_POINTS = {
    "as_complex_matrix": ("M", SQUARE, False, lambda x: linalg.as_complex_matrix(x, "M")),
    "SymbolGrid": ("values", SQUARE, False, lambda x: doi.SymbolGrid(values=x)),
    "Decomposition.alphas": ("alphas", SQUARE, False,
                             lambda x: doi.Decomposition(alphas=x, betas=SQUARE, weights=ONES)),
    "Decomposition.weights": ("weights", ONES, True,
                              lambda x: doi.Decomposition(alphas=SQUARE, betas=SQUARE, weights=x)),
    "momentum_operator": ("g", PAIR_OF, False,
                          lambda x: qz.momentum_operator(qz.cycle_space(2), x)),
    "cotlar_stein_bound": ("f_0", PAIR_OF, False,
                           lambda x: qz.cotlar_stein_bound(qz.cycle_space(2), [(x, ONES)])),
    "SequenceBimeasure": ("phi", PAIR_OF, False, lambda x: qz.SequenceBimeasure(x)),
    "polymeasure_eval.slot": ("slot 1", PAIR_OF, False,
                              lambda x: qz.polymeasure_eval([ONES, x], [1.0], EB)),
    "polymeasure_eval.times": ("times", np.array([1.0]), True,
                               lambda x: qz.polymeasure_eval([ONES, ONES], x, EB)),
    "ShiftFunction": ("breakpoints", np.array([0.0, 1.0]), True,
                      lambda x: shift.ShiftFunction(breakpoints=x, values=[1])),
    "SampledCurve.abscissae": ("abscissae", PAIR_OF, True,
                               lambda x: shift.SampledCurve(abscissae=x, ordinates=ONES)),
    "SampledCurve.ordinates": ("ordinates", PAIR_OF, True,
                               lambda x: shift.SampledCurve(abscissae=ONES, ordinates=x)),
    "xi_arctan.grid": ("grid", PAIR_OF, True, lambda x: shift.xi_arctan(PAIR, 0.1, x)),
    "AtomicMeasure.points": ("points", PAIR_OF, True,
                             lambda x: shift.AtomicMeasure(points=x, weights=ONES)),
    "AtomicMeasure.weights": ("weights", PAIR_OF, True,
                              lambda x: shift.AtomicMeasure(points=ONES, weights=x)),
    "rank_one_cauchy_transform": ("w", np.array([0.6, 0.8]), False,
                                  lambda x: shift.rank_one_cauchy_transform(EB, x, 0.5j)),
    "xi_rank_one": ("w", np.array([0.6, 0.8]), False,
                    lambda x: shift.xi_rank_one(EB, x, 1.0, [0.5])),
}

MESSAGES = {"ragged": "is not a numeric array", "bool": "is not a numeric array",
            "str": "is not a numeric array", "object": "is not a numeric array",
            "complex": "must be real", "nan": "has non-finite entries"}


def bad_input(kind: str, good: np.ndarray):
    if kind == "ragged":  # the last row, or an appended entry, of another length
        return ([*good.tolist(), [1.0, 1.0]] if good.ndim == 1
                else [*good[:-1].tolist(), good[-1, :-1].tolist()])
    if kind == "nan":
        x = good.copy()
        x.flat[0] = np.nan
        return x
    return {"bool": good != 0, "str": good.astype(str), "object": good.astype(object),
            "complex": good + 3j}[kind]


CASES = [pytest.param(entry, kind, id=f"{entry}-{kind}")
         for entry, (_, _, real, _) in ENTRY_POINTS.items()
         for kind in MESSAGES if kind != "complex" or real]


@pytest.mark.parametrize("entry, kind", CASES)
def test_entry_points_refuse_a_bad_array_naming_the_argument(entry, kind):
    name, good, _, call = ENTRY_POINTS[entry]
    call(good)
    with pytest.raises(errors.InputDomainError, match=f"^{name} {MESSAGES[kind]}"):
        call(bad_input(kind, good))


@pytest.mark.parametrize("dtype, ndim", [(np.complex128, 2), (np.complex128, 1), (float, 1)])
@pytest.mark.parametrize("writeable", [True, False])
def test_as_finite_array_returns_an_input_of_its_dtype_uncopied(dtype, ndim, writeable):
    x = substream(3, "validator-no-copy").standard_normal((3,) * ndim).astype(dtype)
    x.flags.writeable = writeable
    assert linalg.as_finite_array(x, "x", ndim, dtype) is x
    assert x.flags.writeable is writeable


@pytest.mark.parametrize("dtype", [np.complex128, float])
def test_as_finite_array_converts_other_numbers_into_a_new_array(dtype):
    for x in (np.arange(3), np.arange(3, dtype=np.float32), [0, 1.0, 2]):
        a = linalg.as_finite_array(x, "x", 1, dtype)
        assert a.dtype == dtype and a is not x
        assert np.array_equal(a, [0.0, 1.0, 2.0])


def test_as_hermitian_returns_a_symmetrized_copy():
    h = random_hermitian(substream(3, "validator-hermitian"), 4)
    h[0, 1] += 1e-14  # rounding asymmetry
    before = h.copy()
    h.flags.writeable = False
    sym = linalg.as_hermitian(h)
    assert sym is not h
    assert np.array_equal(h, before)
    assert np.array_equal(sym, sym.conj().T)
    assert np.array_equal(sym, h * 0.5 + h.conj().T * 0.5)
