"""Every entry point that takes a numeric array validates it through
`linalg.as_finite_array`: ragged rows, booleans (also among the numbers of
a Python sequence), strings, objects, complex numbers in a real slot and
non-finite entries are refused with InputDomainError naming the argument,
never cast or passed on.  Evaluation points go through its dtype half,
`linalg.as_numeric_array`, under the same rules for their kind."""

import warnings

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
    "ShiftFunction.values": ("values", np.array([1.0]), True,
                             lambda x: shift.ShiftFunction(breakpoints=[0.0, 1.0], values=x)),
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
            "bool-in-list": "is not a numeric array", "str": "is not a numeric array",
            "object": "is not a numeric array", "complex": "must be real",
            "nan": "has non-finite entries"}


def bad_input(kind: str, good: np.ndarray):
    if kind == "ragged":  # the last row, or an appended entry, of another length
        return ([*good.tolist(), [1.0, 1.0]] if good.ndim == 1
                else [*good[:-1].tolist(), good[-1, :-1].tolist()])
    if kind == "nan":
        x = good.copy()
        x.flat[0] = np.nan
        return x
    if kind == "bool-in-list":  # np.asarray reads the True as 1 in the list's number dtype
        x = good.tolist()
        (x if good.ndim == 1 else x[0])[0] = True
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


@pytest.mark.parametrize("values, message", [
    ([True], "values is not a numeric array"),            # was stored as the integer 1
    ([[1]], r"values has shape \(1, 1\), expected a 1-D array"),  # was kept as a 2-D array
    ([1 + 0j], "values must be real"),                    # leaked a ComplexWarning
])
def test_shift_function_values_are_read_as_finite_real_numbers(values, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InputDomainError, match=f"^{message}"):
            shift.ShiftFunction(breakpoints=[0.0, 1.0], values=values)


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


def test_as_finite_array_does_not_scan_the_entries_of_an_ndarray(monkeypatch):
    def no_scan(*args):
        raise AssertionError("entries scanned")
    monkeypatch.setattr(linalg, "entry_types", no_scan)
    for x in (SQUARE, SQUARE.astype(np.complex128), np.arange(4).reshape(2, 2)):
        linalg.as_complex_matrix(x, "M")


def test_entry_types_are_the_types_of_the_scalars_of_a_nested_sequence():
    assert linalg.entry_types([[1, True], [False, 1.5]], 2) == {int, bool, float}
    assert linalg.entry_types([np.True_, np.float64(1.0)], 1) == {np.bool_, np.float64}
    assert linalg.entry_types([np.array([1.0]), np.array([True])], 2) == {np.float64, np.bool_}
    assert linalg.entry_types(2.5, 0) == {float}


@pytest.mark.parametrize("x", [0.5, np.linspace(-1, 1, 6).reshape(2, 3), [np.inf, np.nan]])
def test_as_numeric_array_takes_real_points_of_any_shape_finite_or_not(x):
    a = linalg.as_numeric_array(x, "x", float)
    assert a.dtype == float and a.shape == np.shape(x)
    assert np.array_equal(a, x, equal_nan=True)
    if isinstance(x, np.ndarray):
        assert a is x


MU = shift.AtomicMeasure(points=[1.0, -2.0], weights=[0.5, 1.5])
F, F_PRIME = shift.admissible_f(MU)
EVALUATIONS = {
    "ShiftFunction": ("x", shift.ShiftFunction(breakpoints=[0.0, 1.0], values=[1])),
    "admissible_f.f": ("x", F),
    "admissible_f.f_prime": ("x", F_PRIME),
    "arctan_rep_value": ("t", shift.arctan_rep_value),
}


@pytest.mark.parametrize("entry", sorted(EVALUATIONS))
def test_evaluations_refuse_complex_points_naming_the_argument(entry):
    name, call = EVALUATIONS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(np.array([0.5, 1.5]))
        with pytest.raises(errors.InputDomainError, match=f"^{name} must be real"):
            call(1 + 1j)
        with pytest.raises(errors.InputDomainError, match=f"^{name} is not a numeric array"):
            call([0.5, True])


def test_evaluations_take_real_arrays_uncopied(monkeypatch):
    seen = []

    def recording(x, name, dtype=np.complex128):
        a = as_numeric_array(x, name, dtype)
        seen.append(a is x)
        return a
    as_numeric_array = linalg.as_numeric_array
    monkeypatch.setattr(shift, "as_numeric_array", recording)
    x = np.array([[0.25, 0.5], [1.5, -3.0]])
    for _, call in EVALUATIONS.values():
        call(x)
    assert seen == [True] * len(EVALUATIONS)
