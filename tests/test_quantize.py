import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import opint.quantization as qz
from opint import errors, linalg
from opint.doi import Decomposition
from opint.linalg import apply_function, eig_hermitian, operator_norm
from opint.rng import random_complex, random_hermitian, substream


def random_bimeasure(seed, trial, n):
    rng = substream(seed, "quant-bim", trial)
    phi = random_complex(rng, n)
    return qz.SequenceBimeasure(phi / np.linalg.norm(phi)), rng


# ---------------------------------------------------------------- projectors


def test_position_projector_extremes():
    space = qz.cycle_space(4)
    np.testing.assert_allclose(qz.position_projector(space, range(4)), np.eye(4), atol=0)
    np.testing.assert_allclose(qz.position_projector(space, []), np.zeros((4, 4)), atol=0)


def test_position_projector_idempotent_hermitian():
    space = qz.cycle_space(5)
    p = qz.position_projector(space, [0, 2, 3])
    np.testing.assert_allclose(p @ p, p, atol=0)
    np.testing.assert_allclose(p, p.conj().T, atol=0)


def test_position_projector_range_check():
    space = qz.cycle_space(3)
    with pytest.raises(errors.InputDomainError):
        qz.position_projector(space, [3])


def test_projectors_take_an_index_array_a_list_or_a_range_alike():
    space = qz.cycle_space(6)
    for project in (qz.position_projector, qz.momentum_projector):
        expected = project(space, [1, 2, 3, 4])
        for subset in (np.arange(1, 5), np.array([4, 2, 1, 3, 2], dtype=np.int32), range(1, 5)):
            assert project(space, subset).tobytes() == expected.tobytes()


# a boolean among integers in a list or tuple would be cast to 0 or 1
@pytest.mark.parametrize("subset", [np.array([True, False, True, False]), [1.7],
                                    np.array([0.0, 2.0]), [0, True], (2, np.True_),
                                    [False, 3]])
def test_projectors_refuse_boolean_and_float_index_arrays(subset):
    space = qz.cycle_space(4)
    with pytest.raises(errors.InputDomainError, match="E must hold integer indices"):
        qz.position_projector(space, subset)
    with pytest.raises(errors.InputDomainError, match="F must hold integer indices"):
        qz.momentum_projector(space, subset)


@pytest.mark.parametrize("subset", [3, np.int64(2), np.array(2), {1, 2}, None],
                         ids=["int", "int64", "0-d-array", "set", "none"])
def test_projectors_refuse_a_scalar_or_a_set_as_an_index_set(subset):
    space = qz.cycle_space(4)
    with pytest.raises(errors.InputDomainError, match="E must be a 1-D sequence of indices"):
        qz.position_projector(space, subset)
    with pytest.raises(errors.InputDomainError, match="F must be a 1-D sequence of indices"):
        qz.momentum_projector(space, subset)


def test_index_set_takes_an_int64_array_without_copying_it(monkeypatch):
    subset = np.array([3, 1, 1])
    seen = []

    def recording_unique(idx, *args, _unique=np.unique, **kwargs):
        seen.append(idx)
        return _unique(idx, *args, **kwargs)

    monkeypatch.setattr(np, "unique", recording_unique)
    assert qz._indices(subset, 0, 3, "E") is subset
    # the projectors index with the array itself: a repeated index sets the same 1
    assert qz.position_projector(qz.cycle_space(4), subset).trace() == 2
    assert not seen
    # bimeasure_eval sums over the distinct indices, taken from the array itself
    b = qz.SequenceBimeasure(np.array([1.0, 2.0, 3.0]))
    assert qz.bimeasure_eval(b, subset, [2]) == qz.bimeasure_eval(b, [1, 3], [2])
    assert len(seen) == 4 and seen[0] is subset


def test_momentum_projector_full_set_is_identity():
    space = qz.cycle_space(6)
    np.testing.assert_allclose(qz.momentum_projector(space, range(6)), np.eye(6), atol=1e-12)


def test_momentum_projector_n2_explicit():
    space = qz.cycle_space(2)
    np.testing.assert_allclose(qz.momentum_projector(space, [0]),
                               np.full((2, 2), 0.5), atol=1e-14)


def test_momentum_projector_rank_equals_size():
    space = qz.cycle_space(7)
    for size in (1, 3, 6):
        p = qz.momentum_projector(space, list(range(size)))
        assert np.trace(p).real == pytest.approx(size, abs=1e-10)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)


def test_momentum_projector_hermitian_idempotent_n257():
    space = qz.cycle_space(257)
    in_f = substream(20, "quant-p257").random(257) < 0.5
    p = qz.momentum_projector(space, np.flatnonzero(in_f))
    np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(in_f.sum(), abs=1e-10)


def test_momentum_operator_wrong_length_names_g():
    space = qz.cycle_space(4)
    with pytest.raises(errors.InputDomainError, match=r"^g must be a length-4 vector"):
        qz.momentum_operator(space, np.ones(3))


# ------------------------------------------------- dense DFT definitions
# Each FFT/circulant operator against its definition as products with the
# unitary DFT matrix, at odd, even and prime n.

DENSE_SIZES = [1, 2, 3, 5, 8, 17, 64]


def _dense_inputs(n):
    rng = substream(21, "quant-dense", n)
    return (qz.cycle_space(n), linalg.dft_unitary(n), random_complex(rng, (n, n)),
            random_complex(rng, n), rng.random(n) < 0.5, rng)


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_quantize_matches_dense_dft_definition(n):
    # M = sum_xi diag(sigma[:, xi]) F* e_xi e_xi^T F = (sigma o F*) F, o entrywise
    space, f, sigma, _, _, _ = _dense_inputs(n)
    np.testing.assert_allclose(qz.quantize(space, sigma), (sigma * f.conj().T) @ f,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_momentum_operators_match_dense_dft_definition(n):
    space, f, _, g, in_f, _ = _dense_inputs(n)
    np.testing.assert_allclose(qz.momentum_operator(space, g), f.conj().T @ np.diag(g) @ f,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(qz.momentum_projector(space, np.flatnonzero(in_f)),
                               f.conj().T @ np.diag(in_f.astype(complex)) @ f,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_momentum_operator_is_quantized_momentum_symbol(n):
    space, _, _, g, _, _ = _dense_inputs(n)
    assert np.array_equal(qz.momentum_operator(space, g),
                          qz.quantize(space, np.outer(np.ones(n), g)))


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_cotlar_matches_dense_dft_definition(n):
    space, f, _, _, _, rng = _dense_inputs(n)
    terms = [(random_complex(rng, n), random_complex(rng, n)) for _ in range(3)]
    fstar = f.conj().T
    a = np.array([[np.sqrt(np.linalg.norm(np.diag(np.abs(fi) ** 2) @ fstar
                                          @ np.diag(np.abs(gj) ** 2) @ f, 2))
                   for _, gj in terms] for fi, _ in terms])
    total = sum(np.diag(fi) @ fstar @ np.diag(gi) @ f for fi, gi in terms)
    report = qz.cotlar_stein_bound(space, terms)
    assert report.bound == pytest.approx(max(a.sum(axis=1).max(), a.sum(axis=0).max()),
                                         rel=1e-12)
    assert report.actual == pytest.approx(np.linalg.norm(total, 2), rel=1e-12)


# ---------------------------------------------------------------- circulant build


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64, 257, 1024])
def test_circulant_equals_the_index_gather_bit_for_bit(n):
    rng = substream(22, "quant-circulant", n)
    x = np.arange(n)
    diff = (x[:, None] - x) % n
    rows, vector, stack = (random_complex(rng, (n, n)), random_complex(rng, n),
                           random_complex(rng, (3, n)))
    gathered = rows[x[:, None], diff]
    given = rows.copy()
    built = qz._circulant_in_place(given)
    assert built is given
    assert built.dtype == np.complex128 and built.flags.c_contiguous
    assert np.array_equal(built, gathered)
    for c in (vector, stack):
        built = qz._circulant_of_vector(c)
        assert built.dtype == np.complex128 and built.flags.c_contiguous
        assert np.array_equal(built, c[..., diff])


def _peak_units(call, n):
    """Peak bytes traced during call(), in units of one n x n complex128 array."""
    call()  # a first call may import lazily; that is not the operator's memory
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, n)
    return peak / (16 * n * n)


def test_z_n_operators_allocate_one_output_and_no_n_by_n_index():
    # quantize permutes the FFT output in place into M; it, the momentum
    # operator and the position projector each hold M alone.  An n x n
    # int64 index is half a unit, a validation copy or a float diagonal is
    # one more.
    n = 512
    space = qz.cycle_space(n)
    rng = substream(23, "quant-alloc")
    sigma, g = random_complex(rng, (n, n)), random_complex(rng, n)
    assert _peak_units(lambda: qz.quantize(space, sigma), n) <= 1.1
    assert _peak_units(lambda: qz.momentum_operator(space, g), n) <= 1.1
    assert _peak_units(lambda: qz.position_projector(space, range(0, n, 3)), n) <= 1.1


# ---------------------------------------------------------------- quantize


def test_quantize_constant_symbol_is_identity():
    space = qz.cycle_space(5)
    np.testing.assert_allclose(qz.quantize(space, np.ones((5, 5))), np.eye(5), atol=1e-12)


def test_quantize_position_only_symbol_is_diagonal():
    space = qz.cycle_space(6)
    rng = substream(1, "quant-q")
    f = random_complex(rng, 6)
    sigma = np.repeat(f[:, None], 6, axis=1)
    np.testing.assert_allclose(qz.quantize(space, sigma), np.diag(f), atol=1e-12)


def test_quantize_product_symbol_factorizes():
    space = qz.cycle_space(8)
    rng = substream(2, "quant-fg")
    f = random_complex(rng, 8)
    g = random_complex(rng, 8)
    sigma = np.outer(f, g)
    expected = np.diag(f) @ space.dft.conj().T @ np.diag(g) @ space.dft
    np.testing.assert_allclose(qz.quantize(space, sigma), expected, atol=1e-12)


def test_quantize_linear_in_symbol():
    space = qz.cycle_space(4)
    rng = substream(3, "quant-lin")
    s1 = random_complex(rng, (4, 4))
    s2 = random_complex(rng, (4, 4))
    np.testing.assert_allclose(qz.quantize(space, s1 + 2j * s2),
                               qz.quantize(space, s1) + 2j * qz.quantize(space, s2),
                               atol=1e-12)


def test_quantize_localization_exhaustive_small_n():
    for n in (2, 3, 4):
        space = qz.cycle_space(n)
        sigma = random_complex(substream(4, "quant-loc", n), (n, n))
        m = qz.quantize(space, sigma)
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)))
        for e in subsets:
            for f in subsets:
                cut = sigma * np.outer(np.isin(np.arange(n), e), np.isin(np.arange(n), f))
                lhs = qz.position_projector(space, e) @ m @ qz.momentum_projector(space, f)
                np.testing.assert_allclose(qz.quantize(space, cut), lhs, atol=1e-10)


# ---------------------------------------------------------------- cotlar-stein


def test_cotlar_single_term_identity():
    space = qz.cycle_space(4)
    ones = np.ones(4)
    report = qz.cotlar_stein_bound(space, [(ones, ones)])
    assert report.bound == pytest.approx(1.0, abs=1e-10)
    assert report.actual == pytest.approx(1.0, abs=1e-10)
    assert report.holds


def test_cotlar_single_indicator_term():
    space = qz.cycle_space(8)
    f = np.isin(np.arange(8), [0, 1, 5]).astype(float)
    g = np.isin(np.arange(8), [2, 3]).astype(float)
    report = qz.cotlar_stein_bound(space, [(f, g)])
    prod = qz.position_projector(space, [0, 1, 5]) @ qz.momentum_projector(space, [2, 3])
    direct = operator_norm(prod)
    assert report.actual == pytest.approx(direct, abs=1e-10)
    assert report.bound == pytest.approx(np.sqrt(direct), abs=1e-10)
    assert direct <= 1.0 and report.holds


def test_cotlar_seeded_decompositions_hold():
    for trial in range(60):
        rng = substream(5, "quant-cotlar", trial)
        n = int(rng.choice([4, 8]))
        k = int(rng.integers(1, 5))
        terms = [(random_complex(rng, n), random_complex(rng, n)) for _ in range(k)]
        report = qz.cotlar_stein_bound(qz.cycle_space(n), terms)
        assert report.holds


@pytest.mark.parametrize("terms, message", [
    ([(np.ones(4), np.ones(4)), (np.ones(3), np.ones(4))], "f_1 must be a length-4 vector"),
    ([(np.ones(4), np.ones((4, 2)))], r"g_0 has shape \(4, 2\), expected a 1-D array"),
], ids=["terms0-f_1", "terms1-g_0"])
def test_cotlar_rejects_malformed_terms(terms, message):
    with pytest.raises(errors.InputDomainError, match=f"^{message}"):
        qz.cotlar_stein_bound(qz.cycle_space(4), terms)


def _pairwise_norms_per_pair(space, terms):
    """Reference for the Cotlar-Stein array: one operator norm per (k, j)."""
    fsq = [np.abs(np.asarray(f, dtype=complex)) ** 2 for f, _ in terms]
    momenta = [qz.momentum_operator(space, np.abs(np.asarray(g, dtype=complex)) ** 2)
               for _, g in terms]
    return np.array([[np.sqrt(operator_norm(f[:, None] * m)) for m in momenta] for f in fsq])


@pytest.mark.parametrize("n, k", [(1, 1), (4, 3), (8, 1), (16, 5), (32, 8)])
def test_cotlar_bound_matches_per_pair_norms_bit_for_bit(n, k):
    rng = substream(8, "quant-cotlar-pairs", n)
    terms = [(random_complex(rng, n), random_complex(rng, n)) for _ in range(k)]
    a = _pairwise_norms_per_pair(qz.cycle_space(n), terms)
    bound = float(max(a.sum(axis=1).max(), a.sum(axis=0).max()))
    assert qz.cotlar_stein_bound(qz.cycle_space(n), terms).bound == bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("slot, name", [(0, "f_1"), (1, "g_1")])
def test_cotlar_rejects_non_finite_terms(bad, slot, name):
    term = [np.ones(4, dtype=complex), np.ones(4, dtype=complex)]
    term[slot][2] = bad
    with pytest.raises(errors.InputDomainError, match=rf"^{name} has non-finite entries"):
        qz.cotlar_stein_bound(qz.cycle_space(4), [(np.ones(4), np.ones(4)), tuple(term)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cotlar_rejects_overflowing_term_products():
    # finite terms whose squared moduli overflow to inf
    with pytest.raises(errors.InputDomainError, match="^term products of f_0 overflow"):
        qz.cotlar_stein_bound(qz.cycle_space(4), [(np.full(4, 1e200), np.ones(4))])


@pytest.mark.parametrize("operator, name", [(qz.momentum_operator, "g")])
def test_symbol_operators_reject_non_finite_symbols(operator, name):
    with pytest.raises(errors.InputDomainError, match=rf"^{name} has non-finite entries"):
        operator(qz.cycle_space(3), np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)])
@pytest.mark.parametrize("build, name", [(qz.cycle_space, "cycle space size"),
                                         (linalg.dft_unitary, "DFT size")])
def test_sizes_that_are_not_integers_are_refused(build, name, n):
    with pytest.raises(errors.InputDomainError, match=f"^{name} must be an integer"):
        build(n)


def test_numpy_integer_sizes_are_accepted():
    assert qz.cycle_space(np.int64(3)).n == 3
    assert np.array_equal(linalg.dft_unitary(np.int64(3)), linalg.dft_unitary(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_momentum_operator_refuses_a_symbol_whose_inverse_dft_overflows():
    # ifft sums before it scales by 1/n: the exact entries are 1e308 and 0
    with pytest.raises(errors.InputDomainError, match="^g overflows in its inverse DFT"):
        qz.momentum_operator(qz.cycle_space(2), [1e308, 1e308])


@pytest.mark.filterwarnings("error")  # numpy's overflow warning must not leak either
@pytest.mark.parametrize("build", [qz.quantize, qz.qp_norm_upper_bound])
def test_symbol_routines_refuse_a_symbol_whose_inverse_dft_overflows(build):
    # the exact row transforms are (1e308, 0); ifft sums before it scales by 1/n
    with pytest.raises(errors.InputDomainError, match="^sigma overflows in its inverse DFT$"):
        build(qz.cycle_space(2), np.full((2, 2), 1e308))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("build", [qz.quantize, qz.qp_norm_upper_bound])
def test_symbol_routines_name_a_non_finite_symbol_entry_as_such(build, bad):
    sigma = np.ones((3, 3), dtype=complex)
    sigma[1, 2] = bad
    with pytest.raises(errors.InputDomainError, match="^sigma has non-finite entries$"):
        build(qz.cycle_space(3), sigma)


@pytest.mark.parametrize("build", [qz.quantize, qz.qp_norm_upper_bound])
def test_symbol_routines_make_one_finiteness_pass_over_n_by_n_data(monkeypatch, build):
    n = 16
    sigma = random_complex(substream(3, "quant-one-pass"), (n, n))
    sizes = []

    def counted(x, *args, _original=np.isfinite, **kwargs):
        sizes.append(np.size(x))
        return _original(x, *args, **kwargs)
    monkeypatch.setattr(np, "isfinite", counted)
    build(qz.cycle_space(n), sigma)
    assert sizes.count(n * n) == 1, sizes


def test_cycle_space_builds_dft_on_demand():
    space = qz.cycle_space(4)
    assert [f.name for f in dataclasses.fields(space)] == ["n"]
    assert np.array_equal(space.dft, linalg.dft_unitary(4))


def test_cotlar_report_json():
    space = qz.cycle_space(2)
    d = qz.cotlar_stein_bound(space, [(np.ones(2), np.ones(2))]).to_json_dict()
    assert set(d) == {"M", "actual", "holds"}
    over = qz.CotlarReport(bound=1.0, actual=1.0 + 2 * qz.CotlarReport.SLACK)
    assert over.excess > 0 and not over.holds


@pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 64, 256])
def test_qp_norm_upper_bound_dominates_the_norm(n):
    space = qz.cycle_space(n)
    sigma = random_complex(substream(6, "quant-qp", n), (n, n))
    actual = operator_norm(qz.quantize(space, sigma))
    result = qz.qp_norm_upper_bound(space, sigma)
    assert result["upper_bound"] == min(result["hilbert_schmidt"], result["shift_triangle"])
    assert qz.CotlarReport(bound=result["upper_bound"], actual=actual).holds
    assert "upper bound" in result["label"]


def test_qp_norm_upper_bound_shift_triangle_wins_on_a_symbol_smooth_in_xi():
    # five Fourier modes in xi: ifft(sigma, axis=1) has five nonzero columns,
    # so the triangle bound sums five maxima where Hilbert-Schmidt adds 5n squares
    n = 64
    rng = substream(6, "quant-qp-smooth")
    coefficients = random_complex(rng, (n, 5))
    modes = np.exp(2j * np.pi * np.outer(np.arange(-2, 3), np.arange(n)) / n)
    sigma = coefficients @ modes
    space = qz.cycle_space(n)
    result = qz.qp_norm_upper_bound(space, sigma)
    assert result["shift_triangle"] < result["hilbert_schmidt"]
    assert result["upper_bound"] == result["shift_triangle"]
    assert result["shift_triangle"] == pytest.approx(np.abs(coefficients).max(axis=0).sum(),
                                                     rel=1e-12)
    assert qz.CotlarReport(bound=result["upper_bound"],
                           actual=operator_norm(qz.quantize(space, sigma))).holds


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_quantize_satisfies_parseval(n):
    sigma = random_complex(substream(6, "quant-parseval", n), (n, n))
    frobenius = np.linalg.norm(qz.quantize(qz.cycle_space(n), sigma))
    assert frobenius == pytest.approx(np.linalg.norm(sigma) / np.sqrt(n), rel=1e-12)
    assert qz.qp_norm_upper_bound(qz.cycle_space(n), sigma)["hilbert_schmidt"] == pytest.approx(
        frobenius, rel=1e-12)


def test_qp_norm_upper_bound_is_deterministic():
    space = qz.cycle_space(16)
    sigma = random_complex(substream(6, "quant-qp-repeat"), (16, 16))
    assert qz.qp_norm_upper_bound(space, sigma) == qz.qp_norm_upper_bound(space, sigma)


# ---------------------------------------------------------------- bimeasure


def test_bimeasure_singleton_squares_phases_cancel():
    b = qz.SequenceBimeasure(np.array([2.0 - 1.0j]))
    val = qz.bimeasure_eval(b, [1], [1])
    assert val == pytest.approx((2.0 - 1.0j) ** 2, abs=1e-15)


def test_bimeasure_empty_set_is_zero():
    b = qz.SequenceBimeasure(np.array([1.0, 2.0]))
    assert qz.bimeasure_eval(b, [], [1]) == 0.0


def test_bimeasure_takes_a_list_a_tuple_a_range_or_an_index_array_alike():
    b, _ = random_bimeasure(7, 0, 5)
    expected = qz.bimeasure_eval(b, [3, 4], [2, 5])
    for e in ((3, 4), range(3, 5), np.array([4, 3, 3], dtype=np.int32)):
        assert qz.bimeasure_eval(b, e, range(2, 6, 3)) == expected


@pytest.mark.parametrize("subset, message", [
    ([1.7], "must hold integer indices"),
    ([True], "must hold integer indices"),
    (np.array([1.0, 2.0]), "must hold integer indices"),
    (2, "must be a 1-D sequence of indices"),
    (np.int64(2), "must be a 1-D sequence of indices"),
    ([0], "contains indices outside 1..3"),
    ([4], "contains indices outside 1..3"),
    ([1, True], "must hold integer indices"),
    ((3, np.True_), "must hold integer indices"),
], ids=["float", "bool", "float-array", "int", "int64", "zero", "past-n",
        "bool-among-ints", "numpy-bool-in-a-tuple"])
def test_bimeasure_refuses_index_sets_it_would_have_to_cast_or_cannot_index(subset, message):
    b = qz.SequenceBimeasure(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(errors.InputDomainError, match=f"E {message}"):
        qz.bimeasure_eval(b, subset, [2])
    with pytest.raises(errors.InputDomainError, match=f"F {message}"):
        qz.bimeasure_eval(b, [2], subset)


def test_bimeasure_separately_additive():
    for trial in range(50):
        b, rng = random_bimeasure(7, trial, 8)
        e1 = [1, 3]
        e2 = [4, 7]
        f = [2, 5, 6]
        lhs = qz.bimeasure_eval(b, e1 + e2, f)
        rhs = qz.bimeasure_eval(b, e1, f) + qz.bimeasure_eval(b, e2, f)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        lhs2 = qz.bimeasure_eval(b, f, e1 + e2)
        rhs2 = qz.bimeasure_eval(b, f, e1) + qz.bimeasure_eval(b, f, e2)
        assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def test_bimeasure_true_bound_is_l1_products():
    # |m(E x F)| <= |phi|_E|_1 |phi|_F|_1 always (triangle inequality)
    for trial in range(100):
        b, rng = random_bimeasure(8, trial, 8)
        e = [int(j) for j in rng.choice(np.arange(1, 9), 4, replace=False)]
        f = [int(j) for j in rng.choice(np.arange(1, 9), 3, replace=False)]
        val = abs(qz.bimeasure_eval(b, e, f))
        idx_e = np.asarray(e) - 1
        idx_f = np.asarray(f) - 1
        cap = np.abs(b.phi[idx_e]).sum() * np.abs(b.phi[idx_f]).sum()
        assert val <= cap + 1e-12


def test_bimeasure_l2_bound_fails_on_explicit_counterexample():
    # the rank-one product bimeasure does NOT obey |m| <= |phi|_2^2 for
    # arbitrary sets: with phi = (1,-1)/sqrt(2) and E = F = {1,2} the value
    # is 2 while |phi|_2^2 = 1.  The acceptance suite states the bound as
    # given and therefore fails; this test pins the counterexample.
    b = qz.SequenceBimeasure(np.array([1.0, -1.0]) / np.sqrt(2))
    val = abs(qz.bimeasure_eval(b, [1, 2], [1, 2]))
    assert val == pytest.approx(2.0, abs=1e-12)
    assert val > np.linalg.norm(b.phi) ** 2 + 0.5


def test_bimeasure_integrate_single_indicator_matches_eval():
    b, rng = random_bimeasure(9, 0, 6)
    e = [1, 4, 5]
    f = [2, 3]
    alpha = np.isin(np.arange(1, 7), e).astype(complex)
    beta = np.isin(np.arange(1, 7), f).astype(complex)
    d = Decomposition(alphas=[alpha], betas=[beta], weights=[1.0])
    assert qz.bimeasure_integrate(b, d) == pytest.approx(qz.bimeasure_eval(b, e, f), abs=1e-12)


def test_bimeasure_integrate_matches_grid_double_sum():
    for trial in range(50):
        b, rng = random_bimeasure(10, trial, 6)
        k = int(rng.integers(1, 4))
        d = Decomposition(alphas=random_complex(rng, (k, 6)),
                          betas=random_complex(rng, (k, 6)),
                          weights=rng.uniform(0.1, 2.0, k))
        psi = np.einsum("t,ti,tj->ij", d.weights.astype(complex), d.alphas, d.betas)
        via_terms = qz.bimeasure_integrate(b, d)
        via_grid = qz.bimeasure_integrate_grid(b, psi)
        assert via_terms == pytest.approx(via_grid, abs=1e-10)


def test_bimeasure_integrate_representation_independent():
    # two exact decompositions of the same gridwise symbol integrate equally
    for trial in range(30):
        b, rng = random_bimeasure(11, trial, 5)
        k = int(rng.integers(1, 4))
        alphas = random_complex(rng, (k, 5))
        betas = random_complex(rng, (k, 5))
        weights = rng.uniform(0.5, 1.5, k)
        d1 = Decomposition(alphas=alphas, betas=betas, weights=weights)
        psi = np.einsum("t,ti,tj->ij", weights.astype(complex), alphas, betas)
        # column-against-standard-basis re-factorization of the same grid
        d2 = Decomposition(alphas=psi.T.copy(), betas=np.eye(5, dtype=complex),
                           weights=np.ones(5))
        psi2 = np.einsum("t,ti,tj->ij", d2.weights.astype(complex), d2.alphas, d2.betas)
        np.testing.assert_allclose(psi2, psi, atol=1e-12)
        v1 = qz.bimeasure_integrate(b, d1)
        v2 = qz.bimeasure_integrate(b, d2)
        assert v1 == pytest.approx(v2, abs=1e-10)
        assert v1 == pytest.approx(qz.bimeasure_integrate_grid(b, psi), abs=1e-10)


def test_semivariation_is_l1_squared():
    for trial in range(20):
        b, _ = random_bimeasure(12, trial, 7)
        assert qz.semivariation(b) == pytest.approx(b.l1_norm() ** 2, rel=1e-12)


# ---------------------------------------------------------------- grothendieck


def test_grothendieck_norm_single_term():
    d = Decomposition(alphas=[[2.0, 1.0]], betas=[[0.0, 3.0]], weights=[1.0])
    assert qz.grothendieck_norm(d) == pytest.approx(6.0, abs=1e-12)


def test_grothendieck_norm_below_term_cost_for_normalized_atoms():
    # with sup-normalized atoms the square-function cost is at most the
    # weighted term cost (l2 <= l1 across terms)
    for trial in range(50):
        rng = substream(14, "quant-groth", trial)
        k = int(rng.integers(1, 6))
        alphas = random_complex(rng, (k, 6))
        betas = random_complex(rng, (k, 6))
        alphas /= np.abs(alphas).max(axis=1, keepdims=True)
        betas /= np.abs(betas).max(axis=1, keepdims=True)
        weights = rng.uniform(0.1, 2.0, k)
        d = Decomposition(alphas=alphas, betas=betas, weights=weights)
        cost = float(np.sum(weights))  # sup norms are all 1
        assert qz.grothendieck_norm(d) <= cost + 1e-10


@pytest.mark.parametrize("terms, n", [(4, 4), (2, 5), (9, 3), (17, 1), (1, 6)])
def test_grothendieck_norm_of_a_stack_is_each_decompositions_norm(terms, n):
    # term counts equal to n and not, up to past numpy's 8-way unrolled sums
    rng = substream(16, f"quant-groth-stack-{terms}-{n}")
    alphas, betas = random_complex(rng, (3, terms, n)), random_complex(rng, (3, terms, n))
    weights = rng.uniform(0.1, 2.0, (3, terms))
    norms = qz.grothendieck_norm(Decomposition(alphas=alphas, betas=betas, weights=weights))
    assert norms.shape == (3,)
    for i in range(3):
        alone = qz.grothendieck_norm(Decomposition(alphas=alphas[i], betas=betas[i],
                                                   weights=weights[i]))
        assert type(alone) is float
        assert norms[i].tobytes() == np.float64(alone).tobytes()


def test_grothendieck_ratio_experiment_reports_only():
    ratios = []
    for trial in range(30):
        rng = substream(15, "quant-kg", trial)
        k = int(rng.integers(2, 6))
        alphas = random_complex(rng, (k, 8))
        betas = random_complex(rng, (k, 8))
        alphas /= np.abs(alphas).max(axis=1, keepdims=True)
        betas /= np.abs(betas).max(axis=1, keepdims=True)
        weights = rng.uniform(0.1, 2.0, k)
        d = Decomposition(alphas=alphas, betas=betas, weights=weights)
        cost = float(np.sum(weights * np.abs(d.alphas).max(axis=1) * np.abs(d.betas).max(axis=1)))
        ratios.append(cost / qz.grothendieck_norm(d))
    assert all(r >= 1.0 - 1e-12 for r in ratios)
    assert np.isfinite(max(ratios))


# ---------------------------------------------------------------- polymeasure


def test_polymeasure_single_slot():
    rng = substream(16, "quant-poly")
    f0 = random_complex(rng, 4)
    eh = eig_hermitian(random_hermitian(rng, 4))
    np.testing.assert_allclose(qz.polymeasure_eval([f0], [], eh), np.diag(f0), atol=0)


def test_polymeasure_all_ones_telescopes():
    rng = substream(17, "quant-poly2")
    eh = eig_hermitian(random_hermitian(rng, 4))
    ones = np.ones(4)
    out = qz.polymeasure_eval([ones, ones, ones], [0.7, 1.9], eh)
    expected = apply_function(eh, lambda x: np.exp(-1.9j * x))
    np.testing.assert_allclose(out, expected, atol=1e-11)


def test_polymeasure_separately_additive():
    rng = substream(18, "quant-poly3")
    eh = eig_hermitian(random_hermitian(rng, 5))
    f0 = random_complex(rng, 5)
    f2 = random_complex(rng, 5)
    e = np.isin(np.arange(5), [0, 3]).astype(complex)
    e_prime = np.isin(np.arange(5), [1, 4]).astype(complex)
    times = [0.5, 1.2]
    combined = qz.polymeasure_eval([f0, e + e_prime, f2], times, eh)
    split = (qz.polymeasure_eval([f0, e, f2], times, eh)
             + qz.polymeasure_eval([f0, e_prime, f2], times, eh))
    assert np.abs(combined - split).max() <= 1e-12


def test_polymeasure_concatenates_time_intervals():
    rng = substream(19, "quant-poly4")
    eh = eig_hermitian(random_hermitian(rng, 4))
    f0 = random_complex(rng, 4)
    f_end = random_complex(rng, 4)
    ones = np.ones(4)
    direct = qz.polymeasure_eval([f0, f_end], [2.0], eh)
    threaded = qz.polymeasure_eval([f0, ones, f_end], [0.8, 2.0], eh)
    np.testing.assert_allclose(threaded, direct, atol=1e-11)


def test_polymeasure_rejects_bad_times():
    eh = eig_hermitian(np.eye(2))
    with pytest.raises(errors.InputDomainError, match="increasing"):
        qz.polymeasure_eval([np.ones(2), np.ones(2)], [-1.0], eh)
    with pytest.raises(errors.InputDomainError, match="increasing"):
        qz.polymeasure_eval([np.ones(2), np.ones(2), np.ones(2)], [1.0, 1.0], eh)


@pytest.mark.parametrize("times", [[np.nan], [np.inf], [0.5, np.inf]])
def test_polymeasure_refuses_non_finite_times(times):
    eh = eig_hermitian(np.eye(2))
    with pytest.raises(errors.InputDomainError, match="^times has non-finite entries"):
        qz.polymeasure_eval([np.ones(2)] * (len(times) + 1), times, eh)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_polymeasure_refuses_a_non_finite_slot_naming_it(bad):
    eh = eig_hermitian(np.eye(2))
    slots = [np.ones(2, dtype=complex) for _ in range(3)]
    slots[1][0] = bad
    with pytest.raises(errors.InputDomainError, match="slot 1 has non-finite entries"):
        qz.polymeasure_eval(slots, [0.5, 1.0], eh)
