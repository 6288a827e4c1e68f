import ast
import json
import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opint import doi, errors, linalg, quantization, shift, sylvester
from opint.rng import random_complex, random_hermitian, substream

SRC_DIR = os.path.dirname(os.path.abspath(linalg.__file__))


def test_eig_already_diagonal_is_signed_permutation():
    e = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(e.eigenvalues, [1.0, 2.0, 3.0], atol=0)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0  # columns pick rows 1, 2, 0
    np.testing.assert_allclose(e.unitary, expected, atol=0)


def test_eig_pauli_x():
    e = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(e.eigenvalues, [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_eig_extreme_scales(scale):
    h = np.array([[scale, scale], [scale, -scale]])
    np.testing.assert_allclose(linalg.eig_hermitian(h).eigenvalues,
                               [-np.sqrt(2) * scale, np.sqrt(2) * scale], rtol=1e-14, atol=0)


def test_eig_reconstruction_random_6x6():
    h = random_hermitian(substream(123, "linalg-eig"), 6)
    e = linalg.eig_hermitian(h)
    rel = np.linalg.norm(e.reconstruct() - h) / np.linalg.norm(h)
    assert rel <= 1e-10


def test_eig_matches_lapack_eigenvalues():
    for trial in range(20):
        h = random_hermitian(substream(5, "linalg-lapack", trial), 5)
        w = linalg.eig_hermitian(h).eigenvalues
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-11)


def test_eig_unitarity():
    h = random_hermitian(substream(9, "linalg-phase"), 7)
    e = linalg.eig_hermitian(h)
    gram = e.unitary @ e.unitary.conj().T
    assert np.abs(gram - np.eye(7)).max() <= 1e-10


def test_eig_deterministic():
    h = random_hermitian(substream(11, "linalg-det"), 6)
    e1 = linalg.eig_hermitian(h)
    e2 = linalg.eig_hermitian(h)
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    assert np.array_equal(e1.unitary, e2.unitary)


def test_eig_rejects_non_hermitian_and_reports_asymmetry():
    for c in (1e-6, 1.0, 1e6):
        with pytest.raises(errors.InputDomainError, match="asymmetry"):
            linalg.eig_hermitian(c * np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_accepts_rounded_hermitian_product_at_scale():
    # the product's rounding asymmetry grows with its entries (~8e-12 at
    # scale 100, ~1e-9 at 1e4): the tolerance must be relative to them
    rng = substream(14, "linalg-herm-scale")
    a = random_complex(rng, (32, 32))
    m = a @ random_hermitian(rng, 32) @ a.conj().T
    for c in (100.0, 1e4):
        h = c * m
        assert np.abs(h - h.conj().T).max() > linalg.HERMITIAN_TOL
        w = linalg.eig_hermitian(h).eigenvalues
        np.testing.assert_allclose(w, np.linalg.eigvalsh((h + h.conj().T) / 2),
                                   rtol=0, atol=1e-12 * np.abs(w).max())


def test_eig_of_entries_near_the_largest_float_does_not_overflow():
    h = np.array([[1e308, 1e308], [1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = linalg.eig_hermitian(h).eigenvalues
    assert np.isfinite(w).all()
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=1e-15, atol=0)


@pytest.mark.parametrize("exponent", [-300, -150, -20, 0, 20, 150, 300])
def test_as_hermitian_equals_the_halved_sum_bit_for_bit(exponent):
    rng = substream(21, "linalg-halves", exponent + 300)
    for dim in (1, 2, 5, 9):
        h = random_hermitian(rng, dim) * 10.0 ** exponent
        h = h * (1 + 1e-14 * rng.standard_normal((dim, dim)))  # rounding asymmetry
        expected = (h + h.conj().T) / 2.0
        assert np.array_equal(linalg.as_hermitian(h).view(np.uint64),
                              expected.view(np.uint64))


def test_eig_rejects_non_finite():
    with pytest.raises(errors.InputDomainError, match="non-finite"):
        linalg.eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("entry", [complex(bad, 0.0) for bad in (np.nan, np.inf, -np.inf)]
                         + [complex(0.0, bad) for bad in (np.nan, np.inf, -np.inf)])
def test_as_complex_matrix_rejects_non_finite_real_or_imaginary_part(entry):
    m = np.zeros((2, 2), dtype=np.complex128)
    m[1, 0] = entry
    with pytest.raises(errors.InputDomainError, match="^M has non-finite entries"):
        linalg.as_complex_matrix(m, "M")


@pytest.mark.parametrize("m", [[[1, 2], [3]], [["a", "b"], ["c", "d"]]])
def test_as_complex_matrix_refuses_ragged_or_non_numeric_input_naming_it(m):
    with pytest.raises(errors.InputDomainError, match="^M is not a numeric array"):
        linalg.as_complex_matrix(m, "M")


def test_as_complex_matrix_returns_a_complex128_input_uncopied():
    m = random_complex(substream(5, "linalg-no-copy"), (3, 3))
    assert linalg.as_complex_matrix(m) is m


def _read_only(m):
    a = np.array(m, dtype=np.complex128)
    a.flags.writeable = False
    return a


def _read_only_calls():
    rng = substream(3, "linalg-read-only")
    n = 4
    a = _read_only(random_hermitian(rng, n) + 4.0 * np.eye(n))
    b = _read_only(random_hermitian(rng, n) - 4.0 * np.eye(n))
    y = _read_only(random_complex(rng, (n, n)))
    pair = doi.make_spectral_pair(a, b)
    sym = doi.symbol_from_function(pair, lambda lam, mu: 1.0 / (lam - mu))
    space = quantization.cycle_space(n)
    return {
        "quantize": lambda: quantization.quantize(space, y),
        "momentum_operator": lambda: quantization.momentum_operator(space, _read_only(y[0])),
        "doi_apply": lambda: doi.doi_apply(pair, sym, y),
        "doi_fourier": lambda: doi.doi_fourier(pair, lambda s: np.exp(-s * s), y),
        "solve_gap": lambda: sylvester.solve_gap(a, b, y).report(),
        "kron_oracle": lambda: sylvester.kron_oracle(a, linalg.eig_hermitian(b, "B"), y),
        "schatten_norm": lambda: linalg.schatten_norm(y, 3),
        "eig_hermitian": lambda: linalg.eig_hermitian(a),
        "matrix_to_json_dict": lambda: linalg.matrix_to_json_dict(y),
    }


@pytest.mark.parametrize("name", list(_read_only_calls()))
def test_validated_entry_points_accept_read_only_inputs(name):
    _read_only_calls()[name]()


def test_quantize_of_a_complex128_sigma_shares_no_memory_with_it():
    sigma = _read_only(random_complex(substream(4, "linalg-quantize-alias"), (5, 5)))
    m = quantization.quantize(quantization.cycle_space(5), sigma)
    assert not np.shares_memory(m, sigma)


def test_apply_function_identity_returns_source():
    h = random_hermitian(substream(2, "linalg-fc"), 5)
    e = linalg.eig_hermitian(h)
    np.testing.assert_allclose(linalg.apply_function(e, lambda x: x), h, atol=1e-12)


def test_apply_function_exp_of_zero_is_identity():
    e = linalg.eig_hermitian(np.zeros((4, 4)))
    np.testing.assert_allclose(linalg.apply_function(e, np.exp), np.eye(4), atol=1e-14)


def test_apply_function_arctan_scalar():
    e = linalg.eig_hermitian(np.diag([1.0]))
    np.testing.assert_allclose(linalg.apply_function(e, np.arctan), [[np.pi / 4]], atol=1e-15)


def test_apply_function_additive():
    h = random_hermitian(substream(3, "linalg-add"), 6)
    e = linalg.eig_hermitian(h)
    f, g = np.sin, np.exp
    lhs = linalg.apply_function(e, lambda x: f(x) + g(x))
    rhs = linalg.apply_function(e, f) + linalg.apply_function(e, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_apply_function_error_names_eigenvalue():
    e = linalg.eig_hermitian(np.diag([0.0, 4.0]))
    with pytest.raises(errors.EvaluationError, match="0.0"):
        linalg.apply_function(e, lambda x: 1.0 / x)


def test_apply_function_calls_f_once_on_the_whole_spectrum():
    e = linalg.eig_hermitian(np.diag([1.0, 2.0, 3.0]))
    seen = []
    linalg.apply_function(e, lambda x: seen.append(np.shape(x)) or np.sin(x))
    assert seen == [(3,)]


@pytest.mark.parametrize("f, match", [
    (math.sin, "failed at eigenvalue -1.0"),      # scalar-only: raises on an array
    (lambda x: 1.0, r"shape \(\) at eigenvalue -1.0"),
    (lambda x: np.log(x + 1.0), "not finite at eigenvalue -1.0"),
])
def test_apply_function_refuses_a_bad_f_naming_an_eigenvalue(f, match):
    e = linalg.eig_hermitian(np.diag([-1.0, 2.0]))
    with np.errstate(divide="ignore"), pytest.raises(errors.EvaluationError, match=match):
        linalg.apply_function(e, f)


def test_schatten_identity_trace_norm():
    assert linalg.schatten_norm(np.eye(5), 1) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, np.inf])
def test_schatten_rank_one_projector(p):
    v = substream(4, "linalg-proj").standard_normal(4)
    v = v / np.linalg.norm(v)
    proj = np.outer(v, v)
    assert linalg.schatten_norm(proj, p) == pytest.approx(1.0, abs=1e-10)


def test_schatten_frobenius_identity():
    m = random_complex(substream(6, "linalg-frob"), (4, 4))
    expect = np.sqrt((np.abs(m) ** 2).sum())
    assert linalg.schatten_norm(m, 2) == pytest.approx(expect, abs=1e-10)


def test_schatten_monotone_in_inverse_p():
    ps = [1, 1.2, 2, 3, 5, np.inf]
    for trial in range(200):
        m = random_complex(substream(7, "linalg-mono", trial), (4, 4))
        norms = [linalg.schatten_norm(m, p) for p in ps]
        for lo, hi in zip(norms, norms[1:]):
            assert lo >= hi - 1e-10


def test_schatten_hoelder_duality():
    pairs = [(1, np.inf), (2, 2), (4, 4 / 3), (3, 1.5)]
    for trial in range(200):
        rng = substream(8, "linalg-dual", trial)
        m = random_complex(rng, (4, 4))
        n = random_complex(rng, (4, 4))
        inner = abs(np.trace(m @ n.conj().T))
        p, q = pairs[trial % len(pairs)]
        assert inner <= linalg.schatten_norm(m, p) * linalg.schatten_norm(n, q) * (1 + 1e-10)


def test_schatten_rejects_small_p():
    with pytest.raises(errors.InputDomainError):
        linalg.schatten_norm(np.eye(2), 0.5)


def test_schatten_rejects_nan_p():
    with pytest.raises(errors.InputDomainError):
        linalg.schatten_norm(np.eye(2), np.nan)


@pytest.mark.parametrize("p", [True, False, np.True_, "x", "inf", None, 2 + 0j, [2]],
                         ids=repr)
def test_schatten_rejects_a_p_that_is_not_a_real_number(p):
    # True once read as 1 and gave the trace norm, 7 for diag(3, 4)
    with pytest.raises(errors.InputDomainError, match="^Schatten norm needs a real p"):
        linalg.schatten_norm(np.diag([3.0, 4.0]), p)
    with pytest.raises(errors.InputDomainError, match="^Schatten norm needs a real p"):
        linalg.schatten_norm_of_values(np.array([[4.0, 3.0]]), p)


@pytest.mark.parametrize("p, norm", [(1, 7.0), (np.int64(1), 7.0), (2.0, 5.0),
                                     (np.float64(2), 5.0), (np.inf, 4.0)])
def test_schatten_takes_python_and_numpy_real_p(p, norm):
    assert linalg.schatten_norm(np.diag([3.0, 4.0]), p) == norm


def test_schatten_large_p_does_not_overflow():
    # 10**400 overflows a double
    assert linalg.schatten_norm(np.diag([10.0, 1.0]), 400) == 10.0
    assert linalg.schatten_norm(np.zeros((3, 3)), 400) == 0.0


def test_trace_norm_graded_singular_values():
    s = np.logspace(0, -12, 8)
    for trial in range(10):
        rng = substream(14, "linalg-graded", trial)
        u, _ = np.linalg.qr(random_complex(rng, (8, 8)))
        v, _ = np.linalg.qr(random_complex(rng, (8, 8)))
        m = (u * s) @ v.conj().T
        assert abs(linalg.trace_norm(m) - s.sum()) <= 1e-12


def test_dft_small_cases():
    np.testing.assert_allclose(linalg.dft_unitary(1), [[1.0]], atol=0)
    f2 = linalg.dft_unitary(2)
    np.testing.assert_allclose(f2, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_dft_unitary_and_order_four(n):
    f = linalg.dft_unitary(n)
    np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-12)
    f4 = np.linalg.matrix_power(f, 4)
    np.testing.assert_allclose(f4, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", [1, 7, 64, 1031])
def test_dft_unitary_equals_meshgrid_formula_bitwise(n):
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dense = np.exp(-2j * np.pi * (j * k % n) / n) / np.sqrt(n)
    assert np.array_equal(linalg.dft_unitary(n), dense)


def test_dft_rejects_zero():
    with pytest.raises(errors.InputDomainError):
        linalg.dft_unitary(0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_reconstruction_property(dim, seed):
    h = random_hermitian(substream(seed, "linalg-hyp"), dim)
    e = linalg.eig_hermitian(h)
    scale = max(np.linalg.norm(h), 1.0)
    assert np.linalg.norm(e.reconstruct() - h) / scale <= 1e-10
    assert (np.diff(e.eigenvalues) >= 0).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=-150, max_value=150))
def test_scale_equivariance_property(dim, seed, k):
    h = random_hermitian(substream(seed, "linalg-scale"), dim)
    c = 10.0**k
    w = np.linalg.eigvalsh(h)
    size = np.abs(w).max()
    np.testing.assert_allclose(linalg.eig_hermitian(c * h).eigenvalues / c, w,
                               rtol=0, atol=1e-12 * size)
    for p in (1, 2, 3, 400, np.inf):
        assert linalg.schatten_norm(c * h, p) / c == pytest.approx(
            linalg.schatten_norm(h, p), rel=1e-12)


def test_matrix_json_round_trip(tmp_path):
    m = random_complex(substream(10, "linalg-json"), (3, 3))
    path = tmp_path / "m.json"
    linalg.save_matrix(path, m)
    np.testing.assert_allclose(linalg.load_matrix(path), m, atol=0)


def test_matrix_json_hermitian_validation(tmp_path):
    path = tmp_path / "h.json"
    linalg.save_matrix(path, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(errors.InputDomainError, match="asymmetry"):
        linalg.load_matrix(path, hermitian=True)
    h = random_hermitian(substream(12, "linalg-json-h"), 4)
    linalg.save_matrix(path, h)
    np.testing.assert_allclose(linalg.load_matrix(path, hermitian=True), h, atol=0)


def test_matrix_json_malformed():
    with pytest.raises(errors.InputDomainError, match="malformed"):
        linalg.matrix_from_json_dict({"dim": 2, "re": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("d, message", [
    ({"dim": 1, "re": [["1.5"]], "im": [[0]]}, "'re'/'im' entries must be JSON numbers, got str"),
    ({"dim": 1, "re": [[1.5]], "im": [[True]]}, "'re'/'im' entries must be JSON numbers, got bool"),
    ({"dim": 2, "re": [[1, True], [0, 1]], "im": [[0, 0], [0, 0]]},
     "'re'/'im' entries must be JSON numbers, got bool"),
    ({"dim": 1, "re": [[None]], "im": [[0]]}, "'re'/'im' entries must be JSON numbers, got NoneType"),
    ({"dim": 1.9, "re": [[1]], "im": [[0]]}, r"malformed matrix JSON \('dim' is not an integer"),
    ({"dim": 1.0, "re": [[1]], "im": [[0]]}, r"malformed matrix JSON \('dim' is not an integer"),
    ({"dim": True, "re": [[1]], "im": [[0]]}, r"malformed matrix JSON \('dim' is not an integer"),
], ids=["string-entry", "boolean-entry", "boolean-among-integers", "null-entry",
        "fractional-dim", "float-dim", "boolean-dim"])
def test_matrix_json_refuses_what_it_would_have_to_cast(d, message):
    with pytest.raises(errors.InputDomainError, match=f"^m.json: {message}"):
        linalg.matrix_from_json_dict(d, name="m.json")


def test_matrix_json_takes_integer_and_float_entries():
    m = linalg.matrix_from_json_dict({"dim": 2, "re": [[1, 0.5], [2, -3]], "im": [[0, 1], [0.0, -1]]})
    np.testing.assert_array_equal(m, [[1, 0.5 + 1j], [2, -3 - 1j]])


@pytest.fixture
def load_cache(monkeypatch):
    """An empty matrix cache in place of the process-wide one, and the list
    that records one entry per JSON parse."""
    cache = linalg._MatrixCache(linalg.LOAD_CACHE_BYTES)
    monkeypatch.setattr(linalg, "_loaded", cache)
    parses = []

    def counted(*args, _original=json.loads, **kwargs):
        parses.append(args[0])
        return _original(*args, **kwargs)
    monkeypatch.setattr(json, "loads", counted)
    return cache, parses


def _retained(cache) -> int:
    return sum(m.nbytes + cache.ENTRY_BYTES for m in cache._entries.values())


def test_load_matrix_rereads_a_file_rewritten_at_the_same_size_and_mtime(tmp_path):
    path = tmp_path / "m.json"
    linalg.save_matrix(path, np.array([[1.0]]))
    assert linalg.load_matrix(path)[0, 0] == 1.0
    stat = os.stat(path)
    size = stat.st_size
    linalg.save_matrix(path, np.array([[2.0]]))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    assert linalg.load_matrix(path)[0, 0] == 2.0


@pytest.mark.parametrize("hermitian", [False, True])
def test_load_matrix_returns_a_new_writable_array_on_every_call(tmp_path, load_cache, hermitian):
    _, parses = load_cache
    h = random_hermitian(substream(14, "linalg-json-copy"), 4)
    path = tmp_path / "h.json"
    linalg.save_matrix(path, h)
    first = linalg.load_matrix(path, hermitian=hermitian)
    expected = first.tobytes()
    first[:] = 99.0
    second = linalg.load_matrix(path, hermitian=hermitian)
    assert len(parses) == 1
    assert second.flags.writeable and second.tobytes() == expected
    np.testing.assert_array_equal(second, linalg.as_hermitian(h) if hermitian else h)


def test_load_matrix_validates_entries_only_on_a_cache_miss(tmp_path, load_cache, monkeypatch):
    path = tmp_path / "m.json"
    linalg.save_matrix(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    validated = []

    def counted(*args, _original=linalg.matrix_from_json_dict, **kwargs):
        validated.append(args[0])
        return _original(*args, **kwargs)
    monkeypatch.setattr(linalg, "matrix_from_json_dict", counted)
    for _ in range(3):
        linalg.load_matrix(path)
    assert len(validated) == len(load_cache[1]) == 1


def test_load_matrix_caches_no_malformed_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"dim": 1, "re": [[1', encoding="utf-8")
    with pytest.raises(errors.InputDomainError, match=f"^{path}: malformed matrix JSON"):
        linalg.load_matrix(path)
    linalg.save_matrix(path, np.array([[3.0]]))
    assert linalg.load_matrix(path)[0, 0] == 3.0


def test_load_matrix_validates_a_cached_matrix_as_hermitian_under_each_path(
        tmp_path, load_cache):
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for path in (first, second):
        linalg.save_matrix(path, m)
    np.testing.assert_array_equal(linalg.load_matrix(first), m)
    for path in (second, first):
        with pytest.raises(errors.InputDomainError, match=f"^{path} is not hermitian"):
            linalg.load_matrix(path, hermitian=True)
    assert len(load_cache[1]) == 1


def test_load_matrix_evicts_the_least_recently_used_matrix_within_its_budget(
        tmp_path, load_cache):
    cache, parses = load_cache
    cache.budget = 2 * (4 * 16 + cache.ENTRY_BYTES)  # two 2 x 2 matrices
    rng = substream(15, "linalg-json-lru")
    paths = {}
    for name, dim in (("m0", 2), ("m1", 2), ("m2", 2), ("big", 8)):
        paths[name] = tmp_path / f"{name}.json"
        linalg.save_matrix(paths[name], random_complex(rng, (dim, dim)))
    parsed = []
    for name in ("m0", "m1", "m0", "m2", "m0", "m1", "big", "big", "m0"):
        count = len(parses)
        linalg.load_matrix(paths[name])
        parsed.append(len(parses) > count)
        assert cache.retained == _retained(cache) <= cache.budget
    # m2 evicts m1, the least recently used, and m1 then evicts m2; big is never kept
    assert parsed == [True, True, False, True, False, True, True, True, False]


def test_load_matrix_cache_keeps_its_count_under_concurrent_use(tmp_path, load_cache):
    cache, _ = load_cache
    cache.budget = 3 * (9 * 16 + cache.ENTRY_BYTES)  # three of the 3 x 3 matrices
    rng = substream(16, "linalg-json-threads")
    files = []
    for k in range(6):
        m = random_hermitian(rng, 3)
        linalg.save_matrix(tmp_path / f"m{k}.json", m)
        files.append((tmp_path / f"m{k}.json", linalg.as_hermitian(m)))
    entries = [(bytes([k]), np.full((3, 3), k, dtype=np.complex128)) for k in range(12)]
    wrong = []

    def worker(offset):
        # bare lookups and inserts between the loads: an unlocked count drifts
        for i in range(8000):
            key, m = entries[(offset + i) % len(entries)]
            if cache.get(key) is None:
                cache.put(key, m)
            if i % 400 == 0:
                path, expected = files[(offset + i // 400) % len(files)]
                if not np.array_equal(linalg.load_matrix(path, hermitian=True), expected):
                    wrong.append(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert cache.retained == _retained(cache) <= cache.budget


def test_projector_from_mask():
    h = random_hermitian(substream(13, "linalg-projmask"), 5)
    e = linalg.eig_hermitian(h)
    mask = e.eigenvalues <= np.median(e.eigenvalues)
    p = e.projector(mask)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
    assert np.trace(p).real == pytest.approx(mask.sum(), abs=1e-10)


@pytest.mark.parametrize("mask", [[0, 1], [1.7, 0], [np.nan, True], np.array([0, 1]),
                                  np.array([1.0, 0.0]), [True, 1], [[True], [False]]])
def test_projector_refuses_a_mask_that_is_not_boolean(mask):
    # an index list, numbers or a NaN flag were read as flags
    e = linalg.eig_hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(errors.InputDomainError, match="mask"):
        e.projector(mask)


@pytest.mark.parametrize("mask", [[False, True], np.array([False, True]), [np.False_, True]])
def test_projector_takes_a_boolean_array_or_a_sequence_of_bools(mask):
    e = linalg.eig_hermitian(np.diag([0.0, 1.0]))
    assert e.projector(mask).tobytes() == np.diag([0.0, 1.0]).astype(complex).tobytes()


def _eigh_test_matrices():
    for n in (1, 2, 3, 5, 8, 17, 64, 128):
        rng = substream(21, "phase-reference", n)
        h = random_hermitian(rng, n)
        zero_row = h.copy()
        zero_row[0, :] = zero_row[:, 0] = 0.0
        yield from (h, zero_row)
        for k in (-150, -10, 0, 10, 150):
            yield np.diag(rng.standard_normal(n) * 10.0 ** k)


def test_eig_hermitian_is_eigh_of_the_symmetrized_matrix_bit_for_bit():
    for h in _eigh_test_matrices():
        w, v = np.linalg.eigh(linalg.as_hermitian(h))
        e = linalg.eig_hermitian(h)
        assert e.eigenvalues.tobytes() == w.tobytes()
        assert e.unitary.tobytes() == v.tobytes()
        assert np.abs(e.unitary @ e.unitary.conj().T - np.eye(len(h))).max() <= 1e-10


def _rephased(e: linalg.EigenSystem, rng) -> linalg.EigenSystem:
    """e with each eigenvector column times a random unit phase."""
    phases = np.exp(2j * np.pi * rng.uniform(size=e.dim))
    return linalg.EigenSystem(e.eigenvalues, e.unitary * phases)


def test_consumers_of_an_eigensystem_do_not_read_column_phases():
    # every route reads eigenvectors only through u u*: rephasing the columns
    # moves its results at rounding level, never by a phase
    rng = substream(23, "linalg-rephased")
    n = 7
    a, b = random_hermitian(rng, n), random_hermitian(rng, n)
    pair = doi.make_spectral_pair(a, b)
    turned = doi.SpectralPair(_rephased(pair.left, rng), _rephased(pair.right, rng))
    assert np.abs(turned.left.unitary - pair.left.unitary).max() > 0.1
    t = random_complex(rng, (n, n))
    w = random_complex(rng, n)
    w /= np.linalg.norm(w)
    sym = doi.symbol_from_function(pair, lambda lam, mu: np.exp(1j * lam) / (2.0 + lam - mu))
    mask = pair.right.eigenvalues < np.median(pair.right.eigenvalues)
    grid = np.linspace(-4.0, 4.0, 33)
    z = grid + 0.5j
    slots = [random_complex(rng, n) for _ in range(3)]

    def results(p: doi.SpectralPair) -> dict:
        return {
            "doi_apply": doi.doi_apply(p, sym, t),
            "apply_function": linalg.apply_function(p.left, np.arctan),
            "reconstruct": p.right.reconstruct(),
            "projector": p.right.projector(mask),
            "rank_one_cauchy_transform": shift.rank_one_cauchy_transform(p.right, w, z),
            "xi_rank_one": shift.xi_rank_one(p.right, w, 1.0, grid).ordinates,
            "polymeasure_eval": quantization.polymeasure_eval(slots, [0.3, 1.1], p.left),
        }
    refs = results(pair)
    for name, got in results(turned).items():
        ref = refs[name]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_eig_hermitian_names_the_matrix_in_errors():
    with pytest.raises(errors.InputDomainError, match="^H is not hermitian"):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), name="H")


def test_eig_hermitians_gives_each_matrix_the_bits_of_eig_hermitian():
    # mixed dimensions, interleaved: one stack per dimension
    rng = substream(29, "linalg-stacked")
    dims = (1, 2, 5, 8, 8, 5, 2, 1, 5, 8, 2)
    matrices = [random_hermitian(rng, n) for n in dims]
    for n in sorted(set(dims)):
        ks = [k for k, d in enumerate(dims) if d == n]
        names = [f"M{k}" for k in ks]
        stacked = linalg.eig_hermitians(np.stack([matrices[k] for k in ks]), names)
        assert stacked.unitary.shape == (len(ks), n, n)
        for j, (k, name) in enumerate(zip(ks, names)):
            alone = linalg.eig_hermitian(matrices[k], name)
            assert stacked.eigenvalues[j].tobytes() == alone.eigenvalues.tobytes()
            assert stacked.unitary[j].tobytes() == alone.unitary.tobytes()


@pytest.mark.parametrize("fault, message", [
    ("asymmetric", "is not hermitian: max asymmetry"),
    ("non-finite", "has non-finite entries"),
])
def test_eig_hermitians_refuses_a_bad_matrix_with_its_error_alone(fault, message):
    # the other matrices' entries are 1e6 times larger: a bound scaled over the
    # whole stack would pass the bad matrix's 1e-10 of asymmetry
    rng = substream(31, "linalg-stacked-bad")
    matrices = [1e4 * random_hermitian(rng, n) for n in (3, 4, 3, 4, 3)]
    bad = 1e-6 * matrices[2]
    bad[0, 1] += 1e-10 if fault == "asymmetric" else np.nan
    matrices[2] = bad
    with pytest.raises(errors.InputDomainError) as alone:
        linalg.eig_hermitian(bad, "C")
    assert str(alone.value).startswith(f"C {message}")
    with pytest.raises(errors.InputDomainError) as stacked:
        linalg.eig_hermitians(np.stack(matrices[0::2]), ["A", "C", "E"])
    assert str(stacked.value) == str(alone.value)
    assert linalg.eig_hermitians(np.stack(matrices[1::2]), ["B", "D"]).unitary.shape == (2, 4, 4)


@pytest.mark.parametrize("shape, names, error, message", [
    pytest.param((3, 3), ["A"] * 3, errors.InputDomainError,
                 r"^A has shape \(3,\), expected a 2-D array", id="matrix-n-names"),
    pytest.param((1, 1), ["A"], errors.InputDomainError,
                 r"^A has shape \(1,\), expected a 2-D array", id="1x1-matrix"),
    pytest.param((1, 2, 3, 3), ["A"], errors.InputDomainError,
                 r"^A has shape \(2, 3, 3\), expected a 2-D array", id="4-d"),
    pytest.param((3, 3), ["A"], ValueError,
                 r"^a stack of shape \(3, 3\) needs one name per matrix, got 1", id="matrix"),
    pytest.param((2, 3, 3), ["A"], ValueError, "needs one name per matrix, got 1",
                 id="fewer-names"),
    pytest.param((2, 3, 3), ["A", "B", "C"], ValueError, "needs one name per matrix, got 3",
                 id="more-names"),
    pytest.param((2, 3, 3), "A", ValueError, "needs one name per matrix, got 1", id="str-name"),
])
def test_eig_hermitians_refuses_what_is_not_a_stack_with_one_name_per_matrix(
        shape, names, error, message):
    with pytest.raises(error, match=message):
        linalg.eig_hermitians(np.ones(shape), names)


def test_as_hermitian_holds_each_matrix_of_a_stack_to_its_own_bound():
    # 1e-9 of asymmetry passes next to entries of 1e4, not next to entries of 1
    big = np.diag([1e4, 1.0]).astype(complex)
    small = np.eye(2, dtype=complex)
    big[0, 1] = small[0, 1] = 1e-9
    assert linalg.as_hermitian(np.stack([big, big]), ["A", "B"]).shape == (2, 2, 2)
    with pytest.raises(errors.InputDomainError, match="^B is not hermitian"):
        linalg.as_hermitian(np.stack([big, small]), ["A", "B"])


def test_as_hermitian_names_every_matrix_of_a_stack_by_its_one_name():
    # a str name names each matrix of a (k, n, n) stack, held to its own bound
    big = np.diag([1e4, 1.0]).astype(complex)
    small = np.eye(2, dtype=complex)
    big[0, 1] = small[0, 1] = 1e-9
    stack = np.stack([big, big, big])
    assert linalg.as_hermitian(stack, "A").tobytes() == linalg.as_hermitian(
        stack, ["A"] * 3).tobytes()
    with pytest.raises(errors.InputDomainError) as alone:
        linalg.as_hermitian(small, "A")
    assert str(alone.value).startswith("A is not hermitian: max asymmetry")
    for k in range(3):
        bad = stack.copy()
        bad[k] = small
        with pytest.raises(errors.InputDomainError) as stacked:
            linalg.as_hermitian(bad, "A")
        assert str(stacked.value) == str(alone.value)


def _lapack_calls(path) -> list:
    """(name, line) of each use of numpy.linalg's eigh, eigvalsh or svd in a
    source file, called as an attribute or imported by name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = {"eigh", "eigvalsh", "svd"}
    found = [(node.attr, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    found += [(alias.name, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
              for alias in node.names if alias.name in names]
    return found


def test_only_linalg_calls_the_lapack_eigensolver_and_svd():
    files = sorted(name for name in os.listdir(SRC_DIR) if name.endswith(".py"))
    calls = {name: _lapack_calls(os.path.join(SRC_DIR, name)) for name in files}
    assert {name for name, found in calls.items() if found} == {"linalg.py"}, calls
    assert sorted(name for name, _ in calls["linalg.py"]) == ["eigh", "svd"]


def test_singular_values_of_a_stack_are_each_matrix_alone_in_one_call(monkeypatch):
    rng = substream(32, "linalg-svd-stack")
    stack = random_complex(rng, (3, 4, 6))
    alone = [linalg.singular_values(m) for m in stack]
    svds = []

    def counted(*args, _original=np.linalg.svd, **kwargs):
        svds.append(1)
        return _original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    values = linalg.singular_values(stack)
    assert len(svds) == 1 and values.shape == (3, 4)
    for row, single in zip(values, alone):
        assert row.tobytes() == single.tobytes()


@pytest.mark.parametrize("m, message", [
    (np.full((2, 3, 3), np.nan), "matrix has non-finite entries"),
    (np.zeros((2, 2, 2, 2)), "matrix has shape (2, 2, 2, 2), expected a 2-D array"),
    (np.zeros(3), "matrix has shape (3,), expected a 2-D array"),
])
def test_singular_values_refuses_a_bad_stack_or_matrix(m, message):
    with pytest.raises(errors.InputDomainError, match=f"^{re.escape(message)}"):
        linalg.singular_values(m)
