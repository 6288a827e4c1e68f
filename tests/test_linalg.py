import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opint import errors, linalg
from opint.rng import random_complex, random_hermitian, substream


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
    off = np.array([[0.0, scale], [scale, 0.0]])
    np.testing.assert_allclose(linalg.hermitian_eigenvalues(off), [-scale, scale],
                               rtol=1e-14, atol=0)


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


def test_eig_unitarity_and_phase_convention():
    h = random_hermitian(substream(9, "linalg-phase"), 7)
    e = linalg.eig_hermitian(h)
    gram = e.unitary @ e.unitary.conj().T
    assert np.abs(gram - np.eye(7)).max() <= 1e-10
    for j in range(7):
        col = e.unitary[:, j]
        k = np.flatnonzero(np.abs(col) > 1e-8)[0]
        assert col[k].imag == 0.0 and col[k].real > 0.0


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


def test_eig_rejects_non_finite():
    with pytest.raises(errors.InputDomainError, match="non-finite"):
        linalg.eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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
    w = linalg.hermitian_eigenvalues(h)
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


def test_projector_from_mask():
    h = random_hermitian(substream(13, "linalg-projmask"), 5)
    e = linalg.eig_hermitian(h)
    mask = e.eigenvalues <= np.median(e.eigenvalues)
    p = e.projector(mask)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
    assert np.trace(p).real == pytest.approx(mask.sum(), abs=1e-10)


def _fix_phases_per_column(u):
    """The per-column phase convention that `_fix_phases` vectorizes, kept
    as the reference: each column's first entry of modulus > PHASE_TOL is
    made real and positive."""
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        idx = np.flatnonzero(np.abs(col) > linalg.PHASE_TOL)
        k = idx[0] if idx.size else int(np.argmax(np.abs(col)))
        pivot = col[k]
        if pivot != 0.0:
            u[:, j] = col * (abs(pivot) / pivot)
            u[k, j] = u[k, j].real
    return u


def _phase_test_matrices():
    for n in (1, 2, 3, 5, 8, 17, 64, 128):
        rng = substream(21, "phase-reference", n)
        h = random_hermitian(rng, n)
        zero_row = h.copy()
        zero_row[0, :] = zero_row[:, 0] = 0.0
        yield from (h, zero_row)
        for k in (-150, -10, 0, 10, 150):
            yield np.diag(rng.standard_normal(n) * 10.0 ** k)


def test_eig_hermitian_unitary_matches_per_column_phase_loop_bit_for_bit():
    # eigh's first row is real for these families, so every pivot is real
    for h in _phase_test_matrices():
        _, v = np.linalg.eigh(linalg.as_hermitian(h))
        expected = _fix_phases_per_column(v)
        assert linalg.eig_hermitian(h).unitary.tobytes() == expected.tobytes()


def test_eig_hermitian_unitary_matches_phase_loop_for_complex_pivots():
    # a first row below PHASE_TOL moves the pivots to complex entries, where
    # numpy's array division |p|/p may round the last bit unlike its scalar one
    for n in (2, 5, 17, 64):
        h = random_hermitian(substream(22, "phase-reference-tiny-row", n), n)
        h[0, 1:] *= 1e-12
        h[1:, 0] *= 1e-12
        _, v = np.linalg.eigh(linalg.as_hermitian(h))
        assert (np.abs(v[0]) <= linalg.PHASE_TOL).any()
        np.testing.assert_allclose(linalg.eig_hermitian(h).unitary, _fix_phases_per_column(v),
                                   rtol=0, atol=4 * np.finfo(float).eps)


def test_eig_hermitian_names_the_matrix_in_errors():
    with pytest.raises(errors.InputDomainError, match="^H is not hermitian"):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), name="H")
