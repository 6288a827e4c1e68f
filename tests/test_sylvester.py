import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opint import errors, sylvester
from opint.doi import SpectralPair, make_spectral_pair
from opint.linalg import (EigenSystem, as_hermitian, eig_hermitian, eig_hermitians,
                          schatten_norm)
from opint.rng import random_complex, random_hermitian, substream


def gapped_pair(seed, dim, trial=0, shift=4.0, tag="sylvester-pair"):
    rng = substream(seed, tag, trial)
    a = random_hermitian(rng, dim) + shift * np.eye(dim)
    b = random_hermitian(rng, dim) - shift * np.eye(dim)
    return a, b


def test_spectral_gap_diagonal():
    pair = make_spectral_pair(np.diag([2.0, 3.0]), np.diag([0.0, 1.0]))
    assert sylvester.spectral_gap(pair) == pytest.approx(1.0)


def test_spectral_gap_same_matrix_is_zero():
    h = random_hermitian(substream(1, "sylv-same"), 3)
    assert sylvester.spectral_gap(make_spectral_pair(h, h)) == pytest.approx(0.0, abs=0)


def test_spectral_gap_shifted_pair_lower_bound():
    rng = substream(2, "sylv-shift")
    a = random_hermitian(rng, 4)
    radius = max(np.abs(np.linalg.eigvalsh(a)))
    b = a - 10.0 * radius * np.eye(4)
    radius_b = max(np.abs(np.linalg.eigvalsh(b)))
    gap = sylvester.spectral_gap(make_spectral_pair(a, b))
    assert gap >= 10.0 * radius - (radius + radius_b) - 1e-9


def test_solve_gap_forced_entries():
    a = np.diag([2.0, 3.0])
    b = np.diag([0.0, 1.0])
    solution = sylvester.solve_gap(a, b, np.ones((2, 2)))
    report = solution.report()
    np.testing.assert_allclose(solution.x, [[0.5, 1.0], [1.0 / 3.0, 0.5]], atol=1e-14)
    assert report.delta == pytest.approx(1.0)
    assert report.residual <= 1e-12


def test_solve_gap_zero_rhs():
    a, b = gapped_pair(3, 4)
    solution = sylvester.solve_gap(a, b, np.zeros((4, 4)))
    report = solution.report()
    assert np.abs(solution.x).max() <= 1e-14
    assert report.x_norm == pytest.approx(0.0, abs=1e-14)


def test_solve_gap_residual_and_bound_all_p():
    for trial in range(30):
        a, b = gapped_pair(4, 6, trial)
        y = random_complex(substream(4, "sylv-Y", trial), (6, 6))
        solution = sylvester.solve_gap(a, b, y)
        for p in (1, 2, np.inf):
            report = solution.report(p)
            assert report.residual <= 1e-9
            assert report.x_norm <= report.bound * (1 + 1e-12)
            assert report.bound == pytest.approx(np.pi / (2 * report.delta) * report.y_norm)


def test_solve_gap_reports_take_each_singular_value_set_once(monkeypatch):
    a, b = gapped_pair(9, 5)
    y = random_complex(substream(9, "sylv-Y-svd"), (5, 5))
    solution = sylvester.solve_gap(a, b, y)
    svds = []

    def counted(*args, _original=np.linalg.svd, **kwargs):
        svds.append(1)
        return _original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    reports = [solution.report(p) for p in (1, 2, np.inf)]
    assert len(svds) == 1  # one stack of X, Y and the residual for every p
    monkeypatch.undo()
    x = solution.x
    for p, report in zip((1, 2, np.inf), reports):
        assert report.x_norm == schatten_norm(x, p)
        assert report.y_norm == schatten_norm(y, p)
        assert report.residual == schatten_norm(solution.a @ x - x @ solution.b - y, p)


def _report_bits(report: sylvester.GapReport) -> tuple:
    return tuple(np.float64(getattr(report, f.name)).tobytes()
                 for f in dataclasses.fields(report))


def test_solve_gap_pair_on_a_stack_gives_the_bits_of_solve_gap():
    # A and B of dims 1, 3 and 6, interleaved: the A's and B's of each
    # dimension diagonalized in one call
    dims = [1, 3, 6, 3, 1, 6]
    operands = []
    for trial, dim in enumerate(dims):
        a, b = gapped_pair(13, dim, trial)
        operands.append((a, b, random_complex(substream(13, "sylv-Y-pair", trial), (dim, dim))))
    for dim in sorted(set(dims)):
        ops = [op for op, d in zip(operands, dims) if d == dim]
        k = len(ops)
        systems = eig_hermitians(np.stack([a for a, _, _ in ops] + [b for _, b, _ in ops]),
                                 ["A"] * k + ["B"] * k)
        for j, (a, b, y) in enumerate(ops):
            pair = SpectralPair(*(EigenSystem(systems.eigenvalues[i], systems.unitary[i])
                                  for i in (j, k + j)))
            via_pair = sylvester.solve_gap_pair(pair, a, b, y)
            alone = sylvester.solve_gap(a, b, y)
            assert via_pair.x.tobytes() == alone.x.tobytes()
            assert np.float64(via_pair.delta).tobytes() == np.float64(alone.delta).tobytes()
            for p in (1, 2, np.inf):
                assert _report_bits(via_pair.report(p)) == _report_bits(alone.report(p))


def test_solve_gap_pair_refuses_what_solve_gap_refuses_with_the_same_error():
    a, b = np.diag([0.0, 5.0, 9.0]), np.diag([5.0, 12.0, 20.0])
    for y in (np.eye(3), np.eye(2)):  # a gap below the floor, then a wrong Y shape
        with pytest.raises(errors.IllPosedError) as alone:
            sylvester.solve_gap(a, b, y)
        with pytest.raises(errors.IllPosedError) as via_pair:
            sylvester.solve_gap_pair(make_spectral_pair(a, b), a, b, y)
        assert str(via_pair.value) == str(alone.value)
        assert via_pair.value.detail == alone.value.detail
    a, b = gapped_pair(14, 3)
    with pytest.raises(errors.IllPosedError, match="^Y has shape"):
        sylvester.solve_gap_pair(make_spectral_pair(a, b), a, b, np.eye(2))


def test_solve_gap_pair_takes_its_residual_from_a_and_b_not_the_pair():
    a, b = gapped_pair(15, 4)
    other_a, other_b = gapped_pair(15, 4, trial=1)
    y = random_complex(substream(15, "sylv-Y-foreign"), (4, 4))
    assert sylvester.solve_gap_pair(make_spectral_pair(a, b), a, b, y).report().residual_small
    foreign = sylvester.solve_gap_pair(make_spectral_pair(other_a, other_b), a, b, y)
    for p in (1, 2, np.inf):
        assert not foreign.report(p).residual_small


def test_solve_gap_pair_refuses_operands_of_another_dimension():
    a, b = gapped_pair(16, 3)
    with pytest.raises(errors.IllPosedError, match="shape mismatch"):
        sylvester.solve_gap_pair(make_spectral_pair(a, b), a[:2, :2], b[:2, :2], np.eye(3))


def test_solve_gap_refuses_zero_gap():
    h = random_hermitian(substream(5, "sylv-refuse"), 3)
    with pytest.raises(errors.IllPosedError, match="gap"):
        sylvester.solve_gap(h, h, np.eye(3))


def test_solve_gap_refusal_names_the_closest_eigenvalue_pair():
    a, b = np.diag([0.0, 5.0, 9.0]), np.diag([5.0, 12.0, 20.0])
    closest = r"closest eigenvalue pair \(5\.0, 5\.0\)"
    with pytest.raises(errors.IllPosedError, match=closest) as info:
        sylvester.solve_gap(a, b, np.eye(3))
    assert info.value.detail == (5.0, 5.0)


def test_solve_gap_report_json_fields():
    a, b = gapped_pair(6, 3)
    report = sylvester.solve_gap(a, b, np.eye(3)).report(1)
    d = report.to_json_dict()
    assert set(d) == {"delta", "p", "x_norm", "y_norm", "bound", "residual", "bound_holds"}
    assert d["bound_holds"] is True and report.residual_small
    assert not dataclasses.replace(report, x_norm=report.bound * (1 + 1e-11)).bound_holds
    assert not dataclasses.replace(report, residual=2 * report.RESIDUAL_TOL).residual_small


def test_kron_oracle_scalar():
    x = sylvester.kron_oracle(np.array([[2.0]]), eig_hermitian(np.array([[0.0]]), "B"),
                              np.array([[3.0]]))
    np.testing.assert_allclose(x, [[1.5]], atol=1e-14)


def test_kron_oracle_matches_solve_gap():
    for trial in range(100):
        dim = 2 + trial % 5
        a, b = gapped_pair(7, dim, trial)
        y = random_complex(substream(7, "sylv-cross-Y", trial), (dim, dim))
        x_doi = sylvester.solve_gap(a, b, y).x
        x_kron = sylvester.kron_oracle(a, eig_hermitian(b, "B"), y)
        assert np.abs(x_doi - x_kron).max() <= 1e-8


def test_kron_oracle_commuting_shift():
    # with A = B + cI the equation reads [B, X] + cX = Y, so X = Y/c holds
    # exactly when Y commutes with B; a polynomial in B provides such a Y
    rng = substream(8, "sylv-comm")
    b = random_hermitian(rng, 4)
    c = 2.5
    a = b + c * np.eye(4)
    y = b @ b - 0.5 * b + 0.25 * np.eye(4)
    x = sylvester.kron_oracle(a, eig_hermitian(b, "B"), y)
    np.testing.assert_allclose(x, y / c, atol=1e-10)


def test_kron_oracle_zero_rhs_uniqueness():
    a, b = gapped_pair(9, 5)
    x = sylvester.kron_oracle(a, eig_hermitian(b, "B"), np.zeros((5, 5)))
    assert np.abs(x).max() <= 1e-10


def test_operator_equation_scaling_consistency():
    # residual measured in the same norm the certificate is stated in
    a, b = gapped_pair(10, 4)
    y = random_complex(substream(10, "sylv-res"), (4, 4))
    solution = sylvester.solve_gap(a, b, y)
    x, report = solution.x, solution.report(2)
    direct = schatten_norm(a @ x - x @ b - y, 2)
    assert direct == pytest.approx(report.residual, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=-150, max_value=150))
def test_solve_gap_scale_equivariance_property(dim, seed, k):
    # A, B -> c A, c B with Y fixed: delta scales by c, X and pi/(2 delta)|Y| by 1/c
    a, b = gapped_pair(seed, dim, tag="sylvester-scale")
    y = random_complex(substream(seed, "sylvester-scale-y"), (dim, dim))
    c = 10.0**k
    report = sylvester.solve_gap(a, b, y).report()
    scaled = sylvester.solve_gap(c * a, c * b, y).report()
    assert scaled.delta / c == pytest.approx(report.delta, rel=1e-12)
    assert scaled.x_norm * c == pytest.approx(report.x_norm, rel=1e-12)
    assert scaled.bound * c == pytest.approx(report.bound, rel=1e-12)


def test_kron_oracle_refuses_n_above_cap_before_forming_system(monkeypatch):
    def no_system(*args, **kwargs):
        raise AssertionError("system formed")
    n = sylvester.KRON_MAX_DIM + 1
    eb = eig_hermitian(-np.eye(n), "B")
    monkeypatch.setattr(np.linalg, "eigh", no_system)
    monkeypatch.setattr(np.linalg, "solve", no_system)
    with pytest.raises(errors.IllPosedError, match=f"n = {n} > {sylvester.KRON_MAX_DIM}"):
        sylvester.kron_oracle(np.eye(n), eb, np.eye(n))


@pytest.mark.parametrize("b_dim, y_dim", [(2, 3), (3, 2)])
def test_kron_oracle_refuses_operands_of_another_dimension(b_dim, y_dim):
    with pytest.raises(errors.IllPosedError, match="^shape mismatch: A \\(3, 3\\)"):
        sylvester.kron_oracle(np.eye(3), eig_hermitian(-np.eye(b_dim), "B"), np.eye(y_dim))


def test_kron_oracle_cap_admits_n_48(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached
    monkeypatch.setattr(np.linalg, "solve", reached)
    with pytest.raises(Reached):
        sylvester.kron_oracle(np.eye(48), eig_hermitian(-np.eye(48), "B"), np.eye(48))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 17])
def test_kron_oracle_system_is_the_column_stacking_kronecker_matrix(monkeypatch, dim):
    # the n^2 x n^2 system, solved whole, is the brute-force reference
    a, b = gapped_pair(11, dim, tag="sylvester-kron-system")
    y = random_complex(substream(11, "sylvester-kron-system-Y", dim), (dim, dim))
    am, bm, eye = as_hermitian(a, "A"), as_hermitian(b, "B"), np.eye(dim)
    reference = np.kron(eye, am) - np.kron(bm.T, eye)
    expected = np.linalg.solve(reference, y.flatten(order="F")).reshape((dim, dim), order="F")
    seen = []
    solve = np.linalg.solve

    def recorded(system, rhs):
        seen.append(system)
        return solve(system, rhs)
    monkeypatch.setattr(np.linalg, "solve", recorded)
    x = sylvester.kron_oracle(a, eig_hermitian(b, "B"), y)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
    # one batched solve on the blocks A - mu_j I, mu the eigenvalues of B
    [stack] = seen
    mu = np.linalg.eigvalsh(bm)
    blocks = am - mu[:, None, None] * eye
    assert stack.shape == (dim, dim, dim)
    assert np.abs(stack - blocks).max() <= 1e-14 * max(1.0, np.abs(blocks).max())


def test_kron_oracle_allocates_one_system():
    # the n^3 complex stack of blocks is the one large allocation; numpy's solve copies
    # it with plain malloc, which tracemalloc does not see
    dim = 24
    a, b = gapped_pair(12, dim)
    y = random_complex(substream(12, "sylvester-kron-memory"), (dim, dim))
    tracemalloc.start()
    try:
        sylvester.kron_oracle(a, eig_hermitian(b, "B"), y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * dim**3, peak / (16 * dim**3)


def test_kron_oracle_refuses_an_exactly_singular_block():
    # A - 1 I = diag(0, 1) is singular: the spectra of A and B share 1
    with pytest.raises(errors.IllPosedError, match="numerically singular"):
        sylvester.kron_oracle(np.diag([1.0, 2.0]), eig_hermitian(np.diag([1.0, 3.0]), "B"),
                              np.eye(2))
