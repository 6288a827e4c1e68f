import math

import numpy as np
import pytest

from opint import doi, errors, linalg
from opint import rng as rng_mod
from opint.quadrature import QuadratureRule, trapezoid_rule
from opint.rng import random_complex, random_hermitian, substream


def seeded_pair(seed, dim, tag="doi-pair", trial=0):
    rng = substream(seed, tag, trial)
    return random_hermitian(rng, dim), random_hermitian(rng, dim)


def test_make_spectral_pair_nodes():
    pair = doi.make_spectral_pair(np.diag([0.0, 1.0]), np.diag([0.0, 2.0]))
    np.testing.assert_allclose(pair.left.eigenvalues, [0.0, 1.0], atol=0)
    np.testing.assert_allclose(pair.right.eigenvalues, [0.0, 2.0], atol=0)


def test_make_spectral_pair_same_matrix():
    a, _ = seeded_pair(1, 4)
    pair = doi.make_spectral_pair(a, a)
    assert np.array_equal(pair.left.eigenvalues, pair.right.eigenvalues)
    assert np.array_equal(pair.left.unitary, pair.right.unitary)


def test_make_spectral_pair_reconstruction():
    a, b = seeded_pair(2, 5)
    pair = doi.make_spectral_pair(a, b)
    assert np.linalg.norm(pair.left.reconstruct() - a) / np.linalg.norm(a) <= 1e-10
    assert np.linalg.norm(pair.right.reconstruct() - b) / np.linalg.norm(b) <= 1e-10


def test_make_spectral_pair_dimension_mismatch():
    with pytest.raises(errors.InputDomainError, match="mismatch"):
        doi.make_spectral_pair(np.eye(2), np.eye(3))


_NOT_HERMITIAN = np.triu(np.ones((3, 3)))
_NON_FINITE = np.diag([np.nan, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("a, b, error", [
    pytest.param(np.eye(3), np.eye(4), "spectral pair dimension mismatch: (3,) vs (4,)",
                 id="both-good"),
    pytest.param(_NOT_HERMITIAN, np.eye(4), "A", id="bad-a"),
    pytest.param(np.eye(3), _NON_FINITE, "B", id="bad-b"),
    pytest.param(_NOT_HERMITIAN, _NON_FINITE, "A", id="both-bad"),
    pytest.param(np.stack([np.eye(3)] * 2), np.eye(4), "A", id="a-stack"),
    pytest.param(np.eye(3), np.ones((4, 5)), "B", id="b-not-square"),
])
def test_make_spectral_pair_refuses_two_shapes_with_the_bad_operands_error_first(a, b, error):
    # an operand refused alone, as eig_hermitian refuses it, else the mismatch
    if error in "AB":
        with pytest.raises(errors.InputDomainError) as alone:
            linalg.eig_hermitian(a if error == "A" else b, error)
        error = str(alone.value)
    with pytest.raises(errors.InputDomainError) as refused:
        doi.make_spectral_pair(a, b)
    assert str(refused.value) == error


def test_doi_apply_constant_symbol_is_identity_transformer():
    a, b = seeded_pair(3, 4)
    pair = doi.make_spectral_pair(a, b)
    sym = doi.symbol_from_function(pair, lambda lam, mu: np.ones_like(lam * mu))
    t = random_complex(substream(3, "doi-T"), (4, 4))
    np.testing.assert_allclose(doi.doi_apply(pair, sym, t), t, atol=1e-12)


def test_doi_apply_indicator_is_projector_sandwich():
    a, b = seeded_pair(4, 5)
    pair = doi.make_spectral_pair(a, b)
    lam0 = pair.left.eigenvalues[0]
    sym = doi.symbol_from_function(
        pair, lambda lam, mu: (np.abs(lam - lam0) < 1e-12).astype(complex) * np.ones_like(mu))
    t = random_complex(substream(4, "doi-T"), (5, 5))
    p_small = pair.left.projector(np.abs(pair.left.eigenvalues - lam0) < 1e-12)
    np.testing.assert_allclose(doi.doi_apply(pair, sym, t), p_small @ t, atol=1e-11)


def test_doi_apply_divided_difference_square_identity():
    a, b = seeded_pair(5, 6)
    pair = doi.make_spectral_pair(a, b)
    sym = doi.divided_difference_symbol(pair, lambda x: x**2, lambda x: 2 * x)
    lhs = doi.doi_apply(pair, sym, a - b)
    np.testing.assert_allclose(lhs, a @ a - b @ b, atol=1e-9)


def test_doi_apply_linear_in_symbol_and_argument():
    a, b = seeded_pair(6, 4)
    pair = doi.make_spectral_pair(a, b)
    rng = substream(6, "doi-lin")
    s1 = doi.symbol_from_function(pair, lambda lam, mu: lam + 1j * mu)
    s2 = doi.symbol_from_function(pair, lambda lam, mu: np.cos(lam - mu) + 0j)
    both = doi.SymbolGrid(values=s1.values + s2.values)
    t1 = random_complex(rng, (4, 4))
    t2 = random_complex(rng, (4, 4))
    np.testing.assert_allclose(
        doi.doi_apply(pair, both, t1),
        doi.doi_apply(pair, s1, t1) + doi.doi_apply(pair, s2, t1), atol=1e-12)
    np.testing.assert_allclose(
        doi.doi_apply(pair, s1, t1 + 2j * t2),
        doi.doi_apply(pair, s1, t1) + 2j * doi.doi_apply(pair, s1, t2), atol=1e-12)


def test_localization_identity():
    for trial in range(100):
        rng = substream(7, "doi-loc", trial)
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        pair = doi.make_spectral_pair(a, b)
        sym = doi.symbol_from_function(pair, lambda lam, mu: np.sin(lam) + 1j * np.cos(mu))
        thr_l = float(rng.uniform(-1, 1))
        thr_r = float(rng.uniform(-1, 1))
        mask_l = pair.left.eigenvalues <= thr_l
        mask_r = pair.right.eigenvalues > thr_r
        cut = doi.SymbolGrid(values=sym.values * np.outer(mask_l, mask_r))
        t = random_complex(rng, (dim, dim))
        lhs = doi.doi_apply(pair, cut, t)
        rhs = pair.left.projector(mask_l) @ doi.doi_apply(pair, sym, t) @ pair.right.projector(mask_r)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_divided_difference_identity_function():
    a, b = seeded_pair(8, 4)
    pair = doi.make_spectral_pair(a, b)
    sym = doi.divided_difference_symbol(pair, lambda x: x, lambda x: np.ones_like(x))
    np.testing.assert_allclose(sym.values, np.ones((4, 4)), atol=1e-12)


def test_divided_difference_values():
    pair = doi.make_spectral_pair(np.diag([1.0, 1.0]), np.diag([3.0, 3.0]))
    sym = doi.divided_difference_symbol(pair, lambda x: x**2, lambda x: 2 * x)
    np.testing.assert_allclose(sym.values, 4.0 * np.ones((2, 2)), atol=1e-12)


def test_divided_difference_coincident_nodes_use_derivative():
    pair = doi.make_spectral_pair(np.diag([2.0]), np.diag([2.0]))
    sym = doi.divided_difference_symbol(pair, lambda x: x**2, lambda x: 2 * x)
    np.testing.assert_allclose(sym.values, [[4.0]], atol=0)


def test_hs_multiplier_norm_constant():
    a, b = seeded_pair(9, 3)
    pair = doi.make_spectral_pair(a, b)
    sym = doi.symbol_from_function(pair, lambda lam, mu: -2.5 * np.ones_like(lam * mu, dtype=complex))
    assert doi.hs_multiplier_norm(pair, sym) == pytest.approx(2.5, abs=0)


def test_hs_multiplier_norm_grid_max():
    pair = doi.make_spectral_pair(np.diag([0.0, 1.0]), np.diag([0.0, 2.0]))
    sym = doi.symbol_from_function(pair, lambda lam, mu: (lam + mu).astype(complex))
    assert doi.hs_multiplier_norm(pair, sym) == pytest.approx(3.0, abs=0)


def power_iteration_hs_norm(pair, sym, seed, iters=6000, tol=1e-14):
    """Frobenius->Frobenius operator norm of T -> doi_apply(pair, sym, T),
    via power iteration on the composition with its adjoint."""
    conj_sym = doi.SymbolGrid(values=np.conj(sym.values))
    rng = substream(seed, "hs-power")
    x = random_complex(rng, sym.values.shape)
    est = 0.0
    for _ in range(iters):
        y = doi.doi_apply(pair, conj_sym, doi.doi_apply(pair, sym, x))
        est_new = np.sqrt(abs(np.vdot(x, y)) / abs(np.vdot(x, x)))
        x = y / np.linalg.norm(y)
        if abs(est_new - est) <= tol * max(1.0, est_new):
            return est_new
        est = est_new
    return est


def test_hs_multiplier_norm_matches_power_iteration():
    for trial in range(10):
        rng = substream(10, "doi-hs", trial)
        dim = int(rng.integers(2, 9))
        pair = doi.make_spectral_pair(random_hermitian(rng, dim), random_hermitian(rng, dim))
        sym = doi.SymbolGrid(values=random_complex(rng, (dim, dim)))
        claimed = doi.hs_multiplier_norm(pair, sym)
        observed = power_iteration_hs_norm(pair, sym, seed=trial)
        assert abs(claimed - observed) <= 1e-6


def test_doi_fourier_zero_generators():
    pair = doi.make_spectral_pair(np.zeros((3, 3)), np.zeros((3, 3)))
    t = random_complex(substream(11, "doi-f0"), (3, 3))
    quad = trapezoid_rule(40.0, 2000)
    out = doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t, quad)
    mass = np.sum(quad.weights * np.exp(-np.abs(quad.nodes)))
    np.testing.assert_allclose(out, t * mass, atol=1e-12)
    assert mass == pytest.approx(2.0, abs=1e-3)


def _exp_i(h, s):
    """e^{i s h} for hermitian h, built from numpy's eigh alone."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * s * w)) @ v.conj().T


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_doi_fourier_single_node_is_exponential_sandwich(dim):
    # an f that is 1 / w at node s and 0 at the others keeps the one term at
    # s: nodes +-|s| of the two-node rule of step 2|s|, or the middle node 0
    # of the three-node rule of step 1
    a, b = seeded_pair(15, dim)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(substream(15, "doi-f1", dim), (dim, dim))
    for s in (-7.5, -0.3, 0.0, 1.0, 12.25):
        quad = QuadratureRule(2 * abs(s), 2) if s else QuadratureRule(1.0, 3)
        assert np.count_nonzero(quad.nodes == s) == 1
        out = doi.doi_fourier(pair, lambda x: (x == s) / quad.weights, t, quad)
        expected = _exp_i(a, -s) @ t @ _exp_i(b, s)
        assert np.abs(out - expected).max() <= 1e-12


def test_doi_fourier_matches_node_by_node_sum():
    # the sum over nodes of w f(s) e^{-isA} T e^{isB}, one sandwich at a time
    a, b = seeded_pair(16, 5)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(substream(16, "doi-fsum"), (5, 5))
    quad = QuadratureRule(0.875, 9)

    def f(s):
        return np.exp(-np.abs(s)) + 0.25j * s

    expected = sum(w * f(s) * (_exp_i(a, -s) @ t @ _exp_i(b, s))
                   for s, w in zip(quad.nodes, quad.weights))
    out = doi.doi_fourier(pair, f, t, quad)
    assert np.abs(out - expected).max() <= 1e-12


@pytest.mark.parametrize("f, match", [
    (math.sin, "failed at quadrature node -2.0"),
    (lambda s: np.ones(2), r"shape \(2,\) at quadrature node -2.0"),
    (lambda s: 1.0 / s, "not finite at quadrature node 0.0"),
])
def test_doi_fourier_refuses_a_bad_f_naming_a_node(f, match):
    pair = doi.make_spectral_pair(*seeded_pair(4, 3))
    quad = QuadratureRule(2.0, 3)
    assert quad.nodes.tolist() == [-2.0, 0.0, 2.0]
    with np.errstate(divide="ignore"), pytest.raises(errors.EvaluationError, match=match):
        doi.doi_fourier(pair, f, np.eye(3), quad)


def test_doi_fourier_matches_symbol_route():
    # the kink of e^{-|s|} at 0 limits the default 4000-node trapezoid to
    # O(h^2) ~ 1e-4 agreement; the suite's fourier_route_matches_symbol_route
    # runs the same default rule at the looser 1e-3
    a, b = seeded_pair(12, 5)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(substream(12, "doi-fT"), (5, 5))
    via_time = doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t,
                               trapezoid_rule(40.0, 4000))
    sym = doi.symbol_from_function(pair, lambda lam, mu: 2.0 / (1.0 + (lam - mu) ** 2) + 0j)
    via_symbol = doi.doi_apply(pair, sym, t)
    assert np.abs(via_time - via_symbol).max() <= 1e-4


def test_doi_fourier_error_shrinks_with_node_count():
    a, b = seeded_pair(13, 4)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(substream(13, "doi-fT"), (4, 4))
    sym = doi.symbol_from_function(pair, lambda lam, mu: 2.0 / (1.0 + (lam - mu) ** 2) + 0j)
    target = doi.doi_apply(pair, sym, t)
    errs = []
    for nodes in (500, 1000, 2000):
        out = doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t, trapezoid_rule(40.0, nodes))
        errs.append(np.abs(out - target).max())
    assert errs[1] < errs[0] and errs[2] < errs[1]


def _direct_doi_fourier(pair, f, t, quad):
    """The direct-exponential formula: one e^{-i lambda t_m} per eigenvalue and node."""
    left = np.exp(-1j * np.outer(pair.left.eigenvalues, quad.nodes))
    right = np.exp(-1j * np.outer(pair.right.eigenvalues, quad.nodes))
    values = (left * (quad.weights * f(quad.nodes))) @ right.conj().T
    return doi.doi_apply(pair, doi.SymbolGrid(values=values), t)


@pytest.mark.parametrize("dim", [1, 2, 8, 33])
def test_doi_fourier_matches_the_direct_exponential_formula(dim):
    a, b = seeded_pair(19, dim)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(substream(19, "doi-fdirect", dim), (dim, dim))
    t /= linalg.operator_norm(t)
    quad = trapezoid_rule(*doi.DEFAULT_FOURIER_QUAD)

    def f(s):
        return np.exp(-np.abs(s)) * (1.0 + 0.5j * np.cos(s))

    mass = np.abs(quad.weights * f(quad.nodes)).sum()
    out = doi.doi_fourier(pair, f, t, quad)
    assert np.abs(out - _direct_doi_fourier(pair, f, t, quad)).max() <= 1e-12 * mass


def test_doi_fourier_forms_no_dim_by_nodes_exponential_table(monkeypatch):
    # one phase_sum over the 64 phase differences forms 32 complex
    # exponentials per phase, 64 x 32 = 2,048; the direct tables would form
    # 2 dim M = 64,000
    dim, nodes = 8, 4000
    pair = doi.make_spectral_pair(*seeded_pair(20, dim))
    quad = trapezoid_rule(40.0, nodes)
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    doi.doi_fourier(pair, lambda s: exp(-np.abs(s)), np.eye(dim), quad)
    assert 0 < sum(counted) <= 4 * dim * (math.isqrt(nodes - 1) + 1)


def test_doi_fourier_transformer_norm_within_l1_mass():
    a, b = seeded_pair(14, 4)
    pair = doi.make_spectral_pair(a, b)
    quad = trapezoid_rule(40.0, 4000)
    for trial in range(20):
        t = random_complex(substream(14, "doi-fnorm", trial), (4, 4))
        t = t / linalg.operator_norm(t)
        out = doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t, quad)
        assert linalg.operator_norm(out) <= 2.0 + 1e-4


def test_peller_bound_values():
    ones = np.ones(3)
    d = doi.Decomposition(alphas=[ones], betas=[ones], weights=[1.0])
    assert doi.peller_bound(d) == pytest.approx(1.0, abs=0)
    d2 = doi.Decomposition(alphas=[2 * ones, ones], betas=[3 * ones, ones], weights=[1.0, 1.0])
    assert doi.peller_bound(d2) == pytest.approx(7.0, abs=0)


def test_peller_bound_dominates_sampled_trace_norm():
    a, b = seeded_pair(15, 4)
    pair = doi.make_spectral_pair(a, b)
    rng = substream(15, "doi-peller")
    d = doi.Decomposition(alphas=random_complex(rng, (3, 4)),
                          betas=random_complex(rng, (3, 4)),
                          weights=rng.uniform(0.1, 2.0, 3))
    sym = doi.symbol_from_decomposition(pair, d)
    bound = doi.peller_bound(d)
    sampled = doi.sampled_transformer_norm(pair, sym, 1, trials=500, seed=15)
    assert sampled <= bound * (1 + 1e-10)


def test_symbol_from_decomposition_indicator_product():
    pair = doi.make_spectral_pair(np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 1.0, 2.0]))
    alpha = np.array([1.0, 0.0, 1.0])
    beta = np.array([0.0, 1.0, 0.0])
    d = doi.Decomposition(alphas=[alpha], betas=[beta], weights=[1.0])
    sym = doi.symbol_from_decomposition(pair, d)
    np.testing.assert_allclose(sym.values, np.outer(alpha, beta), atol=0)


def test_symbol_from_decomposition_zero_weight_terms_vanish():
    pair = doi.make_spectral_pair(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]))
    rng = substream(16, "doi-zerow")
    d = doi.Decomposition(alphas=random_complex(rng, (2, 2)),
                          betas=random_complex(rng, (2, 2)),
                          weights=np.array([0.0, 0.0]))
    np.testing.assert_allclose(doi.symbol_from_decomposition(pair, d).values,
                               np.zeros((2, 2)), atol=0)


def test_symbol_from_decomposition_exponential_atoms_give_fourier_symbol():
    a, b = seeded_pair(17, 4)
    pair = doi.make_spectral_pair(a, b)
    quad = trapezoid_rule(40.0, 2000)
    f = lambda s: np.exp(-np.abs(s))
    alphas = np.exp(-1j * np.outer(quad.nodes, pair.left.eigenvalues))
    betas = np.exp(1j * np.outer(quad.nodes, pair.right.eigenvalues))
    weights = quad.weights * f(quad.nodes)
    d = doi.Decomposition(alphas=alphas, betas=betas, weights=weights)
    sym = doi.symbol_from_decomposition(pair, d)
    direct = quad.nodes  # quadrature of the transform, evaluated per grid cell
    lam = pair.left.eigenvalues[:, None]
    mu = pair.right.eigenvalues[None, :]
    expected = np.einsum("m,mij->ij", weights.astype(complex),
                         np.exp(-1j * quad.nodes[:, None, None] * (lam - mu)[None, :, :]))
    np.testing.assert_allclose(sym.values, expected, atol=1e-10)
    np.testing.assert_allclose(sym.values, 2.0 / (1.0 + (lam - mu) ** 2), atol=1e-3)


def test_triangular_truncation_standard_basis():
    n = 5
    pair = doi.make_spectral_pair(np.diag(np.arange(1.0, n + 1)), np.diag(np.arange(1.0, n + 1)))
    t = random_complex(substream(18, "doi-tri"), (n, n))
    out = doi.triangular_truncation(pair, t)
    np.testing.assert_allclose(out, np.tril(t, -1), atol=1e-12)


def test_triangular_truncation_hs_norm_one():
    for n in (2, 4, 7):
        pair = doi.make_spectral_pair(np.diag(np.arange(1.0, n + 1)),
                                      np.diag(np.arange(1.0, n + 1)))
        sym = doi.triangular_truncation_symbol(pair)
        assert doi.hs_multiplier_norm(pair, sym) == pytest.approx(1.0, abs=0)


def test_triangular_truncation_idempotent():
    a, b = seeded_pair(19, 5)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(substream(19, "doi-tri2"), (5, 5))
    once = doi.triangular_truncation(pair, t)
    twice = doi.triangular_truncation(pair, once)
    np.testing.assert_allclose(twice, once, atol=1e-11)


def test_duality_sampled_lower_bounds_consistent():
    a, b = seeded_pair(20, 3)
    pair = doi.make_spectral_pair(a, b)
    rng = substream(20, "doi-dualsym")
    sym = doi.SymbolGrid(values=random_complex(rng, (3, 3)))
    for p, q in [(1, np.inf), (4, 4 / 3)]:
        np_est = doi.sampled_transformer_norm(pair, sym, p, trials=300, seed=21)
        nq_est = doi.sampled_transformer_norm(pair, sym, q, trials=300, seed=22)
        ratio = np_est / nq_est
        assert 1 / 3 <= ratio <= 3


def test_lipschitz_identity_ratios_are_one():
    report = doi.lipschitz_ratio_experiment(lambda x: x, 1.0, p=3, trials=10, seed=23, dim=5)
    assert report.max_ratio == pytest.approx(1.0, abs=1e-10)
    assert all(abs(r - 1.0) <= 1e-10 for r in report.per_trial)


def test_lipschitz_hs_bounded_by_constant():
    report = doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=2, trials=40, seed=24, dim=6)
    assert report.max_ratio <= 1.0 + 1e-9


def test_lipschitz_arctan_p4_finite_and_recorded():
    report = doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=4, trials=25, seed=25, dim=8)
    assert np.isfinite(report.max_ratio)
    assert len(report.per_trial) == 25


def _equal_pairs(monkeypatch, equal):
    """Make the stacked experiment's trials in `equal` draw A = B: B is
    drawn and then set to A, counting trials over the blocks in order."""
    drawn = [0]

    def draw(rngs, count, dim, _original=doi.hermitian_stacks):
        a, b = stacks = _original(rngs, count, dim)
        for j in range(len(rngs)):
            if drawn[0] + j in equal:
                b[j] = a[j]
        drawn[0] += len(rngs)
        return stacks
    monkeypatch.setattr(doi, "hermitian_stacks", draw)


def test_lipschitz_skips_equal_pairs(monkeypatch):
    _equal_pairs(monkeypatch, {0})  # the first trial draws A = B; the others draw as usual
    report = doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=2, trials=5, seed=26, dim=4)
    assert report.skipped == 1
    assert len(report.per_trial) == 4


@pytest.mark.parametrize("p", [1, True, np.inf, np.nan, "x", None])
def test_lipschitz_rejects_bad_p(p):
    with pytest.raises(errors.InputDomainError, match="^p must lie"):
        doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=p, trials=1, seed=0)


BAD_SIZES = [0, -3, True, np.False_, 2.5, 2.0, "2", None]


@pytest.mark.parametrize("trials", BAD_SIZES)
def test_lipschitz_refuses_a_trial_count_that_is_not_a_size(trials):
    with pytest.raises(errors.InputDomainError, match="^trials must be an integer >= 1"):
        doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=2, trials=trials, seed=0)


@pytest.mark.parametrize("dim", BAD_SIZES)
def test_lipschitz_refuses_a_dim_that_is_not_a_size(dim):
    with pytest.raises(errors.InputDomainError, match="^dim must be an integer >= 1"):
        doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=2, trials=2, seed=0, dim=dim)


@pytest.mark.parametrize("trials", BAD_SIZES)
def test_sampled_transformer_norm_refuses_a_trial_count_that_is_not_a_size(trials):
    pair = doi.make_spectral_pair(*seeded_pair(41, 3))
    sym = doi.SymbolGrid(values=np.ones((3, 3)))
    with pytest.raises(errors.InputDomainError, match="^trials must be an integer >= 1"):
        doi.sampled_transformer_norm(pair, sym, 1, trials=trials, seed=0)


@pytest.mark.parametrize("trials", [1, 3, 5])
def test_sampled_transformer_norm_refuses_a_stacked_pair(trials):
    a, b = (np.stack(m) for m in zip(*(seeded_pair(42, 4, trial=k) for k in range(3))))
    pair = doi.SpectralPair(linalg.eig_hermitians(a, ["A"] * 3),
                            linalg.eig_hermitians(b, ["B"] * 3))
    sym = doi.SymbolGrid(values=random_complex(substream(42, "doi-stacked-sym"), (3, 4, 4)))
    with pytest.raises(errors.InputDomainError, match="^need one spectral pair"):
        doi.sampled_transformer_norm(pair, sym, 1, trials=trials, seed=0)


def test_lipschitz_takes_numpy_integer_sizes():
    report = doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=2, trials=np.int64(3), seed=0,
                                            dim=np.int32(2))
    assert report.per_trial == doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=2, trials=3,
                                                              seed=0, dim=2).per_trial


def _lipschitz_one_trial_at_a_time(f, p, trials, seed, dim, equal=()):
    """(ratios, skipped) of the Lipschitz experiment taken a trial at a time:
    each pair drawn, its difference normed, diagonalized and f applied
    alone.  The trials in `equal` draw B and then set it to A."""
    ratios, skipped = [], 0
    for trial in range(trials):
        g = substream(seed, "lipschitz", trial)
        a, b = random_hermitian(g, dim), random_hermitian(g, dim)
        if trial in equal:
            b = a.copy()
        diff_norm = linalg.schatten_norm(a - b, p)
        if diff_norm == 0.0:
            skipped += 1
            continue
        pair = doi.make_spectral_pair(a, b)
        num = linalg.schatten_norm(linalg.apply_function(pair.left, f)
                                   - linalg.apply_function(pair.right, f), p)
        ratios.append(float(num / diff_norm))
    return ratios, skipped


LIPSCHITZ_CASES = {
    # name: (f, p, trials, seed, dim, trials with A = B, block budget or None)
    "cli-defaults": (np.arctan, 4.0, 20, 42, 8, (), None),
    "n-1": (np.arctan, 4.0, 30, 3, 1, (), None),
    "identity-p3": (lambda x: np.asarray(x, dtype=complex), 3.0, 12, 23, 5, (), None),
    "abs-p1.5": (np.abs, 1.5, 15, 7, 6, (), None),
    "skipped-in-a-block": (np.arctan, 2.0, 9, 26, 4, (0, 5), None),
    "several-blocks": (np.arctan, 4.0, 20, 42, 8, (), 3 * 4 * 2 * 16 * 64),
    "several-blocks-skipped": (np.abs, 400.0, 11, 8, 3, (2, 3, 7), 2 * 4 * 2 * 16 * 9),
    "one-trial-blocks": (np.arctan, 2.0, 4, 5, 8, (1,), 1),
}


@pytest.mark.parametrize("case", sorted(LIPSCHITZ_CASES))
def test_stacked_lipschitz_equals_one_trial_at_a_time(monkeypatch, case):
    f, p, trials, seed, dim, equal, budget = LIPSCHITZ_CASES[case]
    if budget is not None:
        monkeypatch.setattr(rng_mod, "BLOCK_BYTES", budget)
    blocks = []

    def counted(seed, tag, block, _original=doi.substreams):
        blocks.append(list(block))
        return _original(seed, tag, block)
    monkeypatch.setattr(doi, "substreams", counted)
    _equal_pairs(monkeypatch, set(equal))
    report = doi.lipschitz_ratio_experiment(f, 1.0, p=p, trials=trials, seed=seed, dim=dim)
    ratios, skipped = _lipschitz_one_trial_at_a_time(f, p, trials, seed, dim, set(equal))
    assert np.array(report.per_trial).tobytes() == np.array(ratios).tobytes()
    assert report.skipped == skipped == len(equal)
    assert report.max_ratio == max(ratios)
    assert sum(blocks, []) == list(range(trials))
    if budget is None:
        assert len(blocks) == 1
    else:
        assert len(blocks) == -(-trials // max(1, budget // (4 * 2 * 16 * dim * dim)))


def test_lipschitz_block_of_skipped_trials_diagonalizes_nothing(monkeypatch):
    # blocks of two trials; the second block is all A = B and makes no eigh call
    monkeypatch.setattr(rng_mod, "BLOCK_BYTES", 2 * 4 * 2 * 16 * 9)
    _equal_pairs(monkeypatch, {2, 3})
    eighs = []

    def counted(*args, _original=np.linalg.eigh, **kwargs):
        eighs.append(1)
        return _original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    report = doi.lipschitz_ratio_experiment(np.arctan, 1.0, p=2, trials=6, seed=4, dim=3)
    assert report.skipped == 2 and len(report.per_trial) == 4
    assert len(eighs) == 2


def test_symbol_grid_rejects_non_finite():
    with pytest.raises(errors.InputDomainError):
        doi.SymbolGrid(values=np.array([[np.inf]]))


def test_make_spectral_pair_validates_each_operand_once(monkeypatch):
    calls = []
    original = linalg.as_hermitian

    def counted(m, name="matrix", *args, **kwargs):
        calls.append(name)
        return original(m, name, *args, **kwargs)
    for module in (linalg, doi):
        if getattr(module, "as_hermitian", None) is original:
            monkeypatch.setattr(module, "as_hermitian", counted)
    doi.make_spectral_pair(*seeded_pair(4, 3))
    assert calls == [["A", "B"]]  # one stack of both operands


def test_make_spectral_pair_names_the_operand_it_refuses():
    with pytest.raises(errors.InputDomainError, match="^B is not hermitian"):
        doi.make_spectral_pair(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("a_fault, b_fault, named", [
    ("asymmetric", "non-finite", "^B has non-finite entries"),
    ("non-finite", "asymmetric", "^A has non-finite entries"),
    ("asymmetric", "asymmetric", "^A is not hermitian"),
    ("non-finite", "non-finite", "^A has non-finite entries"),
])
def test_make_spectral_pair_names_one_operand_when_both_are_bad(a_fault, b_fault, named):
    # A and B are validated as one stack: the first check that any operand
    # fails names the first operand to fail it, so a non-finite B is named
    # before an asymmetric A
    faults = {"asymmetric": np.array([[0.0, 1.0], [0.0, 0.0]]),
              "non-finite": np.array([[np.nan, 0.0], [0.0, 1.0]])}
    with pytest.raises(errors.InputDomainError, match=named):
        doi.make_spectral_pair(faults[a_fault], faults[b_fault])


def test_sampled_transformer_norm_stacks_its_trials_and_skips_a_nan_ratio(monkeypatch):
    a, b = seeded_pair(41, 4)
    pair = doi.make_spectral_pair(a, b)
    sym = doi.SymbolGrid(values=random_complex(substream(41, "doi-sampled-sym"), (4, 4)))
    ts = [random_complex(substream(7, "doi-sampled", trial), (4, 4)) for trial in range(5)]
    ratios = [linalg.schatten_norm(doi.doi_apply(pair, sym, t), 1.5) / linalg.schatten_norm(t, 1.5)
              for t in ts]
    assert doi.sampled_transformer_norm(pair, sym, 1.5, 5, 7, "doi-sampled") == max(ratios)
    calls = []

    def first_ratio_nan(m, p, _original=doi.schatten_norm):
        norms = _original(m, p)
        if not calls:  # the numerators of the first stack
            norms[0] = np.nan
        calls.append(np.shape(m))
        return norms
    monkeypatch.setattr(doi, "schatten_norm", first_ratio_nan)
    # Python's max(best, nan) keeps best, where np.max would give nan
    assert doi.sampled_transformer_norm(pair, sym, 1.5, 5, 7, "doi-sampled") == max(ratios[1:])
    assert calls == [(5, 4, 4), (5, 4, 4)]
    # blocks of two trials: the same best ratio, from stacks of at most two
    monkeypatch.setattr(rng_mod, "BLOCK_BYTES", 2 * 4 * 16 * 4 * 4)
    shapes = []

    def recorded(m, p, _original=linalg.schatten_norm):
        shapes.append(np.shape(m)[0])
        return _original(m, p)
    monkeypatch.setattr(doi, "schatten_norm", recorded)
    assert doi.sampled_transformer_norm(pair, sym, 1.5, 5, 7, "doi-sampled") == max(ratios)
    assert shapes == [2, 2, 2, 2, 1, 1]
