import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opint import errors, shift
from opint.doi import SpectralPair, make_spectral_pair
from opint.linalg import apply_function, eig_hermitian, eig_hermitians, schatten_norm, trace_norm
from opint.quadrature import QuadratureRule, symmetric_open_rule, trapezoid_rule
from opint.rng import random_complex, random_hermitian, random_unit_vector, substream


def seeded_pair(seed, dim, trial=0, tag="shift-pair"):
    rng = substream(seed, tag, trial)
    return random_hermitian(rng, dim), random_hermitian(rng, dim)


def seeded_measure(seed, trial=0, atoms=3):
    rng = substream(seed, "shift-measure", trial)
    pts = rng.uniform(0.3, 3.0, atoms) * rng.choice([-1.0, 1.0], atoms)
    return shift.AtomicMeasure(points=pts, weights=rng.uniform(0.2, 1.5, atoms))


# ---------------------------------------------------------------- counting


def test_xi_counting_equal_pair_is_zero():
    h = random_hermitian(substream(1, "shift-eq"), 4)
    xi = shift.xi_counting(make_spectral_pair(h, h))
    assert xi.is_zero
    assert xi.integral() == 0.0


def test_zero_shift_function_integrates_to_zero_on_the_common_path():
    xi = shift.ShiftFunction(breakpoints=[], values=[])
    f, _ = shift.admissible_f(seeded_measure(3))
    assert xi.is_zero and xi.support() is None
    assert np.array_equal(xi(np.linspace(-3.0, 3.0, 7)), np.zeros(7, dtype=np.int64))
    assert xi.integral() == xi.l1() == 0.0
    assert xi.integrate_derivative(f) == 0.0
    assert xi.resolvent_integral(0.3 + 0.7j) == 0.0


def test_xi_counting_scalar_interval():
    xi = shift.xi_counting(make_spectral_pair(np.array([[1.0]]), np.array([[0.0]])))
    np.testing.assert_allclose(xi.breakpoints, [0.0, 1.0], atol=0)
    np.testing.assert_allclose(xi.values, [1], atol=0)
    assert xi(np.array([0.5]))[0] == 1
    assert xi(np.array([-0.1]))[0] == 0
    assert xi(np.array([1.0]))[0] == 0


def test_xi_counting_integral_is_trace_difference():
    for trial in range(200):
        dim = 2 + trial % 5
        a, b = seeded_pair(2, dim, trial)
        xi = shift.xi_counting(make_spectral_pair(a, b))
        assert abs(xi.integral() - np.trace(a - b).real) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=-150, max_value=150))
def test_xi_counting_scale_equivariance_property(dim, seed, k):
    # H -> c H moves every breakpoint to c times itself and keeps every value
    a, b = seeded_pair(seed, dim, tag="shift-scale")
    c = 10.0**k
    xi = shift.xi_counting(make_spectral_pair(a, b))
    scaled = shift.xi_counting(make_spectral_pair(c * a, c * b))
    assert np.array_equal(scaled.values, xi.values)
    size = np.abs(xi.breakpoints).max()
    np.testing.assert_allclose(scaled.breakpoints / c, xi.breakpoints, rtol=0, atol=1e-12 * size)


def test_xi_counting_l1_is_sorted_pairing_distance():
    for trial in range(50):
        dim = 3 + trial % 4
        a, b = seeded_pair(3, dim, trial)
        wa = eig_hermitian(a).eigenvalues
        wb = eig_hermitian(b).eigenvalues
        xi = shift.xi_counting(make_spectral_pair(a, b))
        assert xi.l1() == pytest.approx(np.abs(wa - wb).sum(), abs=1e-9)
        assert xi.l1() <= trace_norm(a - b) + 1e-9


def test_xi_counting_positive_perturbation_nonnegative():
    for trial in range(50):
        rng = substream(4, "shift-pos", trial)
        dim = 2 + trial % 5
        b = random_hermitian(rng, dim)
        g = random_complex(rng, (dim, dim))
        a = b + g @ g.conj().T  # PSD bump, so B <= A
        xi = shift.xi_counting(make_spectral_pair(a, b))
        assert (xi.values >= 0).all()


@pytest.mark.parametrize("alpha", [1.0, 1e4, 1e5, 1e8])
def test_rank_one_bump_is_monotone_at_every_scale(alpha):
    # the absolute -1e-12 floor on eigvalsh(A - B) dropped these pairs from 1e4 on
    for trial in range(20):
        rng = substream(9, "shift-monotone", trial)
        b, w = random_hermitian(rng, 6), random_unit_vector(rng, 6)
        a = b + alpha * np.outer(w, w.conj())
        pair = make_spectral_pair(a, b)
        assert shift.krein_properties(pair, shift.xi_counting(pair), a - b).monotone


def test_monotone_is_false_when_a_minus_b_has_a_negative_eigenvalue():
    for trial in range(50):
        rng = substream(10, "shift-monotone-neg", trial)
        b, g = random_hermitian(rng, 4), random_complex(rng, (4, 1))
        for a in (random_hermitian(rng, 4), b + g @ g.conj().T - 1e-6 * np.eye(4)):
            pair = make_spectral_pair(a, b)
            assert not shift.krein_properties(pair, shift.xi_counting(pair), a - b).monotone


@pytest.mark.parametrize("trace", [0.25, -3.0, 1e8])
def test_property_a_is_judged_relative_to_the_trace(trace):
    # the suite's algebraic tolerance: one ulp of tr(A - B) passes, 1e-6 |tr| fails
    tol = 1e-10

    def trace_error(integral):
        return shift.KreinProperties(trace=trace, integral=integral, trace_norm=abs(trace),
                                     l1=abs(trace), support_reach=0.0).errors()[0]
    assert trace_error(np.nextafter(trace, np.inf)) <= tol
    assert trace_error(trace + 1e-6 * abs(trace)) > tol


@pytest.mark.parametrize("trace_norm", [0.25, 3.0, 1e8])
def test_property_b_is_judged_relative_to_the_trace_norm(trace_norm):
    # the suite's algebraic tolerance: one ulp over |A - B|_1 passes, 1e-6 |A - B|_1 fails
    tol = 1e-10

    def l1_excess(l1):
        return shift.KreinProperties(trace=trace_norm, integral=trace_norm,
                                     trace_norm=trace_norm, l1=l1,
                                     support_reach=0.0).errors()[1]
    assert l1_excess(np.nextafter(trace_norm, np.inf)) <= tol
    assert l1_excess(trace_norm + 1e-6 * trace_norm) > tol


ONE_PAIR_ROUTES = {
    "xi_arctan": lambda pair, grid: shift.xi_arctan(pair, 0.1, grid),
    "xi_arctan_extrapolated": lambda pair, grid: shift.xi_arctan_extrapolated(pair, 0.1, grid),
    "xi_fourier": lambda pair, grid: shift.xi_fourier(pair, 0.1, grid,
                                                      symmetric_open_rule(40.0, 400)),
    "far_from_spectra": lambda pair, grid: shift.far_from_spectra(pair, grid, 0.1),
}


@pytest.mark.parametrize("points", [3, 5])
@pytest.mark.parametrize("route", sorted(ONE_PAIR_ROUTES))
def test_one_pair_routes_refuse_a_stacked_pair(route, points):
    # 3 pairs of 4 x 4 matrices: on 3 grid points a route would pair point i
    # with pair i, or sum the pairs, instead of refusing
    a, b = (np.stack(m) for m in zip(*(seeded_pair(43, 4, trial=k) for k in range(3))))
    pair = SpectralPair(eig_hermitians(a, ["A"] * 3), eig_hermitians(b, ["B"] * 3))
    with pytest.raises(errors.InputDomainError,
                       match=r"^need one spectral pair, got a stack of shape \(3, 4, 4\)$"):
        ONE_PAIR_ROUTES[route](pair, np.linspace(-2.0, 2.0, points))


def test_far_from_spectra_keeps_points_at_least_the_distance_away():
    pair = make_spectral_pair(np.diag([0.0, 1.0]), np.diag([3.0, 3.0]))
    grid = np.array([-0.5, 0.05, 0.1, 0.5, 0.95, 2.95, 3.2])
    keep = shift.far_from_spectra(pair, grid, 0.1)
    assert keep.tolist() == [True, False, True, True, False, False, True]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("distance", [True, "0.1", 0.1 + 0j, None, -1.0, 0.0, np.nan, np.inf])
def test_far_from_spectra_refuses_a_distance_that_is_not_finite_and_positive(distance):
    # no boolean read as 1, no numpy UFuncTypeError, and no distance that
    # keeps every point (-1) or none (NaN)
    pair = make_spectral_pair(np.diag([0.0, 1.0]), np.diag([3.0, 3.0]))
    with pytest.raises(errors.InputDomainError, match="^need finite distance > 0, got"):
        shift.far_from_spectra(pair, np.array([-0.5, 0.5]), distance)


def test_xi_counting_support_inside_joint_interval():
    for trial in range(50):
        dim = 2 + trial % 5
        a, b = seeded_pair(5, dim, trial)
        xi = shift.xi_counting(make_spectral_pair(a, b))
        wa = eig_hermitian(a).eigenvalues
        wb = eig_hermitian(b).eigenvalues
        lo, hi = xi.support()
        assert lo >= min(wa.min(), wb.min()) - 1e-12
        assert hi <= max(wa.max(), wb.max()) + 1e-12


def _xi_counting_joint_spectrum(pair):
    """Reference for `xi_counting`: the sorted joint spectrum of A and B,
    and on each interval between neighbours the count N_B - N_A there, or 0
    on an interval of length 0."""
    wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
    breakpoints = np.sort(np.concatenate([wa, wb]))
    values = [int((wb <= lo).sum() - (wa <= lo).sum()) if hi > lo else 0
              for lo, hi in zip(breakpoints[:-1], breakpoints[1:])]
    return breakpoints, np.asarray(values, dtype=np.int64)


def _counting_reference_pairs():
    for trial in range(20):
        yield seeded_pair(12, 1 + trial % 7, trial=trial, tag="shift-runs")
    h = random_hermitian(substream(12, "shift-runs-equal"), 5)
    yield h, h                                                    # the zero function
    yield np.diag([1.0, 1.0, 2.0, 2.0]), np.diag([0.0, 1.0, 1.0, 3.0])  # repeated
    yield np.diag([0.0, 1.0, 2.0]), np.diag([1.0, 2.0, 5.0])      # shared by A and B
    yield np.diag([2.0, 1.0]), np.diag([1.0, 2.0])                # same spectrum
    yield np.diag([-1.0, 0.0, 4.0]), np.diag([-1.0, 3.0, 4.0])    # zero runs inside
    yield np.array([[1.5]]), np.array([[-0.5]])                   # 1x1 pairs
    yield np.array([[0.5]]), np.array([[0.5]])


def test_xi_counting_matches_joint_spectrum_reference():
    for a, b in _counting_reference_pairs():
        pair = make_spectral_pair(a, b)
        xi = shift.xi_counting(pair)
        breakpoints, values = _xi_counting_joint_spectrum(pair)
        assert xi.breakpoints.tobytes() == breakpoints.tobytes()
        assert xi.values.dtype == values.dtype
        assert np.array_equal(xi.values, values)


def test_shift_function_rejects_bad_data():
    with pytest.raises(errors.InputDomainError):
        shift.ShiftFunction(breakpoints=[0.0, 1.0], values=[1, 2])
    with pytest.raises(errors.InputDomainError):
        shift.ShiftFunction(breakpoints=[1.0, 0.0], values=[1])
    with pytest.raises(errors.InputDomainError):
        shift.ShiftFunction(breakpoints=[0.0, 1.0], values=[0.5])


def _l1_distance(f, g) -> float:
    """Exact integral of |f - g| for two shift functions."""
    grid = np.unique(np.concatenate([f.breakpoints, g.breakpoints]))
    if grid.size < 2:
        return 0.0
    mids = (grid[:-1] + grid[1:]) / 2.0
    return float(np.sum(np.abs(f(mids) - g(mids)) * np.diff(grid)))


def test_shift_function_l1_distance():
    f = shift.ShiftFunction(breakpoints=[0.0, 1.0], values=[1])
    g = shift.ShiftFunction(breakpoints=[0.5, 2.0], values=[2])
    # |f-g| is 1 on [0, .5), 1 on [.5, 1), 2 on [1, 2)
    assert _l1_distance(f, g) == pytest.approx(3.0, abs=1e-12)
    assert _l1_distance(f, f) == 0.0


# ---------------------------------------------------------------- arctan route


def test_xi_arctan_equal_pair_zero():
    h = random_hermitian(substream(6, "shift-arceq"), 3)
    curve = shift.xi_arctan(make_spectral_pair(h, h), 1e-2, np.linspace(-2, 2, 11))
    np.testing.assert_allclose(curve.ordinates, 0.0, atol=1e-13)


def test_xi_arctan_scalar_sharp_limit():
    curve = shift.xi_arctan(make_spectral_pair(np.array([[1.0]]), np.array([[0.0]])), 1e-3,
                            np.array([0.5]))
    expected = (np.arctan(500.0) - np.arctan(-500.0)) / np.pi
    assert curve.ordinates[0] == pytest.approx(expected, abs=1e-15)
    assert abs(curve.ordinates[0] - 1.0) <= 2e-3


def test_xi_arctan_trace_bound():
    for trial in range(100):
        rng = substream(7, "shift-arcbound", trial)
        dim = 2 + trial % 4
        a, b = seeded_pair(7, dim, trial)
        eps = float(rng.uniform(0.01, 0.5))
        s = float(rng.uniform(-3, 3))
        val = shift.xi_arctan(make_spectral_pair(a, b), eps, np.array([s])).ordinates[0]
        assert abs(val) <= trace_norm(a - b) / (np.pi * eps) + 1e-12


def test_arctan_trace_matches_functional_calculus_trace():
    # the eigenvalue sum against tr[arctan((A-s)/eps) - arctan((B-s)/eps)]
    # built as full matrices by functional calculus
    for trial in range(20):
        rng = substream(27, "shift-arctrace", trial)
        a, b = seeded_pair(27, 1 + trial % 8, trial)
        ea, eb = eig_hermitian(a), eig_hermitian(b)
        s, eps = float(rng.uniform(-3, 3)), float(rng.uniform(1e-3, 0.5))
        arctan = lambda t: np.arctan((t - s) / eps)  # noqa: E731
        dense = float(np.trace(apply_function(ea, arctan) - apply_function(eb, arctan)).real) / np.pi
        val = shift._arctan_trace(ea.eigenvalues, eb.eigenvalues, s, eps)
        assert abs(val - dense) <= 1e-12


def _harmonic_h(pair, x, y):
    """The harmonic extension h(x, y) of xi to the upper half plane: the
    arctan route at the single point x, with epsilon = y."""
    return shift.xi_arctan(pair, y, [x]).ordinates[0]


def test_harmonic_h_equals_arctan_route():
    # h(x, y) = (1/pi) tr[arctan((A-x)/y) - arctan((B-x)/y)], by functional calculus
    a, b = seeded_pair(8, 4)
    arctan = lambda t: np.arctan((t - 0.3) / 0.05)  # noqa: E731
    dense = np.trace(apply_function(eig_hermitian(a), arctan)
                     - apply_function(eig_hermitian(b), arctan)).real / np.pi
    assert _harmonic_h(make_spectral_pair(a, b), 0.3, 0.05) == pytest.approx(dense, abs=1e-14)


def _arctan_trace_at(pair, s, eps):
    """Reference for the arctan route: the trace at one point s."""
    wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
    return float(np.arctan((wa - s) / eps).sum() - np.arctan((wb - s) / eps).sum()) / np.pi


@pytest.mark.parametrize("dim, points, eps", [(1, 1, 0.3), (3, 7, 0.05), (8, 161, 0.01),
                                               (33, 161, 0.01), (64, 1001, 1e-3)])
def test_xi_arctan_matches_per_point_harmonic_h_bit_for_bit(dim, points, eps):
    pair = make_spectral_pair(*seeded_pair(13, dim, tag="shift-arctan-points"))
    grid = np.linspace(-4.0, 4.0, points)
    expected = np.array([_arctan_trace_at(pair, s, eps) for s in grid])
    assert np.array([_harmonic_h(pair, s, eps) for s in grid]).tobytes() == expected.tobytes()
    assert shift.xi_arctan(pair, eps, grid).ordinates.tobytes() == expected.tobytes()


def test_harmonic_h_large_y_integral_limit():
    for trial in range(20):
        dim = 2 + trial % 4
        a, b = seeded_pair(9, dim, trial)
        scale = max(np.abs(eig_hermitian(a).eigenvalues).max(),
                    np.abs(eig_hermitian(b).eigenvalues).max(), 1e-9)
        xi_int = shift.xi_counting(make_spectral_pair(a, b)).integral()
        rng = substream(9, "shift-largey", trial)
        x = float(rng.uniform(-scale, scale))
        for y in (100.0 * scale, 300.0 * scale):
            h = _harmonic_h(make_spectral_pair(a, b), x, y)
            assert abs(np.pi * y * h - xi_int) <= 10.0 * scale**2 / y


def test_harmonic_h_rank_one_in_unit_interval():
    for trial in range(50):
        rng = substream(10, "shift-h01", trial)
        dim = 2 + trial % 5
        b = random_hermitian(rng, dim)
        w = random_unit_vector(rng, dim)
        alpha = float(rng.uniform(0.2, 3.0))
        a = b + alpha * np.outer(w, w.conj())
        x = float(rng.uniform(-4, 4))
        y = float(rng.uniform(0.05, 5.0))
        h = _harmonic_h(make_spectral_pair(a, b), x, y)
        assert 0.0 < h < 1.0


def test_harmonic_h_rejects_bad_y():
    for y in (0.0, -1.0):
        with pytest.raises(errors.InputDomainError):
            _harmonic_h(make_spectral_pair(np.eye(2), np.eye(2)), 0.0, y)


def test_harmonic_h_five_point_laplacian_quartic_decay():
    pair = make_spectral_pair(*seeded_pair(11, 4))
    centers = [(x, y) for x in np.linspace(-1.5, 1.5, 5) for y in (1.0, 1.6)]

    def residual_sum(dg):
        tot = 0.0
        for x, y in centers:
            stencil = (_harmonic_h(pair, x + dg, y) + _harmonic_h(pair, x - dg, y)
                       + _harmonic_h(pair, x, y + dg) + _harmonic_h(pair, x, y - dg)
                       - 4.0 * _harmonic_h(pair, x, y))
            tot += abs(stencil)
        return tot

    coarse = residual_sum(0.2)
    fine = residual_sum(0.1)
    assert coarse / fine == pytest.approx(16.0, rel=0.5)  # h^4 scaling of the raw stencil


def test_xi_arctan_extrapolated_beats_plain():
    a = np.array([[1.0]])
    b = np.array([[0.0]])
    grid = np.array([-0.4, 0.3, 0.62, 1.5])
    truth = shift.xi_counting(make_spectral_pair(a, b))(grid)
    plain = shift.xi_arctan(make_spectral_pair(a, b), 0.02, grid).ordinates
    extra = shift.xi_arctan_extrapolated(make_spectral_pair(a, b), 0.02, grid).ordinates
    assert np.abs(extra - truth).max() < np.abs(plain - truth).max()


# ---------------------------------------------------------------- fourier route


def test_xi_fourier_equal_pair_zero():
    h = random_hermitian(substream(12, "shift-feq"), 3)
    curve = shift.xi_fourier(make_spectral_pair(h, h), 0.01, np.linspace(-2, 2, 7))
    np.testing.assert_allclose(curve.ordinates, 0.0, atol=1e-12)


def test_xi_fourier_scalar_matches_counting():
    grid = np.array([-0.5, -0.15, 0.2, 0.5, 0.8, 1.15, 1.5])
    curve = shift.xi_fourier(make_spectral_pair(np.array([[1.0]]), np.array([[0.0]])), 0.01, grid,
                             symmetric_open_rule(200.0, 8000))
    truth = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    assert np.abs(curve.ordinates - truth).max() <= 0.05


def test_xi_fourier_rejects_zero_node():
    with pytest.raises(errors.ConfigError, match="node at exactly 0"):
        shift.xi_fourier(make_spectral_pair(np.eye(2), np.zeros((2, 2))), 0.01, np.array([0.0]),
                         trapezoid_rule(10.0, 21))  # odd count puts a node at 0


def test_fourier_routes_refuse_the_odd_trapezoid_rule_whose_middle_node_is_0():
    # the middle node of an odd trapezoid rule is exactly 0, so both routes
    # refuse the rule; when it was rounded to 2.84e-14 both took it, and
    # arctan_rep_value(1.0) was off by 3.0e-3
    quad = trapezoid_rule(200.0, 42001)
    assert quad.nodes[21000] == 0.0 and np.count_nonzero(quad.nodes) == 42000
    pair = make_spectral_pair(*seeded_pair(42, 8))
    with pytest.raises(errors.ConfigError, match="^quadrature places a node at exactly 0$"):
        shift.xi_fourier(pair, 0.01, np.linspace(-4, 4, 161), quad)
    with pytest.raises(errors.ConfigError, match="^quadrature places a node at exactly 0$"):
        shift.arctan_rep_value(1.0, quad)


def test_xi_fourier_agrees_with_arctan_route():
    a, b = seeded_pair(14, 4)
    grid = np.linspace(-3, 3, 31)
    eps = 0.05
    pair = make_spectral_pair(a, b)
    arc = shift.xi_arctan(pair, eps, grid).ordinates
    fou = shift.xi_fourier(pair, eps, grid, symmetric_open_rule(400.0, 32000)).ordinates
    assert np.abs(arc - fou).max() <= 5e-4


def _blocked_fourier(pair, eps, grid, quad):
    """The direct node sum, with the grid x nodes exponential table built in
    row blocks and the node coefficients
    c_m = w_m e^{-eps|x_m|} tr(e^{i x_m A} - e^{i x_m B}) / x_m written out."""
    x = quad.nodes
    tr_diff = (np.exp(1j * np.outer(x, pair.left.eigenvalues)).sum(axis=1)
               - np.exp(1j * np.outer(x, pair.right.eigenvalues)).sum(axis=1))
    coeff = quad.weights * np.exp(-eps * np.abs(x)) * tr_diff / x
    rows = max(1, (1 << 20) // x.size)
    ords = np.concatenate([np.exp(-1j * np.outer(grid[i:i + rows], x)) @ coeff
                           for i in range(0, grid.size, rows)]) / (2j * np.pi)
    return ords.real


def _canonical_setting():
    # the suite's route-agreement check: scalar pair, grid kept 0.1 from {0, 1}
    grid = np.linspace(-4, 4, 161)
    grid = grid[np.abs(grid[:, None] - np.array([0.0, 1.0])).min(axis=1) >= 0.1]
    pair = make_spectral_pair(np.array([[1.0]]), np.array([[0.0]]))
    return pair, 0.01, grid, symmetric_open_rule(600.0, 48000)


def _cli_default_setting():
    a = random_hermitian(substream(42, "cli-shift-A"), 8)
    b = random_hermitian(substream(42, "cli-shift-B"), 8)
    return (make_spectral_pair(a, b), 0.01, np.linspace(-4, 4, 161),
            symmetric_open_rule(*shift.DEFAULT_FOURIER_QUAD))


def _dense_setting():
    a, b = seeded_pair(16, 32)
    return (make_spectral_pair(a, b), 0.002, np.linspace(-4, 4, 161),
            symmetric_open_rule(4000.0, 40000))


def _small_rule_setting(nodes):
    # tiny rules; at 10 and 14 nodes the last row of the square-root split is short
    a, b = seeded_pair(17, 3)
    return make_spectral_pair(a, b), 0.05, np.linspace(-2, 2, 9), symmetric_open_rule(3.0, nodes)


@pytest.mark.parametrize("setting", [
    _canonical_setting, _cli_default_setting, _dense_setting,
    *(functools.partial(_small_rule_setting, m) for m in (2, 10, 14)),
], ids=["suite-canonical", "cli-default-n8", "dense-n32", "m2", "m10", "m14"])
def test_xi_fourier_matches_blocked_node_sum(setting):
    # both evaluations round each phase by about u|phi|X, which xi_fourier's
    # docstring bounds; at X = 4000 the observed gap is 5e-14
    pair, eps, grid, quad = setting()
    ords = shift.xi_fourier(pair, eps, grid, quad).ordinates
    assert np.abs(ords - _blocked_fourier(pair, eps, grid, quad)).max() <= 1e-12


# ---------------------------------------------------------------- rank one


def test_xi_rank_one_scalar_closed_form():
    curve = shift.xi_rank_one(eig_hermitian(np.array([[0.0]])), np.array([1.0 + 0j]), 1.0,
                              np.array([0.5]), eta=1e-9)
    assert curve.ordinates[0] == pytest.approx(1.0, abs=1e-6)


def test_xi_rank_one_matches_counting():
    for trial in range(30):
        rng = substream(15, "shift-r1", trial)
        dim = 4 + trial % 3
        b = random_hermitian(rng, dim)
        w = random_unit_vector(rng, dim)
        alpha = float(rng.uniform(0.3, 2.0))
        a = b + alpha * np.outer(w, w.conj())
        evs = np.concatenate([eig_hermitian(a).eigenvalues, eig_hermitian(b).eigenvalues])
        grid = np.linspace(evs.min() - 1, evs.max() + 1, 80)
        grid = grid[np.abs(grid[:, None] - evs[None, :]).min(axis=1) >= 0.05]
        curve = shift.xi_rank_one(eig_hermitian(b), w, alpha, grid, eta=1e-6)
        truth = shift.xi_counting(make_spectral_pair(a, b))(grid)
        assert np.abs(curve.ordinates - truth).max() <= 0.05


def test_xi_rank_one_small_alpha_vanishes():
    rng = substream(16, "shift-r1a")
    b = random_hermitian(rng, 4)
    w = random_unit_vector(rng, 4)
    grid = np.linspace(-3, 3, 21)
    grid = grid[np.abs(grid[:, None] - eig_hermitian(b).eigenvalues[None, :]).min(axis=1) > 0.2]
    curve = shift.xi_rank_one(eig_hermitian(b), w, 1e-9, grid, eta=1e-4)
    assert np.abs(curve.ordinates).max() <= 1e-3


def test_xi_rank_one_validates_input():
    b = eig_hermitian(np.zeros((2, 2)))
    with pytest.raises(errors.InputDomainError, match="unit"):
        shift.xi_rank_one(b, np.array([1.0, 1.0]), 1.0, np.array([0.0]))
    with pytest.raises(errors.InputDomainError, match="eta"):
        shift.xi_rank_one(b, np.array([1.0, 0.0]), 1.0, np.array([0.0]), eta=0.0)


def _xi_route_with(name, value):
    """The xi route that takes parameter `name`, called with it set to value."""
    pair = make_spectral_pair(np.diag([0.0, 1.0]), np.diag([0.5, 2.0]))
    eb, w, grid = pair.right, np.array([0.6, 0.8]), np.array([0.25])
    return {
        "xi_arctan": lambda: shift.xi_arctan(pair, value, grid),
        "xi_arctan_extrapolated": lambda: shift.xi_arctan_extrapolated(pair, value, grid),
        "xi_fourier": lambda: shift.xi_fourier(pair, value, grid),
        "eta": lambda: shift.xi_rank_one(eb, w, 1.0, grid, eta=value),
        "alpha": lambda: shift.xi_rank_one(eb, w, value, grid),
    }[name]()


XI_PARAMETERS = [
    ("xi_arctan", "epsilon"), ("xi_arctan_extrapolated", "epsilon"), ("xi_fourier", "epsilon"),
    ("eta", "eta"), ("alpha", "alpha"),
]


# no boolean read as 1, and no bare TypeError for a str or complex
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0, -1.0,
                                   True, np.True_, "0.1", 0.1 + 0j, None,
                                   pytest.param(10 ** 400, id="10**400")])
@pytest.mark.parametrize("route, parameter", XI_PARAMETERS)
def test_xi_routes_refuse_a_parameter_that_is_not_finite_and_positive(route, parameter, value):
    with pytest.raises(errors.InputDomainError, match=f"^need finite {parameter} > 0, got"):
        _xi_route_with(route, value)


@pytest.mark.parametrize("route", [route for route, _ in XI_PARAMETERS])
def test_xi_routes_read_integer_and_numpy_parameters_alike(route):
    want = _xi_route_with(route, 1.0).ordinates
    for value in (1, np.float64(1.0), np.int64(1)):
        assert _xi_route_with(route, value).ordinates.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 1), (1, 2), ()])
def test_rank_one_routes_refuse_a_w_of_the_wrong_shape(shape):
    eb = eig_hermitian(np.diag([0.0, 1.0]))
    w = np.full(shape, 1.0 / math.sqrt(max(1, math.prod(shape))))
    with pytest.raises(errors.InputDomainError, match="w has shape"):
        shift.rank_one_cauchy_transform(eb, w, 0.5j)
    with pytest.raises(errors.InputDomainError, match="w has shape"):
        shift.xi_rank_one(eb, w, 1.0, np.array([0.5]))


def test_cauchy_transform_upper_half_plane():
    rng = substream(17, "shift-cauchy")
    b = random_hermitian(rng, 5)
    w = random_unit_vector(rng, 5)
    eb = eig_hermitian(b)
    for x in (-1.0, 0.3, 2.2):
        f = shift.rank_one_cauchy_transform(eb, w, x + 1e-3j)
        assert f.imag > 0  # Herglotz property


def test_unitary_scaffolding_rank_one_eigenvector():
    # U = I + 2iy (A - conj(z))^-1 (A-B) (B - z)^-1 has (A - conj(z))^-1 w
    # as an eigenvector with eigenvalue 1 + 2iy a <(A-zbar)^-1 w, (B-zbar)^-1 w>
    for trial in range(10):
        rng = substream(18, "shift-scaffold", trial)
        dim = 3 + trial % 3
        b = random_hermitian(rng, dim)
        w = random_unit_vector(rng, dim)
        alpha = float(rng.uniform(0.3, 2.0))
        a = b + alpha * np.outer(w, w.conj())
        x, y = float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0))
        z = x + 1j * y
        ra = np.linalg.inv(a - np.conj(z) * np.eye(dim))
        rb = np.linalg.inv(b - z * np.eye(dim))
        u = np.eye(dim) + 2j * y * ra @ (a - b) @ rb
        # unitarity of the Cayley-type product
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)
        vec = ra @ w
        lam = 1 + 2j * y * alpha * np.vdot(np.linalg.inv(b - np.conj(z) * np.eye(dim)) @ w, vec)
        np.testing.assert_allclose(u @ vec, lam * vec, atol=1e-10)
        assert abs(abs(lam) - 1.0) <= 1e-10


def test_rank_k_truncation_l1_convergence():
    # dropping the tail of a rank-k perturbation moves xi by at most the
    # dropped trace-norm mass
    rng = substream(19, "shift-rank-k")
    dim, k = 6, 4
    b = random_hermitian(rng, dim)
    ws = [random_unit_vector(rng, dim) for _ in range(k)]
    alphas = rng.uniform(-1.5, 1.5, k)
    perturbations = [al * np.outer(w, w.conj()) for al, w in zip(alphas, ws)]
    xi_full = shift.xi_counting(make_spectral_pair(b + sum(perturbations), b))
    for j in range(k):
        xi_j = shift.xi_counting(make_spectral_pair(b + sum(perturbations[: j + 1]), b))
        tail = np.abs(alphas[j + 1:]).sum()
        assert _l1_distance(xi_j, xi_full) <= tail + 1e-9


# ---------------------------------------------------------------- admissible f


def test_admissible_f_empty_is_rejected_but_single_atom_works():
    mu = shift.AtomicMeasure(points=[1.0], weights=[1.0])
    f, fp = shift.admissible_f(mu)
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(f(x), 1j * (np.exp(-1j * x) - 1.0), atol=1e-14)
    np.testing.assert_allclose(fp(x), np.exp(-1j * x), atol=1e-14)


def test_admissible_f_rejects_atom_at_zero():
    with pytest.raises(errors.InputDomainError):
        shift.AtomicMeasure(points=[0.0], weights=[1.0])


def test_admissible_f_derivative_bound():
    mu = seeded_measure(20)
    _, fp = shift.admissible_f(mu)
    x = np.linspace(-10, 10, 401)
    assert np.abs(fp(x)).max() <= mu.weights.sum() + 1e-12


def test_admissible_f_derivative_is_derivative():
    mu = seeded_measure(21)
    f, fp = shift.admissible_f(mu)
    x = np.linspace(-2, 2, 11)
    h = 1e-6
    numeric = (f(x + h) - f(x - h)) / (2 * h)
    np.testing.assert_allclose(numeric, fp(x), atol=1e-7)


def test_trace_class_bound_for_admissible_f():
    for trial in range(50):
        dim = 2 + trial % 4
        a, b = seeded_pair(22, dim, trial)
        mu = seeded_measure(22, trial)
        f, _ = shift.admissible_f(mu)
        ea, eb = eig_hermitian(a), eig_hermitian(b)
        diff = apply_function(ea, f) - apply_function(eb, f)
        assert trace_norm(diff) <= mu.weights.sum() * trace_norm(a - b) + 1e-10


# ---------------------------------------------------------------- trace formula


def test_trace_formula_identity_function():
    a, b = seeded_pair(23, 5)
    res = shift.trace_formula_check(make_spectral_pair(a, b), lambda x: x.astype(complex))
    assert res.lhs == pytest.approx(np.trace(a - b), abs=1e-12)
    assert res.gap <= 1e-11


def test_trace_formula_constant_function():
    a, b = seeded_pair(24, 4)
    res = shift.trace_formula_check(make_spectral_pair(a, b),
                                    lambda x: np.full_like(x, 3.7, dtype=complex))
    assert abs(res.lhs) <= 1e-12
    assert abs(res.rhs) <= 1e-12


def test_trace_formula_square_example():
    res = shift.trace_formula_check(make_spectral_pair(np.diag([1.0, 2.0]), np.diag([0.0, 1.0])),
                                    lambda x: x.astype(complex) ** 2)
    assert res.lhs == pytest.approx(4.0, abs=1e-12)
    assert res.rhs == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_trace_formula_admissible_f_property(seed):
    rng = substream(seed, "shift-hyp")
    dim = int(rng.integers(2, 6))
    a = random_hermitian(rng, dim)
    b = random_hermitian(rng, dim)
    mu = shift.AtomicMeasure(points=rng.uniform(0.3, 2.0, 2), weights=rng.uniform(0.2, 1.0, 2))
    f, _ = shift.admissible_f(mu)
    res = shift.trace_formula_check(make_spectral_pair(a, b), f)
    assert res.gap <= 1e-9 * (1.0 + abs(res.lhs))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, message", [
    (lambda x: np.full(x.shape, np.nan), "^function not finite at breakpoint"),
    (lambda x: 1.0, r"^function gave shape \(\) at breakpoint"),
    (lambda x: 1 / 0, "^function failed at breakpoint"),
])
def test_integrate_derivative_refuses_a_bad_f_naming_a_breakpoint(f, message):
    # no NaN integral and no IndexError
    xi = shift.xi_counting(make_spectral_pair(np.diag([0.0, 1.0]), np.diag([0.5, 2.0])))
    with pytest.raises(errors.EvaluationError, match=message):
        xi.integrate_derivative(f)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, message", [
    (lambda x: 1.0, r"^function gave shape \(\) at breakpoint \(none\)$"),
    (lambda x: 1 / 0, r"^function failed at breakpoint \(none\): division by zero$"),
])
def test_integrate_derivative_of_the_zero_function_refuses_a_bad_f(f, message):
    # no IndexError from naming the first of no breakpoints
    xi = shift.ShiftFunction(breakpoints=[], values=[])
    with pytest.raises(errors.EvaluationError, match=message):
        xi.integrate_derivative(f)


# ---------------------------------------------------------------- resolvent


def test_resolvent_identity_equal_pair():
    h = random_hermitian(substream(25, "shift-res"), 3)
    gap = shift.resolvent_identity_check(make_spectral_pair(h, h), 0.5 + 0.5j)
    assert gap == pytest.approx(0.0, abs=1e-14)


def test_resolvent_identity_scalar():
    pair = make_spectral_pair(np.array([[1.0]]), np.array([[0.0]]))
    assert shift.resolvent_identity_check(pair, 1j) <= 1e-14


def test_resolvent_identity_seeded():
    for trial in range(50):
        a, b = seeded_pair(26, 5, trial)
        gap = shift.resolvent_identity_check(make_spectral_pair(a, b), 0.3 + 0.7j)
        assert gap <= 1e-12


def test_resolvent_identity_rejects_real_z():
    with pytest.raises(errors.InputDomainError):
        shift.resolvent_identity_check(make_spectral_pair(np.eye(2), np.eye(2)), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [complex(0.0, np.inf), complex(np.nan, 1.0), complex(np.inf, 1.0)])
def test_resolvent_identity_refuses_a_non_finite_z_naming_it(z):
    with pytest.raises(errors.InputDomainError, match="^z must be finite"):
        shift.resolvent_identity_check(make_spectral_pair(np.eye(2), 2 * np.eye(2)), z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", ["0.3+0.7j", True, None, [0.3 + 0.7j]])
def test_resolvent_identity_refuses_a_z_that_is_not_a_number(z):
    # a str is not parsed by complex(z)
    with pytest.raises(errors.InputDomainError, match="^z must be finite"):
        shift.resolvent_identity_check(make_spectral_pair(np.eye(2), 2 * np.eye(2)), z)


def test_resolvent_identity_reads_python_and_numpy_z_alike():
    pair = make_spectral_pair(*seeded_pair(26, 5))
    want = shift.resolvent_identity_check(pair, 0.3 + 0.7j)
    assert shift.resolvent_identity_check(pair, np.complex128(0.3 + 0.7j)) == want
    assert shift.resolvent_identity_check(pair, 1j) == shift.resolvent_identity_check(pair, 1.0j)


# ---------------------------------------------------------------- arctan rep


def test_arctan_rep_zero():
    assert shift.arctan_rep_value(0.0) == pytest.approx(0.0, abs=1e-15)


def test_arctan_rep_quarter_pi():
    # the spec-level 1e-6 target needs the dense default rule; the kink of
    # e^{-|s|} limits a 8000-node rule to ~1e-5
    assert shift.arctan_rep_check(1.0) <= 1e-6
    coarse = shift.arctan_rep_check(1.0, symmetric_open_rule(60.0, 8000))
    assert coarse <= 2e-5


def test_arctan_rep_odd():
    for t in (0.3, 1.0, 2.7):
        quad = symmetric_open_rule(40.0, 4000)
        assert shift.arctan_rep_value(-t, quad) == pytest.approx(
            -shift.arctan_rep_value(t, quad), abs=1e-12)


def _direct_arctan_rep(t, quad):
    """The direct node sum (1/2i) sum_m w_m (e^{i s_m t} - 1) / s_m e^{-|s_m|}."""
    s = quad.nodes
    g = (np.exp(1j * s * t) - 1.0) / s * np.exp(-np.abs(s))
    return float((np.sum(quad.weights * g) / 2j).real)


def test_arctan_rep_matches_the_direct_node_sum():
    quad = symmetric_open_rule(*shift.DEFAULT_ARCTAN_QUAD)
    for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
        assert abs(shift.arctan_rep_value(t, quad) - _direct_arctan_rep(t, quad)) <= 1e-13


def test_arctan_rep_of_an_array_matches_the_values_point_by_point():
    quad = symmetric_open_rule(*shift.DEFAULT_ARCTAN_QUAD)
    t = np.array([[-2.0, -1.0, 0.0], [0.5, 1.0, 2.0]])
    values = shift.arctan_rep_value(t, quad)
    assert values.shape == t.shape
    single = [shift.arctan_rep_value(v, quad) for v in t.ravel()]
    assert all(type(v) is float for v in single)
    # each is within half the phase_sum bound of `phase_factors`' docstring
    # of the exact node sum, E(t) + u|t|X + 4u per entry and (J + B + 2) u
    # for the products, times the sum of |c_m|
    u = np.finfo(float).eps / 2
    s = quad.nodes
    rows, cols = quad.split_shape
    delta = np.abs(s - (quad.x0 + quad.h * np.arange(s.size))).max()
    entry = np.abs(t) * (7 * u * np.abs(s).max() + 2 * u * quad.h * (cols - 1) + delta) + 12 * u
    mass = np.abs(quad.weights * np.exp(-np.abs(s)) / s).sum()
    assert np.all(np.abs(values.ravel() - single) <= mass * (entry.ravel() + (rows + cols + 2) * u))
    checks = shift.arctan_rep_check(t, quad)
    assert checks.shape == t.shape and np.all(checks <= 1e-6)
    assert type(shift.arctan_rep_check(1.0, quad)) is float


def test_arctan_rep_forms_no_node_table(monkeypatch):
    quad = symmetric_open_rule(*shift.DEFAULT_ARCTAN_QUAD)
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    shift.arctan_rep_value(1.0, quad)
    assert 0 < sum(counted) <= 2 * (math.isqrt(quad.nodes.size - 1) + 1)


def test_xi_fourier_memory_does_not_grow_with_the_grid():
    # 2000 phases over 100,000 nodes: one grid x sqrt(M) complex table takes
    # 9.7 MiB, a grid x M table 3 GiB.  The phases go through in blocks and
    # the coefficients are built in place on the node sums, two complex node
    # sum products at most, 4 node arrays; building them from node-sized
    # temporaries peaks at 7.2
    quad = symmetric_open_rule(2000.0, 100_000)
    pair = make_spectral_pair(*seeded_pair(18, 4))
    grid = np.linspace(-4, 4, 2000)
    tracemalloc.start()
    try:
        shift.xi_fourier(pair, 0.01, grid, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * quad.nodes.nbytes


@pytest.mark.parametrize("z, message", [
    ("0.5j", "^z is not a numeric array"),
    (True, "^z is not a numeric array"),
    ([0.5, True], "^z is not a numeric array"),
    (np.nan, "^z has non-finite entries"),
    (np.array([0.5 + 1j, np.inf]), "^z has non-finite entries"),
], ids=["str", "bool", "bool-in-list", "nan", "inf-in-array"])
def test_cauchy_transform_refuses_a_point_that_is_not_a_finite_number(z, message):
    eb = eig_hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(errors.InputDomainError, match=message):
        shift.rank_one_cauchy_transform(eb, np.array([0.6, 0.8]), z)


@pytest.mark.parametrize("z", [1.0, 1, 1 + 0j, np.array([[0.5, 2.0], [0.0, 3.0]])],
                         ids=["float", "int", "complex", "array"])
def test_cauchy_transform_refuses_a_point_on_a_pole(z):
    eb = eig_hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(errors.IllPosedError, match="is an eigenvalue of B, a pole of F"):
        shift.rank_one_cauchy_transform(eb, np.array([0.6, 0.8]), z)


def test_cauchy_transform_is_real_at_real_points_and_complex_at_complex_ones():
    eb = eig_hermitian(np.diag([0.0, 1.0]))
    w = np.array([0.6, 0.8])
    x = np.array([[0.5, 2.0], [-1.0, 3.0]])
    real = shift.rank_one_cauchy_transform(eb, w, x)
    assert real.dtype == np.float64 and real.shape == x.shape
    np.testing.assert_allclose(real, 0.36 / (0.0 - x) + 0.64 / (1.0 - x), rtol=1e-15)
    assert shift.rank_one_cauchy_transform(eb, w, [2, 3]).dtype == np.float64
    assert shift.rank_one_cauchy_transform(eb, w, x + 0.5j).dtype == np.complex128
    assert shift.rank_one_cauchy_transform(eb, w, 0.5) == complex(real[0, 0])
