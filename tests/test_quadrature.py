import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opint import errors
from opint.quadrature import PHASE_BLOCK, QuadratureRule, symmetric_open_rule, trapezoid_rule

U = np.finfo(float).eps / 2  # unit roundoff
PHI = np.array([-10.0, -7.3, -2.5, -1.0, -0.01, 0.0, 1e-3, 0.37, 1.0, 3.14159, 6.02, 10.0])


def _direct_bound(quad, phi):
    """Per-entry bound of `QuadratureRule.phase_factors` against
    np.exp(1j * phi * x_m): |phi| (7u X + 2u h (B - 1) + D) + 12u, D the
    distance of the nodes from x0 + h m.  It is not the docstring's
    first-order worst case, E(phi) + u |phi| X + 2u: the errors do not
    align, and the entries stay well inside this fixed bound."""
    x = quad.nodes
    delta = np.abs(x - (quad.x0 + quad.h * np.arange(x.size))).max()
    cols = math.isqrt(x.size - 1) + 1
    big_x = np.abs(x).max()
    return np.abs(phi) * (7 * U * big_x + 2 * U * quad.h * (cols - 1) + delta) + 12 * U


def _table(quad, phi):
    """The (K, M) table e^{i phi_k x_m}, as products of `phase_factors`."""
    p, q = quad.phase_factors(phi)
    return (p[:, :, None] * q[:, None, :]).reshape(p.shape[0], -1)[:, :quad.nodes.size]


# the symmetric open rule needs an even node count, so only the trapezoid
# rule takes the odd counts, whose last factor row is zero-padded; the small
# and awkward counts leave partial rows in P's and Q's own tables too
@pytest.mark.parametrize("rule, nodes", [
    *((trapezoid_rule, m) for m in (2000, 4000, 4001, 32000)),
    *((symmetric_open_rule, m) for m in (2000, 4000, 32000)),
    *((trapezoid_rule, m) for m in (2, 3, 5, 17, 24, 26)),
    *((symmetric_open_rule, m) for m in (2, 24, 26)),
])
def test_phase_factors_table_and_sum_match_direct_exponentials(rule, nodes):
    quad = rule(40.0, nodes)
    x = quad.nodes
    direct = np.exp(1j * np.outer(PHI, x))
    bound = _direct_bound(quad, PHI)[:, None]

    p, q = quad.phase_factors(PHI)
    rows, cols = quad.split_shape
    assert cols == math.ceil(math.sqrt(nodes)) and rows == math.ceil(nodes / cols)
    assert p.shape == (PHI.size, rows) and q.shape == (PHI.size, cols)
    assert (rows - 1) * cols < nodes <= rows * cols
    # P[:, j] is the entry at node B j, where the Q factor is exactly 1
    assert np.all(q[:, 0] == 1.0)
    assert np.all(np.abs(p - direct[:, ::cols]) <= bound)

    table = _table(quad, PHI)
    assert table.shape == (PHI.size, nodes)
    assert np.all(np.abs(table - direct) <= bound)

    coeff = np.exp(-np.abs(x)) * np.random.default_rng(nodes).standard_normal(nodes)
    products = direct * coeff
    exact = np.array([math.fsum(r.real) + 1j * math.fsum(r.imag) for r in products])
    sums = quad.phase_sum(PHI, coeff)
    allowed = np.abs(coeff).sum() * (bound[:, 0] + (rows + cols + 2) * U)
    assert np.all(np.abs(sums - exact) <= allowed)


@pytest.mark.parametrize("phases", [1, 63, 64, 65, 129, 200])
def test_phase_sum_blocks_match_direct_exponentials(phases):
    # phases on both sides of each 64-phase block boundary; 65 and 129 leave
    # one phase past a boundary, which joins the block before it, so every
    # sum is bit for bit the one-block body-plus-tail product of all the
    # phases.  M = 4000 = 62 * 64 + 32 nodes leave a 32-node tail row
    assert PHASE_BLOCK == 64
    quad = symmetric_open_rule(40.0, 4000)
    x = quad.nodes
    phi = np.linspace(-10.0, 10.0, phases) if phases > 1 else np.array([0.37])
    coeff = np.exp(-np.abs(x)) * np.random.default_rng(phases).standard_normal(x.size)
    rows, cols = quad.split_shape
    sums = quad.phase_sum(phi, coeff)
    direct = np.exp(1j * np.outer(phi, x)) @ coeff
    bound = _direct_bound(quad, phi)
    allowed = np.abs(coeff).sum() * (bound + (rows + cols + 2) * U)
    assert sums.shape == (phases,)
    assert np.all(np.abs(sums - direct) <= allowed)
    p, q = quad.phase_factors(phi)
    full = x.size // cols
    assert (full, x.size - full * cols) == (62, 32)
    one_block = np.einsum("kj,jk->k", p[:, :full], coeff[:full * cols].reshape(full, cols) @ q.T)
    one_block += p[:, full] * (q[:, :x.size - full * cols] @ coeff[full * cols:])
    assert sums.tobytes() == one_block.tobytes()


@pytest.mark.parametrize("rule, nodes", [
    (trapezoid_rule, 2000), (trapezoid_rule, 4001), (symmetric_open_rule, 8000),
])
def test_node_length_sums_on_rules_with_a_tail_row(rule, nodes):
    # none of these counts is a square: the last factor row is partial
    quad = rule(40.0, nodes)
    x = quad.nodes
    rows, cols = quad.split_shape
    assert x.size % cols != 0
    direct = np.exp(1j * np.outer(PHI, x))
    bound = _direct_bound(quad, PHI)

    sums = quad.node_sums(PHI)
    assert sums.shape == (nodes,)
    assert np.all(np.abs(sums - direct.sum(axis=0)) <= bound.sum())

    coeff = np.exp(-np.abs(x)) * np.random.default_rng(nodes).standard_normal(nodes)
    allowed = np.abs(coeff).sum() * (bound + (rows + cols + 2) * U)
    assert np.all(np.abs(quad.phase_sum(PHI, coeff) - direct @ coeff) <= allowed)
    assert np.all(np.abs(quad.phase_sum(PHI, coeff + 0j) - direct @ coeff) <= allowed)


def test_phase_sum_takes_one_coefficient_per_node():
    quad = trapezoid_rule(40.0, 4001)
    rows, cols = quad.split_shape
    assert rows * cols > quad.nodes.size
    for shape in [(rows * cols,), (quad.nodes.size - 1,), (1, quad.nodes.size)]:
        with pytest.raises(errors.ConfigError, match="one coefficient per node"):
            quad.phase_sum(PHI, np.zeros(shape))


@pytest.mark.parametrize("rule, nodes", [(trapezoid_rule, 4001), (symmetric_open_rule, 4000)],
                         ids=["trapezoid", "symmetric-open"])
def test_x0_and_h_equal_the_direct_formula_bit_for_bit(rule, nodes):
    # both builders at W = 40 have the step 80 / 4000; x0 is the first node
    quad = rule(40.0, nodes)
    step = 80.0 / 4000
    assert quad.h == step and quad.n_nodes == nodes
    x0 = -step * ((nodes - 1) / 2)
    assert np.array([quad.x0, quad.nodes[0]]).tobytes() == np.array([x0, x0]).tobytes()
    again = QuadratureRule(step, nodes)
    assert (again.nodes.tobytes(), again.weights.tobytes(), again.steps.tobytes()) == (
        quad.nodes.tobytes(), quad.weights.tobytes(), quad.steps.tobytes())


def test_phase_factors_never_rescans_the_nodes(monkeypatch):
    # the constructor formed the step vectors once; the phase sums never
    # scan the nodes or rebuild the steps
    quad = symmetric_open_rule(40.0, 4000)
    expected = quad.phase_factors([1.0])

    def no_scan(*args, **kwargs):
        raise AssertionError("the nodes were scanned again")

    monkeypatch.setattr(np, "abs", no_scan)
    monkeypatch.setattr(np, "subtract", no_scan)
    monkeypatch.setattr(np, "arange", no_scan)
    for got, want in zip(quad.phase_factors([1.0]), expected):
        assert got.tobytes() == want.tobytes()
    quad.phase_sum(PHI, np.ones(quad.nodes.size))


@pytest.mark.parametrize("quad", [
    trapezoid_rule(40.0, 5), trapezoid_rule(40.0, 26), trapezoid_rule(40.0, 4001),
    symmetric_open_rule(4000.0, 40_000), symmetric_open_rule(2000.0, 1_000_000),
], ids=["M=5", "M=26", "M=4001", "M=40000", "M=10^6"])
def test_phase_factors_forms_about_four_fourth_roots_of_m_exponentials_per_phase(
        quad, monkeypatch):
    counted = []

    def counting_exp(x, *args, _exp=np.exp, **kwargs):
        counted.append(np.size(x))
        return _exp(x, *args, **kwargs)

    rows, cols = quad.split_shape
    b, c = math.ceil(math.sqrt(rows)), math.ceil(math.sqrt(cols))
    per_phase = -(-rows // b) + b + -(-cols // c) + c
    monkeypatch.setattr(np, "exp", counting_exp)
    p, q = quad.phase_factors(PHI)
    assert (p.shape, q.shape) == ((PHI.size, rows), (PHI.size, cols))
    assert sum(counted) <= PHI.size * per_phase
    if quad.nodes.size == 40_000:
        assert sum(counted) == PHI.size * 58
    if quad.nodes.size == 1_000_000:
        assert sum(counted) == PHI.size * 128


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("rule, half_width, nodes", [
    *((trapezoid_rule, 40.0, m) for m in (2, 3, 5, 17, 24, 26, 4001, 32000)),
    *((symmetric_open_rule, 40.0, m) for m in (2, 24, 26, 4000, 32000)),
    (symmetric_open_rule, 4000.0, 40_000),
])
def test_phase_table_is_within_the_documented_bound_of_a_longdouble_reference(
        rule, half_width, nodes):
    # E(phi) = |phi| (6u X + 3u h N + delta) + 15u of the phase_factors
    # docstring, with delta measured in long double from x0 + h m
    quad = rule(half_width, nodes)
    x = quad.nodes.astype(np.longdouble)
    rows, cols = quad.split_shape
    n_max = min(cols * math.ceil(math.sqrt(rows)), nodes) - 1
    m = np.arange(nodes, dtype=np.longdouble)
    delta = float(np.abs(x - (np.longdouble(quad.x0) + np.longdouble(quad.h) * m)).max())
    big_x = np.abs(quad.nodes).max()
    bound = np.abs(PHI) * (6 * U * big_x + 3 * U * quad.h * n_max + delta) + 15 * U
    exact = np.exp(1j * np.outer(PHI.astype(np.longdouble), x))
    err = np.abs(_table(quad, PHI) - exact).astype(float)
    assert np.all(err <= bound[:, None])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double here")
@given(half_width=st.floats(1e-3, 1e6), nodes=st.integers(2, 100_000))
@settings(max_examples=200, deadline=None)
def test_builders_give_centred_nodes_in_exact_pairs_within_u_of_h_t(half_width, nodes):
    for quad in (trapezoid_rule(half_width, nodes),
                 symmetric_open_rule(half_width, nodes + nodes % 2)):
        x, m = quad.nodes, quad.n_nodes
        assert x.tobytes() == (-x[::-1] + 0.0).tobytes()  # + 0.0: an odd M's middle -0.0 is 0.0
        # h t_m in long double is off the exact product by at most 2^-64 of it
        t = np.arange(m, dtype=np.longdouble) - np.longdouble(m - 1) / 2
        distance = np.abs(x.astype(np.longdouble) - np.longdouble(quad.h) * t).astype(float)
        assert np.all(distance <= U * np.abs(x) * (1 + 2.0 ** -10))
        if m % 2:
            assert x[m // 2] == 0.0 and np.count_nonzero(x) == m - 1
            with pytest.raises(errors.ConfigError, match="node at exactly 0"):
                quad.require_zero_free()
        else:
            assert np.count_nonzero(x) == m
            quad.require_zero_free()


@pytest.mark.parametrize("args, name", [
    ((0.1, 1), "n_nodes"),
    ((0.1, 0), "n_nodes"),
    ((0.1, 4.0), "n_nodes"),
    ((0.1, True), "n_nodes"),
    ((0.1, "4"), "n_nodes"),
    ((True, 4), "h"),
    (("0.1", 4), "h"),
    ((0.1 + 0j, 4), "h"),
    ((0.0, 4), "h"),
    ((-0.1, 4), "h"),
    ((np.nan, 4), "h"),
    ((np.inf, 4), "h"),
    ((10 ** 400, 4), "h"),
    ((5e-324, 4), "h"),
    ((math.nextafter(2 * sys.float_info.min, 0.0), 2), "h"),
    ((1.6e308, 2), "h"),
    ((np.float64(1.6e308), 2), "h"),
    ((np.finfo(float).max / 1000, 4001), "h"),
])
def test_the_constructor_refuses_bad_arguments_naming_them(args, name):
    # a ConfigError before any array is built: no numpy overflow warning,
    # no NaN step, no subnormal node rounded to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ConfigError, match=f"^{name}: expected"):
            QuadratureRule(*args)


@pytest.mark.parametrize("nodes", [2, 3, 4, 5, 7, 26, 4000, 4001, 40_000])
def test_the_constructor_takes_every_step_whose_largest_product_is_finite(nodes):
    # the largest product is fl(fl(h B b) max(ceil(J / b) - 1, 1)), which
    # the builders reach at M = 2 and 3 with a quarter of the largest float
    rows, cols = QuadratureRule(1.0, nodes).split_shape
    b = math.isqrt(rows - 1) + 1
    factors = cols * b, max(-(-rows // b) - 1, 1)
    h = sys.float_info.max / (factors[0] * factors[1])
    while h * factors[0] * factors[1] > sys.float_info.max:
        h = math.nextafter(h, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step in (h, 2 * sys.float_info.min):
            quad = QuadratureRule(step, nodes)
            assert np.isfinite(quad.steps).all() and np.isfinite(quad.nodes).all()
            assert np.count_nonzero(quad.nodes) == nodes - nodes % 2
        with pytest.raises(errors.ConfigError, match="^h: expected"):
            QuadratureRule(h * (1 + 1e-15), nodes)


@pytest.mark.parametrize("rule, args, name", [
    (trapezoid_rule, (40.0, 3.0), "n_nodes"),
    (trapezoid_rule, (40.0, 4.0), "n_nodes"),
    (symmetric_open_rule, (40.0, 4.0), "n_nodes"),
    (trapezoid_rule, (40.0, "4"), "n_nodes"),
    (symmetric_open_rule, (40.0, "4"), "n_nodes"),
    (trapezoid_rule, (40.0, 1), "n_nodes"),
    (trapezoid_rule, (40.0, np.True_), "n_nodes"),
    (symmetric_open_rule, (40.0, 5), "n_nodes"),
    (trapezoid_rule, ("40", 4), "half_width"),
    (symmetric_open_rule, ("40", 4), "half_width"),
    (trapezoid_rule, (True, 10), "half_width"),
    (symmetric_open_rule, (True, 10), "half_width"),
    (trapezoid_rule, (1 + 0j, 10), "half_width"),
    (trapezoid_rule, (np.inf, 4000), "half_width"),
    (symmetric_open_rule, (np.inf, 4000), "half_width"),
    (trapezoid_rule, (1e308, 4000), "half_width"),
    (symmetric_open_rule, (1e308, 4000), "half_width"),
    (symmetric_open_rule, (np.float64(1e308), 4000), "half_width"),
    (trapezoid_rule, (10 ** 400, 10), "half_width"),
    (trapezoid_rule, (np.nan, 10), "half_width"),
    (trapezoid_rule, (0, 10), "half_width"),
    (symmetric_open_rule, (-1.0, 10), "half_width"),
])
def test_rule_builders_refuse_bad_arguments_naming_them(rule, args, name):
    # a ConfigError before any array is built: no bare TypeError, no numpy
    # overflow warning, and no boolean read as 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ConfigError, match=f"^{name}: expected"):
            rule(*args)


@pytest.mark.parametrize("rule, nodes", [
    *((trapezoid_rule, m) for m in (2, 3, 4, 5, 26, 4000, 4001)),
    *((symmetric_open_rule, m) for m in (2, 4, 26, 4000)),
])
def test_rule_builders_take_half_widths_up_to_a_quarter_of_the_largest_float(rule, nodes):
    # at M = 2 and 3 the constructor's step vectors reach 4 half_width
    limit = np.finfo(float).max / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quad = rule(limit, nodes)
        assert np.isfinite(quad.steps).all() and np.isfinite(quad.weights).all()
        with pytest.raises(errors.ConfigError, match="^half_width: expected"):
            rule(np.nextafter(limit, np.inf), nodes)


def test_rule_builders_read_integer_and_numpy_arguments_alike():
    for rule, nodes in ((trapezoid_rule, 4001), (symmetric_open_rule, 4000)):
        want = rule(40.0, nodes)
        for args in ((40, nodes), (np.float64(40.0), np.int64(nodes)), (np.int32(40), nodes)):
            got = rule(*args)
            assert (got.nodes.tobytes(), got.weights.tobytes()) == (
                want.nodes.tobytes(), want.weights.tobytes())


PHASE_ROUTINES = {
    "phase_factors": lambda quad, phi: quad.phase_factors(phi),
    "node_sums": lambda quad, phi: quad.node_sums(phi),
    "phase_sum": lambda quad, phi: quad.phase_sum(phi, np.ones(quad.nodes.size)),
}


@pytest.mark.parametrize("phi, message", [
    (np.array([0.5 + 3j]), "must be real"),
    ([0.5, 2j], "must be real"),
    ([True, 0.5], "is not a numeric array"),
    (["0.5"], "is not a numeric array"),
    ([0.5, np.nan], "has non-finite entries"),
    ([-np.inf, 0.5], "has non-finite entries"),
], ids=["complex-array", "complex-in-list", "bool-in-list", "str", "nan", "inf"])
@pytest.mark.parametrize("routine", sorted(PHASE_ROUTINES))
def test_phase_routines_refuse_phases_that_are_not_finite_reals(routine, phi, message):
    quad = symmetric_open_rule(10.0, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InputDomainError, match=f"^phi {message}"):
            PHASE_ROUTINES[routine](quad, phi)


@pytest.mark.parametrize("routine", sorted(PHASE_ROUTINES))
def test_phase_routines_read_integer_and_float_phases_alike(routine):
    quad = symmetric_open_rule(10.0, 100)
    def output_bytes(phi):
        out = PHASE_ROUTINES[routine](quad, phi)
        return b"".join(a.tobytes() for a in (out if isinstance(out, tuple) else (out,)))
    assert output_bytes([-2, 0, 3]) == output_bytes(np.array([-2.0, 0.0, 3.0]))


@pytest.mark.parametrize("coeff, message", [
    ([True, False, True, False, True], "is not a numeric array"),
    (np.array([True, False, True, False, True]), "is not a numeric array"),
    ([1.0, 0.5, True, 0.5, 1.0], "is not a numeric array"),
    (["1", "0", "1", "0", "1"], "is not a numeric array"),
    (np.array([1.0, None, 1.0, 1.0, 1.0], dtype=object), "is not a numeric array"),
    ([1.0, np.nan, 1.0, 1.0, 1.0], "has non-finite entries"),
    (np.array([1.0, 1.0, 1.0, 1.0, complex(0.0, np.inf)]), "has non-finite entries"),
], ids=["bool-list", "bool-array", "bool-in-list", "str", "object", "nan", "complex-inf"])
def test_phase_sum_refuses_coefficients_that_are_not_finite_numbers(coeff, message):
    quad = trapezoid_rule(4.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InputDomainError, match=f"^coeff {message}"):
            quad.phase_sum([0.5], coeff)


def test_phase_sum_reads_integer_and_float_coefficients_alike():
    quad = trapezoid_rule(4.0, 5)
    ints = quad.phase_sum(PHI, [1, 0, 2, 0, 1])
    assert ints.tobytes() == quad.phase_sum(PHI, np.array([1.0, 0.0, 2.0, 0.0, 1.0])).tobytes()
