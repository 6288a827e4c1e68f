import math

import numpy as np
import pytest

from opint import errors
from opint.quadrature import QuadratureRule, symmetric_open_rule, trapezoid_rule

U = np.finfo(float).eps / 2  # unit roundoff
PHI = np.array([-10.0, -7.3, -2.5, -1.0, -0.01, 0.0, 1e-3, 0.37, 1.0, 3.14159, 6.02, 10.0])


def _direct_bound(quad, phi):
    """Per-entry bound of `QuadratureRule.phase_factors` against
    np.exp(1j * phi * x_m): E(phi) + u |phi| X + 4u, with E from its docstring."""
    x = quad.nodes
    x0, h = quad.require_uniform()
    delta = np.abs(x - (x0 + h * np.arange(x.size))).max()
    cols = math.isqrt(x.size - 1) + 1
    big_x = np.abs(x).max()
    return np.abs(phi) * (7 * U * big_x + 2 * U * h * (cols - 1) + delta) + 12 * U


# the symmetric open rule needs an even node count, so only the trapezoid
# rule takes M = 4001, whose last factor row is zero-padded
@pytest.mark.parametrize("rule, nodes", [
    *((trapezoid_rule, m) for m in (2000, 4000, 4001, 32000)),
    *((symmetric_open_rule, m) for m in (2000, 4000, 32000)),
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

    table = quad.phase_table(PHI)
    assert table.shape == (PHI.size, nodes)
    assert np.all(np.abs(table - direct) <= bound)

    coeff = np.exp(-np.abs(x)) * np.random.default_rng(nodes).standard_normal(nodes)
    products = direct * coeff
    exact = np.array([math.fsum(r.real) + 1j * math.fsum(r.imag) for r in products])
    padded = np.zeros(rows * cols)
    padded[:nodes] = coeff
    sums = quad.phase_sum(PHI, padded)
    allowed = np.abs(coeff).sum() * (bound[:, 0] + (rows + cols + 2) * U)
    assert np.all(np.abs(sums - exact) <= allowed)


def test_progression_is_worked_out_once(monkeypatch):
    quad = symmetric_open_rule(40.0, 4000)
    x0, h = quad.require_uniform()

    def no_scan(*args, **kwargs):
        raise AssertionError("the nodes were scanned again")

    monkeypatch.setattr(np, "abs", no_scan)
    assert quad.require_uniform() == (x0, h)
    quad.phase_factors([1.0])


def test_non_uniform_rule_is_refused_on_every_call():
    quad = QuadratureRule([-3.0, -1.0, 1.0, 2.0, 4.0], np.ones(5))
    for _ in range(2):
        with pytest.raises(errors.ConfigError, match="not an arithmetic progression"):
            quad.phase_factors([1.0])
