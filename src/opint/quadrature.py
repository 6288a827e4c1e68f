"""Composite trapezoid rules on symmetric intervals.

A rule is its step h and node count M: `QuadratureRule(h, M)` has the M
centred nodes fl(h (m - (M - 1)/2)), in exact +/- pairs, with a node at 0,
exactly 0.0, just when M is odd.  `trapezoid_rule` lays them over [-W, W];
`symmetric_open_rule` offsets them by half a step, so they never touch the
origin.  The offset layout is what the oscillatory-integral routines use,
since their integrands are only defined away from 0 (they extend
continuously, but the sampled formula divides by the node).

A rule's nodes are an arithmetic progression (the constructor builds
them as one), so it can split every e^{i phi x_m} into two factors of about
sqrt(M) columns, and build each factor from two exponential tables of about
M^{1/4} columns (`QuadratureRule.phase_factors`): about 4 M^{1/4}
exponentials per phase.  Every Fourier sum of `doi` and `shift` goes through
`node_sums` (over phases, per node) or `phase_sum` (over nodes, per phase),
which take and give one entry per node: the split's layout stays here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError
from .linalg import as_finite_array

# Phases per block of `QuadratureRule.phase_sum`: its factor tables and
# partial products take O(PHASE_BLOCK sqrt(M)) memory, whatever the count of
# phases.
PHASE_BLOCK = 64


def _split(size: int) -> tuple[int, int]:
    """(ceil(size / c), c) with c = ceil(sqrt(size)), for size >= 1."""
    cols = math.isqrt(size - 1) + 1
    return -(-size // cols), cols


@dataclass(frozen=True)
class QuadratureRule:
    """The composite trapezoid rule of step h on M = n_nodes centred nodes
    x_m = fl(h t_m), t_m = m - (M - 1)/2: weights h, and h/2 at the ends.
    The constructor builds `nodes`, `weights`, x0 = nodes[0] and `steps`
    (see `phase_factors`).  Before any array is built it refuses with
    `ConfigError` an n_nodes that is not an integer >= 2, and an h below
    twice the smallest normal float (a node could round to 0) or whose
    largest step product, fl(fl(h B b) max(ceil(J / b) - 1, 1)), overflows:
    every node and other step entry is smaller."""

    h: float
    n_nodes: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    x0: float = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_nodes, h = _node_count(self.n_nodes), self.h
        rows, cols = _split(n_nodes)
        (p1, p0), (q1, q0) = _split(rows), _split(cols)
        if isinstance(h, bool) or not isinstance(h, Real) or not (
                2 * sys.float_info.min <= h <= sys.float_info.max
                and float(h) * (cols * p0) * max(p1 - 1, 1) <= sys.float_info.max):
            raise ConfigError(f"h: expected a real >= 2 min normal float whose {n_nodes}-node "
                              f"steps are finite, got {h!r}")
        h = float(h)
        nodes = np.arange(n_nodes, dtype=float)
        nodes -= (n_nodes - 1) / 2
        nodes *= h
        weights = np.full(n_nodes, h)
        weights[0] = weights[-1] = h / 2.0
        x0 = float(nodes[0])
        # each step vector is its scalar step times the column index, the form
        # that the error bound of phase_factors counts
        steps = np.concatenate([x0 + h * (cols * p0) * np.arange(p1), h * cols * np.arange(p0),
                                h * q0 * np.arange(q1), h * np.arange(q0)])
        for name, value in (("h", h), ("n_nodes", n_nodes), ("nodes", nodes),
                            ("weights", weights), ("x0", x0), ("steps", steps)):
            object.__setattr__(self, name, value)

    def require_zero_free(self):
        if self.n_nodes % 2:  # node (M - 1)/2 is h 0 = 0.0
            raise ConfigError("quadrature places a node at exactly 0")

    @property
    def split_shape(self) -> tuple[int, int]:
        """(J, B) of the square-root phase split of `phase_factors`:
        B = ceil(sqrt(M)) columns and J = ceil(M / B) rows, node m at
        row m // B and column m % B."""
        return _split(self.n_nodes)

    def phase_factors(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """Square-root phase split of e^{i phi_k x_m} over the M nodes.  The
        phases phi are real and finite, of any shape, read in C order; this,
        `node_sums` and `phase_sum` refuse others with InputDomainError naming phi.

        With x_m = x0 + h m, B = ceil(sqrt(M)), J = ceil(M / B) and
        m = B j + r,

            e^{i phi_k x_m} = P[k, j] Q[k, r],
            P = e^{i phi (x0 + h B j)},  Q = e^{i phi h r},

        of shapes (K, J) and (K, B).  The factors also cover the J B - M indices
        past the last node, which `node_sums` drops and `phase_sum` never reads.

        Each factor is a geometric progression in its column index, so it is
        split the same way: with b = ceil(sqrt(J)), j = b j1 + j0,
        c = ceil(sqrt(B)) and r = c r1 + r0,

            P[k, j] = e^{i phi (x0 + h B b j1)} e^{i phi h B j0},
            Q[k, r] = e^{i phi h c r1} e^{i phi h r0}.

        The constructor forms the four step vectors x0 + (h B b) j1,
        (h B) j0, (h c) r1 and h r0 once (`steps`).  A call makes one np.exp
        over phi_k times the steps, K (ceil(J / b) + b + ceil(B / c) + c)
        ~ 4 K M^{1/4} exponentials (58 per phase at M = 40,000, 128 at
        10^6), and two broadcast products give P and Q.

        Error.  Let u be the unit roundoff, X = max|x_m|, N = min(B b, M) - 1
        and delta the largest distance of a node from x0 + h m in exact
        arithmetic.  Each node is within u |x_m| of h t_m and x0 within u X of
        -h (M - 1)/2, so delta <= 2u X by construction.  To first order in u
        the four phases of P[k, j] Q[k, r] add up to phi_k x_m within
        |phi_k| (6 u X + 3 u h N + delta): 5u X from forming
        x0 + (h B b) j1 (two roundings of a product of at most 2X, one of
        the sum), u X from its product with phi_k, 3u h (B j0 + c r1) + 2u h r0
        <= 3u h N from the three other phases, and delta.  Each of the four
        exponentials adds at most 2u and each of the three complex products
        (P's, Q's and P Q) at most sqrt(5) u, so each entry is within

            E(phi_k) = |phi_k| (6 u X + 3 u h N + delta) + 15u

        of the exact e^{i phi_k x_m}, and within E(phi_k) + u |phi_k| X + 2u
        of np.exp(1j * phi_k * x_m), which rounds its own phase.  h N is at
        most 2X, and about 2X M^{-1/4} for large M.  A node sum with
        coefficients c_m is within (E(phi_k) + (J + B) u) sum_m |c_m| of the
        exact sum, the second term from the two matrix products of
        `phase_sum`.  The errors do not align: against an np.longdouble
        reference, the largest entry error per phase is 0.11 to 0.47 of
        E(phi_k) on both rules at 2,000 <= M <= 40,000 and |phi| <= 10, and
        at most 0.20 of it at M <= 26.
        """
        rows, cols = self.split_shape
        (p1, p0), (q1, q0) = _split(rows), _split(cols)
        e = np.exp(1j * np.outer(as_finite_array(phi, "phi", None, float), self.steps))
        k, i = e.shape[0], p1 + p0
        p = (e[:, :p1, None] * e[:, None, p1:i]).reshape(k, p1 * p0)[:, :rows]
        q = (e[:, i:i + q1, None] * e[:, None, i + q1:]).reshape(k, q1 * q0)[:, :cols]
        return p, q

    def node_sums(self, phi) -> np.ndarray:
        """The M-vector sum_k e^{i phi_k x_m}: one (J x K)(K x B) product of
        the factors of `phase_factors`, cut to the M nodes.  It is a view of
        that product, so callers can build node coefficients on it in place."""
        p, q = self.phase_factors(phi)
        return (p.T @ q).ravel()[:self.n_nodes]

    def phase_sum(self, phi, coeff) -> np.ndarray:
        """sum_m coeff[m] e^{i phi_k x_m} for each k, from `phase_factors`
        without the full table.  `coeff` holds exactly one coefficient per
        node, else `ConfigError`, and finite numbers, else InputDomainError
        naming coeff; real ones are read as float and others as complex128,
        uncopied when they are so already.  With M = F B + r, its first F B
        entries are viewed as the (F, B) matrix C of the split, and the sums
        are the diagonal of P[:, :F] (C Q^T) plus, when r > 0, the last row's
        P[:, F] (Q[:, :r] c_tail) for the r tail coefficients.

        The phases go through in blocks of `PHASE_BLOCK` = 64.  Besides the
        K sums, only one block's P, Q and C Q^T are held: 64 (2 J + B)
        complex entries and the few padded columns of P's and Q's tables,
        about 3 KiB per unit of sqrt(M) (3 MiB at M = 10^6), and while P
        and Q are built, the block's (64, ~4 M^{1/4}) exponential table
        (128 KiB at M = 10^6), however many phases there are.  Each sum is
        the same arithmetic as with all K phases in one block.  That needs
        every block of a call with K > 1 to hold at least two phases: numpy
        turns a one-column product C Q^T into a matrix-vector product, which
        rounds differently, so a lone last phase joins the block before it.
        With complex coefficients a phase's sum can still change in its last
        bits with the other phases of its call: a caller that needs each
        member's bits alone calls this once per member, as `doi_fourier` does.
        """
        coeff = as_finite_array(coeff, "coeff", None,
                                np.complex128 if np.iscomplexobj(coeff) else float)
        if coeff.shape != (self.n_nodes,):
            raise ConfigError(f"phase_sum takes one coefficient per node, not shape {coeff.shape}")
        phi = as_finite_array(phi, "phi", None, float).ravel()
        cols = self.split_shape[1]
        full = self.n_nodes // cols
        body, tail = coeff[:full * cols].reshape(full, cols), coeff[full * cols:]
        sums = np.empty(phi.size, dtype=np.complex128)
        starts = list(range(0, phi.size, PHASE_BLOCK))
        if len(starts) > 1 and phi.size % PHASE_BLOCK == 1:
            starts.pop()
        for start, end in zip(starts, starts[1:] + [phi.size]):
            p, q = self.phase_factors(phi[start:end])
            block = sums[start:end]
            np.einsum("kj,jk->k", p[:, :full], body @ q.T, out=block)
            if tail.size:
                block += p[:, full] * (q[:, :tail.size] @ tail)
        return sums


def _node_count(n_nodes) -> int:
    """n_nodes as an int, if it is an integer >= 2, else `ConfigError`."""
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, Integral) or n_nodes < 2:
        raise ConfigError(f"n_nodes: expected an integer >= 2, got {n_nodes!r}")
    return int(n_nodes)


def _rule_arguments(half_width, n_nodes) -> tuple[float, int]:
    """The builders' one argument check, made before any array is built."""
    if isinstance(half_width, bool) or not isinstance(half_width, Real) or not (
            0 < half_width <= sys.float_info.max / 4):  # `steps` reach 4 half_width
        raise ConfigError(f"half_width: expected a real in (0, max float / 4], got {half_width!r}")
    return float(half_width), _node_count(n_nodes)


def trapezoid_rule(half_width: float, n_nodes: int) -> QuadratureRule:
    """The rule of step 2W / (M - 1) on [-half_width, half_width]; its end
    nodes +/-fl(h (M - 1)/2) are within 2u W of +/-W."""
    half_width, n_nodes = _rule_arguments(half_width, n_nodes)
    return QuadratureRule(2.0 * half_width / (n_nodes - 1), n_nodes)


def symmetric_open_rule(half_width: float, n_nodes: int) -> QuadratureRule:
    """Half-step-offset trapezoid nodes: the rule of step h = 2W / M on an
    even count M, exact +/- pairs, none at 0.

    The node span is [-(W - h/2), W - h/2]; the two outermost strips of
    width h/2 are dropped, which only matters for integrands that have not
    decayed by +/-W.
    """
    half_width, n_nodes = _rule_arguments(half_width, n_nodes)
    if n_nodes % 2:
        raise ConfigError(f"n_nodes: expected an even count, got {n_nodes}")
    return QuadratureRule(2.0 * half_width / n_nodes, n_nodes)
