"""Composite trapezoid rules on symmetric intervals.

Two node layouts are provided: a plain uniform grid over [-W, W], and a
half-step-offset grid whose nodes come in exact +/- pairs and never touch
the origin.  The offset layout is what the oscillatory-integral routines
use, since their integrands are only defined away from 0 (they extend
continuously, but the sampled formula divides by the node).

A rule's nodes are an arithmetic progression (its constructor refuses
others), so it can split every e^{i phi x_m} into two factors of about
sqrt(M) columns, and build each factor from two exponential tables of about
M^{1/4} columns (`QuadratureRule.phase_factors`): about 4 M^{1/4}
exponentials per phase.  Every Fourier sum of `doi` and `shift` goes through
`node_sums` (over phases, per node) or `phase_sum` (over nodes, per phase),
which take and give one entry per node: the split's layout stays here.
"""

from __future__ import annotations

import math
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
    """Nodes and weights of a one-dimensional quadrature.  The constructor
    measures once how far the nodes lie from x0 + h m, x0 = nodes[0] and
    h = (nodes[-1] - x0) / (M - 1) (0 when M = 1), and refuses more than
    16 eps X = 32u X (X = max|node|, eps = 2^-52) with `ConfigError`.  It
    also forms `steps`, the four step vectors of `phase_factors`."""

    nodes: np.ndarray
    weights: np.ndarray
    x0: float = field(init=False)
    h: float = field(init=False)
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ConfigError("quadrature needs matching, non-empty node/weight vectors")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ConfigError("quadrature nodes/weights must be finite")
        x0 = float(nodes[0])
        h = float(nodes[-1] - x0) / (nodes.size - 1) if nodes.size > 1 else 0.0
        scratch = np.arange(nodes.size, dtype=float)
        scratch *= h
        scratch += x0
        np.subtract(nodes, scratch, out=scratch)
        deviation = float(np.abs(scratch, out=scratch).max())
        if deviation > 16 * np.finfo(float).eps * max(nodes.max(), -nodes.min()):
            raise ConfigError("quadrature nodes are not an arithmetic progression "
                              f"(off by {deviation:.3e})")
        # each step vector is its scalar step times the column index, the form
        # that the error bound of phase_factors counts
        rows, cols = _split(nodes.size)
        (p1, p0), (q1, q0) = _split(rows), _split(cols)
        steps = np.concatenate([x0 + h * (cols * p0) * np.arange(p1), h * cols * np.arange(p0),
                                h * q0 * np.arange(q1), h * np.arange(q0)])
        for name, value in (("nodes", nodes), ("weights", weights), ("x0", x0), ("h", h),
                            ("steps", steps)):
            object.__setattr__(self, name, value)

    def require_zero_free(self):
        if np.count_nonzero(self.nodes) < self.nodes.size:
            raise ConfigError("quadrature places a node at exactly 0")

    @property
    def split_shape(self) -> tuple[int, int]:
        """(J, B) of the square-root phase split of `phase_factors`:
        B = ceil(sqrt(M)) columns and J = ceil(M / B) rows, node m at
        row m // B and column m % B."""
        return _split(self.nodes.size)

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
        arithmetic.  The constructor measures the distance D from the
        rounded fl(x0 + fl(h m)), which is within 3u X of x0 + h m, so
        delta <= D + 3u X (D is at most 5u X and 9u X for the two rules of
        this module, 32u X for any rule).  To first order in u the four
        phases of P[k, j] Q[k, r] add up to phi_k x_m within
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
        reference, the largest entry error per phase is 0.08 to 0.51 of
        E(phi_k) on both rules at 2,000 <= M <= 40,000 and |phi| <= 10, and
        at most 0.24 of it at M <= 26.
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
        return (p.T @ q).ravel()[:self.nodes.size]

    def phase_sum(self, phi, coeff) -> np.ndarray:
        """sum_m coeff[m] e^{i phi_k x_m} for each k, from `phase_factors`
        without the full table.  `coeff` holds exactly one coefficient per
        node, else `ConfigError`, and is not copied.  With M = F B + r, its
        first F B entries are viewed as the (F, B) matrix C of the split, and
        the sums are the diagonal of P[:, :F] (C Q^T) plus, when r > 0, the
        last row's P[:, F] (Q[:, :r] c_tail) for the r tail coefficients.

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
        coeff = np.asarray(coeff)
        if coeff.shape != self.nodes.shape:
            raise ConfigError(f"phase_sum takes one coefficient per node, not shape {coeff.shape}")
        phi = as_finite_array(phi, "phi", None, float).ravel()
        cols = self.split_shape[1]
        full = self.nodes.size // cols
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


def _rule_arguments(half_width, n_nodes) -> tuple[float, int]:
    """The builders' one argument check, made before any array is built."""
    if isinstance(half_width, bool) or not isinstance(half_width, Real) or not (
            0 < half_width <= float(np.finfo(float).max) / 4):  # `steps` reach 4 half_width
        raise ConfigError(f"half_width: expected a real in (0, max float / 4], got {half_width!r}")
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, Integral) or n_nodes < 2:
        raise ConfigError(f"n_nodes: expected an integer >= 2, got {n_nodes!r}")
    return float(half_width), int(n_nodes)


def trapezoid_rule(half_width: float, n_nodes: int) -> QuadratureRule:
    """Uniform trapezoid nodes on [-half_width, half_width].  np.linspace's
    node m is fl(fl(m s) - W), s = fl(2W / (M - 1)), as is the rule's x0 + h m
    (x0 = -W, h = s), but for the last, set to W: it is off the progression
    by |W - fl(fl((M - 1) s) - W)| <= 5u W, to first order in u = 2^-53."""
    half_width, n_nodes = _rule_arguments(half_width, n_nodes)
    nodes = np.linspace(-half_width, half_width, n_nodes)
    h = nodes[1] - nodes[0]
    weights = np.full(n_nodes, h)
    weights[0] = weights[-1] = h / 2.0
    return QuadratureRule(nodes, weights)


def symmetric_open_rule(half_width: float, n_nodes: int) -> QuadratureRule:
    """Half-step-offset trapezoid nodes: exact +/- pairs, none at 0.

    The node span is [-(W - h/2), W - h/2] with spacing h = 2W/n; the two
    outermost strips of width h/2 are dropped, which only matters for
    integrands that have not decayed by +/-W.

    Node M/2 + k is p_k = fl(h/2 + fl(h k)) = h (k + 1/2)(1 + t_k), |t_k| <= 2u,
    and node M/2 - 1 - k is -p_k.  With X = p_{M/2-1} the rule's progression
    is fl(fl(m h') - X), h' = fl(2X / (M - 1)) = h (1 + t_{M/2-1})(1 + c), so
    to first order a node is off it by h (k + 1/2)|t_k - t_{M/2-1}| <= 4u X,
    4u X from c and fl(m h') (m h' <= 2X), and u X from the sum: 9u X.
    """
    half_width, n_nodes = _rule_arguments(half_width, n_nodes)
    if n_nodes % 2:
        raise ConfigError(f"n_nodes: expected an even count, got {n_nodes}")
    h = 2.0 * half_width / n_nodes
    positive = h / 2.0 + h * np.arange(n_nodes // 2)
    nodes = np.concatenate([-positive[::-1], positive])
    weights = np.full(n_nodes, h)
    weights[0] = weights[-1] = h / 2.0
    return QuadratureRule(nodes, weights)
