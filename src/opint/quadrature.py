"""Composite trapezoid rules on symmetric intervals.

Two node layouts are provided: a plain uniform grid over [-W, W], and a
half-step-offset grid whose nodes come in exact +/- pairs and never touch
the origin.  The offset layout is what the oscillatory-integral routines
use, since their integrands are only defined away from 0 (they extend
continuously, but the sampled formula divides by the node).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a one-dimensional quadrature."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ConfigError("quadrature needs matching, non-empty node/weight vectors")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ConfigError("quadrature nodes/weights must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def require_zero_free(self):
        if np.abs(self.nodes).min() == 0.0:
            raise ConfigError("quadrature places a node at exactly 0")

    def require_uniform(self) -> tuple[float, float]:
        """(x0, h) such that nodes[m] = x0 + h m to within 16 ulps of the
        largest |node|, else `ConfigError`.  Both rules of this module build
        such nodes, to within 2 ulps."""
        x = self.nodes
        x0 = float(x[0])
        h = float(x[-1] - x0) / (x.size - 1) if x.size > 1 else 0.0
        deviation = np.abs(x - (x0 + h * np.arange(x.size))).max()
        if deviation > 16 * np.finfo(float).eps * np.abs(x).max():
            raise ConfigError("quadrature nodes are not an arithmetic progression "
                              f"(off by {deviation:.3e})")
        return x0, h


def trapezoid_rule(half_width: float, n_nodes: int) -> QuadratureRule:
    """Uniform trapezoid nodes on [-half_width, half_width]."""
    if half_width <= 0 or n_nodes < 2:
        raise ConfigError("need half_width > 0 and at least 2 nodes")
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
    """
    if half_width <= 0:
        raise ConfigError("need half_width > 0")
    if n_nodes < 2 or n_nodes % 2 != 0:
        raise ConfigError("symmetric open rule needs an even node count >= 2")
    h = 2.0 * half_width / n_nodes
    positive = h / 2.0 + h * np.arange(n_nodes // 2)
    nodes = np.concatenate([-positive[::-1], positive])
    weights = np.full(n_nodes, h)
    weights[0] = weights[-1] = h / 2.0
    return QuadratureRule(nodes, weights)
