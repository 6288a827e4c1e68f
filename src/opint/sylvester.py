"""Sylvester equations AX - XB = Y for spectrally separated hermitian A, B.

When the spectra are a distance delta > 0 apart, the resolvent symbol
1/(lambda - mu) is bounded on the product of the spectra and the double
operator integral of that symbol inverts T -> AT - TB; the solution
carries the certified estimate |X|_p <= pi/(2 delta) |Y|_p in every
Schatten norm.  `solve_gap_pair` solves from eigensystems of A and B it
is given, so a caller that has diagonalized many operands in one stack
(the suite's trials) does not diagonalize them again; `solve_gap` is
`make_spectral_pair` followed by it.  The certificate's norms come from
one stacked SVD of X, Y and the residual.  The vectorized Kronecker
linear system cross-checks the A side: `kron_oracle` takes the solve's
eigensystem of B, which makes the system block diagonal, and solves each
n x n block by LU without diagonalizing A (Bartels-Stewart; for hermitian
B the Schur form is the eigendecomposition), so it checks the A side and
the operator integral's change of basis, not B's eigenvectors.

`solve_gap_pair`, `GapSolution`, `GapReport` and `kron_oracle` also take a
(k, n, n) stack of A, B and Y with a stacked pair: `linalg.as_hermitian`
validates the stack of A's (and of B's) under its one name, each matrix
to its own bound, and one solve, one SVD of the 3k matrices and one
batched LU of the k n blocks serve all k, each giving every solve the
bits of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IllPosedError
from .linalg import (EigenSystem, adjoint, as_complex_matrices, as_hermitian, per_matrix,
                     schatten_norm_of_values, singular_values)
from .doi import SpectralPair, doi_apply, make_spectral_pair, symbol_from_function

GAP_FLOOR_FACTOR = 1e-8  # refuse gaps below this times the spectral scale
KRON_AGREEMENT_TOL = 1e-8  # largest entrywise |X - X_kron| of a healthy solve
# largest n for kron_oracle.  At n = 48 its n blocks of n x n take 1.8 MiB and
# the solve about 4 ms on one core; memory grows as n^3 and time as n^4.  A
# higher cap is affordable, but it would change which `--dims` the sylvester
# command accepts and its exit code above 48, which is a CLI change of its own
KRON_MAX_DIM = 48


@dataclass(frozen=True)
class GapReport:
    """Certificate attached to a gapped Sylvester solve (of each solve of a
    stack: its fields and flags then hold one entry per solve)."""

    RESIDUAL_TOL = 1e-9   # largest |AX - XB - Y|_p a solve may leave
    BOUND_SLACK = 1e-12   # relative rounding slack on pi/(2 delta) |Y|_p

    delta: float
    p: float
    x_norm: float
    y_norm: float
    bound: float      # pi/(2 delta) * y_norm
    residual: float   # |AX - XB - Y|_p

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "p": "inf" if self.p == np.inf else self.p,
                "x_norm": self.x_norm, "y_norm": self.y_norm,
                "bound": self.bound, "residual": self.residual,
                "bound_holds": self.bound_holds}

    @property
    def residual_small(self):
        return per_matrix(self.residual <= self.RESIDUAL_TOL)

    @property
    def bound_holds(self):
        return per_matrix(self.x_norm <= self.bound * (1 + self.BOUND_SLACK))


def spectral_gap(pair: SpectralPair):
    """Minimum distance between the spectra of the pair's two operands."""
    lam, mu = pair.left.eigenvalues, pair.right.eigenvalues
    return per_matrix(np.abs(lam[..., :, None] - mu[..., None, :]).min(axis=(-2, -1)))


@dataclass(frozen=True)
class GapSolution:
    """A solve of AX - XB = Y before any norm is taken, or a stack of them:
    the symmetrized A and B, Y, the solution X, the spectral gap delta and
    the `SpectralPair` it was solved from.  The singular values of X, Y and
    the residual AX - XB - Y are taken once, by one stacked SVD on the first
    `report`, and every p reads its norms from them."""

    a: np.ndarray
    b: np.ndarray
    y: np.ndarray
    x: np.ndarray
    delta: float
    pair: SpectralPair

    @cached_property
    def _singular_values(self) -> np.ndarray:
        """Singular values of X, Y and AX - XB - Y, one row each (a (3, k, n)
        array for a stack of k solves)."""
        residual = self.a @ self.x - self.x @ self.b - self.y
        m = np.stack([self.x, self.y, residual])
        return singular_values(m.reshape((-1,) + m.shape[-2:])).reshape(m.shape[:-1])

    def report(self, p=np.inf) -> GapReport:
        """The certificate in the Schatten p-norm; no eigendecomposition."""
        x_values, y_values, residual_values = self._singular_values
        y_norm = schatten_norm_of_values(y_values, p)
        return GapReport(delta=self.delta, p=p, x_norm=schatten_norm_of_values(x_values, p),
                         y_norm=y_norm, bound=per_matrix(np.pi / (2.0 * self.delta) * y_norm),
                         residual=schatten_norm_of_values(residual_values, p))


def solve_gap_pair(pair: SpectralPair, a, b, y) -> GapSolution:
    """Solve AX - XB = Y through the resolvent-symbol operator integral on
    the eigensystems `pair` of A and B, which it takes as given; the
    solution is `.x`, and `.report(p)` gives the certificate for any
    number of p.  A stacked pair solves a (k, n, n) stack of A, B and Y,
    and gives one `GapSolution` of the stack.

    The residual AX - XB - Y is taken from A and B themselves, never from
    the pair, so a pair that is not A's and B's fails `residual_small`.
    Refuses gaps below 1e-8 times the spectral scale (of any solve of a
    stack, naming the first): the symbol entries blow up like 1/delta and
    the certificate would be meaningless.
    """
    am, bm = as_hermitian(a, "A"), as_hermitian(b, "B")
    if am.shape != pair.shape or bm.shape != am.shape:
        raise IllPosedError(f"shape mismatch: A {am.shape}, B {bm.shape}, "
                            f"pair dimension {pair.dim}")
    ym = as_complex_matrices(y, "Y")
    if ym.shape != pair.shape:
        raise IllPosedError(f"Y has shape {ym.shape}, expected {pair.shape}")
    delta = spectral_gap(pair)
    small = np.asarray(delta <= GAP_FLOOR_FACTOR * np.maximum(pair.spectral_scale, 1e-300))
    if small.any():
        k = np.unravel_index(np.argmax(small), small.shape)  # the first solve below the floor
        lam, mu = pair.left.eigenvalues[k], pair.right.eigenvalues[k]
        dist = np.abs(np.subtract.outer(lam, mu))
        i, j = np.unravel_index(dist.argmin(), dist.shape)
        offending = (float(lam[i]), float(mu[j]))
        raise IllPosedError(
            f"spectral gap {np.asarray(delta)[k]:.3e} is below {GAP_FLOOR_FACTOR:.0e} x scale; "
            f"closest eigenvalue pair {offending}", detail=offending)
    sym = symbol_from_function(pair, lambda lam, mu: 1.0 / (lam - mu))
    return GapSolution(a=am, b=bm, y=ym, x=doi_apply(pair, sym, ym), delta=delta, pair=pair)


def solve_gap(a, b, y) -> GapSolution:
    """`solve_gap_pair` on the eigensystems of A and B, which
    `make_spectral_pair` takes in one stacked call."""
    return solve_gap_pair(make_spectral_pair(a, b), a, b, y)


def kron_oracle(a, eb: EigenSystem, y) -> np.ndarray:
    """Cross-check route: solve the column-stacking Kronecker system
    (I (x) A - B^T (x) I) vec(X) = vec(Y) by LU with partial pivoting,
    after the change of basis that makes it block diagonal.

    `eb` is the eigensystem B = U diag(mu) U* of the solve being checked
    (`GapSolution.pair.right`): vec(XU) = (U^T (x) I) vec(X) turns the
    system into n blocks (A - mu_j I) x_j = (YU)_j, solved as one batched
    call, and X = (XU) U*.  So the agreement checks the A side, solved by
    LU without diagonalizing A, and the change of basis, not B's
    eigenvectors.  The blocks take 16 n^3 bytes (1.8 MiB at n = 48), and
    the O(n^4) solve about 4 ms there on one core.  A (k, n, n) stack of
    A, B and Y is solved as one batched call of its k n blocks.  Refuses n
    above `KRON_MAX_DIM` with `IllPosedError` before any factorization."""
    am = as_hermitian(a, "A")
    ym = as_complex_matrices(y, "Y")
    n = am.shape[-1]
    if eb.unitary.shape != am.shape or ym.shape != am.shape:
        raise IllPosedError(f"shape mismatch: A {am.shape}, B {eb.unitary.shape}, Y {ym.shape}")
    if n > KRON_MAX_DIM:
        raise IllPosedError(f"Kronecker oracle refuses n = {n} > {KRON_MAX_DIM}: "
                            f"its system would be {n * n} x {n * n}")
    mu, u = eb.eigenvalues, eb.unitary
    # block j is A - mu_j I; its right-hand side is column j of YU
    try:
        x_hat = np.linalg.solve(am[..., None, :, :] - mu[..., :, None, None] * np.eye(n),
                                (ym @ u).swapaxes(-1, -2)[..., None])
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(f"vectorized Sylvester system is numerically singular: {exc}") from exc
    return x_hat[..., 0].swapaxes(-1, -2) @ adjoint(u)
