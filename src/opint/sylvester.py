"""Sylvester equations AX - XB = Y for spectrally separated hermitian A, B.

When the spectra are a distance delta > 0 apart, the resolvent symbol
1/(lambda - mu) is bounded on the product of the spectra and the double
operator integral of that symbol inverts T -> AT - TB; the solution
carries the certified estimate |X|_p <= pi/(2 delta) |Y|_p in every
Schatten norm.  The vectorized Kronecker linear system provides a
cross-check: B's eigenvectors make it block diagonal, and each n x n block
is solved by LU (Bartels-Stewart; for hermitian B the Schur form is the
eigendecomposition).  Its eigenvectors of B are `solve_gap`'s V, the same
`eigh` output bit for bit, so it checks the A side and the operator
integral's change of basis, not B's eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IllPosedError
from .linalg import as_complex_matrix, as_hermitian, schatten_norm_of_values, singular_values
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
    """Certificate attached to a gapped Sylvester solve."""

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
    def residual_small(self) -> bool:
        return bool(self.residual <= self.RESIDUAL_TOL)

    @property
    def bound_holds(self) -> bool:
        return bool(self.x_norm <= self.bound * (1 + self.BOUND_SLACK))


def spectral_gap(pair: SpectralPair) -> float:
    """Minimum distance between the spectra of the pair's two operands."""
    return float(np.abs(np.subtract.outer(pair.left.eigenvalues, pair.right.eigenvalues)).min())


@dataclass(frozen=True)
class GapSolution:
    """A solve of AX - XB = Y before any norm is taken: the symmetrized A
    and B, Y, the solution X and the spectral gap delta.  The singular
    values of X, Y and the residual AX - XB - Y are taken once, on the
    first `report`, and every p reads its norms from them."""

    a: np.ndarray
    b: np.ndarray
    y: np.ndarray
    x: np.ndarray
    delta: float

    @cached_property
    def _singular_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Singular values of X, Y and AX - XB - Y."""
        residual = self.a @ self.x - self.x @ self.b - self.y
        return singular_values(self.x), singular_values(self.y), singular_values(residual)

    def report(self, p=np.inf) -> GapReport:
        """The certificate in the Schatten p-norm; no eigendecomposition."""
        x_values, y_values, residual_values = self._singular_values
        y_norm = schatten_norm_of_values(y_values, p)
        return GapReport(delta=self.delta, p=p, x_norm=schatten_norm_of_values(x_values, p),
                         y_norm=y_norm, bound=float(np.pi / (2.0 * self.delta) * y_norm),
                         residual=schatten_norm_of_values(residual_values, p))


def solve_gap(a, b, y) -> GapSolution:
    """Solve AX - XB = Y through the resolvent-symbol operator integral,
    diagonalizing A and B once; the solution is `.x`, and `.report(p)`
    gives the certificate for any number of p.

    Refuses gaps below 1e-8 times the spectral scale: the symbol entries
    blow up like 1/delta and the certificate would be meaningless.
    """
    pair = make_spectral_pair(a, b)
    ym = as_complex_matrix(y, "Y")
    if ym.shape != (pair.dim, pair.dim):
        raise IllPosedError(f"Y has shape {ym.shape}, expected {(pair.dim, pair.dim)}")
    delta = spectral_gap(pair)
    scale = max(pair.spectral_scale, 1e-300)
    if delta <= GAP_FLOOR_FACTOR * scale:
        lam, mu = pair.left.eigenvalues, pair.right.eigenvalues
        dist = np.abs(np.subtract.outer(lam, mu))
        i, j = np.unravel_index(dist.argmin(), dist.shape)
        offending = (float(lam[i]), float(mu[j]))
        raise IllPosedError(
            f"spectral gap {delta:.3e} is below {GAP_FLOOR_FACTOR:.0e} x scale; "
            f"closest eigenvalue pair {offending}", detail=offending)
    sym = symbol_from_function(pair, lambda lam, mu: 1.0 / (lam - mu))
    return GapSolution(a=as_hermitian(a, "A"), b=as_hermitian(b, "B"), y=ym,
                       x=doi_apply(pair, sym, ym), delta=delta)


def kron_oracle(a, b, y) -> np.ndarray:
    """Cross-check route: solve the column-stacking Kronecker system
    (I (x) A - B^T (x) I) vec(X) = vec(Y) by LU with partial pivoting,
    after the change of basis that makes it block diagonal.

    With B = U diag(mu) U*, vec(XU) = (U^T (x) I) vec(X) turns the system
    into n blocks (A - mu_j I) x_j = (YU)_j, solved as one batched call;
    then X = (XU) U*.  U is `numpy.linalg.eigh` of the symmetrized B, the
    same output bit for bit as the eigenvectors V that `solve_gap` takes
    from `eig_hermitian`, so the agreement checks the A side, solved by LU
    without diagonalizing A, and the operator integral's change of basis,
    not B's eigenvectors.  The stack of blocks is 16 n^3 complex
    bytes (1.8 MiB at n = 48); the solve is O(n^4) and takes about 4 ms at
    n = 48 on one core.  Refuses n above `KRON_MAX_DIM` with
    `IllPosedError` before any factorization."""
    am = as_hermitian(a, "A")
    bm = as_hermitian(b, "B")
    ym = as_complex_matrix(y, "Y")
    n = am.shape[0]
    if bm.shape != (n, n) or ym.shape != (n, n):
        raise IllPosedError(f"shape mismatch: A {am.shape}, B {bm.shape}, Y {ym.shape}")
    if n > KRON_MAX_DIM:
        raise IllPosedError(f"Kronecker oracle refuses n = {n} > {KRON_MAX_DIM}: "
                            f"its system would be {n * n} x {n * n}")
    mu, u = np.linalg.eigh(bm)
    # block j is A - mu_j I; its right-hand side is column j of YU
    try:
        x_hat = np.linalg.solve(am - mu[:, None, None] * np.eye(n), (ym @ u).T[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(f"vectorized Sylvester system is numerically singular: {exc}") from exc
    return x_hat[:, :, 0].T @ u.conj().T
