"""Independent numpy-only references for the benchmark's output checks.

Nothing here imports opint.  Each function either recomputes a program
output from the same inputs by another route (LAPACK eigh/svd, FFT), or
replays the seeding recipe documented in opint.rng, so that inputs the
program draws for itself (the rank-one vector of `shift --route rank1`,
the pairs of `doi`, the terms of `cotlar`) can be rebuilt and checked.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def substream(seed: int, tag: str, trial: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, sha256(tag)[:8], trial)."""
    key = int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(key, int(trial)))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = complex_normal(rng, (n, n))
    return (g + g.conj().T) / 2.0


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = complex_normal(rng, n)
    return v / np.linalg.norm(v)


def save_matrix(path, m: np.ndarray) -> None:
    """Write the {"dim", "re", "im"} matrix JSON layout the CLI reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}, fh)


def counting_xi(wa: np.ndarray, wb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """#{eigs of B <= x} - #{eigs of A <= x} for ascending spectra."""
    return np.searchsorted(wb, x, side="right") - np.searchsorted(wa, x, side="right")


def schatten(m: np.ndarray, p: float) -> float:
    """Schatten p-norm scaled by the largest singular value, so that it
    cannot overflow for large p."""
    s = np.linalg.svd(m, compute_uv=False)
    top = float(s.max())
    if top == 0.0 or p == np.inf:
        return top
    return top * float(np.sum((s / top) ** p) ** (1.0 / p))


def function_of(h: np.ndarray, f) -> np.ndarray:
    w, u = np.linalg.eigh(h)
    return (u * f(w)) @ u.conj().T


def sylvester(a: np.ndarray, b: np.ndarray, y: np.ndarray):
    """Solve AX - XB = Y in the eigenbases; returns (X, delta)."""
    wa, u = np.linalg.eigh(a)
    wb, v = np.linalg.eigh(b)
    gaps = wa[:, None] - wb[None, :]
    x = u @ ((u.conj().T @ y @ v) / gaps) @ v.conj().T
    return x, float(np.abs(gaps).min())


def dft(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j, k] = exp(-2 pi i jk/n)/sqrt(n), built by FFT."""
    return np.fft.fft(np.eye(n), axis=0) / np.sqrt(n)


def quantized(sigma: np.ndarray) -> np.ndarray:
    """M[x, y] = (1/n) sum_xi sigma(x, xi) e^{2 pi i xi (x-y)/n}: the inverse
    FFT of each row of sigma, read at (x - y) mod n."""
    n = sigma.shape[0]
    rows = np.fft.ifft(sigma, axis=1)
    x = np.arange(n)[:, None]
    return rows[x, (x - np.arange(n)[None, :]) % n]


def momentum(g: np.ndarray) -> np.ndarray:
    """F* diag(g) F, applied column by column as ifft(g * fft(.))."""
    return np.fft.ifft(g[:, None] * np.fft.fft(np.eye(g.size), axis=0), axis=0)


def rel_err(observed, expected) -> float:
    observed = np.asarray(observed)
    expected = np.asarray(expected)
    scale = max(float(np.abs(expected).max()), 1e-300)
    return float(np.abs(observed - expected).max()) / scale
