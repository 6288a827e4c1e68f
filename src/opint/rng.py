"""Reproducible random streams.

Every randomized experiment in the package draws from a Philox
counter-based generator keyed by (seed, module tag, trial index), so
trials can run in any order or in parallel and still reproduce exactly.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.lru_cache(maxsize=256)  # each tag is hashed once per process
def _tag_key(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, tag: str, trial: int = 0) -> np.random.Generator:
    """Independent generator for one trial of one named experiment."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=(_tag_key(tag), int(trial)))
    return np.random.Generator(np.random.Philox(ss))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = random_complex(rng, (dim, dim))
    return (g + g.conj().T) / 2.0


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = random_complex(rng, dim)
    return v / np.linalg.norm(v)
