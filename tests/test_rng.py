import hashlib

import numpy as np

from opint import rng


def _uncached_stream(seed, tag, trial):
    """The substream built from the sha256 of its tag, with no cache."""
    key = int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(key, trial))
    return np.random.Generator(np.random.Philox(ss))


def test_streams_for_fixed_tags_are_bit_identical_with_each_tag_hashed_once():
    rng._tag_key.cache_clear()
    tags = ["suite-eig", "cli-peller-norm", "lipschitz", "ünïcode tag", ""]
    for seed in (0, 42, 2**64 - 1, -1):
        for tag in tags:
            for trial in (0, 1, 19):
                expected = _uncached_stream(seed, tag, trial).standard_normal(8)
                for _ in range(2):
                    got = rng.substream(seed, tag, trial).standard_normal(8)
                    assert got.tobytes() == expected.tobytes(), (seed, tag, trial)
    info = rng._tag_key.cache_info()
    assert info.misses == len(tags) and info.maxsize is not None
