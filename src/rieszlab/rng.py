"""Deterministic random streams.

Every randomized operation draws from its own named substream of a
counter-based (Philox) generator, so results are reproducible from a
single recorded seed and adding draws to one operation never perturbs
another.
"""

import zlib

import numpy as np

from .errors import as_count


def stream(seed: int, name: str) -> np.random.Generator:
    """Named, independent substream of the counter-based generator.

    The stream key is derived from a CRC of the operation name, so the
    same (seed, name) pair yields the same sequence on every platform.
    """
    key = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=as_count("seed", seed, 0), spawn_key=(key,))
    return np.random.Generator(np.random.Philox(seq))
