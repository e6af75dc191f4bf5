"""Seeding helpers: one root seed fans out into named, counter-based substreams.

Philox is counter-based, so each chunk of a Monte Carlo batch draws from its
own child stream and the batch reproduces bit-for-bit from one seed.
"""

from __future__ import annotations

import zlib

import numpy as np

# Paths are simulated in fixed-size chunks, each from its own child stream.
CHUNK_PATHS = 4096


def _tag(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


def substream(seed: int, label: str) -> np.random.Generator:
    """Generator for the named substream of a root seed."""
    ss = np.random.SeedSequence(entropy=[int(seed), _tag(label)])
    return np.random.Generator(np.random.Philox(ss))


def stream_children(seed: int, label: str, n: int) -> list:
    """n independent child SeedSequences of the named substream."""
    ss = np.random.SeedSequence(entropy=[int(seed), _tag(label)])
    return ss.spawn(n)


def generator_from(seedseq: np.random.SeedSequence) -> np.random.Generator:
    """Philox generator of a SeedSequence."""
    return np.random.Generator(np.random.Philox(seedseq))
