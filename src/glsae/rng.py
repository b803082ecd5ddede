"""Reproducible random streams keyed by (seed, stream_id).

Every chain, replicate and data-generation step owns one stream. Streams
with the same seed and distinct ids are statistically independent (numpy
SeedSequence spawn-key construction over PCG64), and a fixed (seed,
stream_id) pair reproduces the identical draw sequence regardless of
platform, worker count or thread schedule. A stream must never be shared
by two concurrent workers.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    """One deterministic random stream.

    Parameters
    ----------
    seed : int
        Run-level seed, shared by all streams of one run.
    stream_id : int
        Identifies the chain/replicate/task. Distinct ids give
        independent sequences under the same seed.
    """

    __slots__ = ("seed", "stream_id", "generator")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if not 0 <= self.stream_id < 2**64:
            raise ValueError("stream_id must fit in 64 bits")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def derive_stream_id(*parts: int) -> int:
    """Fold a tuple of task coordinates into a single 63-bit stream id.

    Stable across runs and platforms (SHA-256 of the integer tuple), so a
    work item like (case, spec_row, replicate, slot) always maps to the
    same stream no matter how work is scheduled.
    """
    payload = repr(tuple(int(p) for p in parts)).encode("ascii")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1
