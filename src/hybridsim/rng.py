"""Counter-based random streams with explicit draw accounting.

Every simulated entity owns an independent Philox stream keyed by
(master seed, entity id). A stream counts how many values it has drawn,
so its exact state serializes as one integer and can be rebuilt anywhere
by replaying that many draws. Engine-internal streams use tag-derived
ids in a disjoint key namespace.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

_MASK64 = (1 << 64) - 1

# High bit marks engine-internal streams so tags never collide with entity ids.
_NAMED_BIT = 1 << 63


class Stream:
    """One independent random stream with a serializable cursor.

    Every drawing method consumes exactly one value from the underlying
    generator, so ``cursor`` fully determines stream state given the key.
    """

    __slots__ = ("master_seed", "stream_id", "cursor", "_gen")

    def __init__(self, master_seed: int, stream_id: int, cursor: int = 0):
        self.master_seed = master_seed & _MASK64
        self.stream_id = stream_id & _MASK64
        self._gen = np.random.Generator(
            np.random.Philox(key=[self.master_seed, self.stream_id])
        )
        self.cursor = 0
        if cursor:
            self.skip(cursor)

    def __repr__(self):
        return (
            f"Stream(master_seed={self.master_seed}, "
            f"stream_id={self.stream_id}, cursor={self.cursor})"
        )

    def skip(self, n: int) -> None:
        """Discard the next n draws (vectorized; used to restore a cursor)."""
        if n < 0:
            raise ValueError("cannot skip a negative number of draws")
        if n:
            self._gen.random(n)
            self.cursor += n

    def uniform(self) -> float:
        """Next float in [0, 1). One draw."""
        self.cursor += 1
        return self._gen.random()

    def uniform_range(self, low: float, high: float) -> float:
        """Next float in [low, high). One draw."""
        return low + (high - low) * self.uniform()

    def bernoulli(self, p: float) -> bool:
        """True with probability p. One draw."""
        return self.uniform() < p

    def randrange(self, n: int) -> int:
        """Integer in [0, n). One draw."""
        v = int(self.uniform() * n)
        # guard against float rounding landing exactly on n
        return n - 1 if v >= n else v


def entity_stream(master_seed: int, entity_id: int, cursor: int = 0) -> Stream:
    """Stream owned by one entity, reconstructable from (seed, id, cursor)."""
    return Stream(master_seed, entity_id, cursor)


def named_generator(master_seed: int, tag: str) -> np.random.Generator:
    """Raw numpy generator for engine-internal bulk use (e.g. permutation)."""
    sid = _NAMED_BIT | zlib.crc32(tag.encode("utf-8"))
    return np.random.Generator(np.random.Philox(key=[master_seed & _MASK64, sid]))


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from a tuple of ints/strings.

    Used to key sub-simulator runs off (master seed, spawn step, index)
    without any dependence on process or platform state.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big") & (2**63 - 1)
