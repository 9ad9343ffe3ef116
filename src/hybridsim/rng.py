"""Counter-based random streams with explicit draw accounting.

Every simulated entity owns an independent Philox stream keyed by
(master seed, entity id), two exact 64-bit integers. A stream counts how
many values it has drawn, so its exact state serializes as one integer
and is rebuilt anywhere in O(1) (seek). Engine-internal streams use
tag-derived ids in a disjoint key namespace.
"""

from __future__ import annotations

import hashlib
import threading
import zlib

import numpy as np

# High bit marks engine-internal streams so tags never collide with entity ids.
_NAMED_BIT = 1 << 63

_templates = threading.local()  # seek's state dict, one per thread


def generator() -> np.random.Generator:
    """A Philox generator for seek to set; seeded, since an unseeded (or
    only keyed) Philox reads OS entropy."""
    return np.random.Generator(np.random.Philox(0))


def seek(gen: np.random.Generator, key, cursor: int) -> np.random.Generator:
    """Point a Philox generator at draw number cursor of the stream keyed
    by key, (master seed, stream id) as exact ints, in O(1). Philox makes
    four draws per counter step: the bit generator is set to counter
    cursor // 4 with no draws in reserve, and cursor % 4 draws are
    discarded. A key outside [0, 2**64) raises OverflowError.

    The state comes from one template dict per thread, refilled in place,
    so a seek builds no dict or list of its own; a shared template could
    be refilled by another thread (the TCP wrapper's sessions) between
    the refill and the set."""
    state = getattr(_templates, "state", None)
    if state is None:
        state = _templates.state = {
            "bit_generator": "Philox",
            "state": {"key": None, "counter": [0, 0, 0, 0]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}
    inner = state["state"]
    inner["key"] = key
    inner["counter"][0] = cursor >> 2
    gen.bit_generator.state = state
    if cursor % 4:
        gen.random(cursor % 4)
    return gen


class Stream:
    """One independent random stream with a serializable cursor.

    Every drawing method consumes exactly one value from the underlying
    generator, so ``cursor`` fully determines stream state given the key.
    """

    __slots__ = ("cursor", "_key", "_gen")

    def __init__(self, master_seed: int, stream_id: int, cursor: int = 0):
        self._key = (master_seed, stream_id)
        self._gen = seek(generator(), self._key, 0)
        self.cursor = 0
        if cursor:
            self.skip(cursor)

    def __repr__(self):
        return f"Stream(key={list(self._key)}, cursor={self.cursor})"

    def skip(self, n: int) -> None:
        """Discard the next n draws in O(1): the generator is set at the new
        cursor, since advancing it would drop the draws it holds in reserve."""
        if n < 0:
            raise ValueError("cannot skip a negative number of draws")
        if n:
            self.cursor += n
            seek(self._gen, self._key, self.cursor)

    def uniform(self) -> float:
        """Next float in [0, 1). One draw."""
        self.cursor += 1
        return self._gen.random()

    def uniform_range(self, low: float, high: float) -> float:
        """Next float in [low, high). One draw."""
        return uniform_range(self.uniform(), low, high)

    def randrange(self, n: int) -> int:
        """Integer in [0, n). One draw."""
        return randrange(self.uniform(), n)


def uniform_range(u: float, low: float, high: float) -> float:
    """The draw u in [0, 1) mapped onto [low, high)."""
    return low + (high - low) * u


def randrange(u: float, n: int) -> int:
    """The draw u in [0, 1) mapped onto the integers in [0, n)."""
    v = int(u * n)
    # guard against float rounding landing exactly on n
    return n - 1 if v >= n else v


def named_generator(master_seed: int, tag: str) -> np.random.Generator:
    """Raw numpy generator for engine-internal bulk use (e.g. permutation)."""
    sid = _NAMED_BIT | zlib.crc32(tag.encode("utf-8"))
    return seek(generator(), [master_seed, sid], 0)


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
