"""Stream reproducibility, independence, and cursor restore."""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridsim.coordination import (
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
)
from hybridsim.engine import EngineConfig, run_simulation
from hybridsim.rng import Stream, derive_seed, named_generator, seek
from hybridsim.territory import TerritorySpec


def test_same_key_same_sequence():
    a = Stream(42, 7)
    b = Stream(42, 7)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_different_ids_independent():
    a = [Stream(42, 7).uniform() for _ in range(1)]
    b = [Stream(42, 8).uniform() for _ in range(1)]
    c = [Stream(43, 7).uniform() for _ in range(1)]
    assert a != b
    assert a != c


def test_cursor_counts_every_draw():
    s = Stream(1, 2)
    s.uniform()
    s.uniform_range(1.0, 14.0)
    s.uniform()
    s.randrange(100)
    assert s.cursor == 4


def test_restore_resumes_bit_exact():
    s = Stream(99, 123)
    for _ in range(1000):
        s.uniform()
    expected = [s.uniform() for _ in range(200)]

    r = Stream(99, 123, cursor=1000)
    assert r.cursor == 1000
    assert [r.uniform() for _ in range(200)] == expected


def test_restore_zero_cursor_is_fresh():
    assert Stream(5, 6, cursor=0).uniform() == Stream(5, 6).uniform()


def test_skip_negative_rejected():
    with pytest.raises(ValueError):
        Stream(1, 1).skip(-1)


def test_uniform_range_bounds():
    s = Stream(3, 4)
    vals = [s.uniform_range(1.0, 14.0) for _ in range(10000)]
    assert all(1.0 <= v < 14.0 for v in vals)
    # uniform mean (1+14)/2 = 7.5
    assert abs(np.mean(vals) - 7.5) < 0.1


def test_randrange_bounds_and_coverage():
    s = Stream(8, 9)
    vals = [s.randrange(5) for _ in range(2000)]
    assert set(vals) == {0, 1, 2, 3, 4}


def test_named_stream_disjoint_from_entities():
    # tag-derived ids live in the high-bit namespace
    ng = named_generator(42, "partition")
    assert int(ng.bit_generator.state["state"]["key"][1]) >= 1 << 63
    assert ng.random() != Stream(42, 0).uniform()
    assert (named_generator(42, "partition").random()
            != named_generator(42, "other").random())


def test_derive_seed_stable():
    assert derive_seed(42, "wrapper", 0) == 3393337504450189092
    assert derive_seed(42, "wrapper", 1) == 781464194174171161
    assert 0 <= derive_seed("anything", 1, 2) < 2**63


def _replay(seed, stream_id, n):
    """The first n draws of a stream, drawn one after another."""
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed, stream_id], dtype=np.uint64)))
    return np.array([gen.random() for _ in range(n)])


_REPLAY = _replay(99, 123, 100_100)


@settings(max_examples=200, deadline=None)
@given(drawn=st.integers(0, 70),
       target=st.sampled_from([*range(10), 63, 64, 65])
       | st.integers(99_990, 100_010))
def test_skip_matches_plain_replay(drawn, target):
    """skip rebuilds the stream at the target cursor in O(1), also on a
    stream that has drawn already, mid-way through a Philox block."""
    s = Stream(99, 123)
    assert [s.uniform() for _ in range(drawn)] == _REPLAY[:drawn].tolist()
    if target < drawn:
        target, drawn = drawn, target
        s = Stream(99, 123, cursor=drawn)
    s.skip(target - drawn)
    assert s.cursor == target
    assert [s.uniform() for _ in range(6)] == \
        _REPLAY[target:target + 6].tolist()
    assert Stream(99, 123, cursor=target).uniform() == _REPLAY[target]


def test_seeds_just_above_a_2048_boundary_are_distinct():
    # as float64 both seeds round to 2**63 + 4096; keys are exact uint64
    a, b = Stream(2**63 + 4097, 0), Stream(2**63 + 4098, 0)
    assert a.uniform() != b.uniform()
    # named stream ids sit above 2**63 too: two tags whose ids round to
    # the same float64 still get their own streams
    seen = {}
    for i in range(100_000):
        tag = f"tag{i}"
        rounded = float((1 << 63) | zlib.crc32(tag.encode()))
        if rounded in seen:
            break
        seen[rounded] = tag
    other = seen[rounded]
    assert (named_generator(5, tag).random()
            != named_generator(5, other).random())


def test_seed_beyond_64_bits_rejected():
    with pytest.raises(OverflowError):
        Stream(2**64 + 1, 0)


_SEEK_CURSORS = [*range(10), 63, 64, 65, 2**20 + 3]


@pytest.mark.parametrize("master_seed", [0, 2**63 - 1])
@pytest.mark.parametrize("stream_id", [0, 2**63 + 5, 2**64 - 1])
def test_seek_matches_sequential_draws(master_seed, stream_id):
    """seek lands on the draw that a freshly keyed Philox gives after
    cursor draws one after another, mid counter block too, with keys at
    both ends of the uint64 range."""
    fresh = np.random.Generator(np.random.Philox(
        key=np.array([master_seed, stream_id], dtype=np.uint64)))
    want = fresh.random(_SEEK_CURSORS[-1] + 8)
    gen = np.random.Generator(np.random.Philox(key=0))
    for cursor in _SEEK_CURSORS:
        got = seek(gen, [master_seed, stream_id], cursor).random(8)
        assert got.tolist() == want[cursor:cursor + 8].tolist(), cursor


def test_seek_refuses_keys_outside_64_bits():
    gen = np.random.Generator(np.random.Philox(key=0))
    for key in ([2**64, 0], [0, 2**64], [-1, 0]):
        with pytest.raises(OverflowError):
            seek(gen, key, 0)


def test_a_run_reads_no_os_entropy(monkeypatch):
    """A run is a pure function of its config: no generator it builds
    reads OS entropy. numpy seeds an unseeded (or only keyed) Philox
    through random.SystemRandom, which reads random._urandom, so that is
    where the reads are counted; os.urandom would not see them."""
    reads = []
    urandom = random._urandom
    monkeypatch.setattr(random, "_urandom",
                        lambda n: reads.append(n) or urandom(n))
    np.random.Philox(key=0)
    assert reads, "the probe must see numpy's entropy reads"
    reads.clear()
    hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(2,),
                                                transfer_count=4),
                        policy=FixedDurationPolicy(coarse_steps=2))
    m = run_simulation(EngineConfig(num_lps=2, total_timesteps=8,
                                    master_seed=3),
                       TerritorySpec(40), hybrid=hybrid, mode="inprocess")
    assert m.level1.spawns == 1 and m.level1.customers > 0
    assert reads == []
