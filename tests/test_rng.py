"""Stream reproducibility, independence, and cursor restore."""

import numpy as np
import pytest

from hybridsim.rng import Stream, derive_seed, entity_stream, named_generator


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
    s.bernoulli(0.5)
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


def test_bernoulli_degenerate():
    s = Stream(3, 4)
    assert not any(s.bernoulli(0.0) for _ in range(100))
    assert all(s.bernoulli(1.0) for _ in range(100))


def test_randrange_bounds_and_coverage():
    s = Stream(8, 9)
    vals = [s.randrange(5) for _ in range(2000)]
    assert set(vals) == {0, 1, 2, 3, 4}


def test_named_stream_disjoint_from_entities():
    # tag-derived ids live in the high-bit namespace
    ng = named_generator(42, "partition")
    assert int(ng.bit_generator.state["state"]["key"][1]) >= 1 << 63
    assert ng.random() != entity_stream(42, 0).uniform()
    assert (named_generator(42, "partition").random()
            != named_generator(42, "other").random())


def test_derive_seed_stable():
    assert derive_seed(42, "wrapper", 0) == 3393337504450189092
    assert derive_seed(42, "wrapper", 1) == 781464194174171161
    assert 0 <= derive_seed("anything", 1, 2) < 2**63
