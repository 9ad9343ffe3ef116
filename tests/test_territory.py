"""Territory model: geometry, mobility, cache, relay rule, serialization."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridsim.metrics import InvariantMonitor, StepReport
from hybridsim.rng import entity_stream
from hybridsim.territory import (
    DisseminationMessage,
    DisseminationParams,
    LruSet,
    SimulatedEntity,
    World,
    broadcast_reach,
    build_entity,
    decide_relay,
    entity_to_record,
    generate_message,
    make_message_id,
    record_to_entity,
    rwp_step,
    toroidal_distance,
    world_side,
)

P = DisseminationParams()


def test_toroidal_plain_euclidean():
    assert toroidal_distance((0, 0), (3, 4), 10) == 5.0


def test_toroidal_wraps_both_axes():
    assert toroidal_distance((1, 1), (9, 9), 10) == pytest.approx(math.sqrt(8))


def test_toroidal_wrap_is_shorter_axis():
    assert toroidal_distance((0.5, 0), (9.5, 0), 10) == pytest.approx(1.0)


def test_toroidal_max_distance():
    # farthest pair on the torus sits half a side away on both axes
    assert toroidal_distance((0, 0), (5, 5), 10) == pytest.approx(10 * math.sqrt(2) / 2)
    rnd = random.Random(4)
    for _ in range(200):
        a = (rnd.uniform(0, 50), rnd.uniform(0, 50))
        b = (rnd.uniform(0, 50), rnd.uniform(0, 50))
        assert toroidal_distance(a, b, 50) <= 50 * math.sqrt(2) / 2 + 1e-9


_COORD = st.floats(-1e9, 1e9)


@st.composite
def _torus_points(draw):
    """(a, b, side); b is anywhere, or a shifted by a multiple of side in
    [-1.5, 1.5] per axis (tiny, half-side and whole-side shifts)."""
    side = draw(st.floats(1e-3, 1e6))
    a = draw(st.tuples(_COORD, _COORD))
    shift = st.floats(-1.5, 1.5).map(lambda f: f * side)
    b = draw(st.tuples(_COORD, _COORD)
             | st.tuples(shift, shift).map(lambda s: (a[0] + s[0],
                                                      a[1] + s[1])))
    return a, b, side


@settings(max_examples=1000, deadline=None)
@given(points=_torus_points())
def test_toroidal_distance_symmetric_and_bounded(points):
    a, b, side = points
    d = toroidal_distance(a, b, side)
    assert d == toroidal_distance(b, a, side)
    # half a side on both axes, up to rounding
    assert 0.0 <= d <= side * math.sqrt(2) / 2 * (1 + 1e-12)


def test_toroidal_normalizes_inputs():
    assert toroidal_distance((12, 0), (3, 4), 10) == toroidal_distance((2, 0), (3, 4), 10)
    assert toroidal_distance((-8, 0), (3, 4), 10) == toroidal_distance((2, 0), (3, 4), 10)


def test_world_side_density():
    assert world_side(1000) == pytest.approx(math.sqrt(1e7))
    assert world_side(8000) ** 2 / 8000 == pytest.approx(10000.0)
    with pytest.raises(ValueError):
        world_side(0)


def test_params_validation():
    with pytest.raises(ValueError):
        DisseminationParams(forwarding_threshold=250.0)  # must be < range
    with pytest.raises(ValueError):
        DisseminationParams(gossip_probability=1.5)
    with pytest.raises(ValueError):
        DisseminationParams(ttl=-1)
    # the bad-tuning preset values are legal
    DisseminationParams(gossip_probability=0.6, forwarding_threshold=100.0)


def test_build_entity_kind_by_parity():
    side = world_side(100)
    assert build_entity(0, 1, side, P).mobile
    assert not build_entity(1, 1, side, P).mobile
    e = build_entity(4, 99, side, P)
    assert 0 <= e.x < side and 0 <= e.y < side
    assert e.stream.cursor == 2  # position cost two draws


def test_rwp_static_rejected():
    e = build_entity(1, 1, 100.0, P)
    with pytest.raises(ValueError):
        rwp_step(e, 100.0)


def test_rwp_speed_draws_uniform_1_14():
    # mean of the speed distribution is (1+14)/2 = 7.5
    s = entity_stream(7, 0)
    speeds = [s.uniform_range(1.0, 14.0) for _ in range(100000)]
    assert abs(np.mean(speeds) - 7.5) < 0.1
    assert min(speeds) >= 1.0 and max(speeds) < 14.0


def test_rwp_step_stays_in_bounds_and_bounded_speed():
    side = 200.0
    e = build_entity(0, 3, side, P)
    for _ in range(2000):
        before = (e.x, e.y)
        rwp_step(e, side)
        assert 0 <= e.x < side and 0 <= e.y < side
        moved = toroidal_distance(before, (e.x, e.y), side)
        assert moved <= 14.0 + 1e-9
    # leg speeds stay in the drawn range
    assert 1.0 <= e.speed < 14.0


def test_rwp_no_pause_keeps_moving():
    side = 50.0  # small world: waypoints are hit often
    e = build_entity(0, 5, side, P)
    stationary = 0
    for _ in range(500):
        before = (e.x, e.y)
        rwp_step(e, side)
        if toroidal_distance(before, (e.x, e.y), side) < 1e-12:
            stationary += 1
    assert stationary == 0


def test_generation_degenerate_probabilities():
    side = 100.0
    p0 = DisseminationParams(generation_probability=0.0)
    p1 = DisseminationParams(generation_probability=1.0)
    e = build_entity(2, 1, side, p0)
    assert all(generate_message(e, t, p0) is None for t in range(100))
    e = build_entity(2, 1, side, p1)
    assert all(generate_message(e, t, p1) is not None for t in range(100))


def test_generation_binomial_totals():
    # 16000 entities over 900 steps at p=0.001: mean 14400, sd ~120
    total = 0
    for eid in range(16000):
        s = entity_stream(12345, eid)
        for _ in range(900):
            if s.bernoulli(0.001):
                total += 1
    assert abs(total - 14400) <= 400  # ~3.3 sigma


def test_generated_message_fields():
    e = build_entity(6, 1, 100.0, P)
    p1 = DisseminationParams(generation_probability=1.0)
    m = generate_message(e, 17, p1)
    assert m.message_id == make_message_id(6, 17) == (17 << 32) | 6
    assert m.origin_entity == 6
    assert m.origin_position == (e.x, e.y)
    assert m.ttl_remaining == p1.ttl and m.hop_count == 0
    assert m.created_at == 17
    # origin caches its own message immediately
    assert m.message_id in e.cache


def test_message_ids_unique_across_origin_step():
    ids = {make_message_id(o, t) for o in range(100) for t in range(100)}
    assert len(ids) == 100 * 100


class _OracleLru:
    """Reference LRU set: plain list, most recent last."""

    def __init__(self, capacity, items=()):
        self.capacity = capacity
        self.items = []
        for key in items:  # a repeated initial id keeps its first place
            if key not in self.items:
                self.items.append(key)
        self.items = self.items[-capacity:]
        self.high_water = len(self.items)

    def touch(self, key):
        if key in self.items:
            self.items.remove(key)
            self.items.append(key)
            return True
        self.items.append(key)
        if len(self.items) > self.capacity:
            self.items.pop(0)
        self.high_water = max(self.high_water, len(self.items))
        return False


def test_lru_eviction_example():
    c = LruSet(2)
    assert not c.touch("a")
    assert not c.touch("b")
    assert c.touch("a")       # refreshes a
    assert not c.touch("c")   # evicts b, the least recent
    assert "b" not in c
    assert "a" in c and "c" in c


def test_lru_matches_oracle_on_long_trace():
    rnd = random.Random(99)
    for cap in (1, 2, 16, 128):
        lru = LruSet(cap)
        oracle = _OracleLru(cap)
        for _ in range(10000):
            k = rnd.randrange(256)
            assert lru.touch(k) == oracle.touch(k)
            assert len(lru) == len(oracle.items) <= cap
        assert list(lru.ids()) == oracle.items


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 6),
       items=st.lists(st.integers(0, 12), max_size=10),
       keys=st.lists(st.integers(0, 12), max_size=60))
def test_lru_matches_list_reference(capacity, items, keys):
    lru = LruSet(capacity, items)
    ref = _OracleLru(capacity, items)
    assert list(lru.ids()) == ref.items and lru.high_water == ref.high_water
    for key in keys:
        assert lru.touch(key) == ref.touch(key)
        assert list(lru.ids()) == ref.items  # eviction drops the least recent
        assert lru.high_water == ref.high_water
        assert all(k in lru for k in ref.items) and len(lru) == len(ref.items)
        # touching the most recent id again changes nothing, the property
        # LogicalProcess relies on to count repeat copies in bulk
        state = (lru.ids(), lru.high_water)
        assert lru.touch(key)
        assert (lru.ids(), lru.high_water) == state


def test_lru_high_water_tracks_peak():
    c = LruSet(4)
    for k in range(3):
        c.touch(k)
    assert c.high_water == 3
    c.touch(0)
    assert c.high_water == 3
    for k in range(10, 20):
        c.touch(k)
    assert c.high_water == 4  # never beyond capacity


def _fresh_receiver(seed=50, budget=10):
    e = build_entity(2, seed, 1000.0, P)
    e.relay_budget = budget
    return e


def _msg(origin_x, origin_y, ttl=6, hop=0, mid=None, origin=1, t=0):
    if mid is None:
        mid = make_message_id(origin, t)
    return DisseminationMessage(mid, origin, origin_x, origin_y, ttl, hop, t)


def test_decide_relay_filter_order_and_counters():
    side = 1000.0
    mon = InvariantMonitor()

    # duplicate cache fires first, even for an otherwise relayable copy
    e = _fresh_receiver()
    m = _msg(e.x, e.y)
    e.cache.touch(m.message_id)
    rep = StepReport()
    assert decide_relay(e, m, e.x, e.y, P, side, rep, mon) is None
    assert rep.cache_filtered == 1 and rep.delivered == 1

    # exhausted ttl
    e = _fresh_receiver()
    rep = StepReport()
    assert decide_relay(e, _msg(e.x, e.y, ttl=0, hop=6), e.x, e.y, P, side, rep, mon) is None
    assert rep.ttl_filtered == 1

    # origin beyond the geofence (bigger world so 1500 does not wrap short)
    side2 = 4000.0
    e2 = build_entity(2, 3, side2, P)
    e2.relay_budget = 10
    rep = StepReport()
    m = _msg((e2.x + 1500.0) % side2, e2.y)
    assert decide_relay(e2, m, e2.x, e2.y, P, side2, rep, mon) is None
    assert rep.geofiltered == 1

    # sender inside the forwarding ring
    e2 = build_entity(2, 3, side2, P)
    e2.relay_budget = 10
    rep = StepReport()
    m = _msg(e2.x, e2.y, mid=make_message_id(1, 5), t=5)
    sender_x = (e2.x + 100.0) % side2
    assert decide_relay(e2, m, sender_x, e2.y, P, side2, rep, mon) is None
    assert rep.ring_filtered == 1

    # budget exhausted
    certain = DisseminationParams(gossip_probability=1.0)
    e2 = build_entity(2, 3, side2, certain)
    e2.relay_budget = 0
    rep = StepReport()
    sender_x = (e2.x + 240.0) % side2
    assert decide_relay(e2, _msg(e2.x, e2.y), sender_x, e2.y, certain, side2, rep, mon) is None
    assert rep.budget_filtered == 1

    # coin declines at p=0
    never = DisseminationParams(gossip_probability=0.0)
    e2 = build_entity(2, 3, side2, never)
    e2.relay_budget = 10
    rep = StepReport()
    assert decide_relay(e2, _msg(e2.x, e2.y), sender_x, e2.y, never, side2, rep, mon) is None
    assert rep.gossip_declined == 1

    # coin passes at p=1: ttl down, hop up, budget spent
    e2 = build_entity(2, 3, side2, certain)
    e2.relay_budget = 10
    rep = StepReport()
    out = decide_relay(e2, _msg(e2.x, e2.y, ttl=4, hop=2), sender_x, e2.y,
                       certain, side2, rep, mon)
    assert out is not None
    assert out.ttl_remaining == 3 and out.hop_count == 3
    assert out.ttl_remaining + out.hop_count == 6
    assert e2.relay_budget == 9
    assert rep.relayed == 1


def test_decide_relay_draw_consumed_only_at_coin():
    side = 4000.0
    mon = InvariantMonitor()
    # dropped before the coin: no draw
    e = build_entity(2, 3, side, P)
    e.relay_budget = 10
    rep = StepReport()
    c0 = e.stream.cursor
    m = _msg(e.x, e.y)
    decide_relay(e, m, (e.x + 10.0) % side, e.y, P, side, rep, mon)  # ring drop
    assert e.stream.cursor == c0

    # reaching the coin costs exactly one draw
    e = build_entity(2, 3, side, P)
    e.relay_budget = 10
    c0 = e.stream.cursor
    decide_relay(e, _msg(e.x, e.y), (e.x + 240.0) % side, e.y, P, side,
                 StepReport(), mon)
    assert e.stream.cursor == c0 + 1


def test_decide_relay_caches_even_when_dropped():
    side = 4000.0
    e = build_entity(2, 3, side, P)
    e.relay_budget = 10
    m = _msg(e.x, e.y)
    decide_relay(e, m, (e.x + 10.0) % side, e.y, P, side, StepReport(),
                 InvariantMonitor())  # ring drop
    assert m.message_id in e.cache
    # second copy of the same id is now a cache hit
    rep = StepReport()
    decide_relay(e, m, (e.x + 240.0) % side, e.y, P, side, rep,
                 InvariantMonitor())
    assert rep.cache_filtered == 1


def _oracle_reach(world, sender_pos, rng_, exclude):
    hits = []
    for i in range(world.num_entities):
        if i == exclude:
            continue
        d = toroidal_distance(sender_pos, (world.pos_x[i], world.pos_y[i]),
                              world.side)
        if d <= rng_:
            hits.append(i)
    return hits


def test_broadcast_reach_matches_oracle():
    rnd = random.Random(7)
    for trial in range(20):
        n = 300
        side = world_side(n)
        w = World(side, n)
        ids = np.arange(n)
        w.update(ids, np.array([rnd.uniform(0, side) for _ in range(n)]),
                 np.array([rnd.uniform(0, side) for _ in range(n)]))
        sender = rnd.randrange(n)
        pos = w.position(sender)
        got = broadcast_reach(w, pos, 250.0, exclude=sender)
        assert list(got) == _oracle_reach(w, pos, 250.0, sender)


def test_broadcast_reach_empty_far_world():
    w = World(10000.0, 3)
    w.update(np.arange(3), np.array([0.0, 5000.0, 2000.0]),
             np.array([0.0, 5000.0, 2000.0]))
    assert list(broadcast_reach(w, (0.0, 0.0), 250.0, exclude=0)) == []


def test_entity_record_roundtrip_bit_exact():
    side = world_side(100)
    seed = 77
    # advance a mobile entity through some activity
    a = build_entity(0, seed, side, P)
    for t in range(25):
        a.relay_budget = 10
        rwp_step(a, side)
        generate_message(a, t, P)
    a.cache.touch(123)
    a.cache.touch(456)

    rec = entity_to_record(a)
    b = record_to_entity(rec, seed, P)
    assert (b.x, b.y) == (a.x, a.y)
    assert (b.target_x, b.target_y) == (a.target_x, a.target_y)
    assert b.speed == a.speed
    assert b.mobile == a.mobile
    assert b.cache.ids() == a.cache.ids()
    assert b.stream.cursor == a.stream.cursor
    # future evolution identical to the uninterrupted original
    for t in range(25, 50):
        rwp_step(a, side)
        rwp_step(b, side)
        assert (a.x, a.y) == (b.x, b.y)
    assert a.stream.uniform() == b.stream.uniform()
