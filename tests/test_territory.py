"""Territory model: geometry, mobility, cache, relay rule, serialization."""

import math
import random
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridsim import territory
from hybridsim.metrics import InvariantMonitor, StepReport
from hybridsim.rng import Stream
from hybridsim.territory import (
    Broadcast,
    BroadcastTable,
    DisseminationMessage,
    DisseminationParams,
    EntityColumns,
    EntityRecord,
    TerritorySpec,
    World,
    broadcast_reach,
    broadcast_table,
    build_entity,
    decide_relay,
    generate_message,
    make_message_id,
    rwp_step,
    toroidal_distance,
    world_side,
)
from scalar_oracle import LruSet

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


def test_array_torus_distance_is_the_scalar_one():
    # bit for bit, as the relay filters and the monitor need: np.hypot
    # rounds about one distance in 200 differently
    rnd = np.random.default_rng(3)
    side = 2000.0
    a, b = rnd.uniform(0, side, (2, 2, 5000))
    got = territory._torus_dists(a[0], a[1], b[0], b[1], side)
    assert got.tolist() == [territory._torus_dist(*p, side) for p in
                            zip(a[0].tolist(), a[1].tolist(),
                                b[0].tolist(), b[1].tolist())]


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
    with pytest.raises(ValueError, match="^cache_capacity = 0 out of range"):
        DisseminationParams(cache_capacity=0)
    # a negative or NaN geofence and an infinite range were once accepted
    for field in (f.name for f in fields(DisseminationParams)):
        for value in (-1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field} = .* out of"):
                DisseminationParams(**{field: value})
    # the bad-tuning preset values are legal
    DisseminationParams(gossip_probability=0.6, forwarding_threshold=100.0)


def test_territory_spec_refuses_entity_counts_by_name():
    for n in (0, -3, 20.5, 20.0, math.nan):
        with pytest.raises(ValueError,
                           match="^num_entities = .* out of range;"
                                 " accepted: integer >= 1$"):
            TerritorySpec(n)
    assert TerritorySpec(np.int64(20)).num_entities == 20


def _one(entity_id, seed, side, params=P):
    """Columns holding the single entity entity_id."""
    return build_entity([entity_id], seed, side, params)


def _cached(cols, k=0):
    """Row k's cached ids, least recent first."""
    return cols.records([k])[0].cache_ids


def _touch(cols, key, k=0):
    return cols.touch(np.array([k]), np.array([key])).item()


@pytest.mark.parametrize("block", [1, 3, 64])
def test_draw_matches_stream_at_any_block(block, monkeypatch):
    """draw(rows, n) gives each row its stream's next n draws, in order,
    whether the n draws stay inside a block, end it, or cross one or
    more refills, from cursors that are not multiples of 4 or of the
    block."""
    monkeypatch.setattr(territory, "DRAW_BLOCK", block)
    seed, cursors = 2**63 - 1, [1, 2, 5, 7, 62, 63, 66, 129, 1031]
    cols = EntityColumns(seed, P.cache_capacity)
    ids = list(range(3, 3 + 2 * len(cursors), 2))
    cols.add([EntityRecord(eid, "static", 0.0, 0.0, None, 0.0, (), c)
              for eid, c in zip(ids, cursors)])
    streams = [Stream(seed, eid, cursor=c) for eid, c in zip(ids, cursors)]
    rnd = random.Random(block)
    for _ in range(60):
        rows = np.array(sorted(rnd.sample(range(len(ids)),
                                          rnd.randint(0, len(ids)))),
                        dtype=np.intp)
        n = rnd.choice([1, 2, 3, 5, 7])
        got = cols.draw(rows, n)
        assert got.shape == (n, len(rows))
        want = [[streams[k].uniform() for _ in range(n)]
                for k in rows.tolist()]
        assert got.T.tolist() == want
    assert cols.cursor.tolist() == [s.cursor for s in streams]


def test_refills_on_two_threads_match_sequential_draws():
    """Two EntityColumns refilling at once on two threads, as sessions
    of the TCP wrapper seek on theirs, draw what each draws alone: no
    thread sets a generator from another's seek."""
    def drawn(seed):
        cols = EntityColumns(seed, P.cache_capacity)
        cols.add([EntityRecord(eid, "static", 0.0, 0.0, None, 0.0, (), 0)
                  for eid in range(8)])
        # 600 draws a stream: nine refills of each of the eight rows
        return np.stack([cols.draw(np.arange(8), 3) for _ in range(200)])

    want = {seed: drawn(seed) for seed in (5, 6)}
    got = {}
    threads = [threading.Thread(target=lambda s=s: got.update({s: drawn(s)}))
               for s in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for seed, draws in want.items():
        assert np.array_equal(got[seed], draws)


def test_build_entity_kind_by_parity():
    side = world_side(100)
    cols = build_entity(range(6), 99, side, P)
    assert cols.mobile.tolist() == [True, False] * 3
    assert ((0 <= cols.x) & (cols.x < side)).all()
    assert ((0 <= cols.y) & (cols.y < side)).all()
    assert cols.cursor.tolist() == [2] * 6  # position cost two draws
    s = Stream(99, 4)
    assert (cols.x[4], cols.y[4]) == (s.uniform() * side, s.uniform() * side)


def test_rwp_static_rejected():
    # a static entity is never moved and never draws for a waypoint
    cols = _one(1, 1, 100.0)
    before = (cols.x[0], cols.y[0])
    for _ in range(10):
        rwp_step(cols, 100.0)
    assert (cols.x[0], cols.y[0]) == before
    assert cols.cursor[0] == 2 and np.isnan(cols.tx[0])


def test_rwp_speed_draws_uniform_1_14():
    # mean of the speed distribution is (1+14)/2 = 7.5
    s = Stream(7, 0)
    speeds = [s.uniform_range(1.0, 14.0) for _ in range(100000)]
    assert abs(np.mean(speeds) - 7.5) < 0.1
    assert min(speeds) >= 1.0 and max(speeds) < 14.0


def test_rwp_step_stays_in_bounds_and_bounded_speed():
    side = 200.0
    e = _one(0, 3, side)
    for _ in range(2000):
        before = (e.x[0], e.y[0])
        rwp_step(e, side)
        assert 0 <= e.x[0] < side and 0 <= e.y[0] < side
        moved = toroidal_distance(before, (e.x[0], e.y[0]), side)
        assert moved <= 14.0 + 1e-9
    # leg speeds stay in the drawn range
    assert 1.0 <= e.speed[0] < 14.0


def test_rwp_no_pause_keeps_moving():
    side = 50.0  # small world: waypoints are hit often
    e = _one(0, 5, side)
    stationary = 0
    for _ in range(500):
        before = (e.x[0], e.y[0])
        rwp_step(e, side)
        if toroidal_distance(before, (e.x[0], e.y[0]), side) < 1e-12:
            stationary += 1
    assert stationary == 0


def test_generation_degenerate_probabilities():
    side = 100.0
    p0 = DisseminationParams(generation_probability=0.0)
    p1 = DisseminationParams(generation_probability=1.0)
    e = _one(2, 1, side, p0)
    assert all(len(generate_message(e, t, p0)) == 0 for t in range(100))
    e = _one(2, 1, side, p1)
    assert all(len(generate_message(e, t, p1)) == 1 for t in range(100))
    assert e.cursor[0] == 102  # one draw a step either way


def test_generation_binomial_totals():
    # 16000 entities over 900 steps at p=0.001: mean 14400, sd ~120
    total = 0
    for eid in range(16000):
        s = Stream(12345, eid)
        for _ in range(900):
            if s.uniform() < 0.001:
                total += 1
    assert abs(total - 14400) <= 400  # ~3.3 sigma


def test_generated_message_fields():
    e = _one(6, 1, 100.0)
    p1 = DisseminationParams(generation_probability=1.0)
    [(sender, sx, sy, m)] = BroadcastTable(generate_message(e, 17, p1))
    assert m.message_id == make_message_id(6, 17) == (17 << 32) | 6
    assert m.origin_entity == 6 == sender
    assert (m.origin_x, m.origin_y) == (e.x[0], e.y[0]) == (sx, sy)
    assert m.ttl_remaining == p1.ttl and m.hop_count == 0
    assert m.created_at == 17
    # origin caches its own message immediately
    assert m.message_id in _cached(e)


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


@settings(max_examples=400, deadline=None)
@given(capacity=st.integers(1, 4), data=st.data())
def test_array_cache_matches_lru_set(capacity, data):
    """EntityColumns' id and stamp caches against one LruSet per entity,
    over touches of several rows at once, with entities extracted and
    restored (in any order) between them. Initial caches may repeat ids
    or overflow, as a record from elsewhere might; widths grow from 0."""
    keys = st.integers(0, 9)
    initial = data.draw(st.lists(st.lists(keys, max_size=6), min_size=1,
                                 max_size=4))
    cols = EntityColumns(1, capacity)
    cols.add([EntityRecord(eid, "static", 0.0, 0.0, None, 0.0, tuple(c), 0)
              for eid, c in enumerate(initial)])
    ref = {eid: LruSet(capacity, c) for eid, c in enumerate(initial)}
    away = []
    for op in data.draw(st.lists(st.sampled_from(
            ["touch", "touch", "touch", "extract", "restore"]), max_size=30)):
        here = cols.ids.tolist()
        if op == "touch" and here:
            eids = data.draw(st.lists(st.sampled_from(here), unique=True))
            got = data.draw(st.lists(keys, min_size=len(eids),
                                     max_size=len(eids)))
            hit = cols.touch(np.searchsorted(cols.ids, eids).astype(np.intp),
                             np.array(got, dtype=np.int64))
            assert hit.tolist() == [ref[e].touch(k)
                                    for e, k in zip(eids, got)]
        elif op == "extract" and here:
            eids = data.draw(st.lists(st.sampled_from(here), min_size=1,
                                      unique=True))
            rows = np.searchsorted(cols.ids, eids)
            away += cols.records(rows)
            cols.remove(rows)
        elif op == "restore":
            cols.add(data.draw(st.permutations(away)))
            away = []
        recs = cols.records(range(len(cols.ids)))
        assert [r.cache_ids for r in recs] == [ref[r.entity_id].ids()
                                              for r in recs]
        assert cols.cache_len.tolist() == [ref[r.entity_id].high_water
                                           for r in recs]
        assert cols.cache_ids.shape[1] <= capacity


def _receiver(seed, side, params=P, budget=10):
    """Columns of entity 2 alone with the given relay budget; the entity
    is (cols, 0), its position (x, y)."""
    cols = _one(2, seed, side, params)
    cols.budget[0] = budget
    return cols, cols.x.item(0), cols.y.item(0)


def _decide(cols, k, msg, sender_x, sender_y, params, side, report,
            monitor):
    """decide_relay on one copy of msg to the entity in row k; the relay
    copy or None."""
    copy = broadcast_table([Broadcast(9, sender_x, sender_y, msg)]).table
    out = BroadcastTable(decide_relay(cols, np.full(1, k), copy, params,
                                      side, report, monitor))
    return out[0].message if out else None


def _msg(origin_x, origin_y, ttl=6, hop=0, mid=None, origin=1, t=0):
    if mid is None:
        mid = make_message_id(origin, t)
    return DisseminationMessage(mid, origin, origin_x, origin_y, ttl, hop, t)


def _rounds_by_count(rows) -> list:
    """Round r holds, in order, the index of each row's r-th copy."""
    rounds, seen = [], {}
    for i, row in enumerate(rows):
        rank = seen[row] = seen.get(row, -1) + 1
        if rank == len(rounds):
            rounds.append([])
        rounds[rank].append(i)
    return rounds


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=40), st.booleans())
def test_rounds_match_a_count_of_each_row(values, distinct):
    """_rounds of non-decreasing rows equals a count of each row's
    copies, on its sorting path and, where no row repeats, on its
    one-round path."""
    rows = sorted(set(values)) if distinct else sorted(values)
    got = [r.tolist() for r in territory._rounds(np.array(rows, dtype=int))]
    assert got == _rounds_by_count(rows)
    if distinct and rows:
        assert got == [list(range(len(rows)))]


def test_decide_relay_filter_order_and_counters():
    side = 1000.0
    mon = InvariantMonitor()

    # duplicate cache fires first, even for an otherwise relayable copy
    e, x, y = _receiver(50, side)
    m = _msg(x, y)
    _touch(e, m.message_id)
    rep = StepReport()
    assert _decide(e, 0, m, x, y, P, side, rep, mon) is None
    assert rep.cache_filtered == 1 and rep.delivered == 1

    # exhausted ttl
    e, x, y = _receiver(50, side)
    rep = StepReport()
    assert _decide(e, 0, _msg(x, y, ttl=0, hop=6), x, y, P, side, rep,
                        mon) is None
    assert rep.ttl_filtered == 1

    # origin beyond the geofence (bigger world so 1500 does not wrap short)
    side2 = 4000.0
    e2, x, y = _receiver(3, side2)
    rep = StepReport()
    m = _msg((x + 1500.0) % side2, y)
    assert _decide(e2, 0, m, x, y, P, side2, rep, mon) is None
    assert rep.geofiltered == 1

    # sender inside the forwarding ring
    e2, x, y = _receiver(3, side2)
    rep = StepReport()
    m = _msg(x, y, mid=make_message_id(1, 5), t=5)
    assert _decide(e2, 0, m, (x + 100.0) % side2, y, P, side2, rep,
                        mon) is None
    assert rep.ring_filtered == 1

    # budget exhausted
    certain = DisseminationParams(gossip_probability=1.0)
    e2, x, y = _receiver(3, side2, certain, budget=0)
    rep = StepReport()
    sender_x = (x + 240.0) % side2
    assert _decide(e2, 0, _msg(x, y), sender_x, y, certain, side2, rep,
                        mon) is None
    assert rep.budget_filtered == 1

    # coin declines at p=0
    never = DisseminationParams(gossip_probability=0.0)
    e2, x, y = _receiver(3, side2, never)
    rep = StepReport()
    assert _decide(e2, 0, _msg(x, y), sender_x, y, never, side2, rep,
                        mon) is None
    assert rep.gossip_declined == 1

    # coin passes at p=1: ttl down, hop up, budget spent
    e2, x, y = _receiver(3, side2, certain)
    rep = StepReport()
    out = _decide(e2, 0, _msg(x, y, ttl=4, hop=2), sender_x, y,
                       certain, side2, rep, mon)
    assert out is not None
    assert out.ttl_remaining == 3 and out.hop_count == 3
    assert out.ttl_remaining + out.hop_count == 6
    assert e2.budget[0] == 9
    assert rep.relayed == 1
    # only the relay reached the monitor's relay extrema
    assert mon.relay_ring_min == pytest.approx(240.0)
    assert mon.relay_ring_max == mon.relay_ring_min
    assert mon.relay_origin_max == 0.0 and mon.max_relays_entity_step == 1


def test_monitor_keeps_the_least_ring_and_the_largest_of_the_rest():
    mon = InvariantMonitor()
    assert mon.as_dict()["relay_ring_min"] is None  # no relay yet
    mon.note(relay_ring_min=240.0, relay_ring_max=240.0, max_delivered_hop=3)
    mon.note(relay_ring_min=230.0, relay_ring_max=245.0, max_delivered_hop=2,
             cache_high_water=5)
    mon.merge(InvariantMonitor(relay_ring_min=228.0, relay_ring_max=241.0,
                               relay_origin_max=900.0,
                               max_relays_entity_step=4))
    want = dict(max_delivered_hop=3, relay_ring_min=228.0,
                relay_ring_max=245.0, relay_origin_max=900.0,
                max_relays_entity_step=4, cache_high_water=5)
    assert mon.as_dict() == want
    mon.merge(InvariantMonitor())  # a monitor that saw nothing
    assert mon.as_dict() == want


def test_decide_relay_draw_consumed_only_at_coin():
    side = 4000.0
    mon = InvariantMonitor()
    # dropped before the coin: no draw
    e, x, y = _receiver(3, side)
    c0 = e.cursor[0]
    _decide(e, 0, _msg(x, y), (x + 10.0) % side, y, P, side,
                 StepReport(), mon)  # ring drop
    assert e.cursor[0] == c0

    # reaching the coin costs exactly one draw, the stream's next one
    e, x, y = _receiver(3, side)
    c0 = e.cursor[0]
    _decide(e, 0, _msg(x, y), (x + 240.0) % side, y, P, side,
                 StepReport(), mon)
    assert e.cursor[0] == c0 + 1
    s = Stream(3, 2, cursor=int(c0) + 1)
    assert e.draw(np.array([0]))[0] == s.uniform()


def test_decide_relay_caches_even_when_dropped():
    side = 4000.0
    e, x, y = _receiver(3, side)
    m = _msg(x, y)
    _decide(e, 0, m, (x + 10.0) % side, y, P, side, StepReport(),
                 InvariantMonitor())  # ring drop
    assert m.message_id in _cached(e)
    # second copy of the same id is now a cache hit
    rep = StepReport()
    _decide(e, 0, m, (x + 240.0) % side, y, P, side, rep,
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
        pos = (float(w.pos_x[sender]), float(w.pos_y[sender]))
        got = broadcast_reach(w, pos, 250.0, exclude=sender)
        assert list(got) == _oracle_reach(w, pos, 250.0, sender)


def test_broadcast_reach_empty_far_world():
    w = World(10000.0, 3)
    w.update(np.arange(3), np.array([0.0, 5000.0, 2000.0]),
             np.array([0.0, 5000.0, 2000.0]))
    assert list(broadcast_reach(w, (0.0, 0.0), 250.0, exclude=0)) == []


def test_entity_record_roundtrip_bit_exact(monkeypatch):
    side = world_side(100)
    seed = 77
    # advance a mobile entity through some activity; a block of 7 puts
    # the cursor mid-block
    monkeypatch.setattr(territory, "DRAW_BLOCK", 7)
    a = build_entity([0], seed, side, P)
    for t in range(25):
        rwp_step(a, side)
        generate_message(a, t, P)
    _touch(a, 123)
    _touch(a, 456)

    [rec] = a.records([0])
    assert rec.cursor % 7 and rec.target is not None
    b = EntityColumns(seed, P.cache_capacity)
    b.add([rec])
    assert b.records([0]) == [rec]
    assert _cached(b) == _cached(a) == rec.cache_ids
    # future evolution identical to the uninterrupted original
    for t in range(25, 50):
        rwp_step(a, side)
        rwp_step(b, side)
        assert (a.x[0], a.y[0]) == (b.x[0], b.y[0])
    assert a.draw(np.array([0])) == b.draw(np.array([0]))
