"""The scalar definition of the coarse entity update: the test oracle.

One object per entity, one Python loop over them per step, and one
scalar draw at a time from each entity's rng.Stream. The column store in
hybridsim.territory (EntityColumns and the per-LP rwp_step,
generate_message and decide_relay) must reproduce it bit for bit, which
tests/test_engine.py checks over whole runs.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from typing import Optional

import numpy as np

from hybridsim.engine import EngineError
from hybridsim.metrics import InvariantMonitor
from hybridsim.rng import Stream
from hybridsim.territory import (
    RWP_SPEED_MAX,
    RWP_SPEED_MIN,
    Broadcast,
    DisseminationMessage,
    DisseminationParams,
    EntityRecord,
    _torus_dist,
    make_message_id,
    wrap_coord,
)


class LruSet:
    """Fixed-capacity LRU set of message ids: the duplicate cache that
    territory.EntityColumns keeps as id and stamp arrays."""

    __slots__ = ("capacity", "_items", "high_water")

    def __init__(self, capacity: int, items=()):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items = OrderedDict.fromkeys(items)
        while len(self._items) > capacity:
            self._items.popitem(last=False)
        self.high_water = len(self._items)

    def touch(self, key: int) -> bool:
        """Insert key as most recent. Returns True if it was present."""
        items = self._items
        if key in items:
            items.move_to_end(key)
            return True
        items[key] = None
        if len(items) > self.capacity:
            items.popitem(last=False)
        elif len(items) > self.high_water:
            self.high_water = len(items)
        return False

    def __contains__(self, key) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def ids(self) -> tuple:
        """Cached ids, least recently used first."""
        return tuple(self._items)


class SimulatedEntity:
    """One territory entity: position, movement state, stream, cache."""

    __slots__ = ("entity_id", "mobile", "x", "y", "target_x", "target_y",
                 "speed", "stream", "cache", "relay_budget")

    def __init__(self, entity_id, mobile, x, y, stream, cache):
        self.entity_id = entity_id
        self.mobile = mobile
        self.x = x
        self.y = y
        self.target_x: Optional[float] = None
        self.target_y: Optional[float] = None
        self.speed = 0.0
        self.stream = stream
        self.cache = cache
        self.relay_budget = 0

    @property
    def kind(self) -> str:
        return "mobile" if self.mobile else "static"


def build_entity(entity_id, master_seed, side, params) -> SimulatedEntity:
    """Initial position costs two draws; even ids are mobile."""
    stream = Stream(master_seed, entity_id)
    x = stream.uniform() * side
    y = stream.uniform() * side
    return SimulatedEntity(entity_id, entity_id % 2 == 0, x, y,
                           stream, LruSet(params.cache_capacity))


def rwp_step(entity: SimulatedEntity, side: float) -> None:
    """One timestep of Random Waypoint: a new waypoint costs three draws
    (x, y, speed); no pause on arrival, the residual distance goes
    toward the next waypoint."""
    if not entity.mobile:
        raise ValueError(f"entity {entity.entity_id} is static")
    remaining = None
    while True:
        if entity.target_x is None:
            s = entity.stream
            entity.target_x = s.uniform() * side
            entity.target_y = s.uniform() * side
            entity.speed = s.uniform_range(RWP_SPEED_MIN, RWP_SPEED_MAX)
        if remaining is None:
            remaining = entity.speed
        dx = entity.target_x - entity.x
        dy = entity.target_y - entity.y
        if dx > side * 0.5:
            dx -= side
        elif dx < -side * 0.5:
            dx += side
        if dy > side * 0.5:
            dy -= side
        elif dy < -side * 0.5:
            dy += side
        dist = math.hypot(dx, dy)
        if dist <= remaining:
            entity.x = entity.target_x
            entity.y = entity.target_y
            entity.target_x = None
            entity.target_y = None
            remaining -= dist
            if remaining <= 0.0:
                return
            continue
        f = remaining / dist
        entity.x = wrap_coord(entity.x + dx * f, side)
        entity.y = wrap_coord(entity.y + dy * f, side)
        return


def generate_message(entity, t, params) -> Optional[DisseminationMessage]:
    """One draw per entity per step; the origin caches its own id."""
    if not entity.stream.uniform() < params.generation_probability:
        return None
    mid = make_message_id(entity.entity_id, t)
    entity.cache.touch(mid)
    return DisseminationMessage(mid, entity.entity_id, entity.x, entity.y,
                                params.ttl, 0, t)


def decide_relay(entity, msg, sender_x, sender_y, params, side, report,
                 monitor) -> Optional[DisseminationMessage]:
    """Cache, ttl, geofence, ring, budget, coin; one draw at the coin."""
    report.delivered += 1
    monitor.note(max_delivered_hop=msg.hop_count)
    if entity.cache.touch(msg.message_id):
        report.cache_filtered += 1
        return None
    if msg.ttl_remaining <= 0:
        report.ttl_filtered += 1
        return None
    origin_distance = _torus_dist(entity.x, entity.y,
                                  msg.origin_x, msg.origin_y, side)
    if origin_distance > params.geofilter_distance:
        report.geofiltered += 1
        return None
    ring_distance = _torus_dist(entity.x, entity.y, sender_x, sender_y, side)
    if ring_distance <= params.forwarding_threshold:
        report.ring_filtered += 1
        return None
    if entity.relay_budget <= 0:
        report.budget_filtered += 1
        return None
    if not entity.stream.uniform() < params.gossip_probability:
        report.gossip_declined += 1
        return None
    entity.relay_budget -= 1
    report.relayed += 1
    monitor.note(relay_ring_min=ring_distance, relay_ring_max=ring_distance,
                 relay_origin_max=origin_distance,
                 max_relays_entity_step=(params.max_relays_per_step
                                         - entity.relay_budget))
    return msg._replace(ttl_remaining=msg.ttl_remaining - 1,
                        hop_count=msg.hop_count + 1)


def entity_to_record(e: SimulatedEntity) -> EntityRecord:
    target = None if e.target_x is None else (e.target_x, e.target_y)
    return EntityRecord(e.entity_id, e.kind, e.x, e.y, target, e.speed,
                        e.cache.ids(), e.stream.cursor)


def record_to_entity(rec: EntityRecord, master_seed: int,
                     params: DisseminationParams) -> SimulatedEntity:
    stream = Stream(master_seed, rec.entity_id, cursor=rec.cursor)
    cache = LruSet(params.cache_capacity, rec.cache_ids)
    e = SimulatedEntity(rec.entity_id, rec.kind == "mobile", rec.x, rec.y,
                        stream, cache)
    if rec.target is not None:
        e.target_x, e.target_y = rec.target
    e.speed = rec.speed
    return e


class ScalarLP:
    """engine.LogicalProcess as a loop over SimulatedEntity objects.

    ``per_copy`` sends every copy in an inbox, repeats included, through
    decide_relay; by default only the first copy of each message to an
    entity is decided and the repeats are counted in bulk, as the
    engine does.
    """

    def __init__(self, lp_id, entity_ids, spec, master_seed,
                 per_copy=False):
        self.lp_id = lp_id
        self.params = spec.params
        self.side = spec.side
        self.master_seed = master_seed
        self.per_copy = per_copy
        self.monitor = InvariantMonitor()
        self.entities = {eid: build_entity(eid, master_seed, self.side,
                                           self.params)
                         for eid in entity_ids}

    def extract(self, entity_ids) -> list:
        assert all(eid in self.entities for eid in entity_ids)
        assert max(Counter(entity_ids).values(), default=1) == 1
        return [entity_to_record(self.entities.pop(eid))
                for eid in entity_ids]

    def restore(self, records) -> int:
        assert not any(r.entity_id in self.entities for r in records)
        self.entities.update(
            (r.entity_id, record_to_entity(r, self.master_seed, self.params))
            for r in records)
        return len(records)

    def run_step(self, t, inbox, report) -> list:
        order = [self.entities[eid] for eid in sorted(self.entities)]
        ids = np.array(sorted(self.entities), dtype=np.int64)
        spans = [(0, 0)] * len(order)
        if inbox:
            if inbox.produced_at != t - 1:
                raise EngineError("stale envelope")
            dest, row = inbox.dest, inbox.row
            if not self.per_copy:
                mid = inbox.table["message_id"][row]
                repeat = np.zeros(len(dest), dtype=bool)
                repeat[1:] = (dest[1:] == dest[:-1]) & (mid[1:] == mid[:-1])
                hops = inbox.table["hop_count"][row[repeat]]
                report.delivered += len(hops)
                report.cache_filtered += len(hops)
                self.monitor.note(max_delivered_hop=int(hops.max(initial=0)))
                dest, row = dest[~repeat], row[~repeat]
            lo = np.searchsorted(dest, ids, side="left")
            hi = np.searchsorted(dest, ids, side="right")
            assert int((hi - lo).sum()) == len(dest)
            spans = zip(lo.tolist(), hi.tolist())
            rows = inbox.broadcasts
            picks = row.tolist()
        params = self.params
        outbox = []
        for e, (a, b) in zip(order, spans):
            e.relay_budget = params.max_relays_per_step
            for k in range(a, b):
                copy = rows[picks[k]]
                m = decide_relay(e, copy.message, copy.sender_x,
                                 copy.sender_y, params, self.side,
                                 report, self.monitor)
                if m is not None:
                    outbox.append(Broadcast(e.entity_id, e.x, e.y, m))
            if e.mobile:
                rwp_step(e, self.side)
            m = generate_message(e, t, params)
            if m is not None:
                report.generated += 1
                outbox.append(Broadcast(e.entity_id, e.x, e.y, m))
        return outbox

    def positions(self):
        ids = sorted(self.entities)
        return (np.array(ids, dtype=np.int64),
                np.array([self.entities[i].x for i in ids]),
                np.array([self.entities[i].y for i in ids]))

    def finish(self) -> InvariantMonitor:
        for e in self.entities.values():
            self.monitor.note(cache_high_water=e.cache.high_water)
        return self.monitor


def lp_state(lp) -> dict:
    """entity id -> (record, cache high water, relay budget) of either
    kind of LP; equal states evolve identically."""
    if isinstance(lp, ScalarLP):
        return {eid: (entity_to_record(e), e.cache.high_water,
                      e.relay_budget)
                for eid, e in lp.entities.items()}
    cols = lp.cols
    recs = cols.records(range(len(cols.ids)))
    return {r.entity_id: (r, cols.cache_len.item(k), cols.budget.item(k))
            for k, r in enumerate(recs)}
