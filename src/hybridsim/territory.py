"""Coarse territory model: mobile entities gossiping on a torus.

Entities live on a 2-D toroidal plane sized to keep density at one node
per 10000 square space units. Even-numbered entities move under Random
Waypoint (uniform speed in [1, 14] space units per timestep, no pause);
odd-numbered entities are static. Messages spread by probabilistic
geo-filtered gossip: a received message is re-broadcast only if it is
new to the receiver's duplicate cache, still has hops to live, its
origin lies inside the geofence, the previous sender's distance lies in
the annular forwarding ring (forwarding_threshold, interaction_range],
the receiver's per-step relay budget is not exhausted, and a gossip
coin toss passes. For a receiver placed uniformly in the sender's range
the ring passes with probability 1 - (forwarding_threshold /
interaction_range)^2, so nearby receivers, which add little coverage,
never relay. Each entity consumes random draws only from its own
stream, which keeps outcomes independent of how entities are
partitioned across logical processes.

Within one timestep an entity first decides on the deliveries from the
previous step (at its current position), then moves, then possibly
generates a fresh message at its new position, so relay decisions use
the geometry the router used. A LogicalProcess holds its entities as
EntityColumns (build_entity) and runs these as three phases over all of
them: decide_relay per first copy of a message, one array rwp_step, one
generate_message. Each entity still draws from its own stream in that
order, via a buffer that its own generator refills.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import rng
from .metrics import InvariantMonitor, StepReport

DENSITY_AREA_PER_ENTITY = 10000.0  # one entity per this many square space units

RWP_SPEED_MIN = 1.0
RWP_SPEED_MAX = 14.0
SPEED_SPAN = RWP_SPEED_MAX - RWP_SPEED_MIN


def world_side(num_entities: int, area_per_entity: float = DENSITY_AREA_PER_ENTITY) -> float:
    """Side of the square torus holding num_entities at fixed density."""
    if num_entities <= 0:
        raise ValueError("num_entities must be positive")
    return math.sqrt(num_entities * area_per_entity)


@dataclass(frozen=True)
class DisseminationParams:
    """Gossip tuning knobs; defaults are the reference configuration."""

    interaction_range: float = 250.0
    forwarding_threshold: float = 225.0
    gossip_probability: float = 0.2
    geofilter_distance: float = 1000.0
    generation_probability: float = 0.001
    ttl: int = 6
    cache_capacity: int = 128
    max_relays_per_step: int = 10

    def __post_init__(self):
        if not (0.0 <= self.gossip_probability <= 1.0):
            raise ValueError("gossip_probability must lie in [0, 1]")
        if not (0.0 <= self.generation_probability <= 1.0):
            raise ValueError("generation_probability must lie in [0, 1]")
        if self.interaction_range <= 0:
            raise ValueError("interaction_range must be positive")
        if not (0.0 <= self.forwarding_threshold < self.interaction_range):
            raise ValueError(
                "forwarding_threshold must lie in [0, interaction_range)"
            )
        if self.ttl < 0:
            raise ValueError("ttl must be >= 0")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.max_relays_per_step < 0:
            raise ValueError("max_relays_per_step must be >= 0")


def _torus_dist(ax: float, ay: float, bx: float, by: float, side: float) -> float:
    dx, dy = abs(ax - bx) % side, abs(ay - by) % side
    return math.hypot(side - dx if dx > side * 0.5 else dx,
                      side - dy if dy > side * 0.5 else dy)


def toroidal_distance(a, b, side: float) -> float:
    """Shortest distance between points a and b on the side x side torus."""
    if side <= 0:
        raise ValueError("side must be positive")
    return _torus_dist(a[0], a[1], b[0], b[1], side)


def wrap_coord(v: float, side: float) -> float:
    """Map a coordinate into [0, side)."""
    v = v % side
    # Python's % can return side itself for tiny negative floats
    return v if v < side else 0.0


class DisseminationMessage(NamedTuple):
    """A gossip message as carried inside one broadcast.

    Relaying produces a copy with ttl decremented and hop incremented;
    ttl_remaining + hop_count is invariant along any relay chain.
    """

    message_id: int
    origin_entity: int
    origin_x: float
    origin_y: float
    ttl_remaining: int
    hop_count: int
    created_at: int


def make_message_id(origin_entity: int, created_at: int) -> int:
    """Globally unique, deterministic id: step in high bits, origin in low."""
    return (created_at << 32) | origin_entity


class Broadcast(NamedTuple):
    """A message put on the air by sender at the recorded position."""

    sender: int
    sender_x: float
    sender_y: float
    message: DisseminationMessage


# One step's broadcasts as columns: (sender, sender_x, sender_y) followed
# by the DisseminationMessage fields in declaration order.
BROADCAST_COLUMNS = np.dtype([
    ("sender", np.int64), ("sender_x", np.float64), ("sender_y", np.float64),
    ("message_id", np.int64), ("origin_entity", np.int64),
    ("origin_x", np.float64), ("origin_y", np.float64),
    ("ttl_remaining", np.int64), ("hop_count", np.int64),
    ("created_at", np.int64),
])


def broadcast_table(broadcasts) -> np.ndarray:
    """Broadcasts as one BROADCAST_COLUMNS array, a row per broadcast.

    Every field round-trips exactly, and the table pickles as raw bytes.
    """
    return np.array([(s, x, y, *m) for s, x, y, m in broadcasts],
                    dtype=BROADCAST_COLUMNS)


def table_broadcasts(table: np.ndarray) -> list:
    """Inverse of broadcast_table: one Broadcast per row."""
    return [Broadcast(s, x, y, DisseminationMessage(*m))
            for s, x, y, *m in table.tolist()]


class LruSet:
    """Fixed-capacity LRU set of message ids (the duplicate cache)."""

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


class EntityRecord(NamedTuple):
    """Serialized entity state for level hand-off and restore.

    Rebuilding from a record is bit-exact: the stream is reconstructed
    from (master seed, entity id) at the cursor (draws consumed), the
    cache keeps its exact contents and recency order, movement state
    carries over unchanged.
    """

    entity_id: int
    kind: str  # "mobile" | "static"
    x: float
    y: float
    target: Optional[tuple]  # (x, y) or None
    speed: float
    cache_ids: tuple
    cursor: int


# Draws buffered per entity. 64 float64 values a row add 2 MB at 4,000
# entities, and an entity drawing once a step refills every 64 steps.
DRAW_BLOCK = 64

_COLUMNS = {"ids": int, "x": float, "y": float, "tx": float, "ty": float,
            "speed": float, "mobile": bool, "budget": int, "cursor": int,
            "caches": object, "keys": np.uint64, "draws": float}


class EntityColumns:
    """One LP's entities as columns, a row per entity in ascending id order.

    Waypoints (tx, ty) are NaN while there are none. Row k of ``draws``
    holds draws [c - c % block, c - c % block + block) of the stream keyed
    by keys[k], c = cursor[k] the draws consumed; the row is refilled,
    by one generator set to each key in turn, when its last value is read.
    """

    def __init__(self, master_seed: int, capacity: int):
        self.master_seed, self.capacity = master_seed, capacity
        self.block = block = DRAW_BLOCK
        self._gen = np.random.Generator(np.random.Philox(key=0))
        for name, dtype in _COLUMNS.items():
            width = {"keys": (2,), "draws": (block,)}.get(name, ())
            setattr(self, name, np.empty((0, *width), dtype=dtype))

    def _fill(self, key, start: int, row) -> None:
        """Load row with draws [start, start + block) of key's stream."""
        rng.seek(self._gen, key, start).random(out=row)

    def draw(self, rows) -> np.ndarray:
        """The next draw of each entity in rows (distinct row indices)."""
        c = self.cursor[rows]
        v = self.draws[rows, c % self.block]
        self.cursor[rows] = c = c + 1
        for k in rows[c % self.block == 0].tolist():
            self._fill(self.keys[k], self.cursor.item(k), self.draws[k])
        return v

    def draw_one(self, k: int) -> float:
        """The next draw of the entity in row k."""
        c = self.cursor.item(k)
        v = self.draws.item(k, c % self.block)
        self.cursor[k] = c = c + 1
        if c % self.block == 0:
            self._fill(self.keys[k], c, self.draws[k])
        return v

    def records(self, rows) -> list:
        """EntityRecord of the entity in each row, in the given order."""
        cols = [getattr(self, name)[rows].tolist() for name in
                ("ids", "mobile", "x", "y", "tx", "ty", "speed", "cursor")]
        return [EntityRecord(eid, "mobile" if mobile else "static", x, y,
                             None if math.isnan(tx) else (tx, ty), speed,
                             self.caches[k].ids(), cursor)
                for k, eid, mobile, x, y, tx, ty, speed, cursor
                in zip(rows, *cols)]

    def add(self, records) -> None:
        """Take in the entities the records describe, keeping id order.
        Columns are built before any changes, so an add that raises leaves
        them as they were; each stream restarts at its cursor's block."""
        if not records:
            return
        ids, kinds, xs, ys, targets, speeds, cached, cursors = zip(*records)
        tx, ty = zip(*(t or (math.nan, math.nan) for t in targets))
        new = dict(ids=ids, x=xs, y=ys, tx=tx, ty=ty, speed=speeds,
                   mobile=[k == "mobile" for k in kinds],
                   budget=[0] * len(ids), cursor=cursors,
                   caches=[LruSet(self.capacity, c) for c in cached],
                   keys=[(self.master_seed, eid) for eid in ids])
        new = {name: np.array(col, dtype=_COLUMNS[name])
               for name, col in new.items()}
        n_old = len(self.ids)
        order = np.argsort(np.concatenate([self.ids, ids]), kind="stable")
        at = np.argsort(order)  # where each old, then new, row lands
        draws = np.empty((len(order), self.block))
        draws[at[:n_old]] = self.draws
        for key, c, k in zip(new["keys"], cursors, at[n_old:].tolist()):
            self._fill(key, c - c % self.block, draws[k])
        for name, col in new.items():
            setattr(self, name,
                    np.concatenate([getattr(self, name), col])[order])
        self.draws = draws

    def remove(self, rows) -> None:
        """Drop the entities in rows."""
        for name in _COLUMNS:
            setattr(self, name, np.delete(getattr(self, name), rows, axis=0))


def build_entity(entity_ids, master_seed: int, side: float,
                 params: DisseminationParams) -> EntityColumns:
    """Construct one LP's entities from their ids alone.

    Initial position costs the first two draws of each entity's own
    stream; even ids are mobile. No global stream is touched, so
    construction order and process placement cannot change anything.
    """
    cols = EntityColumns(master_seed, params.cache_capacity)
    cols.add([EntityRecord(eid, "static" if eid % 2 else "mobile", 0.0, 0.0,
                           None, 0.0, (), 0) for eid in entity_ids])
    every = np.arange(len(cols.ids))
    cols.x, cols.y = cols.draw(every) * side, cols.draw(every) * side
    return cols


def rwp_step(cols: EntityColumns, side: float) -> None:
    """Advance every mobile entity one timestep of Random Waypoint.

    Picking a new waypoint costs three draws (x, y, speed); travel is in
    a straight line on the torus at the chosen speed with no pause on
    arrival. Arriving mid-step spends the residual distance toward the
    next waypoint: movers step as arrays, and those that arrive step
    again. math.hypot is kept, as np.hypot rounds differently.
    """
    rows, left = np.flatnonzero(cols.mobile), None
    while len(rows):
        fresh = rows[np.isnan(cols.tx[rows])]
        cols.tx[fresh] = cols.draw(fresh) * side
        cols.ty[fresh] = cols.draw(fresh) * side
        cols.speed[fresh] = RWP_SPEED_MIN + SPEED_SPAN * cols.draw(fresh)
        if left is None:  # a step covers its first leg's speed
            left = cols.speed[rows]
        # shortest displacement on the torus, axis by axis
        d = np.stack([cols.tx[rows] - cols.x[rows],
                      cols.ty[rows] - cols.y[rows]])
        d = np.where(d > side * 0.5, d - side,
                     np.where(d < -side * 0.5, d + side, d))
        dist = np.fromiter(map(math.hypot, *d.tolist()), dtype=np.float64,
                           count=len(rows))
        go = dist > left
        f = left[go] / dist[go]
        for pos, dp in zip((cols.x, cols.y), d):
            v = np.remainder(pos[rows[go]] + dp[go] * f, side)  # as % does
            v[v >= side] = 0.0  # % can round up to side itself
            pos[rows[go]] = v
        # the rest reach their waypoint and walk on toward a fresh one
        rows, left = rows[~go], (left - dist)[~go]
        cols.x[rows], cols.y[rows] = cols.tx[rows], cols.ty[rows]
        cols.tx[rows] = cols.ty[rows] = np.nan
        rows, left = rows[left > 0.0], left[left > 0.0]


def generate_message(cols: EntityColumns, t: int,
                     params: DisseminationParams) -> list:
    """Bernoulli message generation by every entity at its position.

    Costs exactly one draw per entity per timestep whether or not a
    message appears. An origin immediately caches its own id so it never
    relays its own message back. Returns the broadcasts, in id order.
    """
    born = cols.draw(np.arange(len(cols.ids))) < params.generation_probability
    out = []
    for k in np.flatnonzero(born).tolist():
        eid, x, y = cols.ids.item(k), cols.x.item(k), cols.y.item(k)
        mid = make_message_id(eid, t)
        cols.caches[k].touch(mid)
        out.append(Broadcast(eid, x, y, DisseminationMessage(
            mid, eid, x, y, params.ttl, 0, t)))
    return out


def decide_relay(cols: EntityColumns, k: int, msg: DisseminationMessage,
                 sender_x: float, sender_y: float,
                 params: DisseminationParams, side: float,
                 report: StepReport,
                 monitor: InvariantMonitor) -> Optional[DisseminationMessage]:
    """Process one copy delivered to the entity in row k; return the
    relay copy or None.

    Filter order is fixed: duplicate cache, ttl, geofence, forwarding
    ring, relay budget, gossip coin. The cache records the id on every
    delivery, including ones dropped later in the chain, so at most one
    coin is ever tossed per (entity, message) while the id stays cached.
    Exactly one draw is consumed if and only if the coin stage is reached.
    """
    report.delivered += 1
    monitor.note_delivery(msg.hop_count)
    if cols.caches[k].touch(msg.message_id):
        report.cache_filtered += 1
        return None
    if msg.ttl_remaining <= 0:
        report.ttl_filtered += 1
        return None
    x, y = cols.x.item(k), cols.y.item(k)
    origin_distance = _torus_dist(x, y, msg.origin_x, msg.origin_y, side)
    if origin_distance > params.geofilter_distance:
        report.geofiltered += 1
        return None
    ring_distance = _torus_dist(x, y, sender_x, sender_y, side)
    if ring_distance <= params.forwarding_threshold:
        report.ring_filtered += 1
        return None
    budget = cols.budget.item(k)
    if budget <= 0:
        report.budget_filtered += 1
        return None
    if not cols.draw_one(k) < params.gossip_probability:
        report.gossip_declined += 1
        return None
    cols.budget[k] = budget - 1
    report.relayed += 1
    monitor.note_relay(ring_distance, origin_distance,
                       params.max_relays_per_step - budget + 1)
    return msg._replace(ttl_remaining=msg.ttl_remaining - 1,
                        hop_count=msg.hop_count + 1)


class World:
    """Global position table the router reads at each barrier.

    Holds every entity's last reported position, including entities
    currently frozen into a sub-simulator (they keep their hand-off
    position so envelopes addressed to them can be counted and dropped).
    """

    def __init__(self, side: float, num_entities: int):
        self.side = side
        self.num_entities = num_entities
        self.pos_x = np.zeros(num_entities)
        self.pos_y = np.zeros(num_entities)

    def update(self, ids, xs, ys) -> None:
        self.pos_x[ids] = xs
        self.pos_y[ids] = ys

    def position(self, entity_id: int):
        return (float(self.pos_x[entity_id]), float(self.pos_y[entity_id]))


def broadcast_reach(world: World, sender_pos, interaction_range: float,
                    exclude: Optional[int] = None) -> np.ndarray:
    """Ids of all entities within toroidal range of sender_pos.

    Comparison is on squared distance; the sender itself is excluded via
    the exclude id. Returned ids are ascending. This flat O(N) scan is
    the reference the engine's cell-grid router is tested against.
    """
    side = world.side
    dx = np.abs(world.pos_x - sender_pos[0])
    np.minimum(dx, side - dx, out=dx)
    dy = np.abs(world.pos_y - sender_pos[1])
    np.minimum(dy, side - dy, out=dy)
    mask = dx * dx + dy * dy <= interaction_range * interaction_range
    if exclude is not None:
        mask[exclude] = False
    return np.nonzero(mask)[0]


@dataclass(frozen=True)
class TerritorySpec:
    """Picklable description of a territory: entity count and gossip
    parameters. A LogicalProcess builds its entities from it in any
    process."""

    num_entities: int
    params: DisseminationParams = DisseminationParams()

    @property
    def side(self) -> float:
        return world_side(self.num_entities)
