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
the geometry the router used. The engine's LogicalProcess calls
build_entity, then decide_relay on the first copy of each message (later
copies only count as cache-filtered), rwp_step and generate_message.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .metrics import InvariantMonitor, StepReport
from .rng import Stream, entity_stream

DENSITY_AREA_PER_ENTITY = 10000.0  # one entity per this many square space units

RWP_SPEED_MIN = 1.0
RWP_SPEED_MAX = 14.0


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


def _torus_axis(d: float, side: float) -> float:
    d = abs(d) % side
    return side - d if d > side * 0.5 else d


def _torus_dist(ax: float, ay: float, bx: float, by: float, side: float) -> float:
    dx = _torus_axis(ax - bx, side)
    dy = _torus_axis(ay - by, side)
    return math.hypot(dx, dy)


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

    @property
    def origin_position(self):
        return (self.origin_x, self.origin_y)


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


class SimulatedEntity:
    """One territory entity: position, movement state, stream, cache."""

    __slots__ = ("entity_id", "mobile", "x", "y", "target_x", "target_y",
                 "speed", "stream", "cache", "relay_budget")

    def __init__(self, entity_id: int, mobile: bool, x: float, y: float,
                 stream: Stream, cache: LruSet):
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

    @property
    def position(self):
        return (self.x, self.y)


def build_entity(entity_id: int, master_seed: int, side: float,
                 params: DisseminationParams) -> SimulatedEntity:
    """Construct an entity from its id alone.

    Initial position costs two draws from the entity's own stream; even
    ids are mobile. No global stream is touched, so construction order
    and process placement cannot change anything.
    """
    stream = entity_stream(master_seed, entity_id)
    x = stream.uniform() * side
    y = stream.uniform() * side
    return SimulatedEntity(entity_id, entity_id % 2 == 0, x, y,
                           stream, LruSet(params.cache_capacity))


def rwp_step(entity: SimulatedEntity, side: float) -> None:
    """Advance a mobile entity one timestep of Random Waypoint.

    Picking a new waypoint costs three draws (x, y, speed); travel is in
    a straight line on the torus at the chosen speed with no pause on
    arrival. Arriving mid-step spends the residual distance toward the
    next waypoint.
    """
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
        # shortest displacement on the torus, axis by axis
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
            # keep walking toward a fresh waypoint within the same step
            continue
        f = remaining / dist
        entity.x = wrap_coord(entity.x + dx * f, side)
        entity.y = wrap_coord(entity.y + dy * f, side)
        return


def generate_message(entity: SimulatedEntity, t: int,
                     params: DisseminationParams) -> Optional[DisseminationMessage]:
    """Bernoulli message generation at the entity's current position.

    Costs exactly one draw per entity per timestep whether or not a
    message appears. The origin immediately caches its own id so it never
    relays its own message back.
    """
    if not entity.stream.bernoulli(params.generation_probability):
        return None
    mid = make_message_id(entity.entity_id, t)
    entity.cache.touch(mid)
    return DisseminationMessage(
        message_id=mid,
        origin_entity=entity.entity_id,
        origin_x=entity.x,
        origin_y=entity.y,
        ttl_remaining=params.ttl,
        hop_count=0,
        created_at=t,
    )


def decide_relay(entity: SimulatedEntity, msg: DisseminationMessage,
                 sender_x: float, sender_y: float,
                 params: DisseminationParams, side: float,
                 report: StepReport,
                 monitor: InvariantMonitor) -> Optional[DisseminationMessage]:
    """Process one delivered message copy; return the relay copy or None.

    Filter order is fixed: duplicate cache, ttl, geofence, forwarding
    ring, relay budget, gossip coin. The cache records the id on every
    delivery, including ones dropped later in the chain, so at most one
    coin is ever tossed per (entity, message) while the id stays cached.
    Exactly one draw is consumed if and only if the coin stage is reached.
    """
    report.delivered += 1
    monitor.note_delivery(msg.hop_count)
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
    if not entity.stream.bernoulli(params.gossip_probability):
        report.gossip_declined += 1
        return None
    entity.relay_budget -= 1
    report.relayed += 1
    monitor.note_relay(ring_distance, origin_distance,
                       params.max_relays_per_step - entity.relay_budget)
    return msg._replace(ttl_remaining=msg.ttl_remaining - 1,
                        hop_count=msg.hop_count + 1)


class EntityRecord(NamedTuple):
    """Serialized entity state for level hand-off and restore.

    Rebuilding from a record is bit-exact: the stream is reconstructed
    from (master seed, entity id) and fast-forwarded to the cursor, the
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


def entity_to_record(e: SimulatedEntity) -> EntityRecord:
    target = None if e.target_x is None else (e.target_x, e.target_y)
    return EntityRecord(e.entity_id, e.kind, e.x, e.y, target, e.speed,
                        e.cache.ids(), e.stream.cursor)


def record_to_entity(rec: EntityRecord, master_seed: int,
                     params: DisseminationParams) -> SimulatedEntity:
    stream = entity_stream(master_seed, rec.entity_id, cursor=rec.cursor)
    cache = LruSet(params.cache_capacity, rec.cache_ids)
    e = SimulatedEntity(rec.entity_id, rec.kind == "mobile", rec.x, rec.y,
                        stream, cache)
    if rec.target is not None:
        e.target_x, e.target_y = rec.target
    e.speed = rec.speed
    return e


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
