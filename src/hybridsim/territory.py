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
them: one decide_relay over every first copy of a message in its inbox,
one array rwp_step, one generate_message. Each entity still draws from
its own stream in that order, via a buffer that its own generator
refills. Each duplicate cache is a row of message ids and a row of
last-touch stamps; its recency order is the stamp order. Relays and
births come out as rows of one BROADCAST_COLUMNS table, never as
per-broadcast objects: a relay is its incoming copy's row with the
relaying entity as sender. BroadcastTable reads such a table's rows as
Broadcast objects for the few callers that sample them, the
benchmark's reach check and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import metrics, rng
from .metrics import InvariantMonitor, StepReport

DENSITY_AREA_PER_ENTITY = 10000.0  # one entity per this many square space units

RWP_SPEED_MIN = 1.0
RWP_SPEED_MAX = 14.0
SPEED_SPAN = RWP_SPEED_MAX - RWP_SPEED_MIN


def world_side(num_entities: int, area_per_entity: float = DENSITY_AREA_PER_ENTITY) -> float:
    """Side of the square torus holding num_entities at fixed density."""
    metrics.accepts(metrics.AtLeastOne).check("num_entities", num_entities)
    return math.sqrt(num_entities * area_per_entity)


@dataclass(frozen=True)
class DisseminationParams(metrics.TypedSettings):
    """Gossip tuning knobs; defaults are the reference configuration."""

    interaction_range: metrics.Positive = 250.0
    forwarding_threshold: metrics.NonNegative = 225.0
    gossip_probability: metrics.Probability = 0.2
    geofilter_distance: metrics.Positive = 1000.0
    generation_probability: metrics.Probability = 0.001
    ttl: metrics.Count = 6
    cache_capacity: metrics.AtLeastOne = 128
    max_relays_per_step: metrics.Count = 10

    def __post_init__(self):
        super().__post_init__()
        if not self.forwarding_threshold < self.interaction_range:
            raise ValueError(
                "forwarding_threshold must lie below interaction_range")


def _torus_dist(ax: float, ay: float, bx: float, by: float, side: float) -> float:
    dx, dy = abs(ax - bx) % side, abs(ay - by) % side
    return math.hypot(side - dx if dx > side * 0.5 else dx,
                      side - dy if dy > side * 0.5 else dy)


def toroidal_distance(a, b, side: float) -> float:
    """Shortest distance between points a and b on the side x side torus."""
    metrics.accepts(metrics.Positive).check("side", side)
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


class BroadcastTable:
    """One step's broadcasts, a BROADCAST_COLUMNS array, read row by row.

    The array is the only form broadcasts take from an LP to the router;
    this view reads its rows as Broadcast objects, one by index or a
    slice as another view, for code that samples broadcasts: the
    benchmark's reach check (perfbench/checks.py) and the tests.
    """

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BroadcastTable(self.table[i])
        s, x, y, *m = self.table[i].tolist()
        return Broadcast(s, x, y, DisseminationMessage(*m))


def broadcast_table(broadcasts) -> BroadcastTable:
    """Broadcasts as a table, a row per broadcast; every field
    round-trips exactly."""
    return BroadcastTable(np.array([(s, x, y, *m) for s, x, y, m in
                                    broadcasts], dtype=BROADCAST_COLUMNS))


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
            "cache_len": int, "cache_ids": np.int64, "cache_stamps": np.int64,
            "draws": float}


class EntityColumns:
    """One LP's entities as columns, a row per entity in ascending id order.

    Waypoints (tx, ty) are NaN while there are none. Row k of ``draws``
    holds draws [c - c % block, c - c % block + block) of the stream keyed
    by (master_seed, ids[k]), c = cursor[k] the draws consumed; the row
    is refilled, by one generator set to each key in turn, when its last
    value is read, so each block of a stream is loaded once.

    Row k's duplicate cache is the cache_len[k] message ids (>= 0) in
    cache_ids[k] whose last-touch stamps in cache_stamps[k] are nonzero;
    empty slots hold id -1 and stamp 0. Stamps come from one per-LP
    counter, so a row's recency order is its stamp order. The matrices
    widen on demand, by about a quarter at a time, up to capacity; a
    cache never shrinks, so its length is also its high water.
    """

    def __init__(self, master_seed: int, capacity: int):
        self.master_seed, self.capacity = master_seed, capacity
        self.block = block = DRAW_BLOCK
        self.clock = 1  # the next stamp
        self._gen = rng.generator()
        for name, dtype in _COLUMNS.items():
            width = {"draws": (block,), "cache_ids": (1,),
                     "cache_stamps": (1,)}.get(name, ())
            setattr(self, name, np.empty((0, *width), dtype=dtype))

    def _fill(self, eid: int, start: int, row) -> None:
        """Load row with draws [start, start + block) of eid's stream."""
        rng.seek(self._gen, [self.master_seed, eid], start).random(out=row)

    def draw(self, rows, n: int = 1) -> np.ndarray:
        """The next n draws of each entity in rows (distinct row indices),
        as an (n, len(rows)) array; a row is refilled each time it runs out,
        within the n draws or at their end. The buffered values are read
        with one take from the flat buffer; a single draw needs no clip,
        since the value it reads is its block's last one at most."""
        b, c = self.block, self.cursor[rows]
        p = c % b
        at = p if n == 1 else np.minimum(p + np.arange(n)[:, None],
                                         b - 1)  # rewritten below
        v = self.draws.take(rows * b + at).reshape(n, len(rows))
        self.cursor[rows] = c + n
        due = (p >= b - n).nonzero()[0]  # the columns whose block runs out
        if len(due):
            for i, k, eid, j in zip(due.tolist(), rows[due].tolist(),
                                    self.ids[rows[due]].tolist(),
                                    (b - p[due]).tolist()):
                for j in range(j, n + 1, b):  # draw j of the n opens a block
                    self._fill(eid, c.item(i) + j, self.draws[k])
                    if j < n:
                        v[j:j + b, i] = self.draws[k, :n - j]
        return v

    def _grow(self, width: int) -> None:
        """Widen the cache matrices to width, if narrower, with empty
        slots."""
        if width <= self.cache_ids.shape[1]:
            return
        pad = ((0, 0), (0, width - self.cache_ids.shape[1]))
        self.cache_ids = np.pad(self.cache_ids, pad, constant_values=-1)
        self.cache_stamps = np.pad(self.cache_stamps, pad)

    def touch(self, rows, ids) -> np.ndarray:
        """Cache ids[i] as the most recent id of row rows[i] (distinct
        rows); True where it was cached already. An id not cached takes
        an empty slot, or in a full cache the least recent one's."""
        found = self.cache_ids[rows] == ids[:, None]
        hit = found.any(axis=1)
        slot = found.argmax(axis=1)
        new = rows[~hit]
        if len(new):
            width = self.cache_ids.shape[1]
            if width < self.capacity and (self.cache_len[new] == width).any():
                self._grow(min(self.capacity, width + 1 + width // 4))
            slot[~hit] = self.cache_stamps[new].argmin(axis=1)
            self.cache_len[new] = np.minimum(self.cache_len[new] + 1,
                                             self.capacity)
        self.cache_ids[rows, slot] = ids
        self.cache_stamps[rows, slot] = self.clock
        self.clock += 1
        return hit

    def records(self, rows) -> list:
        """EntityRecord of the entity in each row, in the given order."""
        cols = [getattr(self, name)[rows].tolist() for name in
                ("ids", "mobile", "x", "y", "tx", "ty", "speed", "cursor",
                 "cache_len")]
        by_age = np.argsort(self.cache_stamps[rows], axis=1)
        cached = np.take_along_axis(self.cache_ids[rows], by_age,
                                    axis=1).tolist()
        return [EntityRecord(eid, "mobile" if mobile else "static", x, y,
                             None if math.isnan(tx) else (tx, ty), speed,
                             tuple(ids[len(ids) - n:]), cursor)
                for ids, eid, mobile, x, y, tx, ty, speed, cursor, n
                in zip(cached, *cols)]

    def add(self, records) -> None:
        """Take in the entities the records describe, keeping id order.
        Columns are built before any changes, so an add that raises leaves
        them as they were; each stream restarts at its cursor's block, and
        each cache is stamped afresh in the order its record lists."""
        if not records:
            return
        ids, kinds, xs, ys, targets, speeds, cached, cursors = zip(*records)
        tx, ty = zip(*(t or (math.nan, math.nan) for t in targets))
        # a repeated id keeps its first place; a cache keeps its newest ids
        cached = [c and tuple(dict.fromkeys(c))[-self.capacity:]
                  for c in cached]
        lens = np.array([len(c) for c in cached], dtype=int)
        width = max(self.cache_ids.shape[1], lens.max())
        cache_ids = np.full((len(ids), width), -1, dtype=np.int64)
        cache_stamps = np.zeros((len(ids), width), dtype=np.int64)
        for i in np.flatnonzero(lens).tolist():
            cache_ids[i, :lens[i]] = cached[i]
            cache_stamps[i, :lens[i]] = np.arange(self.clock,
                                                  self.clock + lens[i])
        new = dict(ids=ids, x=xs, y=ys, tx=tx, ty=ty, speed=speeds,
                   mobile=[k == "mobile" for k in kinds],
                   budget=[0] * len(ids), cursor=cursors, cache_len=lens,
                   cache_ids=cache_ids, cache_stamps=cache_stamps)
        new = {name: np.asarray(col, dtype=_COLUMNS[name])
               for name, col in new.items()}
        order = np.argsort(new["ids"], kind="stable")
        at = np.empty(len(ids), dtype=int)  # record i's row once merged
        at[order] = (np.searchsorted(self.ids, new["ids"][order],
                                     side="right") + np.arange(len(ids)))
        stay = np.ones(len(self.ids) + len(ids), dtype=bool)
        stay[at] = False
        stay = np.flatnonzero(stay)  # the old rows' rows, in order
        draws = np.empty((len(stay) + len(at), self.block))
        draws[stay] = self.draws
        for eid, c, k in zip(ids, cursors, at.tolist()):
            self._fill(eid, c - c % self.block, draws[k])
        self.clock += int(lens.max())
        self._grow(width)
        for name, col in new.items():  # one scatter per column
            merged = np.empty((len(draws), *col.shape[1:]), dtype=col.dtype)
            merged[stay], merged[at] = getattr(self, name), col
            setattr(self, name, merged)
        self.draws = draws

    def remove(self, rows) -> None:
        """Drop the entities in rows: one gather of the rest per column."""
        keep = np.ones(len(self.ids), dtype=bool)
        keep[rows] = False
        keep = np.flatnonzero(keep)
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name).take(keep, axis=0))


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
    cols.x, cols.y = cols.draw(np.arange(len(cols.ids)), 2) * side
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
        if len(fresh):  # one draw call for the wave's fresh waypoints
            tx, ty, speed = cols.draw(fresh, 3)
            cols.tx[fresh], cols.ty[fresh] = tx * side, ty * side
            cols.speed[fresh] = RWP_SPEED_MIN + SPEED_SPAN * speed
        if left is None:  # a step covers its first leg's speed
            left = cols.speed[rows]
        # shortest displacement on the torus, axis by axis
        dx = _shortest(cols.tx[rows] - cols.x[rows], side)
        dy = _shortest(cols.ty[rows] - cols.y[rows], side)
        dist = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()),
                           dtype=np.float64, count=len(rows))
        go = dist > left
        f = left[go] / dist[go]
        moving = rows[go]
        for pos, dp in ((cols.x, dx), (cols.y, dy)):
            v = np.remainder(pos[moving] + dp[go] * f, side)  # as % does
            v[v >= side] = 0.0  # % can round up to side itself
            pos[moving] = v
        # the rest reach their waypoint and walk on toward a fresh one
        rows, left = rows[~go], (left - dist)[~go]
        cols.x[rows], cols.y[rows] = cols.tx[rows], cols.ty[rows]
        cols.tx[rows] = cols.ty[rows] = np.nan
        rows, left = rows[left > 0.0], left[left > 0.0]


def _shortest(d: np.ndarray, side: float) -> np.ndarray:
    """Coordinate differences d, each in (-side, side), as the shortest
    displacement along their torus axis."""
    return np.where(d > side * 0.5, d - side,
                    np.where(d < -side * 0.5, d + side, d))


def generate_message(cols: EntityColumns, t: int,
                     params: DisseminationParams) -> np.ndarray:
    """Bernoulli message generation by every entity at its position.

    Costs exactly one draw per entity per timestep whether or not a
    message appears. An origin immediately caches its own id so it never
    relays its own message back. Returns the broadcasts as
    BROADCAST_COLUMNS rows, in id order.
    """
    [coin] = cols.draw(np.arange(len(cols.ids)))
    born = np.flatnonzero(coin < params.generation_probability)
    out = np.empty(len(born), dtype=BROADCAST_COLUMNS)
    out["sender"] = out["origin_entity"] = cols.ids[born]
    out["sender_x"] = out["origin_x"] = cols.x[born]
    out["sender_y"] = out["origin_y"] = cols.y[born]
    out["message_id"] = make_message_id(cols.ids[born], t)
    out["ttl_remaining"], out["hop_count"], out["created_at"] = \
        params.ttl, 0, t
    cols.touch(born, out["message_id"])
    return out


def _torus_dists(ax, ay, bx, by, side: float) -> np.ndarray:
    """_torus_dist over arrays; math.hypot keeps its rounding."""
    d = np.abs(np.stack([ax - bx, ay - by])) % side
    d = np.where(d > side * 0.5, side - d, d)
    return np.fromiter(map(math.hypot, *d.tolist()), dtype=np.float64,
                       count=d.shape[1])


def _rounds(rows: np.ndarray) -> list:
    """Indices into non-decreasing rows, split into rounds by rank within
    a row: round r holds each row's r-th index, so no row is in a round
    twice, and a row's indices come in order across rounds. Where no row
    repeats, the one round is every index, with no sort."""
    if not len(rows):
        return []
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    if first.all():
        return [np.arange(len(rows))]
    rank = np.arange(len(rows)) - np.flatnonzero(first)[np.cumsum(first) - 1]
    by_rank = np.argsort(rank, kind="stable")
    return np.split(by_rank, np.cumsum(np.bincount(rank))[:-1])


def decide_relay(cols: EntityColumns, rows: np.ndarray, copies: np.ndarray,
                 params: DisseminationParams, side: float,
                 report: StepReport, monitor: InvariantMonitor) -> np.ndarray:
    """Decide every first copy of a message delivered this step; return
    the relays as BROADCAST_COLUMNS rows, in copy order.

    Copy i (a BROADCAST_COLUMNS row) went to the entity in row rows[i];
    rows is non-decreasing, and an entity's copies carry distinct message
    ids in the order it decides them. Filter order is fixed: duplicate
    cache, ttl, geofence, forwarding ring, relay budget, gossip coin.
    Every copy touches the cache, even one dropped later in the chain, so
    at most one coin is ever tossed per (entity, message) while the id
    stays cached. Exactly one draw is consumed if and only if the coin
    stage is reached. The cache, budget and coin, which depend on an
    entity's earlier copies, run in rounds of one copy per entity; ttl,
    geofence and ring are masks over all copies at once. A relay is its
    copy's row sent on by the entity from where it stands, before it
    moves: one more hop, one less to live, origin and creation kept.
    """
    report.delivered += len(rows)
    monitor.note(max_delivered_hop=int(copies["hop_count"].max(initial=0)))
    hit = np.empty(len(rows), dtype=bool)
    for i in _rounds(rows):
        hit[i] = cols.touch(rows[i], copies["message_id"][i])
    c = np.flatnonzero(~hit)  # the copies still in the chain
    report.cache_filtered += len(rows) - len(c)
    keep = copies["ttl_remaining"][c] > 0
    report.ttl_filtered += len(c) - int(np.count_nonzero(keep))
    c = c[keep]
    x, y = cols.x[rows[c]], cols.y[rows[c]]
    origin = _torus_dists(x, y, copies["origin_x"][c], copies["origin_y"][c],
                          side)
    keep = ~(origin > params.geofilter_distance)
    report.geofiltered += len(c) - int(np.count_nonzero(keep))
    c, x, y, origin = c[keep], x[keep], y[keep], origin[keep]
    ring = _torus_dists(x, y, copies["sender_x"][c], copies["sender_y"][c],
                        side)
    keep = ~(ring <= params.forwarding_threshold)
    report.ring_filtered += len(c) - int(np.count_nonzero(keep))
    c, origin, ring = c[keep], origin[keep], ring[keep]

    relayed = np.zeros(len(c), dtype=bool)
    used = np.zeros(len(c), dtype=int)  # which relay of its entity's step
    tossed = 0
    for i in _rounds(rows[c]):
        k = rows[c[i]]
        left = cols.budget[k] > 0
        i, k = i[left], k[left]
        tossed += len(k)
        coin = cols.draw(k)[0] < params.gossip_probability
        i, k = i[coin], k[coin]
        cols.budget[k] -= 1
        relayed[i] = True
        used[i] = params.max_relays_per_step - cols.budget[k]
    c, origin, ring, used = c[relayed], origin[relayed], ring[relayed], \
        used[relayed]
    report.budget_filtered += len(relayed) - tossed
    report.gossip_declined += tossed - len(c)
    report.relayed += len(c)
    if len(c):  # the monitor keeps only extremes
        monitor.note(relay_ring_min=float(ring.min()),
                     relay_ring_max=float(ring.max()),
                     relay_origin_max=float(origin.max()),
                     max_relays_entity_step=int(used.max()))
    k = rows[c]
    out = copies.take(c)  # a structured take copies rows, not fields
    out["sender"], out["sender_x"], out["sender_y"] = \
        cols.ids[k], cols.x[k], cols.y[k]
    out["ttl_remaining"] -= 1
    out["hop_count"] += 1
    return out


class World:
    """The in-process router's table of every entity's position, frozen
    ones included, which InProcessBackend.route fills for one step."""

    def __init__(self, side: float, num_entities: int):
        self.side = side
        self.num_entities = num_entities
        self.pos_x = np.zeros(num_entities)
        self.pos_y = np.zeros(num_entities)

    def update(self, ids, xs, ys) -> None:
        self.pos_x[ids] = xs
        self.pos_y[ids] = ys


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
class TerritorySpec(metrics.TypedSettings):
    """Picklable description of a territory: entity count and gossip
    parameters. A LogicalProcess builds its entities from it in any
    process."""

    num_entities: metrics.AtLeastOne
    params: DisseminationParams = DisseminationParams()

    @property
    def side(self) -> float:
        return world_side(self.num_entities)
