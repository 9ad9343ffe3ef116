"""Market-square ad hoc network: seller grid plus injected pedestrians.

A 10x10 grid of fixed seller nodes spaced so only lateral neighbors are
in radio range. Pedestrians enter on the square's boundary, flood a
route request to find their target seller, receive the seller's
position over the discovered route, then walk straight to it. Routing
is on-demand: a request floods hop by hop with duplicate suppression
and the reply unicasts back along the reverse path; nodes keep no route
tables, so every query floods afresh. Store-and-forward timing: each
routed hop consumes one fine step, so a reply over an h-hop route lands
2h fine steps after the query left. The scene keeps one neighbour
table per scene state, built from its radio adjacency matrix at the
first discovery after a node is added or moves, and every discovery
until the next such change floods over it; MarketScene.neighbors is the
per-node reference definition of that adjacency. Positions here are
planar (no torus inside the market).

Pedestrian randomness (entry point, target seller) comes from the
entity streams carried in from the coarse level: two draws per injected
pedestrian, nothing else in the scene is random.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .rng import Stream

QUERYING = "QUERYING"
WALKING = "WALKING"
ARRIVED = "ARRIVED"

_RETRY_CAP_FINE_STEPS = 16


@dataclass(frozen=True)
class MarketParams:
    """Scene and routing settings: each float finite and > 0, each
    integer >= 1."""

    grid_side: int = 10
    spacing: float = 25.0
    radio_range: float = 30.0
    walking_speed: float = 1.4  # distance units per fine step
    hop_limit: int = 32

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            is_float = f.type == "float"
            if not (0 < value < math.inf and (is_float or value >= 1)):
                accepted = "finite number > 0" if is_float else "integer >= 1"
                raise ValueError(f"{f.name} = {value!r} out of range;"
                                 f" accepted: {accepted}")


class RouteOutcome(NamedTuple):
    hops: Optional[int]  # None when unreachable
    path: tuple  # node ids src..dst, empty when unreachable
    request_transmissions: int


class MarketScene:
    """Seller grid and live pedestrian nodes.

    node_pos changes only through set_node, which drops the cached
    neighbour table when it adds a node or moves one; setting a node to
    the position it already has keeps the table.
    """

    def __init__(self, params: MarketParams = MarketParams()):
        self.params = params
        g = params.grid_side
        self.num_sellers = g * g
        # seller s sits at (col * spacing, row * spacing)
        self.node_pos = {s: (float(s % g) * params.spacing,
                             float(s // g) * params.spacing)
                         for s in range(self.num_sellers)}
        self._table = None  # node id -> neighbour ids; None when stale

    @property
    def extent(self) -> float:
        return (self.params.grid_side - 1) * self.params.spacing

    def seller_position(self, seller: int):
        if not 0 <= seller < self.num_sellers:
            raise ValueError(f"no seller {seller}")
        return self.node_pos[seller]

    def set_node(self, node_id: int, pos) -> None:
        pos = (float(pos[0]), float(pos[1]))
        if self.node_pos.get(node_id) != pos:
            self._table = None
        self.node_pos[node_id] = pos

    def neighbors(self, node_id: int):
        """Nodes within radio range, ascending id: the reference adjacency."""
        x, y = self.node_pos[node_id]
        r2 = self.params.radio_range ** 2
        out = []
        for other in sorted(self.node_pos):
            if other == node_id:
                continue
            ox, oy = self.node_pos[other]
            if (ox - x) ** 2 + (oy - y) ** 2 <= r2:
                out.append(other)
        return out

    def adjacency(self):
        """Every node's neighbours at once: (ids, boolean matrix).

        ids ascend; row i of the matrix marks the neighbours of ids[i]
        by the same in-range test as neighbors, so each row read in
        column order is neighbors(ids[i]).
        """
        ids = sorted(self.node_pos)
        xy = np.array([self.node_pos[node] for node in ids])
        dx = xy[:, 0, None] - xy[None, :, 0]
        dy = xy[:, 1, None] - xy[None, :, 1]
        adjacent = dx ** 2 + dy ** 2 <= self.params.radio_range ** 2
        np.fill_diagonal(adjacent, False)
        return ids, adjacent

    def neighbor_table(self) -> dict:
        """node id -> neighbors(node id), from one adjacency() per state."""
        if self._table is None:
            ids, adjacent = self.adjacency()
            rows, cols = np.nonzero(adjacent)  # row-major: columns ascend
            nbs = np.array(ids)[cols].tolist()
            bounds = np.searchsorted(rows, np.arange(len(ids) + 1)).tolist()
            self._table = {node: nbs[bounds[i]:bounds[i + 1]]
                           for i, node in enumerate(ids)}
        return self._table


def route_discover(scene: MarketScene, src: int, dst: int) -> RouteOutcome:
    """Flood a route request from src; the path to dst if reached.

    Breadth-first over radio adjacency with duplicate suppression and
    the scene hop limit, over the scene's neighbour table, which lists
    neighbours in ascending id as neighbors does, so the flood order is
    that of a per-node scan. Discoveries between two scene changes share
    one table. Every reached node except dst rebroadcasts the request
    exactly once (that is the request transmission count). When dst is
    reached, the path is read back over the discovered parents, the way
    the reply unicasts back to src.
    """
    if src == dst:
        raise ValueError("route_discover requires src != dst")
    if src not in scene.node_pos or dst not in scene.node_pos:
        raise ValueError("src and dst must be nodes in the scene")
    table = scene.neighbor_table()
    parent = {src: None}
    depth = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        if depth[node] >= scene.params.hop_limit:
            continue
        for nb in table[node]:
            if nb not in parent:
                parent[nb] = node
                depth[nb] = depth[node] + 1
                frontier.append(nb)
    transmissions = len(parent) - (1 if dst in parent else 0)
    if dst not in parent:
        return RouteOutcome(None, (), transmissions)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()  # src .. dst
    return RouteOutcome(len(path) - 1, tuple(path), transmissions)


class PedestrianNode:
    """One market visitor carried down from the coarse level."""

    __slots__ = ("entity_id", "node_id", "x", "y", "entry_x", "entry_y",
                 "target_seller", "known_target", "state",
                 "reply_due", "route_hops", "retries", "retry_wait")

    def __init__(self, entity_id: int, node_id: int, x: float, y: float,
                 target_seller: int):
        self.entity_id = entity_id
        self.node_id = node_id
        self.x = x
        self.y = y
        self.entry_x = x
        self.entry_y = y
        self.target_seller = target_seller
        self.known_target = None
        self.state = QUERYING
        self.reply_due = None  # fine step when the position reply arrives
        self.route_hops = None
        self.retries = 0
        self.retry_wait = 0


def perimeter_point(extent: float, u: float):
    """Map u in [0,1) onto the boundary of the [0, extent]^2 square."""
    total = 4.0 * extent
    d = (u % 1.0) * total
    if d < extent:
        return (d, 0.0)
    if d < 2.0 * extent:
        return (extent, d - extent)
    if d < 3.0 * extent:
        return (extent - (d - 2.0 * extent), extent)
    return (0.0, extent - (d - 3.0 * extent))


def pedestrian_step(ped: PedestrianNode, walking_speed: float) -> None:
    """One fine step of movement; only WALKING pedestrians move."""
    if ped.state != WALKING:
        return
    tx, ty = ped.known_target
    dx = tx - ped.x
    dy = ty - ped.y
    dist = math.hypot(dx, dy)
    if dist <= walking_speed:
        ped.x, ped.y = tx, ty
        ped.state = ARRIVED
        return
    f = walking_speed / dist
    ped.x += dx * f
    ped.y += dy * f


class MarketRun:
    """A market session: injection, querying, walking, result records.

    Entity records arrive at construction but pedestrians are injected
    lazily on the first fine step: their two draws (entry point, target
    seller) happen only if the simulation actually advances, so a
    session ended before any advancement returns every record bit-exact.
    """

    def __init__(self, scene: MarketScene, records, n_customers: int,
                 master_seed: int):
        if n_customers > len(records):
            raise ValueError("n_customers exceeds transferred entity count")
        self.scene = scene
        self.records = list(records)
        self.n_customers = n_customers
        self.master_seed = master_seed
        self.peds = []  # PedestrianNode, one per entering customer
        self.draws = {}  # entity_id -> Stream (live, carried cursor)
        self.injected = False
        self.fine_clock = 0
        self.messages = 0
        self.route_discoveries = 0

    def _inject(self) -> None:
        extent = self.scene.extent
        for i in range(self.n_customers):
            rec = self.records[i]
            stream = Stream(self.master_seed, rec.entity_id, rec.cursor)
            x, y = perimeter_point(extent, stream.uniform())
            target = stream.randrange(self.scene.num_sellers)
            node_id = self.scene.num_sellers + i
            ped = PedestrianNode(rec.entity_id, node_id, x, y, target)
            self.scene.set_node(node_id, (x, y))
            self.peds.append(ped)
            self.draws[rec.entity_id] = stream
        self.injected = True

    def _start_query(self, ped: PedestrianNode) -> None:
        outcome = route_discover(self.scene, ped.node_id, ped.target_seller)
        self.route_discoveries += 1
        self.messages += outcome.request_transmissions
        if outcome.hops is None:
            ped.retries += 1
            ped.retry_wait = min(2 ** (ped.retries - 1), _RETRY_CAP_FINE_STEPS)
            return
        # request travels hops fine steps, the reply unicasts back
        self.messages += outcome.hops
        ped.route_hops = outcome.hops
        ped.reply_due = self.fine_clock + 2 * outcome.hops

    def fine_step(self) -> None:
        if not self.injected:
            self._inject()
        for ped in self.peds:
            if ped.state == QUERYING:
                if ped.reply_due is not None:
                    if self.fine_clock >= ped.reply_due:
                        # the position reply lands this fine step; walking
                        # begins on the next one
                        ped.known_target = self.scene.seller_position(
                            ped.target_seller)
                        ped.state = WALKING
                elif ped.retry_wait > 0:
                    ped.retry_wait -= 1
                else:
                    self._start_query(ped)
            elif ped.state == WALKING:
                pedestrian_step(ped, self.scene.params.walking_speed)
                self.scene.set_node(ped.node_id, (ped.x, ped.y))
        self.fine_clock += 1

    def advance(self, substeps: int) -> None:
        for _ in range(substeps):
            self.fine_step()

    def status(self) -> dict:
        """Pedestrian state counts and traffic counters, draw-free."""
        if self.injected:
            querying = sum(p.state == QUERYING for p in self.peds)
            walking = sum(p.state == WALKING for p in self.peds)
            arrived = sum(p.state == ARRIVED for p in self.peds)
        else:
            querying, walking, arrived = self.n_customers, 0, 0
        return {
            "querying": querying,
            "walking": walking,
            "arrived": arrived,
            "msgs": self.messages,
            "routes": self.route_discoveries,
            "fine_steps": self.fine_clock,
        }

    def all_arrived(self) -> bool:
        return self.injected and all(p.state == ARRIVED for p in self.peds)

    def result_records(self) -> list:
        """Entity records going back up, with market displacement applied.

        A pedestrian's coarse-level position moves by exactly its market
        displacement (entry to final position); entities that never
        entered the market return untouched.
        """
        out = []
        by_entity = {p.entity_id: p for p in self.peds}
        for rec in self.records:
            ped = by_entity.get(rec.entity_id)
            if ped is None:
                out.append(rec)
                continue
            stream = self.draws[ped.entity_id]
            out.append(rec._replace(
                x=rec.x + (ped.x - ped.entry_x),
                y=rec.y + (ped.y - ped.entry_y),
                cursor=stream.cursor,
            ))
        return out

    def total_draws(self) -> int:
        return sum(self.draws[rec.entity_id].cursor - rec.cursor
                   for rec in self.records if rec.entity_id in self.draws)

