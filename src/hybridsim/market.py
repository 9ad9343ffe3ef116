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
per-node reference definition of that adjacency. The first fine step's
discoveries, one per pedestrian before anyone moves, are one flood from
every source at once (route_discover_all). Positions here are planar
(no torus inside the market).

A run advances from event to event. Only a fine step in which some
pedestrian starts a discovery is a pass over the pedestrians in order
(MarketRun.fine_step); between two such steps the pedestrians do not
interact, so each one's replies, waits and walk advance on their own.

Pedestrian randomness (entry point, target seller) comes from the
entity streams carried in from the coarse level: two draws per injected
pedestrian, nothing else in the scene is random.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import metrics, rng

QUERYING = "QUERYING"
WALKING = "WALKING"
ARRIVED = "ARRIVED"

_RETRY_CAP_FINE_STEPS = 16


@dataclass(frozen=True)
class MarketParams(metrics.TypedSettings):
    """Scene and routing settings."""

    grid_side: metrics.AtLeastOne = 10
    spacing: metrics.Positive = 25.0
    radio_range: metrics.Positive = 30.0
    walking_speed: metrics.Positive = 1.4  # distance units per fine step
    hop_limit: metrics.AtLeastOne = 32


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


def route_discover_all(scene: MarketScene, sources, targets) -> list:
    """(hops, request_transmissions) of route_discover(scene, s, t) for
    each source s and target t, from one flood out of every source at
    once.

    The flood is level-synchronous over one adjacency(): level k holds
    the nodes first reached at k hops, for k up to the hop limit, so
    each source reaches the nodes its own discovery reaches, and the
    level where its target first appears is its route's hop count (None
    when it never does).
    """
    if not len(sources):
        return []
    ids, adjacent = scene.adjacency()
    if any(s == t or s not in scene.node_pos or t not in scene.node_pos
           for s, t in zip(sources, targets)):
        raise ValueError("each source and target must be distinct nodes")
    src, dst = np.searchsorted(ids, sources), np.searchsorted(ids, targets)
    pairs = np.arange(len(src))
    reached = np.zeros((len(src), len(ids)), dtype=bool)
    reached[pairs, src] = True
    frontier, hops = reached, np.zeros(len(src), dtype=int)
    link = adjacent.astype(np.float32)  # a sum of 0/1 products is exact
    for level in range(1, scene.params.hop_limit + 1):
        frontier = (frontier @ link > 0) & ~reached
        if not frontier.any():
            break
        reached |= frontier
        hops[frontier[pairs, dst]] = level
    found = hops > 0
    return [(h if f else None, n - f) for h, n, f in
            zip(hops.tolist(), reached.sum(axis=1).tolist(), found.tolist())]


class PedestrianNode:
    """One market visitor carried down from the coarse level.

    Its position is the scene's node_pos[node_id]; the node keeps where
    it entered and its entity's stream cursor after the entry draws.
    """

    __slots__ = ("entity_id", "node_id", "entry_x", "entry_y",
                 "target_seller", "cursor", "state",
                 "reply_due", "route_hops", "retries", "retry_wait")

    def __init__(self, entity_id: int, node_id: int, entry_x: float,
                 entry_y: float, target_seller: int, cursor: int):
        self.entity_id = entity_id
        self.node_id = node_id
        self.entry_x = entry_x
        self.entry_y = entry_y
        self.target_seller = target_seller
        self.cursor = cursor
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


def pedestrian_step(scene: MarketScene, ped: PedestrianNode,
                    steps: int = 1) -> None:
    """Up to steps fine steps of movement towards the target seller,
    then one scene.set_node; only WALKING pedestrians move, and one that
    arrives stops there."""
    if ped.state != WALKING or steps < 1:
        return
    x, y = scene.node_pos[ped.node_id]
    tx, ty = scene.seller_position(ped.target_seller)
    speed = scene.params.walking_speed
    for _ in range(steps):
        dx = tx - x
        dy = ty - y
        dist = math.hypot(dx, dy)
        if dist <= speed:
            x, y = tx, ty
            ped.state = ARRIVED
            break
        f = speed / dist
        x, y = x + dx * f, y + dy * f
    scene.set_node(ped.node_id, (x, y))


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
        self.peds = []  # PedestrianNode of records[i], one per customer
        self.injected = False
        self.fine_clock = 0
        self.messages = 0
        self.route_discoveries = 0

    def _inject(self) -> None:
        """Place each customer on the perimeter, heading for a seller:
        draws cursor and cursor + 1 of its entity's stream."""
        extent = self.scene.extent
        gen = rng.generator()
        for i, rec in enumerate(self.records[:self.n_customers]):
            u, v = rng.seek(gen, [self.master_seed, rec.entity_id],
                            rec.cursor).random(2).tolist()
            x, y = perimeter_point(extent, u)
            node_id = self.scene.num_sellers + i
            self.scene.set_node(node_id, (x, y))
            self.peds.append(PedestrianNode(
                rec.entity_id, node_id, x, y,
                rng.randrange(v, self.scene.num_sellers), rec.cursor + 2))
        self.injected = True

    def _answer(self, ped: PedestrianNode, hops: Optional[int],
                transmissions: int) -> None:
        """Book one discovery by ped: a route of hops, or a retry wait."""
        self.route_discoveries += 1
        self.messages += transmissions
        if hops is None:
            ped.retries += 1
            ped.retry_wait = min(2 ** (ped.retries - 1), _RETRY_CAP_FINE_STEPS)
            return
        # request travels hops fine steps, the reply unicasts back
        self.messages += hops
        ped.route_hops = hops
        ped.reply_due = self.fine_clock + 2 * hops

    def fine_step(self) -> None:
        """One fine step, pedestrian by pedestrian in order, so a
        discovery sees the moves of the walkers listed before it.

        The first fine step injects, and then every pedestrian queries
        before anyone moves, so its discoveries are one route_discover_all.
        """
        if not self.injected:
            self._inject()
            outcomes = route_discover_all(
                self.scene, [p.node_id for p in self.peds],
                [p.target_seller for p in self.peds])
            for ped, outcome in zip(self.peds, outcomes):
                self._answer(ped, *outcome)
        else:
            for ped in self.peds:
                if ped.state == QUERYING:
                    if ped.reply_due is not None:
                        if self.fine_clock >= ped.reply_due:
                            # the position reply lands this fine step;
                            # walking begins on the next one
                            ped.state = WALKING
                    elif ped.retry_wait > 0:
                        ped.retry_wait -= 1
                    else:
                        out = route_discover(self.scene, ped.node_id,
                                             ped.target_seller)
                        self._answer(ped, out.hops,
                                     out.request_transmissions)
                elif ped.state == WALKING:
                    pedestrian_step(self.scene, ped)
        self.fine_clock += 1

    def _free_run(self, stop: int) -> None:
        """Fine steps up to stop, none of which starts a discovery, so
        each pedestrian advances on its own: waits count down, a reply
        lands at max(clock, reply_due) and walking starts the step after,
        and each walker walks its steps in one pedestrian_step."""
        clock = self.fine_clock
        for ped in self.peds:
            if ped.state == QUERYING:
                if ped.reply_due is None:
                    ped.retry_wait -= stop - clock
                elif max(clock, ped.reply_due) < stop:
                    ped.state = WALKING
                    pedestrian_step(self.scene, ped,
                                    stop - max(clock, ped.reply_due) - 1)
            elif ped.state == WALKING:
                pedestrian_step(self.scene, ped, stop - clock)
        self.fine_clock = stop

    def advance(self, substeps: int) -> None:
        """substeps fine steps, event to event: fine_step at each step
        where a discovery starts, one _free_run over each span between."""
        end = self.fine_clock + substeps
        while self.fine_clock < end:
            # the next fine step at which some pedestrian starts a discovery
            due = self.fine_clock if not self.injected else min(
                (self.fine_clock + ped.retry_wait for ped in self.peds
                 if ped.state == QUERYING and ped.reply_due is None),
                default=end)
            if due == self.fine_clock:
                self.fine_step()
            else:
                self._free_run(min(due, end))

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

    def result_records(self) -> list:
        """Entity records going back up, with market displacement applied.

        A pedestrian's coarse-level position moves by exactly its market
        displacement (entry to final position); entities that never
        entered the market return untouched.
        """
        out = list(self.records)
        for i, (rec, ped) in enumerate(zip(self.records, self.peds)):
            x, y = self.scene.node_pos[ped.node_id]
            out[i] = rec._replace(x=rec.x + (x - ped.entry_x),
                                  y=rec.y + (y - ped.entry_y),
                                  cursor=ped.cursor)
        return out

    def total_draws(self) -> int:
        return sum(ped.cursor - rec.cursor
                   for ped, rec in zip(self.peds, self.records))

