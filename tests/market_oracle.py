"""Reference market code: the test oracles for hybridsim.market.

flat_route_discover is the route discovery with one
MarketScene.neighbors scan per visited node and no shared table, so a
stale or wrongly built neighbour table in the scene cannot hide here.
tests/test_market.py and criterion c5 in tests/test_acceptance.py
compare route_discover and route_discover_all with it.

FineStepMarketRun is the market stepped one fine step at a time: every
fine step is a pass over the pedestrians in order, each walker takes
one step of its own, and each discovery is a flat_route_discover.
Injection draws through one rng.Stream per pedestrian. tests/test_market.py
compares MarketRun, which steps from event to event, with it.
"""

from __future__ import annotations

import math
from collections import deque

from hybridsim.market import (ARRIVED, QUERYING, WALKING, MarketRun,
                              PedestrianNode, RouteOutcome, perimeter_point)
from hybridsim.rng import Stream


def flat_route_discover(scene, src, dst):
    """The same flood and path read-back, one neighbors scan per node."""
    parent = {src: None}
    depth = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        if depth[node] >= scene.params.hop_limit:
            continue
        for nb in scene.neighbors(node):
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


def scalar_pedestrian_step(scene, ped) -> None:
    """One fine step of movement towards the target seller; only
    WALKING pedestrians move."""
    if ped.state != WALKING:
        return
    x, y = scene.node_pos[ped.node_id]
    tx, ty = scene.seller_position(ped.target_seller)
    dx = tx - x
    dy = ty - y
    dist = math.hypot(dx, dy)
    speed = scene.params.walking_speed
    if dist <= speed:
        scene.set_node(ped.node_id, (tx, ty))
        ped.state = ARRIVED
        return
    f = speed / dist
    scene.set_node(ped.node_id, (x + dx * f, y + dy * f))


class FineStepMarketRun(MarketRun):
    """MarketRun advanced by a pass over the pedestrians at every fine
    step; status, result records and draw totals are MarketRun's."""

    def _inject(self) -> None:
        extent = self.scene.extent
        for i in range(self.n_customers):
            rec = self.records[i]
            stream = Stream(self.master_seed, rec.entity_id, rec.cursor)
            x, y = perimeter_point(extent, stream.uniform())
            target = stream.randrange(self.scene.num_sellers)
            node_id = self.scene.num_sellers + i
            self.scene.set_node(node_id, (x, y))
            self.peds.append(PedestrianNode(rec.entity_id, node_id, x, y,
                                            target, stream.cursor))
        self.injected = True

    def _start_query(self, ped) -> None:
        outcome = flat_route_discover(self.scene, ped.node_id,
                                      ped.target_seller)
        self.route_discoveries += 1
        self.messages += outcome.request_transmissions
        if outcome.hops is None:
            ped.retries += 1
            ped.retry_wait = min(2 ** (ped.retries - 1), 16)
            return
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
                        ped.state = WALKING
                elif ped.retry_wait > 0:
                    ped.retry_wait -= 1
                else:
                    self._start_query(ped)
            elif ped.state == WALKING:
                scalar_pedestrian_step(self.scene, ped)
        self.fine_clock += 1

    def advance(self, substeps: int) -> None:
        for _ in range(substeps):
            self.fine_step()
