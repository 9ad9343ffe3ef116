"""The reference route discovery: the test oracle for market.route_discover.

The same flood with duplicate suppression and hop limit, one
MarketScene.neighbors scan per visited node and no shared table, so a
stale or wrongly built neighbour table in the scene cannot hide here.
tests/test_market.py and criterion c5 in tests/test_acceptance.py
compare route_discover with it.
"""

from __future__ import annotations

from collections import deque

from hybridsim.market import RouteOutcome


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
