"""Cell-grid router against the flat per-broadcast reach scan."""

import math
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from hybridsim.config import make_params
from hybridsim.engine import (
    EngineConfig,
    InProcessBackend,
    InterLpEnvelope,
    grid_cells,
    owner_array,
    partition_entities,
    route_broadcasts,
)
from hybridsim.territory import (
    Broadcast,
    DisseminationMessage,
    DisseminationParams,
    TerritorySpec,
    World,
    broadcast_reach,
    build_entity,
    make_message_id,
    world_side,
)

RANGE = 250.0


def _flat_route(world, broadcasts, interaction_range, t, frozen, owner_of):
    """The router's contract as a loop over broadcast_reach."""
    inboxes = {}
    routed = drops = 0
    for b in broadcasts:
        receivers = broadcast_reach(world, (b.sender_x, b.sender_y),
                                    interaction_range, exclude=b.sender)
        routed += len(receivers)
        for r in receivers.tolist():
            if r in frozen:
                drops += 1
                continue
            inboxes.setdefault(int(owner_of[r]), []).append(
                InterLpEnvelope(t, r, b.sender, b.sender_x, b.sender_y,
                                b.message))
    for envs in inboxes.values():  # stable: ties keep broadcast order
        envs.sort(key=lambda e: (e.dest, e.message.message_id, e.sender))
    return inboxes, routed, drops


def _assert_same(world, broadcasts, frozen, owner_of, reach=RANGE):
    got, routed, drops = route_broadcasts(world, broadcasts, reach, 7,
                                          frozen, owner_of)
    want, want_routed, want_drops = _flat_route(world, broadcasts, reach, 7,
                                                frozen, owner_of)
    assert (routed, drops) == (want_routed, want_drops)
    assert sorted(got) == sorted(want)  # the per-LP split
    for lp_id, envs in want.items():
        batch = got[lp_id]
        assert len(batch) == len(envs)
        assert list(batch) == envs  # receivers and canonical row order
        # what a worker receives: the table and columns, rebuilt exactly
        assert list(pickle.loads(pickle.dumps(batch))) == envs
    return got


@st.composite
def _scenes(draw):
    # side / range from 0.6 to 7.4: 1, 2 and 3..7 cells per axis, and a
    # side that is rarely a multiple of the cell size
    side = RANGE * draw(st.sampled_from([0.6, 1.0, 1.7, 2.0, 2.5, 3.0,
                                         3.2, 4.0, 5.3, 7.4]))
    # or a range far below side / sqrt(n), where the cell cap binds
    reach = draw(st.sampled_from([RANGE, RANGE, RANGE / 1000.0]))
    n = draw(st.integers(1, 40))
    cells = min(grid_cells(side, reach), max(1, math.isqrt(n)))
    cell = side / cells
    edges = [0.0, np.nextafter(side, 0.0)]
    for k in range(1, cells):
        edges += [k * cell, np.nextafter(k * cell, 0.0),
                  np.nextafter(k * cell, side), k * cell + reach]
    coord = st.one_of(st.floats(0.0, side, exclude_max=True),
                      st.sampled_from(edges))
    world = World(side, n)
    world.pos_x[:] = draw(st.lists(coord, min_size=n, max_size=n))
    world.pos_y[:] = draw(st.lists(coord, min_size=n, max_size=n))
    ids = st.integers(0, n - 1)
    # few distinct message ids, so one receiver gets the same id from
    # several senders and the (message id, sender) order matters
    msgs = st.builds(lambda o, c: DisseminationMessage(
        make_message_id(o, c), o, 1.5, 2.5, 3, 1, c),
        st.integers(0, 3), st.integers(0, 2))
    at_own = st.builds(lambda s, m: Broadcast(
        s, float(world.pos_x[s]), float(world.pos_y[s]), m), ids, msgs)
    anywhere = st.builds(Broadcast, ids, coord, coord, msgs)
    broadcasts = draw(st.lists(st.one_of(at_own, anywhere), max_size=12))
    frozen = dict.fromkeys(draw(st.sets(ids)), "handle")
    num_lps = draw(st.integers(1, min(4, n)))
    owner_of = owner_array(partition_entities(range(n), num_lps,
                                              draw(st.integers(0, 9))), n)
    return world, broadcasts, frozen, owner_of, reach


@settings(max_examples=400, deadline=None)
@given(_scenes())
def test_router_matches_flat_scan(scene):
    _assert_same(*scene)


def test_grid_cells_are_wider_than_the_range():
    for ratio, cells in ((0.6, 1), (1.0, 1), (2.0, 1), (2.5, 2), (3.0, 2),
                         (3.2, 3), (4.0, 3), (5.3, 5)):
        side = RANGE * ratio
        assert grid_cells(side, RANGE) == cells
        assert cells == 1 or side / cells > RANGE
    assert grid_cells(world_side(64), RANGE) == 3  # the golden world
    assert grid_cells(world_side(2000), RANGE) == 17


def test_golden_world_routes_like_the_flat_scan():
    n = 64
    side = world_side(n)
    params = DisseminationParams()
    world = World(side, n)
    cols = build_entity(range(n), 20, side, params)
    world.update(cols.ids, cols.x, cols.y)
    broadcasts = [Broadcast(i, float(world.pos_x[i]), float(world.pos_y[i]),
                            DisseminationMessage(make_message_id(i % 5, 3),
                                                 i % 5, 0.0, 0.0, 6, 0, 3))
                  for i in range(0, n, 3)]
    owner_of = owner_array(partition_entities(range(n), 3, 20), n)
    got = _assert_same(world, broadcasts, {5: "h", 9: "h"}, owner_of)
    assert sum(len(b) for b in got.values()) > 100


def test_tiny_range_at_4000_entities_routes_like_the_flat_scan():
    # uncapped, 0.01 on this torus asked np.bincount for 4.0e11 cells
    params = make_params("good", {"interaction_range": 0.01,
                                  "forwarding_threshold": 0.0})
    n = 4000
    spec = TerritorySpec(n, params)
    backend = InProcessBackend(EngineConfig(num_lps=2, total_timesteps=2,
                                            master_seed=5), spec)
    world = World(spec.side, n)
    broadcasts = []
    for res in backend.step(0, {}).values():
        world.update(res.ids, res.xs, res.ys)
        broadcasts += res.outbox
    assert broadcasts
    # copies that land: senders on top of, and exactly 0.01 from, others
    msg = broadcasts[0].message
    for s in range(0, n, 400):
        x, y = float(world.pos_x[s + 1]), float(world.pos_y[s + 1])
        broadcasts += [Broadcast(s, x, y, msg), Broadcast(s + 2, x, y + 0.01,
                                                          msg)]
    got = _assert_same(world, broadcasts, {401: "h"}, backend.owner_of,
                       reach=params.interaction_range)
    assert sum(len(b) for b in got.values()) >= 10


def test_no_broadcasts_route_nothing():
    world = World(world_side(64), 64)
    owner_of = np.zeros(64, dtype=np.intp)
    assert route_broadcasts(world, [], RANGE, 3, {}, owner_of) == ({}, 0, 0)


def test_batch_rows_and_delete():
    world = World(1000.0, 3)
    world.update([0, 1, 2], [10.0, 20.0, 900.0], [10.0, 30.0, 990.0])
    msg = DisseminationMessage(make_message_id(2, 1), 2, 0.0, 0.0, 6, 0, 1)
    owner_of = np.array([0, 1, 0])
    inboxes, routed, drops = route_broadcasts(
        world, [Broadcast(2, 900.0, 990.0, msg)], RANGE, 4, {}, owner_of)
    # 900 and 990 wrap to within 100 and 20 of the corner
    assert (routed, drops) == (2, 0)
    assert list(inboxes[0]) == [InterLpEnvelope(4, 0, 2, 900.0, 990.0, msg)]
    assert list(inboxes[1]) == [InterLpEnvelope(4, 1, 2, 900.0, 990.0, msg)]
    del inboxes[1][0]
    assert len(inboxes[1]) == 0 and list(inboxes[1]) == []
