"""Market scene: grid topology, route discovery vs a flat oracle, pedestrians."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridsim import market
from hybridsim.market import (
    ARRIVED,
    QUERYING,
    WALKING,
    MarketParams,
    MarketRun,
    MarketScene,
    PedestrianNode,
    pedestrian_step,
    perimeter_point,
    route_discover,
    route_discover_all,
)
from hybridsim.territory import EntityRecord
from market_oracle import FineStepMarketRun, flat_route_discover


def run_market(scene, n_customers, substeps_per_coarse, coarse_steps,
               master_seed=0):
    """Scripted market session: returns (status bodies, final records, run).

    Synthesizes minimal entity records (ids 0..n-1, fresh streams);
    advances substeps_per_coarse fine steps per coarse step and collects
    one STATUS body after each.
    """
    records = [EntityRecord(i, "mobile", 0.0, 0.0, None, 0.0, (), 0)
               for i in range(n_customers)]
    run = MarketRun(scene, records, n_customers, master_seed)
    bodies = []
    for _ in range(coarse_steps):
        run.advance(substeps_per_coarse)
        bodies.append(run.status())
    return bodies, run.result_records(), run


@st.composite
def scenes(draw):
    """A seller grid plus stray nodes: some coincident with a node, some
    exactly radio range from one, some anywhere, some far away; stray
    ids sit above the sellers and are placed in no particular order."""
    spacing = draw(st.sampled_from([10.0, 25.0, 30.0]))
    radio = draw(st.sampled_from([spacing, 12.5, 30.0, 37.5]))
    params = MarketParams(grid_side=draw(st.integers(1, 5)), spacing=spacing,
                          radio_range=radio, hop_limit=draw(st.integers(1, 8)))
    scene = MarketScene(params)
    lo, hi = -radio, scene.extent + radio
    n = draw(st.integers(1 if params.grid_side == 1 else 0, 6))
    ids = draw(st.permutations(range(scene.num_sellers,
                                     scene.num_sellers + 2 * n)))[:n]
    for node in ids:
        ax, ay = scene.node_pos[draw(st.sampled_from(sorted(scene.node_pos)))]
        scene.set_node(node, draw(st.one_of(
            st.just((ax, ay)),
            st.sampled_from([(ax + radio, ay), (ax, ay - radio)]),
            st.tuples(st.floats(lo, hi), st.floats(lo, hi)),
            st.just((1e6, 1e6)))))
    return scene


@settings(max_examples=300, deadline=None)
@given(scene=scenes())
def test_adjacency_rows_are_neighbors(scene):
    ids, adjacent = scene.adjacency()
    assert ids == sorted(scene.node_pos)
    for i, node in enumerate(ids):
        row = [ids[j] for j in np.flatnonzero(adjacent[i]).tolist()]
        assert row == scene.neighbors(node)
    assert scene.neighbor_table() == {node: scene.neighbors(node)
                                      for node in ids}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), scene=scenes())
def test_route_discover_matches_flat_oracle(data, scene):
    src, dst = data.draw(st.permutations(sorted(scene.node_pos)))[:2]
    assert route_discover(scene, src, dst) == \
        flat_route_discover(scene, src, dst)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), scene=scenes())
def test_discoveries_follow_scene_changes(data, scene):
    """Several discoveries over one scene while nodes are added, moved
    and set to the positions they already have, each against the flat
    oracle; a same-position set keeps the neighbour table."""
    radio = scene.params.radio_range
    lo, hi = -radio, scene.extent + radio
    for _ in range(data.draw(st.integers(1, 12))):
        nodes = sorted(scene.node_pos)
        op = data.draw(st.sampled_from(["add", "move", "same", "discover"]))
        if op == "discover":
            if len(nodes) > 1:
                src, dst = data.draw(st.permutations(nodes))[:2]
                assert route_discover(scene, src, dst) == \
                    flat_route_discover(scene, src, dst)
        elif op == "same":
            table = scene.neighbor_table()
            node = data.draw(st.sampled_from(nodes))
            scene.set_node(node, scene.node_pos[node])
            assert scene.neighbor_table() is table
        else:
            ax, ay = scene.node_pos[data.draw(st.sampled_from(nodes))]
            pos = data.draw(st.one_of(
                st.sampled_from([(ax + radio, ay), (ax, ay - radio)]),
                st.tuples(st.floats(lo, hi), st.floats(lo, hi)),
                st.just((1e6, 1e6))))
            node = (nodes[-1] + 1 if op == "add"
                    else data.draw(st.sampled_from(nodes)))
            scene.set_node(node, pos)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), scene=scenes())
def test_route_discover_all_matches_flat_oracle(data, scene):
    # islands and hop-limit cut-offs come from the scenes themselves
    pairs = data.draw(st.lists(
        st.permutations(sorted(scene.node_pos)).map(lambda p: tuple(p[:2])),
        min_size=1, max_size=8))
    sources, targets = zip(*pairs)
    assert route_discover_all(scene, sources, targets) == [
        (out.hops, out.request_transmissions)
        for out in (flat_route_discover(scene, s, t) for s, t in pairs)]


def test_route_discover_all_cut_off_island_and_validation():
    scene = MarketScene(MarketParams(hop_limit=5))
    scene.set_node(100, (1e6, 1e6))
    # 0 -> 99 is 18 hops: cut off after the 21 nodes within 5 hops of 0;
    # 0 -> 2 is 2 hops; the island reaches nothing but itself
    assert route_discover_all(scene, [0, 0, 100], [99, 2, 0]) == [
        (None, 21), (2, 20), (None, 1)]
    assert route_discover_all(scene, [], []) == []
    for sources, targets in (([1], [1]), ([0], [555]), ([555], [0])):
        with pytest.raises(ValueError):
            route_discover_all(scene, sources, targets)


def test_first_fine_step_builds_one_table_for_its_discoveries(monkeypatch):
    # 32 pedestrians all query on the first fine step and none has moved
    # yet, so their discoveries are one flood over one adjacency build
    builds, floods = [], []
    adjacency = MarketScene.adjacency

    def counted(scene):
        builds.append(1)
        return adjacency(scene)

    monkeypatch.setattr(MarketScene, "adjacency", counted)
    monkeypatch.setattr(market, "route_discover",
                        lambda *args: floods.append(args))
    records = [EntityRecord(i, "mobile", 0.0, 0.0, None, 0.0, (), 0)
               for i in range(32)]
    run = MarketRun(MarketScene(), records, 32, master_seed=11)
    run.fine_step()
    assert run.route_discoveries == 32
    assert len(builds) == 1 and not floods


@st.composite
def market_sessions(draw):
    """A small market that may strand pedestrians: radio ranges below
    the spacing isolate sellers, and low hop limits cut routes off, so
    discoveries fail and retry while others walk."""
    spacing = draw(st.sampled_from([10.0, 25.0]))
    params = MarketParams(
        grid_side=draw(st.integers(1, 5)), spacing=spacing,
        radio_range=spacing * draw(st.sampled_from([0.5, 1.0, 1.2, 1.5])),
        walking_speed=draw(st.sampled_from([0.3, 1.4, 4.0, 60.0])),
        hop_limit=draw(st.integers(1, 6)))
    n = draw(st.integers(0, 8))
    records = [EntityRecord(eid, "mobile", draw(st.floats(0.0, 500.0)),
                            draw(st.floats(0.0, 500.0)), None, 0.0, (),
                            draw(st.integers(0, 99)))
               for eid in sorted(draw(st.sets(st.integers(0, 10**6),
                                              min_size=n, max_size=n)))]
    return (params, records, draw(st.integers(0, n)),
            draw(st.integers(0, 2**63 - 1)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), session=market_sessions())
def test_event_stepping_matches_fine_steps(data, session):
    params, records, n_customers, seed = session
    fast = MarketRun(MarketScene(params), records, n_customers, seed)
    slow = FineStepMarketRun(MarketScene(params), records, n_customers, seed)
    for _ in range(data.draw(st.integers(1, 8))):
        # windows that end just before or just after a reply lands or a
        # retry fires, or anywhere
        clock = slow.fine_clock
        edges = sorted({due - clock + d for d in (0, 1) for due in
                        [p.reply_due for p in slow.peds
                         if p.state == QUERYING and p.reply_due is not None]
                        + [clock + p.retry_wait for p in slow.peds
                           if p.state == QUERYING and p.reply_due is None]}
                       - {0})
        anywhere = st.integers(1, 40)
        substeps = data.draw(st.one_of(st.sampled_from(edges), anywhere)
                             if edges else anywhere)
        fast.advance(substeps)
        slow.advance(substeps)
        assert fast.status() == slow.status()
        assert fast.scene.node_pos == slow.scene.node_pos
        assert fast.result_records() == slow.result_records()
        assert fast.total_draws() == slow.total_draws()


def test_grid_geometry():
    scene = MarketScene(MarketParams(grid_side=10, spacing=25.0))
    assert scene.num_sellers == 100
    assert scene.extent == 225.0
    assert scene.seller_position(0) == (0.0, 0.0)
    assert scene.seller_position(9) == (225.0, 0.0)
    assert scene.seller_position(10) == (0.0, 25.0)
    assert scene.seller_position(99) == (225.0, 225.0)
    with pytest.raises(ValueError):
        scene.seller_position(100)


def test_params_refuse_non_positive_and_non_finite_values():
    for field in ("grid_side", "spacing", "radio_range", "walking_speed",
                  "hop_limit"):
        for value in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{field} = "):
                MarketParams(**{field: value})
    for field in ("grid_side", "hop_limit"):
        with pytest.raises(ValueError, match=f"^{field} = 0.5 .* >= 1"):
            MarketParams(**{field: 0.5})


def test_grid_radio_reaches_only_lateral_neighbors():
    # spacing 25, range 30: lateral in range, diagonal (35.36) is not
    scene = MarketScene(MarketParams())
    assert scene.neighbors(0) == [1, 10]
    assert scene.neighbors(55) == [45, 54, 56, 65]
    assert scene.neighbors(99) == [89, 98]


def test_route_discover_grid_is_manhattan():
    scene = MarketScene(MarketParams())
    out = route_discover(scene, 0, 99)
    assert out.hops == 18  # 9 across plus 9 up
    assert out.path[0] == 0 and out.path[-1] == 99
    assert len(out.path) == 19


def test_request_transmissions_counts_rebroadcasts():
    # every reached node except dst forwards once; on the full grid with
    # dst reachable that is num_sellers - 1
    scene = MarketScene(MarketParams())
    out = route_discover(scene, 0, 99)
    assert out.request_transmissions == 99


def test_route_discover_respects_hop_limit():
    scene = MarketScene(MarketParams(hop_limit=5))
    out = route_discover(scene, 0, 99)  # 18 hops away
    assert out.hops is None
    assert out.path == ()


def test_route_discover_unreachable_island():
    scene = MarketScene(MarketParams(grid_side=2))
    scene.set_node(100, (1e6, 1e6))
    out = route_discover(scene, 0, 100)
    assert out.hops is None
    # all four grid nodes were reached and rebroadcast
    assert out.request_transmissions == 4


def test_route_discover_arg_validation():
    scene = MarketScene(MarketParams(grid_side=2))
    with pytest.raises(ValueError):
        route_discover(scene, 1, 1)
    with pytest.raises(ValueError):
        route_discover(scene, 0, 555)


def test_route_discover_matches_bfs_oracle_random_topologies():
    rng = random.Random(2026)
    for trial in range(25):
        params = MarketParams(grid_side=4, spacing=25.0, radio_range=30.0)
        scene = MarketScene(params)
        # sprinkle extra nodes around the square to vary the topology
        for k in range(rng.randrange(1, 7)):
            scene.set_node(1000 + k, (rng.uniform(-20, 100), rng.uniform(-20, 100)))
        nodes = sorted(scene.node_pos)
        src, dst = rng.sample(nodes, 2)
        expect = flat_route_discover(scene, src, dst)
        assert route_discover(scene, src, dst) == expect, (trial, src, dst)


def test_perimeter_point_walks_the_boundary():
    assert perimeter_point(100.0, 0.0) == (0.0, 0.0)
    assert perimeter_point(100.0, 0.125) == (50.0, 0.0)
    assert perimeter_point(100.0, 0.25) == (100.0, 0.0)
    assert perimeter_point(100.0, 0.5) == (100.0, 100.0)
    assert perimeter_point(100.0, 0.75) == (0.0, 100.0)
    assert perimeter_point(100.0, 0.875) == (0.0, 50.0)
    # anything in [0,1) lands on the boundary
    for u in [i / 17 for i in range(17)]:
        x, y = perimeter_point(100.0, u)
        assert 0.0 <= x <= 100.0 and 0.0 <= y <= 100.0
        assert x in (0.0, 100.0) or y in (0.0, 100.0)


def test_pedestrian_step_moves_and_snaps():
    scene = MarketScene(MarketParams(grid_side=2))  # seller 1 at (25, 0)
    ped = PedestrianNode(0, 4, 15.0, 0.0, 1, 0)
    scene.set_node(ped.node_id, (15.0, 0.0))
    ped.state = WALKING
    pedestrian_step(scene, ped)  # walking speed 1.4
    x, y = scene.node_pos[ped.node_id]
    assert x == pytest.approx(16.4) and y == 0.0
    scene.set_node(ped.node_id, (24.0, 0.0))
    pedestrian_step(scene, ped)  # 1.0 remaining <= speed: snap and arrive
    assert scene.node_pos[ped.node_id] == (25.0, 0.0)
    assert ped.state == ARRIVED
    pedestrian_step(scene, ped)  # arrived pedestrians stay put
    assert scene.node_pos[ped.node_id] == (25.0, 0.0)
    # several steps in one call; at speed 2.5 from 15 the fourth step
    # leaves exactly the speed to go, which arrives
    scene = MarketScene(MarketParams(grid_side=2, walking_speed=2.5))
    ped = PedestrianNode(0, 4, 15.0, 0.0, 1, 0)
    scene.set_node(ped.node_id, (15.0, 0.0))
    ped.state = WALKING
    pedestrian_step(scene, ped, 3)
    assert scene.node_pos[ped.node_id] == (22.5, 0.0)
    assert ped.state == WALKING
    pedestrian_step(scene, ped)
    assert scene.node_pos[ped.node_id] == (25.0, 0.0)
    assert ped.state == ARRIVED


def test_reply_and_walk_timing_exact():
    # hand-built: pedestrian node adjacent to seller 0, target seller 2
    scene = MarketScene(MarketParams(grid_side=3))
    recs = [EntityRecord(7, "mobile", 0.0, 0.0, None, 0.0, (), 0)]
    run = MarketRun(scene, recs, 1, master_seed=5)
    run._inject()
    ped = run.peds[0]
    # pin the pedestrian below the corner, in range of seller 0 only
    ped.target_seller = 2
    scene.set_node(ped.node_id, (0.0, -20.0))
    run.fine_step()  # query floods: route is ped -> 0 -> 1 -> 2, 3 hops
    assert ped.route_hops == 3
    assert ped.reply_due == 2 * 3  # sent at fine_clock 0
    for _ in range(5):
        run.fine_step()
    assert run.fine_clock == 6 and ped.state == QUERYING
    run.fine_step()  # clock 6: reply lands, walking starts next step
    assert ped.state == WALKING
    assert scene.node_pos[ped.node_id] == (0.0, -20.0)
    run.fine_step()
    assert scene.node_pos[ped.node_id] != (0.0, -20.0)


def test_retry_backoff_doubles_and_caps():
    # island pedestrian: discovery always fails, watch the retry waits
    scene = MarketScene(MarketParams(grid_side=2))
    recs = [EntityRecord(0, "mobile", 0.0, 0.0, None, 0.0, (), 0)]
    run = MarketRun(scene, recs, 1, master_seed=1)
    run._inject()
    ped = run.peds[0]
    scene.set_node(ped.node_id, (1e6, 1e6))
    waits = []
    for _ in range(80):
        before = run.route_discoveries
        run.fine_step()
        if run.route_discoveries > before:
            waits.append(ped.retry_wait)
    assert waits[:6] == [1, 2, 4, 8, 16, 16]  # doubling, capped at 16


def test_messages_count_request_plus_reply():
    scene = MarketScene(MarketParams())
    recs = [EntityRecord(0, "mobile", 0.0, 0.0, None, 0.0, (), 0)]
    run = MarketRun(scene, recs, 1, master_seed=3)
    run._inject()
    ped = run.peds[0]
    ped.target_seller = 3
    scene.set_node(ped.node_id, (0.0, -20.0))
    run.fine_step()
    # flood reached everything (100 sellers + ped - dst rebroadcast),
    # reply walked back over 4 hops
    assert run.messages == 100 + ped.route_hops
    assert ped.route_hops == 4


def test_run_completes_in_default_scene():
    bodies, records, run = run_market(MarketScene(), n_customers=8,
                                      substeps_per_coarse=3, coarse_steps=150,
                                      master_seed=11)
    assert [ped.state for ped in run.peds] == [ARRIVED] * 8
    assert bodies[-1]["arrived"] == 8
    assert bodies[-1]["querying"] == 0 and bodies[-1]["walking"] == 0
    assert run.route_discoveries >= 8
    # each pedestrian walked from its entry to its target seller
    for ped in run.peds:
        assert run.scene.node_pos[ped.node_id] == \
            run.scene.seller_position(ped.target_seller)


def test_message_floor_two_transmissions_per_hop():
    _, _, run = run_market(MarketScene(), n_customers=6,
                           substeps_per_coarse=3, coarse_steps=150,
                           master_seed=4)
    total_hops = sum(p.route_hops for p in run.peds)
    assert run.messages >= 2 * total_hops


def test_result_records_apply_displacement_and_cursor():
    recs = [EntityRecord(3, "mobile", 40.0, 50.0, None, 1.0, (9,), 6),
            EntityRecord(8, "static", 70.0, 80.0, None, 0.0, (), 2)]
    run = MarketRun(MarketScene(), recs, 1, master_seed=9)
    run.advance(30)
    out = run.result_records()
    ped = run.peds[0]
    x, y = run.scene.node_pos[ped.node_id]
    assert out[0].entity_id == 3
    assert out[0].x == pytest.approx(40.0 + (x - ped.entry_x))
    assert out[0].y == pytest.approx(50.0 + (y - ped.entry_y))
    assert out[0].cursor == 6 + 2  # entry point + target draw
    assert out[0].cache_ids == (9,) and out[0].speed == 1.0
    # the non-customer record comes back untouched
    assert out[1] == recs[1]
    assert run.total_draws() == 2


def test_no_injection_before_first_fine_step():
    recs = [EntityRecord(0, "mobile", 1.0, 2.0, None, 0.5, (), 4)]
    run = MarketRun(MarketScene(), recs, 1, master_seed=2)
    assert run.status()["querying"] == 1  # reported, but nothing drawn yet
    assert run.result_records() == recs
    assert run.total_draws() == 0


def test_injection_draws_exactly_two_per_customer():
    recs = [EntityRecord(i, "mobile", 0.0, 0.0, None, 0.0, (), 10 * i)
            for i in range(5)]
    run = MarketRun(MarketScene(), recs, 3, master_seed=8)
    run.fine_step()
    assert run.total_draws() >= 2 * 3
    for rec, out in zip(recs[:3], run.result_records()[:3]):
        assert out.cursor == rec.cursor + 2
    # non-customers keep their cursors
    assert run.result_records()[3] == recs[3]
    # the total is measured from the cursors, not assumed
    run.peds[1].cursor += 1
    assert run.total_draws() == 2 * 3 + 1
    assert run.result_records()[1].cursor == recs[1].cursor + 3


def test_market_run_deterministic():
    def go():
        recs = [EntityRecord(i, "mobile", 0.0, 0.0, None, 0.0, (), 0)
                for i in range(4)]
        run = MarketRun(MarketScene(), recs, 4, master_seed=15)
        run.advance(120)
        return ([(run.scene.node_pos[p.node_id], p.state, p.cursor)
                 for p in run.peds], run.messages,
                run.route_discoveries, run.total_draws())
    assert go() == go()


def test_too_many_customers_rejected():
    with pytest.raises(ValueError):
        MarketRun(MarketScene(), [], 1, master_seed=0)


def test_params_validation():
    with pytest.raises(ValueError):
        MarketParams(grid_side=0)
    with pytest.raises(ValueError):
        MarketParams(spacing=0.0)
    with pytest.raises(ValueError):
        MarketParams(walking_speed=0.0)
    with pytest.raises(ValueError):
        MarketParams(hop_limit=0)
