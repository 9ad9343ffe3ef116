"""End-to-end acceptance suite.

Nine numbered criteria, one test each. Every test prints a single
"criterion N: PASS/FAIL - detail" line with capture suspended, so the
verdicts can be read off any pytest run.
Measured quantities (regression fit, traffic ratios, speedup) are
included in the line whether the criterion holds or not.

Criterion 9 is a timing trend and only means something on a host with
at least 4 physical cores; elsewhere it reports SKIP.
"""

import math
import os
import random
import statistics

import numpy as np
import pytest

from hybridsim.config import make_params
from hybridsim.conformance import (
    HYBRID_SCENARIO,
    check_all,
    golden_path,
    load_transcript,
)
from hybridsim.coordination import (
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
    TimestepAlignment,
)
from hybridsim.engine import EngineConfig, route_broadcasts, run_simulation
from hybridsim.market import (
    MarketParams,
    MarketRun,
    MarketScene,
    route_discover,
)
from hybridsim.protocol import decode_record
from hybridsim.territory import (
    DENSITY_AREA_PER_ENTITY,
    Broadcast,
    DisseminationMessage,
    EntityColumns,
    EntityRecord,
    TerritorySpec,
    World,
    broadcast_reach,
    broadcast_table,
    world_side,
)
from hybridsim.transport import TransportParams, simulate_arrivals
from market_oracle import flat_route_discover


def _verdict(capsys, num: int, status: str, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {status} - {detail}", flush=True)


def _run(ses, steps, seed, lps=1, params=None, mode="inprocess"):
    spec = TerritorySpec(ses, params) if params else TerritorySpec(ses)
    cfg = EngineConfig(num_lps=lps, total_timesteps=steps, master_seed=seed)
    return run_simulation(cfg, spec, mode=mode)


# --- 1: partitioning must not touch the physics --------------------------

def test_c1_lp_count_leaves_counters_untouched(capsys):
    base = _run(4000, 900, 1).comparable()
    bad = []
    for lps in (2, 4, 8):
        if _run(4000, 900, 1, lps=lps, mode="process").comparable() != base:
            bad.append(lps)
    ok = not bad
    detail = ("4000 entities x 900 steps: lp 2,4,8 counter vectors identical"
              " to lp 1" if ok else
              f"counter vectors diverge from lp 1 at lp {bad}")
    _verdict(capsys, 1, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 2: delivered traffic grows linearly with population -----------------

def test_c2_delivered_traffic_grows_linearly(capsys):
    sizes = (1000, 2000, 4000, 8000)
    means = []
    for ses in sizes:
        runs = [_run(ses, 900, seed).totals.delivered
                for seed in range(1, 6)]
        means.append(statistics.fmean(runs))
    r2 = statistics.correlation(sizes, means) ** 2
    ok = r2 >= 0.95
    detail = (f"R^2={r2:.6f} (need >= 0.95); mean delivered"
              f" {[round(m) for m in means]} at {list(sizes)}")
    _verdict(capsys, 2, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 3: the bad preset turns a local spread into a fence-wide flood ------

def _relay_chance(params):
    """(R, q): mean receivers per broadcast, relay chance per first copy.

    A receiver placed uniformly in the sender's disk of radius r relays
    only when the sender lies beyond the forwarding threshold f, which
    happens with probability 1 - (f/r)^2, and its gossip coin passes.
    """
    r = params.interaction_range
    receivers = math.pi * r * r / DENSITY_AREA_PER_ENTITY
    ring_pass = 1.0 - (params.forwarding_threshold / r) ** 2
    return receivers, ring_pass * params.gossip_probability


def test_c3_bad_preset_traffic_blowup(capsys):
    # Gossip is a branching process: a broadcast reaches R receivers and
    # begets m = R q relays before the cache, ttl, fence and budget
    # filters remove any (R ~ 19.63; m ~ 0.746 good, ~ 9.90 bad).
    #
    # good, m < 1 (subcritical): the expected number of broadcasts per
    # message is at most sum m^k = 1 / (1 - m), each delivering R copies.
    # This is a proven upper bound on the mean of the branching process
    # in which each broadcast reaches R receivers on average, placed
    # uniformly and tossing independent coins; every filter only removes
    # relays from it. Delivered per generated message <= R / (1 - m).
    #
    # bad, m > 1: the flood saturates the geofence of radius g. Each of
    # the pi g^2 / A entities inside hears the message, and tosses at
    # most one coin for it, because the cache drops every later copy.
    # So the origin's broadcast plus q pi g^2 / A relays deliver about
    # R (1 + q pi g^2 / A) copies per message (~ 3128). This is a
    # first-order prediction, not a bound: it ignores density
    # fluctuations, copies heard from beyond the fence edge, and the
    # bias of first copies toward far senders, which passes the ring
    # more often than 1 - (f/r)^2.
    good_params, bad_params = make_params("good"), make_params("bad")
    good = _run(8000, 900, 11, params=good_params).totals
    bad = _run(8000, 900, 11, params=bad_params).totals

    r_good, q_good = _relay_chance(good_params)
    m_good = r_good * q_good
    ceiling = r_good / (1.0 - m_good)
    r_bad, q_bad = _relay_chance(bad_params)
    g = bad_params.geofilter_distance
    fence_population = math.pi * g * g / DENSITY_AREA_PER_ENTITY
    floor = r_bad * (1.0 + q_bad * fence_population)

    good_per_msg = good.delivered / good.generated
    bad_per_msg = bad.delivered / bad.generated
    ok = good_per_msg <= ceiling and bad_per_msg >= floor
    detail = (f"bad/good delivered ratio {bad.delivered / good.delivered:.2f}"
              f" (bad={bad.delivered}, good={good.delivered}); delivered"
              f" per generated message: good {good_per_msg:.1f} (need <="
              f" subcritical ceiling {ceiling:.1f}, m={m_good:.3f}), bad"
              f" {bad_per_msg:.1f} (need >= fence saturation {floor:.1f},"
              f" m={r_bad * q_bad:.2f})")
    _verdict(capsys, 3, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 4: dissemination invariants over many seeded runs -------------------

def test_c4_dissemination_invariants_hold(capsys):
    worst = dict(hop=0, ring_min=math.inf, ring_max=0.0, origin=0.0,
                 relays=0, cache=0)
    violations = []
    relayed = 0
    for seed in range(101, 111):
        m = _run(2000, 900, seed)
        mon = m.monitor
        relayed += m.totals.relayed
        worst["hop"] = max(worst["hop"], mon.max_delivered_hop)
        worst["ring_min"] = min(worst["ring_min"], mon.relay_ring_min)
        worst["ring_max"] = max(worst["ring_max"], mon.relay_ring_max)
        worst["origin"] = max(worst["origin"], mon.relay_origin_max)
        worst["relays"] = max(worst["relays"], mon.max_relays_entity_step)
        worst["cache"] = max(worst["cache"], mon.cache_high_water)
        for cond, label in [
            (mon.max_delivered_hop <= 6, "hop count"),
            (mon.relay_ring_min > 225.0, "ring lower bound"),
            (mon.relay_ring_max <= 250.0, "ring upper bound"),
            # a monitor that never records the least ring would keep inf
            (not m.totals.relayed
             or mon.relay_ring_min <= mon.relay_ring_max, "ring extrema"),
            (mon.relay_origin_max <= 1000.0, "origin fence"),
            (mon.max_relays_entity_step <= 10, "relay budget"),
            (mon.cache_high_water <= 128, "cache size"),
        ]:
            if not cond:
                violations.append(f"seed {seed}: {label}")
    ok = not violations and relayed > 0
    detail = (f"10 seeds x 2000 entities, 0 violations: hop<=6 (max"
              f" {worst['hop']}), ring ({worst['ring_min']:.3f},"
              f" {worst['ring_max']:.3f}], origin<=1000"
              f" (max {worst['origin']:.1f}), relays/step<=10 (max"
              f" {worst['relays']}), cache<=128 (max {worst['cache']})"
              if ok else f"violations: {violations}")
    _verdict(capsys, 4, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 5: every fast path agrees with its brute-force reference ------------

def _scan_reach(world, pos, radius, exclude):
    """O(n^2)-style flat scan over every entity, torus metric."""
    out = []
    r2 = radius * radius
    for i in range(world.num_entities):
        dx = abs(world.pos_x[i] - pos[0])
        dx = min(dx, world.side - dx)
        dy = abs(world.pos_y[i] - pos[1])
        dy = min(dy, world.side - dy)
        if dx * dx + dy * dy <= r2 and i != exclude:
            out.append(i)
    return out


class _ListLru:
    """Reference LRU on a plain list, most recent last."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.high_water = 0

    def touch(self, key):
        hit = key in self.items
        if hit:
            self.items.remove(key)
        self.items.append(key)
        if len(self.items) > self.capacity:
            self.items.pop(0)
        self.high_water = max(self.high_water, len(self.items))
        return hit


def test_c5_fast_paths_match_reference_oracles(capsys):
    # broadcast reach, as the cell-grid router and the flat reference
    # scan find it, vs a plain loop over every entity
    rng = random.Random(505)
    n = 1000
    side = world_side(n)
    one_lp = np.zeros(n, dtype=np.intp)
    reach_ok = 0
    for k in range(100):
        world = World(side, n)
        world.pos_x[:] = [rng.uniform(0.0, side) for _ in range(n)]
        world.pos_y[:] = [rng.uniform(0.0, side) for _ in range(n)]
        sender = rng.randrange(n)
        pos = world.position(sender)
        want = _scan_reach(world, pos, 250.0, sender)
        msg = DisseminationMessage(k, sender, *pos, 5, 0, 0)
        inboxes, _, _ = route_broadcasts(
            world, broadcast_table([Broadcast(sender, *pos, msg)]), 250.0, 0,
            {}, one_lp)
        routed = inboxes[0].dest.tolist() if inboxes else []
        flat = list(broadcast_reach(world, pos, 250.0, exclude=sender))
        if routed == want and flat == want:
            reach_ok += 1

    # route discovery vs the same flood over per-node neighbors scans
    rng = random.Random(515)
    route_ok = 0
    trials = 0
    while trials < 100:
        params = MarketParams(grid_side=4, spacing=25.0, radio_range=30.0)
        scene = MarketScene(params)
        for k in range(rng.randrange(1, 8)):
            scene.set_node(1000 + k,
                           (rng.uniform(-20, 100), rng.uniform(-20, 100)))
        src, dst = rng.sample(sorted(scene.node_pos), 2)
        expect = flat_route_discover(scene, src, dst)
        if expect.hops is None:
            continue  # only connected topologies count
        trials += 1
        if route_discover(scene, src, dst) == (expect.hops,
                                               expect.request_transmissions):
            route_ok += 1

    # the duplicate cache (one entity's id and stamp arrays) vs the list
    # reference, two op traces
    lru_ok = 0
    row = np.zeros(1, dtype=np.intp)
    for capacity, universe, seed in ((128, 400, 525), (6, 20, 535)):
        rng = random.Random(seed)
        cols = EntityColumns(seed, capacity)
        cols.add([EntityRecord(0, "static", 0.0, 0.0, None, 0.0, (), 0)])
        ref = _ListLru(capacity)
        agreed = True
        for _ in range(10_000):
            key = rng.randrange(universe)
            agreed &= cols.touch(row, np.array([key])).item() == ref.touch(key)
            probe = rng.randrange(universe)
            agreed &= bool((cols.cache_ids[0] == probe).any()) == (
                probe in ref.items)
            agreed &= cols.cache_len.item(0) == len(ref.items)
        agreed &= cols.records(row)[0].cache_ids == tuple(ref.items)
        agreed &= cols.cache_len.item(0) == ref.high_water
        lru_ok += agreed

    ok = reach_ok == 100 and route_ok == 100 and lru_ok == 2
    detail = (f"reach {reach_ok}/100 worlds exact, route hops"
              f" {route_ok}/100 topologies exact, lru {lru_ok}/2"
              f" 10^4-op traces exact")
    _verdict(capsys, 5, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 6: the scripted hybrid run conserves and matches the goldens --------

def test_c6_hybrid_run_conserves_and_matches_goldens(capsys):
    sc = HYBRID_SCENARIO
    hy = HybridSpec(
        trigger=ScriptedTrigger(spawn_at=sc["spawn_at"],
                                transfer_count=sc["transfer_count"]),
        align=TimestepAlignment(fine_substeps=sc["substeps"]),
        policy=FixedDurationPolicy(coarse_steps=sc["duration"]))
    cfg = EngineConfig(num_lps=1, total_timesteps=sc["steps"],
                       master_seed=sc["seed"])
    # the engine rechecks active + frozen == total after every step and
    # raises, so completing at all certifies per-step conservation
    m = run_simulation(cfg, TerritorySpec(sc["ses"]), hybrid=hy,
                       mode="inprocess")

    problems = []
    if m.level1.spawns != 2 or m.level1.failures != 0:
        problems.append(f"spawns={m.level1.spawns}"
                        f" failures={m.level1.failures}")
    if m.level1.entities_transferred != 2 * sc["transfer_count"]:
        problems.append(f"transferred={m.level1.entities_transferred}")
    for t in sorted(m.wrapper_transcripts, key=lambda t: t["wrapper_id"]):
        wid, lines = t["wrapper_id"], t["lines"]
        statuses = [l for l in lines if l.startswith("< STATUS ")]
        replies = [l for l in lines if l.startswith(("> CONTINUE ", "> END "))]
        if len(statuses) != 3 or len(replies) != 3:
            problems.append(f"w{wid}: {len(statuses)} status,"
                            f" {len(replies)} replies")
        sent = {decode_record(l[2:])[2]["id"] for l in lines
                if l.startswith("> ENTITY ")}
        back = {decode_record(l[2:])[2]["id"] for l in lines
                if l.startswith("< ENTITY ")}
        if sent != back or len(sent) != sc["transfer_count"]:
            problems.append(f"w{wid}: sent {sorted(sent)} got {sorted(back)}")
        result = next(l for l in lines if l.startswith("< RESULT "))
        if decode_record(result[2:])[2]["entities"] != str(len(sent)):
            problems.append(f"w{wid}: RESULT entity count")
        if lines != load_transcript(golden_path(f"hybrid_w{wid}")):
            problems.append(f"w{wid}: wire framing differs from golden")
    for name, good, why in check_all():
        if not good:
            problems.append(f"golden {name}: {why}")

    ok = not problems
    detail = ("2 concurrent wrappers, conservation at every step, 3"
              " status/response pairs each, all entities returned, wire"
              " framing byte-identical to goldens" if ok
              else "; ".join(problems))
    _verdict(capsys, 6, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 7: vehicle cohort bounds, determinism, scripted oracle --------------

def test_c7_transport_bounds_and_determinism(capsys):
    rng = random.Random(707)
    bad = []
    for case in range(100):
        p = TransportParams(
            n_vehicles=rng.randrange(0, 60),
            parking_capacity=rng.randrange(0, 40),
            mean_cruise_time=rng.uniform(0.1, 20.0),
            mean_search_time=rng.uniform(0.1, 10.0),
            idle_time=rng.uniform(0.0, 10.0),
            cruise_rate=rng.uniform(0.1, 5.0),
            search_rate=rng.uniform(0.1, 5.0),
            idle_rate=rng.uniform(0.1, 5.0),
            seed=rng.randrange(1 << 32),
        )
        a = simulate_arrivals(p)
        if a.customers_entering > min(p.n_vehicles, p.parking_capacity):
            bad.append(f"case {case}: customer bound")
        if simulate_arrivals(p) != a:
            bad.append(f"case {case}: not reproducible")

    # one vehicle, fixed script: 10 tu cruising at 2 g/tu + 5 tu idling
    # at 1 g/tu is exactly 25 g
    scripted = simulate_arrivals(TransportParams(
        n_vehicles=1, parking_capacity=1,
        scripted_phases=(("cruise", 10.0), ("idle", 5.0))))
    if scripted.total_emissions != 25.0:
        bad.append(f"scripted oracle: {scripted.total_emissions} g")

    ok = not bad
    detail = ("100 random cohorts: customers <= min(vehicles, capacity),"
              " repeat runs identical; scripted case = 25 g exactly"
              if ok else "; ".join(bad))
    _verdict(capsys, 7, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 8: every market visitor arrives inside the latency bound ------------

def test_c8_market_visitors_arrive_inside_bound(capsys):
    scene = MarketScene(MarketParams())
    n = 10
    records = [EntityRecord(i, "mobile", 0.0, 0.0, None, 0.0, (), 0)
               for i in range(n)]
    run = MarketRun(scene, records, n, master_seed=8)

    # worst route: entry hop plus a full manhattan crossing of the grid
    side = scene.params.grid_side
    worst_hops = 1 + 2 * (side - 1)
    worst_query = 2 * worst_hops  # request out, reply back, one hop/step
    diagonal = scene.extent * math.sqrt(2.0)
    walk = math.ceil(diagonal / scene.params.walking_speed)
    bound = 2 * worst_query + walk

    while run.status()["arrived"] < n and run.fine_clock < bound:
        run.fine_step()

    hops = [p.route_hops for p in run.peds]
    floor = 2 * sum(h for h in hops if h)
    problems = []
    st = run.status()
    if st["arrived"] < n:
        problems.append(f"only {st['arrived']}/{n} arrived by step {bound}")
    if run.messages < floor:
        problems.append(f"messages {run.messages} below floor {floor}")
    ok = not problems
    detail = (f"{n}/{n} arrived at fine step {run.fine_clock} (bound"
              f" {bound}), messages {run.messages} >= request/reply floor"
              f" {floor}" if ok else "; ".join(problems))
    _verdict(capsys, 8, "PASS" if ok else "FAIL", detail)
    assert ok, detail


# --- 9: parallel runs should beat sequential on real hardware ------------

def _physical_cores() -> int:
    """Physical cores usable by this process; logical count as fallback."""
    usable = len(os.sched_getaffinity(0))
    seen = set()
    block = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    if block:
                        seen.add((block.get("physical id", "0"),
                                  block.get("core id",
                                            block.get("processor", "?"))))
                        block = {}
                    continue
                key, _, value = line.partition(":")
                block[key.strip()] = value.strip()
    except OSError:
        return usable
    if block:
        seen.add((block.get("physical id", "0"),
                  block.get("core id", block.get("processor", "?"))))
    return min(len(seen), usable) if seen else usable


def test_c9_multicore_speedup_trend(capsys):
    cores = _physical_cores()
    if cores < 4:
        _verdict(capsys, 9, "SKIP", f"host exposes {cores} usable physical"
                 " core(s); timing trend needs >= 4")
        pytest.skip("needs >= 4 physical cores")
    t1 = _run(8000, 900, 5).wall_clock_seconds
    t4 = _run(8000, 900, 5, lps=4, mode="process").wall_clock_seconds
    ok = t4 < t1
    detail = (f"8000 entities x 900 steps: lp=1 {t1:.1f}s, lp=4 {t4:.1f}s,"
              f" speedup {t1 / t4:.2f}x (trend only, magnitude not gated)")
    _verdict(capsys, 9, "PASS" if ok else "FAIL", detail)
    assert ok, detail
