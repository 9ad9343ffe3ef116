"""Engine: partitioning, stepping, routing, LP-count equivalence."""

import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridsim import territory
from hybridsim.config import make_params
from hybridsim.engine import (
    EngineConfig,
    EngineError,
    EnvelopeBatch,
    LogicalProcess,
    StepExecutionError,
    partition_entities,
    route_broadcasts,
    run_simulation,
)
from hybridsim.metrics import StepReport
from hybridsim.territory import (
    BROADCAST_COLUMNS,
    Broadcast,
    BroadcastTable,
    DisseminationParams,
    TerritorySpec,
    World,
    broadcast_table,
    make_message_id,
    DisseminationMessage,
)
from scalar_oracle import ScalarLP, lp_state


def test_partition_single_lp_gets_all():
    p = partition_entities(range(8), 1, seed=42)
    assert p == {0: list(range(8))}


def test_partition_balanced():
    p = partition_entities(range(8), 4, seed=42)
    assert sorted(p) == [0, 1, 2, 3]
    assert all(len(ids) == 2 for ids in p.values())
    assert sorted(sum(p.values(), [])) == list(range(8))


def test_partition_sizes_differ_at_most_one():
    p = partition_entities(range(10), 3, seed=5)
    sizes = sorted(len(v) for v in p.values())
    assert sizes == [3, 3, 4]


def test_partition_deterministic_and_seed_sensitive():
    a = partition_entities(range(100), 4, seed=1)
    b = partition_entities(range(100), 4, seed=1)
    c = partition_entities(range(100), 4, seed=2)
    assert a == b
    assert a != c


def test_partition_errors():
    with pytest.raises(ValueError):
        partition_entities([], 1, seed=0)
    with pytest.raises(ValueError):
        partition_entities(range(3), 4, seed=0)
    with pytest.raises(ValueError):
        partition_entities(range(3), 0, seed=0)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(num_lps=0)
    with pytest.raises(ValueError):
        EngineConfig(total_timesteps=0)
    # a seed outside [0, 2**63) once failed inside numpy, and a timeout of
    # inf, nan or -1 only in process mode, at the first barrier
    for field, value, accepted in (
            ("master_seed", -1, r"integer in \[0, 2\*\*63\)"),
            ("master_seed", 2**63, r"integer in \[0, 2\*\*63\)"),
            ("barrier_timeout", float("inf"), "finite number > 0"),
            ("barrier_timeout", float("nan"), "finite number > 0"),
            ("barrier_timeout", -1.0, "finite number > 0"),
            ("barrier_timeout", 0.0, "finite number > 0")):
        with pytest.raises(ValueError, match=f"^{field} = .* out of range;"
                                             f" accepted: {accepted}$"):
            EngineConfig(**{field: value})
    EngineConfig(master_seed=2**63 - 1, barrier_timeout=1e-3)


def _build_lp(spec, seed, lp_id=0):
    return LogicalProcess(lp_id, range(spec.num_entities), spec, seed)


def test_run_step_null():
    spec = TerritorySpec(10, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    report = StepReport()
    outbox = lp.run_step(0, None, report)
    assert outbox.dtype == BROADCAST_COLUMNS and len(outbox) == 0
    assert report == StepReport()


def test_per_step_generation_rate():
    # 1000 entities at p=0.001: about one generated message per step
    spec = TerritorySpec(1000)
    m = run_simulation(EngineConfig(num_lps=1, total_timesteps=900,
                                    master_seed=3), spec)
    mean = m.totals.generated / 900
    assert abs(mean - 1.0) < 0.11  # ~3 sigma for 900k Bernoulli(0.001)


@pytest.fixture
def delivery_calls(monkeypatch):
    """(entity id, step, message id) of every relay decision, in order."""
    calls = []
    step = []
    run_step = LogicalProcess.run_step
    decide_relay = territory.decide_relay

    def stepping(lp, t, inbox, report):
        step[:] = [t]
        return run_step(lp, t, inbox, report)

    def counting(cols, rows, copies, *rest):
        calls.extend((eid, step[0], mid) for eid, mid in
                     zip(cols.ids[rows].tolist(),
                         copies["message_id"].tolist()))
        return decide_relay(cols, rows, copies, *rest)

    monkeypatch.setattr(LogicalProcess, "run_step", stepping)
    monkeypatch.setattr(territory, "decide_relay", counting)
    return calls


def _position(lp, eid):
    k = int(np.searchsorted(lp.cols.ids, eid))
    return lp.cols.x.item(k), lp.cols.y.item(k)


def _inbox(produced_at, dest, pos, sends, num_entities=4):
    """lp 0's inbox after routing (sender, message) broadcasts made at pos.

    In the routing world only entity dest stands at pos; every other
    entity is far out of range, and lp 0 owns them all.
    """
    world = World(10_000.0, num_entities)
    world.pos_x[:] = world.pos_y[:] = 5_000.0
    world.update([dest], [pos[0]], [pos[1]])
    broadcasts = broadcast_table([Broadcast(sender, pos[0], pos[1], msg)
                                  for sender, msg in sends])
    owner_of = np.zeros(num_entities, dtype=np.intp)
    inboxes, routed, _ = route_broadcasts(world, broadcasts, 250.0,
                                          produced_at, {}, owner_of)
    assert routed == len(sends) and list(inboxes) == [0]
    return inboxes[0]


def test_delivery_hook_invoked_exactly_once_per_first_copy(delivery_calls):
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    x, y = _position(lp, 2)
    mid = make_message_id(0, 0)
    msg = DisseminationMessage(mid, 0, x, y, 6, 0, 0)
    lp.run_step(1, _inbox(0, 2, (x, y), [(0, msg)]), StepReport())
    assert delivery_calls == [(2, 1, mid)]


def test_inbox_canonical_order(delivery_calls):
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    x, y = _position(lp, 2)
    m_late = DisseminationMessage(make_message_id(1, 3), 1, x, y, 6, 0, 3)
    m_early = DisseminationMessage(make_message_id(0, 2), 0, x, y, 6, 0, 2)
    # broadcast out of order; consumption must sort by (message id, sender)
    relayed = m_late._replace(ttl_remaining=4, hop_count=2)
    inbox = _inbox(3, 2, (x, y),
                   [(3, relayed), (1, m_early), (0, m_late)])
    report = StepReport()
    lp.run_step(4, inbox, report)
    # only the first copy of each message is decided: sender 0's m_late;
    # sender 3's repeat is counted in bulk, with its own (higher) hop
    assert delivery_calls == [
        (2, 4, m_early.message_id),
        (2, 4, m_late.message_id),
    ]
    assert (report.delivered, report.cache_filtered) == (3, 1)
    assert report.ring_filtered == 2
    assert lp.monitor.max_delivered_hop == 2


def test_stale_envelope_rejected():
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    x, y = _position(lp, 2)
    msg = DisseminationMessage(make_message_id(0, 0), 0, x, y, 6, 0, 0)
    inbox = _inbox(0, 2, (x, y), [(0, msg)])
    with pytest.raises(EngineError, match="stale"):
        lp.run_step(5, inbox, StepReport())


def test_envelope_for_unowned_entity_rejected():
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    msg = DisseminationMessage(make_message_id(0, 0), 0, 1.0, 1.0, 6, 0, 0)
    inbox = _inbox(0, 99, (1.0, 1.0), [(0, msg)], num_entities=100)
    with pytest.raises(EngineError, match="99"):
        lp.run_step(1, inbox, StepReport())


@pytest.mark.parametrize("dest, unknown", [
    ([0], [0]), ([3], [3]), ([9], [9]),  # below, between, above the owned
    ([2, 3, 3, 5, 9, 9], [3, 9]),  # among owned receivers, with repeats
])
def test_inbox_names_every_receiver_not_owned(dest, unknown):
    """The inbox prelude finds each receiver the LP does not own,
    wherever it falls among the owned ids, and names them all."""
    spec = TerritorySpec(10, DisseminationParams(generation_probability=0.0))
    lp = LogicalProcess(0, [2, 5, 7], spec, 1)
    table = np.zeros(1, dtype=BROADCAST_COLUMNS)
    inbox = EnvelopeBatch(0, table, np.array(dest),
                          np.zeros(len(dest), dtype=np.intp))
    with pytest.raises(EngineError,
                       match=re.escape(f"does not own: {unknown}")):
        lp.run_step(1, inbox, StepReport())


@pytest.mark.parametrize("phase", ["decide_relay", "rwp_step",
                                   "generate_message"])
def test_step_failure_names_lp_and_step(phase, monkeypatch):
    # every entity generates every step, so relay decisions run from step
    # 1 on; the phase's call in step 3 fails
    now = []
    run_step, real = LogicalProcess.run_step, getattr(territory, phase)

    def stepping(lp, t, inbox, report):
        now[:] = [t]
        return run_step(lp, t, inbox, report)

    def faulty(*args):
        if now == [3]:
            raise RuntimeError("boom")
        return real(*args)

    monkeypatch.setattr(LogicalProcess, "run_step", stepping)
    monkeypatch.setattr(territory, phase, faulty)
    cfg = EngineConfig(num_lps=1, total_timesteps=10, master_seed=1)
    spec = TerritorySpec(20, DisseminationParams(generation_probability=1.0))
    with pytest.raises(StepExecutionError) as ei:
        run_simulation(cfg, spec, mode="inprocess")
    err = ei.value
    assert (err.lp_id, err.step) == (0, 3)
    assert str(err) == "step failed in lp=0 step=3: RuntimeError: boom"
    # a worker process reports the same failure in the same words
    with pytest.raises(StepExecutionError) as ei:
        run_simulation(cfg, spec, mode="process")
    assert (ei.value.lp_id, ei.value.step) == (0, 3)
    assert str(ei.value) == str(err)


def test_lp_count_equivalence_quick():
    # scaled-down version of the sequential/parallel equivalence property
    spec = TerritorySpec(400)
    base = run_simulation(EngineConfig(num_lps=1, total_timesteps=80,
                                       master_seed=21), spec).comparable()
    for lps in (2, 4, 8):
        m = run_simulation(EngineConfig(num_lps=lps, total_timesteps=80,
                                        master_seed=21), spec,
                           mode="inprocess").comparable()
        assert m == base, f"lp={lps} diverged"


def test_run_repeatable_same_seed():
    spec = TerritorySpec(200)
    cfg = EngineConfig(num_lps=1, total_timesteps=60, master_seed=9)
    assert (run_simulation(cfg, spec).comparable()
            == run_simulation(cfg, spec).comparable())


def test_run_seed_sensitive():
    spec = TerritorySpec(200)
    a = run_simulation(EngineConfig(num_lps=1, total_timesteps=60,
                                    master_seed=9), spec)
    b = run_simulation(EngineConfig(num_lps=1, total_timesteps=60,
                                    master_seed=10), spec)
    assert a.comparable() != b.comparable()


def test_accounting_identities_hold():
    spec = TerritorySpec(500)
    m = run_simulation(EngineConfig(num_lps=1, total_timesteps=100,
                                    master_seed=31), spec)
    t = m.totals
    assert m.routed == t.delivered + m.frozen_drops
    assert t.delivered == t.relayed + t.dropped()
    assert len(m.per_step) == 100
    assert sum(r.delivered for r in m.per_step) == t.delivered


def test_more_lps_than_entities_rejected():
    with pytest.raises(ValueError):
        run_simulation(EngineConfig(num_lps=64, total_timesteps=5,
                                    master_seed=1), TerritorySpec(10))


@st.composite
def relay_cases(draw):
    """Entities, params, ids cached beforehand and a few steps' inboxes.

    Copies of one message differ in sender, position, hop and ttl (0
    included); caches hold one to three ids, so they run full; budgets
    may be 0; at generation probability 0.5 an entity often relays and
    generates in one step.
    """
    n = draw(st.integers(1, 5))
    params = DisseminationParams(
        generation_probability=draw(st.sampled_from([0.001, 0.5])),
        forwarding_threshold=draw(st.sampled_from([0.0, 100.0])),
        geofilter_distance=draw(st.sampled_from([60.0, 1000.0])),
        gossip_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
        cache_capacity=draw(st.integers(1, 3)),
        max_relays_per_step=draw(st.integers(0, 2)))
    spec = TerritorySpec(n, params)
    coord = st.floats(0.0, spec.side, exclude_max=True)
    origins = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, 3), coord, coord),
                            min_size=1, max_size=4, unique_by=lambda o: o[:2]))
    mids = [make_message_id(o, c) for o, c, _, _ in origins]
    cached = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.sampled_from(mids)), max_size=6))
    steps = []
    for t in range(1, draw(st.integers(1, 3)) + 1):
        broadcasts, dest, row = [], [], []
        for _ in range(draw(st.integers(1, 8))):
            o, c, ox, oy = draw(st.sampled_from(origins))
            msg = DisseminationMessage(make_message_id(o, c), o, ox, oy,
                                       draw(st.integers(0, 6)),
                                       draw(st.integers(0, 6)), c)
            to = draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n, unique=True))
            dest += to
            row += [len(broadcasts)] * len(to)
            broadcasts.append(Broadcast(draw(st.integers(0, n - 1)),
                                        draw(coord), draw(coord), msg))
        table = broadcast_table(broadcasts).table
        dest, row = np.array(dest), np.array(row)
        # the router's canonical order: (dest, message id, sender)
        order = np.lexsort((table["sender"][row], table["message_id"][row],
                            dest))
        steps.append(EnvelopeBatch(t - 1, table,
                                   dest[order].astype(np.int32),
                                   row[order].astype(np.int32)))
    return spec, draw(st.integers(0, 2**16)), cached, steps


@settings(max_examples=400, deadline=None)
@given(relay_cases())
def test_first_copy_step_matches_per_copy_oracle(case):
    spec, seed, cached, steps = case
    fast = _build_lp(spec, seed)
    slow = ScalarLP(0, range(spec.num_entities), spec, seed, per_copy=True)
    for eid, mid in cached:  # ids cached in an earlier step
        fast.cols.touch(np.array([eid]), np.array([mid]))
        slow.entities[eid].cache.touch(mid)
    for t, inbox in enumerate(steps, start=1):
        fast_report, slow_report = StepReport(), StepReport()
        fast_out = fast.run_step(t, inbox, fast_report)
        slow_out = slow.run_step(t, inbox, slow_report)
        assert fast_report == slow_report
        assert_same_table(fast_out, slow_out)
        assert fast.monitor == slow.monitor
        assert lp_state(fast) == lp_state(slow)
    assert fast.finish() == slow.finish()


def _table(out):
    """An outbox as a BROADCAST_COLUMNS array: the column LP's as it is,
    the scalar oracle's list of Broadcasts converted."""
    return out if isinstance(out, np.ndarray) else broadcast_table(out).table


def assert_same_table(out, want, msg=None):
    """out, a column LP's outbox, is want, the oracle's broadcasts, bit
    for bit and in order: the same fields in the same order, and -0.0 is
    not 0.0."""
    want = _table(want)
    assert isinstance(out, np.ndarray), msg
    assert out.dtype == want.dtype == BROADCAST_COLUMNS, msg
    assert out.tobytes() == want.tobytes(), msg


def lockstep(spec, seed, steps, lps, away=(), away_steps=range(0)):
    """Step LPs that each own every entity side by side, each routed its
    own broadcasts, and require after every step equal reports,
    broadcasts (in order, bit for bit), monitors, positions and entity
    states. lps[0] is a column LP, the reference for the others.

    The ids in away are extracted before the first step of away_steps
    and restored after its last; every LP must give the same records.
    Returns the summed reports and the records taken out.
    """
    world = World(spec.side, spec.num_entities)
    owner_of = np.zeros(spec.num_entities, dtype=np.intp)
    inboxes = [None] * len(lps)
    taken = []
    totals = StepReport()
    for t in range(steps):
        if away and t == away_steps.start:
            taken = [lp.extract(list(away)) for lp in lps]
            assert all(recs == taken[0] for recs in taken)
        reports = [StepReport() for _ in lps]
        outs = [lp.run_step(t, inbox, rep)
                for lp, inbox, rep in zip(lps, inboxes, reports)]
        if away and t == away_steps.stop - 1:
            for lp, recs in zip(lps, taken):
                lp.restore(recs)
        ref = lps[0]
        ids, xs, ys = ref.positions()
        for lp, rep, out in zip(lps[1:], reports[1:], outs[1:]):
            assert rep == reports[0], t
            assert_same_table(outs[0], out, t)
            assert lp.monitor == ref.monitor, t
            got = lp.positions()
            assert (got[0] == ids).all() and (got[1] == xs).all() \
                and (got[2] == ys).all(), t
            assert lp_state(lp) == lp_state(ref), t
        totals.merge(reports[0])
        world.update(ids, xs, ys)
        frozen = set(away) if t + 1 in away_steps else set()
        inboxes = [route_broadcasts(world, BroadcastTable(_table(out)),
                                    spec.params.interaction_range, t, frozen,
                                    owner_of)[0].get(0)
                   for out in outs]
    finishes = [lp.finish() for lp in lps]
    assert all(f == finishes[0] for f in finishes)
    return totals, taken[0] if taken else []


@pytest.fixture
def deadline():
    """Fail instead of hanging: a draw buffer that is never refilled can
    hand a mover the waypoint it stands on forever."""
    def expire(signum, frame):
        raise TimeoutError("no result within 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("preset,n,steps,overrides", [
    pytest.param("good", 400, 60, {}, id="good-400-60"),
    pytest.param("bad", 300, 40, {}, id="bad-300-40"),
    # caches of 4 fill and evict, within steps too, and an id cached
    # before a step can be evicted in it before its copy is decided; at
    # 128 no cache ever fills
    pytest.param("bad", 600, 60, {"cache_capacity": 4}, id="bad-600-60-4")])
@pytest.mark.parametrize("block", [1, 3, 64])
def test_column_step_matches_scalar_oracle(preset, n, steps, overrides,
                                           block, deadline, monkeypatch):
    """Whole runs of the column LP, at several draw-buffer sizes, against
    the scalar oracle, with a hand-off of a sixth of the entities from
    step 10 to 14: every step's counters, broadcasts and entity records
    are equal, and the records restore at cursors inside a block."""
    spec = TerritorySpec(n, make_params(preset, overrides))
    seed = 29
    monkeypatch.setattr(territory, "DRAW_BLOCK", block)
    lps = [LogicalProcess(0, range(n), spec, seed),
           ScalarLP(0, range(n), spec, seed)]
    away = list(range(0, n, 6))
    _, taken = lockstep(spec, seed, steps, lps, away, range(10, 15))
    assert len(taken) == len(away)
    if block > 1:
        assert any(r.cursor % block for r in taken)
    assert any(r.target is not None for r in taken)
    capacity = spec.params.cache_capacity
    full = lps[0].monitor.cache_high_water == capacity
    assert full == (capacity == 4)


def test_each_draw_block_is_loaded_once(monkeypatch):
    """Over a run with no hand-offs, rng.seek runs once per entity at
    build and once per block its stream then enters: entity count plus
    the sum of cursor // DRAW_BLOCK, so no block is refilled twice."""
    seeks = []
    seek = territory.rng.seek
    monkeypatch.setattr(territory.rng, "seek",
                        lambda *a: seeks.append(a) or seek(*a))
    spec = TerritorySpec(300, make_params("good"))
    lp = LogicalProcess(0, range(300), spec, 17)
    lockstep(spec, 17, 150, [lp])
    cursor = lp.cols.cursor
    assert cursor.min() >= territory.DRAW_BLOCK  # every stream refilled
    assert len(seeks) == 300 + int((cursor // territory.DRAW_BLOCK).sum())


def test_first_copy_run_matches_per_copy_run(monkeypatch):
    """A whole bad-preset run, mostly repeat copies, is the same with
    every copy decided one by one by the scalar oracle."""
    spec = TerritorySpec(600, make_params("bad"))
    decide_relay = territory.decide_relay
    calls = []

    def counting(cols, rows, *rest):
        calls.extend(rows.tolist())
        return decide_relay(cols, rows, *rest)

    monkeypatch.setattr(territory, "decide_relay", counting)
    fast = LogicalProcess(0, range(600), spec, 53)
    slow = ScalarLP(0, range(600), spec, 53, per_copy=True)
    totals, _ = lockstep(spec, 53, 60, [fast, slow])
    # the per-copy oracle decides every delivered copy, the LP only first
    # copies; the run must be mostly repeats for this to mean anything
    assert len(calls) < totals.delivered / 2
