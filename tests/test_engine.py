"""Engine: partitioning, stepping, routing, LP-count equivalence."""

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
    Broadcast,
    DisseminationParams,
    TerritorySpec,
    World,
    broadcast_table,
    make_message_id,
    DisseminationMessage,
)


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


def _build_lp(spec, seed, lp_id=0):
    return LogicalProcess(lp_id, range(spec.num_entities), spec, seed)


def test_run_step_null():
    spec = TerritorySpec(10, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    report = StepReport()
    outbox = lp.run_step(0, None, report)
    assert outbox == []
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

    def counting(entity, msg, *rest):
        calls.append((entity.entity_id, step[0], msg.message_id))
        return decide_relay(entity, msg, *rest)

    monkeypatch.setattr(LogicalProcess, "run_step", stepping)
    monkeypatch.setattr(territory, "decide_relay", counting)
    return calls


def _inbox(produced_at, dest, pos, sends, num_entities=4):
    """lp 0's inbox after routing (sender, message) broadcasts made at pos.

    In the routing world only entity dest stands at pos; every other
    entity is far out of range, and lp 0 owns them all.
    """
    world = World(10_000.0, num_entities)
    world.pos_x[:] = world.pos_y[:] = 5_000.0
    world.update([dest], [pos[0]], [pos[1]])
    broadcasts = [Broadcast(sender, pos[0], pos[1], msg)
                  for sender, msg in sends]
    owner_of = np.zeros(num_entities, dtype=np.intp)
    inboxes, routed, _ = route_broadcasts(world, broadcasts, 250.0,
                                          produced_at, {}, owner_of)
    assert routed == len(sends) and list(inboxes) == [0]
    return inboxes[0]


def test_delivery_hook_invoked_exactly_once_per_first_copy(delivery_calls):
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    e2 = lp.entities[2]
    mid = make_message_id(0, 0)
    msg = DisseminationMessage(mid, 0, e2.x, e2.y, 6, 0, 0)
    lp.run_step(1, _inbox(0, 2, (e2.x, e2.y), [(0, msg)]), StepReport())
    assert delivery_calls == [(2, 1, mid)]


def test_inbox_canonical_order(delivery_calls):
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    e2 = lp.entities[2]
    m_late = DisseminationMessage(make_message_id(1, 3), 1, e2.x, e2.y, 6, 0, 3)
    m_early = DisseminationMessage(make_message_id(0, 2), 0, e2.x, e2.y, 6, 0, 2)
    # broadcast out of order; consumption must sort by (message id, sender)
    relayed = m_late._replace(ttl_remaining=4, hop_count=2)
    inbox = _inbox(3, 2, (e2.x, e2.y),
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
    e2 = lp.entities[2]
    msg = DisseminationMessage(make_message_id(0, 0), 0, e2.x, e2.y, 6, 0, 0)
    inbox = _inbox(0, 2, (e2.x, e2.y), [(0, msg)])
    with pytest.raises(EngineError, match="stale"):
        lp.run_step(5, inbox, StepReport())


def test_envelope_for_unowned_entity_rejected():
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp = _build_lp(spec, seed=1)
    msg = DisseminationMessage(make_message_id(0, 0), 0, 1.0, 1.0, 6, 0, 0)
    inbox = _inbox(0, 99, (1.0, 1.0), [(0, msg)], num_entities=100)
    with pytest.raises(EngineError, match="99"):
        lp.run_step(1, inbox, StepReport())


def test_step_failure_names_lp_step_entity(monkeypatch):
    generate_message = territory.generate_message

    def faulty(entity, t, params):
        if entity.entity_id == 7 and t == 3:
            raise RuntimeError("boom")
        return generate_message(entity, t, params)

    monkeypatch.setattr(territory, "generate_message", faulty)
    cfg = EngineConfig(num_lps=1, total_timesteps=10, master_seed=1)
    with pytest.raises(StepExecutionError) as ei:
        run_simulation(cfg, TerritorySpec(20))
    err = ei.value
    assert err.lp_id == 0 and err.step == 3 and err.entity_id == 7
    assert "lp=0" in str(err) and "step=3" in str(err) and "entity=7" in str(err)
    # a worker process reports the same failure in the same words
    with pytest.raises(StepExecutionError) as ei:
        run_simulation(cfg, TerritorySpec(20), mode="process")
    assert (ei.value.lp_id, ei.value.step, ei.value.entity_id) == (0, 3, 7)
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


def per_copy_run_step(lp, t, inbox, report):
    """The per-copy definition of LogicalProcess.run_step: every copy,
    repeats included, goes through decide_relay. The reference that the
    first-copy step loop, which counts repeats in bulk, must match."""
    spans = [(0, 0)] * len(lp._order)
    if inbox:
        assert inbox.produced_at == t - 1
        lo = np.searchsorted(inbox.dest, lp._ids, side="left")
        hi = np.searchsorted(inbox.dest, lp._ids, side="right")
        assert int((hi - lo).sum()) == len(inbox)
        spans = zip(lo.tolist(), hi.tolist())
        rows = inbox.broadcasts
        picks = inbox.row.tolist()
    params = lp.params
    outbox = []
    for e, (a, b) in zip(lp._order, spans):
        e.relay_budget = params.max_relays_per_step
        for k in range(a, b):
            copy = rows[picks[k]]
            m = territory.decide_relay(e, copy.message, copy.sender_x,
                                       copy.sender_y, params, lp.side,
                                       report, lp.monitor)
            if m is not None:
                outbox.append(Broadcast(e.entity_id, e.x, e.y, m))
        if e.mobile:
            territory.rwp_step(e, lp.side)
        m = territory.generate_message(e, t, params)
        if m is not None:
            report.generated += 1
            outbox.append(Broadcast(e.entity_id, e.x, e.y, m))
    return outbox


def _entity_state(lp):
    return {eid: (e.cache.ids(), e.cache.high_water, e.stream.cursor,
                  e.relay_budget, e.x, e.y)
            for eid, e in lp.entities.items()}


@st.composite
def relay_cases(draw):
    """Entities, params, ids cached beforehand and a few steps' inboxes.

    Copies of one message differ in sender, position, hop and ttl (0
    included); caches hold one to three ids, so they run full; budgets
    may be 0.
    """
    n = draw(st.integers(1, 5))
    params = DisseminationParams(
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
        table = broadcast_table(broadcasts)
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
    fast, slow = _build_lp(spec, seed), _build_lp(spec, seed)
    for lp in (fast, slow):
        for eid, mid in cached:  # ids cached in an earlier step
            lp.entities[eid].cache.touch(mid)
    for t, inbox in enumerate(steps, start=1):
        fast_report, slow_report = StepReport(), StepReport()
        fast_out = fast.run_step(t, inbox, fast_report)
        slow_out = per_copy_run_step(slow, t, inbox, slow_report)
        assert fast_report == slow_report
        assert fast_out == slow_out
        assert fast.monitor == slow.monitor
        assert _entity_state(fast) == _entity_state(slow)
    assert fast.finish() == slow.finish()


def test_first_copy_run_matches_per_copy_run(monkeypatch):
    """A whole bad-preset run, mostly repeat copies, is the same with
    every copy decided one by one."""
    spec = TerritorySpec(600, make_params("bad"))
    cfg = EngineConfig(num_lps=1, total_timesteps=60, master_seed=53)
    finish = LogicalProcess.finish
    decide_relay = territory.decide_relay

    def run():
        states, calls = {}, []

        def finishing(lp):
            states.update(_entity_state(lp))
            return finish(lp)

        def counting(*args):
            calls.append(None)
            return decide_relay(*args)

        monkeypatch.setattr(LogicalProcess, "finish", finishing)
        monkeypatch.setattr(territory, "decide_relay", counting)
        m = run_simulation(cfg, spec, mode="inprocess")
        return m, states, len(calls)

    fast, fast_states, fast_calls = run()
    monkeypatch.setattr(LogicalProcess, "run_step", per_copy_run_step)
    slow, slow_states, slow_calls = run()
    assert fast.comparable() == slow.comparable()
    assert fast_states == slow_states
    assert slow_calls == slow.totals.delivered
    # the run must be mostly repeats for the comparison to mean anything
    assert fast_calls < slow_calls / 2
