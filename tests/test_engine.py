"""Engine: partitioning, stepping, barrier, routing, LP-count equivalence."""

import threading
import time

import numpy as np
import pytest

from hybridsim.engine import (
    BarrierTimeoutError,
    EngineConfig,
    EngineError,
    LogicalProcess,
    StepBarrier,
    StepExecutionError,
    partition_entities,
    route_broadcasts,
    run_simulation,
)
from hybridsim.metrics import InvariantMonitor, StepReport
from hybridsim.territory import (
    Broadcast,
    DisseminationParams,
    TerritoryModel,
    TerritorySpec,
    World,
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
    with pytest.raises(ValueError):
        EngineConfig(timestep_duration=0.0)


def _build_lp(spec, seed, lp_id=0):
    monitor = InvariantMonitor()
    model = spec.build_model(seed, monitor)
    lp = LogicalProcess(lp_id, model.build_entities(range(spec.num_entities)))
    return lp, model


def test_run_step_null():
    spec = TerritorySpec(10, DisseminationParams(generation_probability=0.0))
    lp, model = _build_lp(spec, seed=1)
    report = StepReport()
    outbox = lp.run_step(0, model, report)
    assert outbox == []
    assert report == StepReport()


def test_per_step_generation_rate():
    # 1000 entities at p=0.001: about one generated message per step
    spec = TerritorySpec(1000)
    m = run_simulation(EngineConfig(num_lps=1, total_timesteps=900,
                                    master_seed=3), spec)
    mean = m.totals.generated / 900
    assert abs(mean - 1.0) < 0.11  # ~3 sigma for 900k Bernoulli(0.001)


class _CountingModel(TerritoryModel):
    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.delivery_calls = []

    def process_delivery(self, entity, envelope, t, report):
        self.delivery_calls.append((entity.entity_id, t,
                                    envelope.message.message_id))
        return super().process_delivery(entity, envelope, t, report)


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


def test_delivery_hook_invoked_exactly_once_per_envelope():
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    monitor = InvariantMonitor()
    model = _CountingModel(spec.params, 1, spec.side, monitor)
    lp = LogicalProcess(0, model.build_entities(range(4)))
    e2 = lp.entities[2]
    mid = make_message_id(0, 0)
    msg = DisseminationMessage(mid, 0, e2.x, e2.y, 6, 0, 0)
    lp.inbox = _inbox(0, 2, (e2.x, e2.y), [(0, msg)])
    lp.run_step(1, model, StepReport())
    assert model.delivery_calls == [(2, 1, mid)]


def test_inbox_canonical_order():
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    monitor = InvariantMonitor()
    model = _CountingModel(spec.params, 1, spec.side, monitor)
    lp = LogicalProcess(0, model.build_entities(range(4)))
    e2 = lp.entities[2]
    m_late = DisseminationMessage(make_message_id(1, 3), 1, e2.x, e2.y, 6, 0, 3)
    m_early = DisseminationMessage(make_message_id(0, 2), 0, e2.x, e2.y, 6, 0, 2)
    # broadcast out of order; consumption must sort by (message id, sender)
    lp.inbox = _inbox(3, 2, (e2.x, e2.y),
                      [(3, m_late), (1, m_early), (0, m_late)])
    lp.run_step(4, model, StepReport())
    assert model.delivery_calls == [
        (2, 4, m_early.message_id),
        (2, 4, m_late.message_id),   # sender 0 before sender 3
        (2, 4, m_late.message_id),
    ]


def test_stale_envelope_rejected():
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp, model = _build_lp(spec, seed=1)
    e2 = lp.entities[2]
    msg = DisseminationMessage(make_message_id(0, 0), 0, e2.x, e2.y, 6, 0, 0)
    lp.inbox = _inbox(0, 2, (e2.x, e2.y), [(0, msg)])
    with pytest.raises(EngineError, match="stale"):
        lp.run_step(5, model, StepReport())


def test_envelope_for_unowned_entity_rejected():
    spec = TerritorySpec(4, DisseminationParams(generation_probability=0.0))
    lp, model = _build_lp(spec, seed=1)
    msg = DisseminationMessage(make_message_id(0, 0), 0, 1.0, 1.0, 6, 0, 0)
    lp.inbox = _inbox(0, 99, (1.0, 1.0), [(0, msg)], num_entities=100)
    with pytest.raises(EngineError, match="99"):
        lp.run_step(1, model, StepReport())


class _FaultyModel(TerritoryModel):
    def generate(self, entity, t, report):
        if entity.entity_id == 7 and t == 3:
            raise RuntimeError("boom")
        return super().generate(entity, t, report)


class _FaultySpec(TerritorySpec):
    def build_model(self, master_seed, monitor):
        return _FaultyModel(self.params, master_seed, self.side, monitor)


def test_step_failure_names_lp_step_entity():
    with pytest.raises(StepExecutionError) as ei:
        run_simulation(EngineConfig(num_lps=1, total_timesteps=10,
                                    master_seed=1), _FaultySpec(20))
    err = ei.value
    assert err.lp_id == 0 and err.step == 3 and err.entity_id == 7
    assert "lp=0" in str(err) and "step=3" in str(err) and "entity=7" in str(err)


def test_barrier_single_lp_completes_immediately():
    b = StepBarrier([0])
    b.begin_step(0)
    b.arrive(0, 0, "payload")
    assert b.wait_complete(0, timeout=0.001) == {0: "payload"}


def test_barrier_timeout_names_silent_lps():
    b = StepBarrier([0, 1, 2])
    b.begin_step(4)
    b.arrive(0, 4)
    with pytest.raises(BarrierTimeoutError) as ei:
        b.wait_complete(4, timeout=0.05)
    assert ei.value.step == 4
    assert ei.value.silent_lp_ids == (1, 2)
    assert "1, 2" in str(ei.value)


def test_barrier_waits_for_delayed_lp():
    b = StepBarrier([0, 1, 2])
    b.begin_step(0)

    def late(lp_id, delay):
        time.sleep(delay)
        b.arrive(lp_id, 0)

    threads = [threading.Thread(target=late, args=(1, 0.05)),
               threading.Thread(target=late, args=(2, 0.15))]
    for th in threads:
        th.start()
    b.arrive(0, 0)
    t0 = time.perf_counter()
    b.wait_complete(0, timeout=5.0)
    waited = time.perf_counter() - t0
    for th in threads:
        th.join()
    assert waited >= 0.10  # completion gated on the slowest LP
    arrival_order = [lp for (_, lp, _) in b.trace]
    assert arrival_order == [0, 1, 2]


def test_barrier_rejects_wrong_step_and_unknown_lp():
    b = StepBarrier([0, 1])
    b.begin_step(2)
    with pytest.raises(EngineError):
        b.arrive(0, 3)
    with pytest.raises(EngineError):
        b.arrive(9, 2)


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
