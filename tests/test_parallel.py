"""Process backend: bit-exact parity with in-process, failure handling."""

import multiprocessing
import threading
import time
from dataclasses import dataclass

import pytest

from hybridsim.coordination import FixedDurationPolicy, HybridSpec, ScriptedTrigger
from hybridsim.engine import (
    BarrierTimeoutError,
    EngineConfig,
    EngineError,
    InProcessBackend,
    partition_entities,
    run_simulation,
)
from hybridsim.parallel import ProcessBackend
from hybridsim.territory import (
    DisseminationParams,
    TerritoryModel,
    TerritorySpec,
    world_side,
)


def _config(num_lps, steps=30, seed=11, timeout=60.0):
    return EngineConfig(num_lps=num_lps, total_timesteps=steps,
                        master_seed=seed, barrier_timeout=timeout)


def test_process_run_matches_inprocess_bit_exact():
    spec = TerritorySpec(num_entities=150)
    a = run_simulation(_config(2), spec, mode="inprocess")
    b = run_simulation(_config(2), spec, mode="process")
    assert a.comparable() == b.comparable()
    assert a.totals.generated > 0  # the run actually did work
    assert a.totals.delivered > 0


def test_process_lp_count_does_not_change_results():
    spec = TerritorySpec(num_entities=150)
    two = run_simulation(_config(2), spec, mode="process")
    four = run_simulation(_config(4), spec, mode="process")
    assert two.comparable() == four.comparable()


def test_auto_mode_picks_process_for_multiple_lps():
    spec = TerritorySpec(num_entities=60)
    one = run_simulation(_config(1, steps=10), spec, mode="auto")
    three = run_simulation(_config(3, steps=10), spec, mode="auto")
    assert one.comparable() == three.comparable()


def test_hybrid_run_identical_across_backends():
    spec = TerritorySpec(num_entities=64)
    hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(5,), transfer_count=4),
                        policy=FixedDurationPolicy(3))
    a = run_simulation(_config(1, steps=12, seed=20), spec, hybrid=hybrid,
                       mode="inprocess")
    b = run_simulation(_config(3, steps=12, seed=20), spec, hybrid=hybrid,
                       mode="process")
    assert a.level1.spawns == 1
    assert a.level1.entities_transferred == 4
    # wrapper transcripts are part of the comparable surface: the fine
    # level must see byte-identical traffic regardless of LP layout
    assert a.comparable() == b.comparable()


def test_extract_restore_through_pipes():
    spec = TerritorySpec(num_entities=24)
    config = _config(3, steps=5)
    pb = ProcessBackend(config, spec)
    try:
        ib = InProcessBackend(config, spec)
        ids = [0, 7, 13, 21]
        got = pb.extract(ids)
        assert [r.entity_id for r in got] == ids  # input order, not lp order
        assert got == ib.extract(ids)  # same partition, same streams
        assert pb.entity_count() == 20
        pb.restore(got)
        assert pb.entity_count() == 24
        # state after a round trip is unchanged
        assert pb.extract(ids) == got
        pb.restore(got)
    finally:
        pb.close()


def test_initial_positions_match_inprocess():
    spec = TerritorySpec(num_entities=30)
    config = _config(2, steps=5)
    pb = ProcessBackend(config, spec)
    try:
        ib = InProcessBackend(config, spec)
        flat_p = sorted(
            (int(i), float(x), float(y))
            for ids, xs, ys in pb.initial_positions()
            for i, x, y in zip(ids, xs, ys))
        flat_i = sorted(
            (int(i), float(x), float(y))
            for ids, xs, ys in ib.initial_positions()
            for i, x, y in zip(ids, xs, ys))
        assert flat_p == flat_i
    finally:
        pb.close()


# --- failure paths -------------------------------------------------------


@dataclass(frozen=True)
class _StallSpec:
    """Territory model, except one hook hangs for a while in the LP that
    owns stall_entity: its step (begin_entity_step), its start-up
    (build_entities) or its final report (collect_cache_stats)."""

    num_entities: int = 6
    stall_entity: int = 0
    stall_seconds: float = 2.0
    stall_in: str = "begin_entity_step"
    params: DisseminationParams = DisseminationParams()

    @property
    def side(self) -> float:
        return world_side(self.num_entities)

    def build_model(self, master_seed, monitor):
        inner = TerritoryModel(self.params, master_seed, self.side, monitor)
        return _StallModel(inner, self.stall_entity, self.stall_seconds,
                           self.stall_in)


class _StallModel:
    def __init__(self, inner, stall_entity, stall_seconds, stall_in):
        self._inner = inner
        self._stall = stall_entity
        self._seconds = stall_seconds
        self._hook = stall_in

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _maybe_stall(self, hook, entity_ids):
        if hook == self._hook and self._stall in entity_ids:
            time.sleep(self._seconds)

    def begin_entity_step(self, e, t):
        self._maybe_stall("begin_entity_step", (e.entity_id,))
        self._inner.begin_entity_step(e, t)

    def build_entities(self, entity_ids):
        self._maybe_stall("build_entities", entity_ids)
        return self._inner.build_entities(entity_ids)

    def collect_cache_stats(self, entities):
        self._maybe_stall("collect_cache_stats", entities)
        self._inner.collect_cache_stats(entities)


def _stalled_lp(spec, config):
    assignment = partition_entities(range(spec.num_entities), config.num_lps,
                                    config.master_seed)
    return next(lp for lp, ids in assignment.items()
                if spec.stall_entity in ids)


def test_barrier_timeout_names_the_silent_lp():
    spec = _StallSpec(stall_seconds=2.0)
    config = _config(2, steps=3, timeout=0.3)
    lp = _stalled_lp(spec, config)
    pb = ProcessBackend(config, spec)
    try:
        with pytest.raises(BarrierTimeoutError) as info:
            pb.step(0, {})
        assert str(lp) in str(info.value)
    finally:
        pb.close()


def test_worker_death_mid_step_is_reported():
    spec = _StallSpec(stall_seconds=30.0)
    config = _config(2, steps=3, timeout=60.0)
    lp = _stalled_lp(spec, config)
    pb = ProcessBackend(config, spec)
    try:
        killer = threading.Timer(0.3, pb._procs[lp].terminate)
        killer.start()
        with pytest.raises(EngineError, match=f"lp={lp} died"):
            pb.step(0, {})
        killer.join()
    finally:
        pb.close()


def test_slow_hello_times_out_and_closes_started_workers():
    spec = _StallSpec(stall_seconds=2.0, stall_in="build_entities")
    config = _config(2, steps=3, timeout=0.3)
    lp = _stalled_lp(spec, config)
    before = set(multiprocessing.active_children())
    t0 = time.monotonic()
    with pytest.raises(EngineError, match=rf"hello from lp\(s\) \[{lp}\]"):
        ProcessBackend(config, spec)
    assert time.monotonic() - t0 < 10.0  # the stall, not a 60 s default
    assert set(multiprocessing.active_children()) <= before


def test_slow_finish_times_out_naming_the_lp():
    spec = _StallSpec(stall_seconds=2.0, stall_in="collect_cache_stats")
    config = _config(2, steps=3, timeout=0.3)
    lp = _stalled_lp(spec, config)
    pb = ProcessBackend(config, spec)
    try:
        pb.step(0, {})
        with pytest.raises(EngineError,
                           match=rf"finish from lp\(s\) \[{lp}\]"):
            pb.finish()
    finally:
        pb.close()
