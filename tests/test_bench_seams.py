"""The benchmark's probes still find and count what they wrap.

perfbench/ times the library from outside by swapping wrappers in for
library functions and methods, looked up by name. A rename, or a call
that stops going through the patched attribute, would leave a probe
counting nothing without failing anything; these tests fail instead,
for the layer tracer, for the run clock on both backends and for the
benchmark's reach check on the router's output, hand-offs included.
"""

import importlib
from pathlib import Path

import pytest

from hybridsim import engine
from hybridsim.coordination import (FixedDurationPolicy, HybridSpec,
                                    ScriptedTrigger)
from hybridsim.engine import EngineConfig, run_simulation
from hybridsim.parallel import ProcessBackend
from hybridsim.territory import TerritorySpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("layertrace"),
            importlib.import_module("probes"))


def test_probes_resolve_and_count_a_run(bench, tmp_path):
    layertrace, probes = bench
    tracer = layertrace.Tracer(str(tmp_path), cost=layertrace.NO_COST)
    for owner, name, _ in tracer.probes() + probes.RunClock().probes():
        assert hasattr(owner, name), f"{owner.__name__}.{name} is gone"

    cfg = EngineConfig(num_lps=1, total_timesteps=20, master_seed=11)
    with probes.patched(tracer.probes()):
        m = run_simulation(cfg, TerritorySpec(200), mode="inprocess")
    metrics, _ = layertrace.summarize(tracer.states, m.totals,
                                      m.wall_clock_seconds)
    for key in ("territory.decide_relay.calls", "territory.rwp_step.calls",
                "territory.generate.calls", "engine.run_step.s"):
        assert metrics[key] > 0, key
    # generation is one bulk call per LP per step
    assert metrics["territory.generate.calls"] == 20


def test_run_clock_counts_a_process_run(bench):
    _, probes = bench
    clock = probes.RunClock()
    cfg = EngineConfig(num_lps=2, total_timesteps=12, master_seed=11)
    with probes.patched(clock.probes()):
        run_simulation(cfg, TerritorySpec(120), mode="process")
    assert len(clock.steps) == 12  # one timestamp per step, not two
    assert clock.finish_at is not None
    assert clock.active_at_finish == 120
    # the probes leave the inherited operations inherited
    assert "step" not in vars(ProcessBackend)
    assert "finish" not in vars(ProcessBackend)


def test_reach_sampler_compares_routed_broadcasts(bench, monkeypatch):
    checks = importlib.import_module("checks")  # perfbench/ is on the path
    sampler = checks.ReachSampler(engine.route_broadcasts)
    monkeypatch.setattr(engine, "route_broadcasts", sampler)
    cfg = EngineConfig(num_lps=1, total_timesteps=sampler.EVERY_STEPS + 2,
                       master_seed=11)
    run_simulation(cfg, TerritorySpec(200), mode="inprocess")
    assert sampler.compared > 0
    assert sampler.errors == []


def test_probes_follow_a_hybrid_run(bench, monkeypatch):
    # one wrapper holds 8 entities from step 5 to 13, across the reach
    # check's sampled step 10
    _, probes = bench
    checks = importlib.import_module("checks")
    route = engine.route_broadcasts
    frozen_at = {}

    def recording(world, broadcasts, interaction_range, t, frozen, owner_of):
        frozen_at[t] = sorted(frozen)
        return route(world, broadcasts, interaction_range, t, frozen,
                     owner_of)

    sampler = checks.ReachSampler(recording)
    monkeypatch.setattr(engine, "route_broadcasts", sampler)
    hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(5,),
                                                transfer_count=8),
                        policy=FixedDurationPolicy(8))
    clock = probes.RunClock()
    cfg = EngineConfig(num_lps=1, total_timesteps=16, master_seed=11)
    with probes.patched(clock.probes()):
        m = run_simulation(cfg, TerritorySpec(200), hybrid=hybrid,
                           mode="inprocess")
    assert m.level1.spawns == 1 and m.frozen_drops > 0
    assert frozen_at[sampler.EVERY_STEPS] == list(range(8))
    assert frozen_at[4] == [] and frozen_at[13] == []
    wrappers = [tr["wrapper_id"] for tr in m.wrapper_transcripts]
    assert sorted(clock.session_s) == wrappers == [0]
    assert all(s > 0 for s in clock.session_s.values())
    assert clock.active_at_finish == 200
    assert sampler.compared > 0
    assert sampler.errors == []


def test_tracer_counts_the_wire_of_local_sessions(bench, tmp_path):
    # local sessions run inline on the coarse thread, and each record is
    # still encoded once by its sender and decoded once by its receiver
    layertrace, probes = bench
    workloads = importlib.import_module("workloads")
    tracer = layertrace.Tracer(str(tmp_path), cost=layertrace.NO_COST)
    with probes.patched(tracer.probes()):
        m = workloads.WORKLOADS["hybrid_market"].run(11)
    metrics, _ = layertrace.summarize(tracer.states, m.totals,
                                      m.wall_clock_seconds)
    lines = [line for t in m.wrapper_transcripts for line in t["lines"]]
    # a transcript line is "> " or "< " and the record, without newline
    assert metrics["protocol.records"] == len(lines) == 2058
    assert metrics["protocol.bytes"] == sum(len(line) - 1
                                            for line in lines) == 280408
    assert sum(st.calls.get("protocol.decode", 0)
               for st in tracer.states) == len(lines)
    assert [st.label for st in tracer.states] == [layertrace.COARSE_THREAD]
