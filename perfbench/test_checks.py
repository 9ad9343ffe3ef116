"""Each correctness check passes on a real run and rejects a wrong one.

    python3 -m pytest -q perfbench/test_checks.py

The runs are small versions of the benchmark's workloads; every test
first shows the check accepts the genuine output, then breaks one value
and shows the check names it.
"""

import copy
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from hybridsim import conformance, engine  # noqa: E402
from hybridsim.coordination import Level1Settings  # noqa: E402
from workloads import Workload  # noqa: E402

GOOD = Workload("good", num_entities=400, steps=40, preset="good")
FLOOD = Workload("flood", num_entities=300, steps=30, preset="bad")
HYBRID = Workload("hybrid", num_entities=200, steps=40, preset="good",
                  transfer_count=4, spawn_every=12)


@pytest.fixture(scope="module")
def good_run():
    return GOOD.run(3)


@pytest.fixture(scope="module")
def hybrid_run():
    return HYBRID.run(3)


def broken(m, mutate):
    m = copy.deepcopy(m)
    mutate(m)
    return m


def test_accounting_rejects_unbalanced_counters(good_run):
    assert checks.accounting(good_run) == []

    def extra_delivery(m):
        m.totals.delivered += 1

    def lost_step_report(m):
        m.per_step[7].generated += 1

    def extra_route(m):
        m.routed += 1
        m.routed_per_step[-2] += 1

    for mutate in (extra_delivery, lost_step_report, extra_route):
        assert checks.accounting(broken(good_run, mutate))


@pytest.mark.parametrize("field,value", [
    ("max_delivered_hop", 7),
    ("relay_ring_min", 225.0),
    ("relay_ring_max", 250.5),
    ("relay_origin_max", 1000.5),
    ("max_relays_entity_step", 11),
    ("cache_high_water", 129),
])
def test_invariants_reject_each_bound(good_run, field, value):
    params = GOOD.params
    assert good_run.totals.relayed > 0
    assert checks.invariants(good_run, params) == []
    bad = broken(good_run, lambda m: setattr(m.monitor, field, value))
    assert checks.invariants(bad, params)


def test_subcritical_ceiling_and_generation(good_run):
    params = GOOD.params
    assert 77.0 < checks.subcritical_ceiling(params) < 77.5
    assert checks.subcritical(good_run, params) == []
    assert checks.generation(good_run, params, 400, 40) == []

    def flood(m):
        m.totals.delivered = 80 * m.totals.generated

    assert checks.subcritical(broken(good_run, flood), params)

    def too_many(m):
        m.totals.generated += 40  # mean 16, sd 4

    assert checks.generation(broken(good_run, too_many), params, 400, 40)


def test_reach_sampler_catches_a_dropped_receiver(monkeypatch):
    sampler = checks.ReachSampler(engine.route_broadcasts)
    monkeypatch.setattr(engine, "route_broadcasts", sampler)
    FLOOD.run(5)
    assert sampler.compared > 0 and sampler.errors == []

    def drop_first(*args):
        inboxes, routed, drops = sampler.orig(*args)
        for envs in inboxes.values():
            del envs[0]
        return inboxes, routed, drops

    lossy = checks.ReachSampler(drop_first)
    monkeypatch.setattr(engine, "route_broadcasts", lossy)
    with pytest.raises(AssertionError):  # the engine's own accounting
        FLOOD.run(5)
    assert lossy.errors


def test_sessions_reject_wrong_results(hybrid_run):
    level1 = Level1Settings()
    spawn_at = HYBRID.spawn_at
    assert spawn_at == (5, 17)
    assert checks.sessions(hybrid_run, level1, spawn_at, 4) == []
    assert checks.sessions(hybrid_run, level1, spawn_at + (29,), 4)
    assert checks.sessions(
        broken(hybrid_run, lambda m: setattr(m.level1, "arrived", 7)),
        level1, spawn_at, 4)

    def edit_result(old, new):
        def mutate(m):
            lines = m.wrapper_transcripts[0]["lines"]
            i = next(i for i, line in enumerate(lines)
                     if line.startswith("< RESULT"))
            assert old in lines[i]
            lines[i] = lines[i].replace(old, new)
        return mutate

    res = next(line for line in hybrid_run.wrapper_transcripts[0]["lines"]
               if line.startswith("< RESULT"))
    assert " rng_draws=8 " in res and " customers=4 " in res
    emissions = res.split(" emissions=")[1].split(" ")[0]
    for old, new in ((" rng_draws=8 ", " rng_draws=6 "),
                     (" customers=4 ", " customers=3 "),
                     (f" emissions={emissions} ", " emissions=1.0 ")):
        assert checks.sessions(broken(hybrid_run, edit_result(old, new)),
                               level1, spawn_at, 4)


def test_wire_round_trip_rejects_non_canonical_lines(hybrid_run):
    assert checks.wire_round_trip(hybrid_run) == []

    def padded_step(m):
        lines = m.wrapper_transcripts[1]["lines"]
        lines[0] = lines[0].replace(" step=", " step=0", 1)

    assert checks.wire_round_trip(broken(hybrid_run, padded_step))


def test_workload_check_rejects_entities_left_frozen(hybrid_run):
    assert HYBRID.check(hybrid_run, 200) == []
    assert HYBRID.check(hybrid_run, 196)


def test_conformance_rejects_an_altered_golden(tmp_path, monkeypatch):
    assert checks.conformance() == []
    src = conformance.golden_path("hybrid_w0")
    altered = tmp_path / "hybrid_w0.transcript"
    shutil.copy(src, altered)
    text = altered.read_text()
    altered.write_text(text.replace("< READY", "< READY x=1", 1))
    real = conformance.golden_path
    monkeypatch.setattr(
        conformance, "golden_path",
        lambda name: str(altered) if name == "hybrid_w0" else real(name))
    errs = checks.conformance()
    assert any("hybrid_w0" in e for e in errs)
