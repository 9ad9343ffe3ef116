"""Vehicle cohort model: emissions math, capacity, adapter contract."""

import math
import sys

import pytest

from hybridsim.rng import Stream
from hybridsim.transport import (
    TransportParams,
    TransportResult,
    params_from_lines,
    params_to_lines,
    result_from_lines,
    result_to_lines,
    run_external,
    simulate_arrivals,
)


def test_empty_cohort():
    r = simulate_arrivals(TransportParams(n_vehicles=0))
    assert r == TransportResult(0.0, 0)


def test_scripted_single_vehicle_is_hand_checkable():
    # 10 tu cruising at 2.0 g/tu plus 5 tu idling at 1.0 g/tu = 25 g
    p = TransportParams(n_vehicles=1,
                       scripted_phases=(("cruise", 10.0), ("idle", 5.0)))
    r = simulate_arrivals(p)
    assert r.total_emissions == pytest.approx(25.0)
    assert r.customers_entering == 1


def test_scripted_phases_scale_linearly_with_cohort():
    script = (("cruise", 4.0), ("search", 2.0))
    one = simulate_arrivals(TransportParams(n_vehicles=1, scripted_phases=script))
    ten = simulate_arrivals(TransportParams(n_vehicles=10, scripted_phases=script))
    assert ten.total_emissions == pytest.approx(10 * one.total_emissions)


def test_capacity_caps_customers():
    p = TransportParams(n_vehicles=10, parking_capacity=3, seed=7)
    r = simulate_arrivals(p)
    assert r.customers_entering == 3
    assert simulate_arrivals(TransportParams(n_vehicles=2, parking_capacity=3,
                                             seed=7)).customers_entering == 2


def test_oracle_full_recompute():
    # independent recompute from the same per-vehicle streams
    p = TransportParams(n_vehicles=6, parking_capacity=4, seed=123)
    expect = 0.0
    for i in range(6):
        s = Stream(123, i)
        cruise = p.mean_cruise_time * s.uniform_range(0.5, 1.5)
        search = p.mean_search_time * s.uniform_range(0.5, 1.5)
        expect += cruise * p.cruise_rate + search * p.search_rate
        if i < 4:
            expect += p.idle_time * p.idle_rate
    r = simulate_arrivals(p)
    assert r.total_emissions == expect


def test_deterministic_and_seed_sensitive():
    p = TransportParams(n_vehicles=20, seed=5)
    assert simulate_arrivals(p) == simulate_arrivals(p)
    q = TransportParams(n_vehicles=20, seed=6)
    assert simulate_arrivals(p) != simulate_arrivals(q)


def test_adding_vehicles_never_disturbs_earlier_ones():
    # per-vehicle streams: totals for n vehicles are a prefix sum
    small = simulate_arrivals(TransportParams(n_vehicles=5, seed=9))
    big = simulate_arrivals(TransportParams(n_vehicles=8, seed=9))
    tail = 0.0
    p = TransportParams(n_vehicles=8, seed=9)
    for i in range(5, 8):
        s = Stream(9, i)
        tail += p.mean_cruise_time * s.uniform_range(0.5, 1.5) * p.cruise_rate
        tail += p.mean_search_time * s.uniform_range(0.5, 1.5) * p.search_rate
        tail += p.idle_time * p.idle_rate
    assert big.total_emissions == pytest.approx(small.total_emissions + tail)


def test_emissions_monotone_in_cohort_and_capacity():
    base = TransportParams(n_vehicles=10, parking_capacity=5, seed=3)
    more = TransportParams(n_vehicles=20, parking_capacity=5, seed=3)
    roomier = TransportParams(n_vehicles=10, parking_capacity=10, seed=3)
    assert simulate_arrivals(more).total_emissions > \
        simulate_arrivals(base).total_emissions
    # extra parked vehicles add idle time, never remove anything
    assert simulate_arrivals(roomier).total_emissions > \
        simulate_arrivals(base).total_emissions


def test_param_validation():
    with pytest.raises(ValueError):
        TransportParams(n_vehicles=-1)
    with pytest.raises(ValueError):
        TransportParams(mean_cruise_time=-0.1)
    with pytest.raises(ValueError):
        TransportParams(scripted_phases=(("warp", 1.0),))
    with pytest.raises(ValueError):
        TransportParams(scripted_phases=(("idle", -1.0),))
    for field in ("parking_capacity", "mean_search_time", "idle_time",
                  "cruise_rate", "search_rate", "idle_rate"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{field} = "):
                TransportParams(**{field: value})
    with pytest.raises(ValueError):
        TransportParams(scripted_phases=(("idle", math.nan),))


def test_param_lines_roundtrip():
    p = TransportParams(n_vehicles=7, parking_capacity=2, mean_cruise_time=1.25,
                        mean_search_time=0.5, idle_time=3.0, seed=42)
    assert params_from_lines(params_to_lines(p)) == p


def test_param_lines_reject_unknown_key():
    with pytest.raises(ValueError, match="line 1"):
        params_from_lines("wheels=4\n")


def test_param_lines_skip_comments_and_blanks():
    p = params_from_lines("# cohort\n\nn_vehicles=3\nseed=1\n")
    assert p.n_vehicles == 3 and p.seed == 1


def test_result_lines_roundtrip_bit_exact():
    r = TransportResult(119.42007788187304, 4)
    assert result_from_lines(result_to_lines(r)) == r


def test_result_lines_missing_field():
    with pytest.raises(ValueError):
        result_from_lines("total_emissions=1.0\n")


def test_external_adapter_matches_in_process():
    p = TransportParams(n_vehicles=12, parking_capacity=6, seed=77)
    got = run_external([sys.executable, "-m", "hybridsim.transport"], p)
    assert got == simulate_arrivals(p)


def test_external_adapter_reports_failure():
    p = TransportParams(n_vehicles=1)
    with pytest.raises(RuntimeError, match="failed"):
        run_external([sys.executable, "-c", "import sys; sys.exit(3)"], p)
