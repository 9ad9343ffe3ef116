"""Vehicle cohort model: emissions math, capacity, determinism, validation."""

import math

import pytest

from hybridsim.rng import Stream
from hybridsim.transport import (
    TransportParams,
    TransportResult,
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

