"""Vehicle arrival and emissions model (the coarse-of-the-fine stand-in).

A cohort of vehicles arrives at the market area; each cruises in, then
searches for parking; the first parking_capacity vehicles park (engine
briefly idling while maneuvering in), the rest give up and leave.
Emissions are a quasi-steady phase sum: duration times a per-phase rate.
Per-vehicle randomness comes from streams keyed (seed, vehicle index),
so results are deterministic under a fixed seed and adding vehicles
never changes the ones already simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import metrics, rng


@dataclass(frozen=True)
class TransportParams(metrics.TypedSettings):
    n_vehicles: metrics.Count = 0
    parking_capacity: metrics.Count = 100
    mean_cruise_time: metrics.NonNegative = 10.0
    mean_search_time: metrics.NonNegative = 5.0
    idle_time: metrics.NonNegative = 5.0
    cruise_rate: metrics.NonNegative = 2.0  # grams per time unit in each phase
    search_rate: metrics.NonNegative = 1.5
    idle_rate: metrics.NonNegative = 1.0
    seed: metrics.Seed = 0
    # fixed (phase name, duration) script applied to every vehicle instead
    # of drawn durations; None for the stochastic model
    scripted_phases: Optional[tuple] = None

    def __post_init__(self):
        super().__post_init__()
        duration = metrics.accepts(metrics.NonNegative)
        for phase, dur in self.scripted_phases or ():
            if phase not in ("cruise", "search", "idle"):
                raise ValueError(f"unknown phase {phase!r}")
            duration.check(f"{phase} duration", dur)


class TransportResult(NamedTuple):
    total_emissions: float  # grams
    customers_entering: int


def simulate_arrivals(params: TransportParams) -> TransportResult:
    """Run the cohort; returns totals.

    Drawn durations are uniform in [0.5, 1.5) times the configured mean
    (two draws per vehicle: cruise, then search). Vehicles park in
    arrival order until capacity; parked vehicles add a fixed idle
    phase. customers_entering = number parked = min(n, capacity).
    """
    total = 0.0
    gen = rng.generator()
    for i in range(params.n_vehicles):
        parked = i < params.parking_capacity
        if params.scripted_phases is not None:
            phases = list(params.scripted_phases)
        else:
            key = [params.seed, i]
            cruise, search = rng.seek(gen, key, 0).random(2).tolist()
            phases = [("cruise", params.mean_cruise_time
                       * rng.uniform_range(cruise, 0.5, 1.5)),
                      ("search", params.mean_search_time
                       * rng.uniform_range(search, 0.5, 1.5))]
            if parked:
                phases.append(("idle", params.idle_time))
        for phase, dur in phases:
            total += dur * getattr(params, phase + "_rate")
    customers = min(params.n_vehicles, params.parking_capacity)
    return TransportResult(total, customers)

