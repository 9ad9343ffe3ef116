"""Vehicle arrival and emissions model (the coarse-of-the-fine stand-in).

A cohort of vehicles arrives at the market area; each cruises in, then
searches for parking; the first parking_capacity vehicles park (engine
briefly idling while maneuvering in), the rest give up and leave.
Emissions are a quasi-steady phase sum: duration times a per-phase rate.
Per-vehicle randomness comes from streams keyed (seed, vehicle index),
so results are deterministic under a fixed seed and adding vehicles
never changes the ones already simulated.

The same computation is reachable over a line-oriented external-command
contract (key=value lines on stdin, results on stdout) so a different
vehicle simulator can be dropped in behind the identical interface:
``python -m hybridsim.transport`` serves it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .rng import Stream

PHASE_RATES_G_PER_TU = {"cruise": 2.0, "search": 1.5, "idle": 1.0}


@dataclass(frozen=True)
class TransportParams:
    n_vehicles: int = 0
    parking_capacity: int = 100
    mean_cruise_time: float = 10.0
    mean_search_time: float = 5.0
    idle_time: float = 5.0
    cruise_rate: float = PHASE_RATES_G_PER_TU["cruise"]
    search_rate: float = PHASE_RATES_G_PER_TU["search"]
    idle_rate: float = PHASE_RATES_G_PER_TU["idle"]
    seed: int = 0
    # fixed (phase name, duration) script applied to every vehicle instead
    # of drawn durations; None for the stochastic model
    scripted_phases: Optional[tuple] = None

    def __post_init__(self):
        if self.n_vehicles < 0:
            raise ValueError("n_vehicles must be >= 0")
        if self.parking_capacity < 0:
            raise ValueError("parking_capacity must be >= 0")
        for name in ("mean_cruise_time", "mean_search_time", "idle_time",
                     "cruise_rate", "search_rate", "idle_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.scripted_phases is not None:
            for phase, dur in self.scripted_phases:
                if phase not in PHASE_RATES_G_PER_TU:
                    raise ValueError(f"unknown phase {phase!r}")
                if dur < 0:
                    raise ValueError("phase durations must be >= 0")


class TransportResult(NamedTuple):
    total_emissions: float  # grams
    customers_entering: int


def _phase_rate(params: TransportParams, phase: str) -> float:
    return {"cruise": params.cruise_rate, "search": params.search_rate,
            "idle": params.idle_rate}[phase]


def simulate_arrivals(params: TransportParams) -> TransportResult:
    """Run the cohort; returns totals.

    Drawn durations are uniform in [0.5, 1.5) times the configured mean
    (two draws per vehicle: cruise, then search). Vehicles park in
    arrival order until capacity; parked vehicles add a fixed idle
    phase. customers_entering = number parked = min(n, capacity).
    """
    total = 0.0
    for i in range(params.n_vehicles):
        parked = i < params.parking_capacity
        if params.scripted_phases is not None:
            phases = list(params.scripted_phases)
        else:
            s = Stream(params.seed, i)
            phases = [("cruise", params.mean_cruise_time * s.uniform_range(0.5, 1.5)),
                      ("search", params.mean_search_time * s.uniform_range(0.5, 1.5))]
            if parked:
                phases.append(("idle", params.idle_time))
        for phase, dur in phases:
            total += dur * _phase_rate(params, phase)
    customers = min(params.n_vehicles, params.parking_capacity)
    return TransportResult(total, customers)


# --- external-command adapter -------------------------------------------

_PARAM_FIELDS = {
    "n_vehicles": int,
    "parking_capacity": int,
    "mean_cruise_time": float,
    "mean_search_time": float,
    "idle_time": float,
    "cruise_rate": float,
    "search_rate": float,
    "idle_rate": float,
    "seed": int,
}


def params_to_lines(params: TransportParams) -> str:
    out = []
    for key, conv in _PARAM_FIELDS.items():
        v = getattr(params, key)
        out.append(f"{key}={v!r}" if conv is float else f"{key}={v}")
    return "\n".join(out) + "\n"


def params_from_lines(text: str) -> TransportParams:
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _PARAM_FIELDS:
            raise ValueError(f"line {lineno}: unknown parameter {key!r}")
        kwargs[key] = _PARAM_FIELDS[key](value.strip())
    return TransportParams(**kwargs)


def result_to_lines(result: TransportResult) -> str:
    return (f"total_emissions={result.total_emissions!r}\n"
            f"customers_entering={result.customers_entering}\n")


def result_from_lines(text: str) -> TransportResult:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    try:
        return TransportResult(float(fields["total_emissions"]),
                               int(fields["customers_entering"]))
    except KeyError as exc:
        raise ValueError(f"missing result field {exc}") from exc


def run_external(command: list, params: TransportParams,
                 timeout: float = 60.0) -> TransportResult:
    """Run an external vehicle simulator speaking the stdin/stdout contract."""
    import subprocess
    proc = subprocess.run(command, input=params_to_lines(params),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"external transport command failed ({proc.returncode}):"
            f" {proc.stderr.strip()}"
        )
    return result_from_lines(proc.stdout)


def main() -> int:
    params = params_from_lines(sys.stdin.read())
    sys.stdout.write(result_to_lines(simulate_arrivals(params)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
