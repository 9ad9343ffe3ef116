"""The benchmark's three workloads, built only from the public API.

The seed given on the command line is the master seed of every run of
an invocation; everything else is fixed here. Why each size was chosen
is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from hybridsim import engine
from hybridsim.config import make_params
from hybridsim.coordination import (HybridSpec, Level1Settings,
                                    ScriptedTrigger, TimestepAlignment,
                                    UntilArrivedPolicy)
from hybridsim.territory import TerritorySpec

import checks

FIRST_SPAWN = 5  # coarse step of the first scripted hand-off
SUBSTEPS = 30  # fine market steps per coarse step


@dataclass(frozen=True)
class Workload:
    name: str
    num_entities: int
    steps: int
    preset: str
    num_lps: int = 1
    mode: str = "inprocess"
    # scripted hand-offs: transfer_count entities every spawn_every steps
    transfer_count: int = 0
    spawn_every: int = 0

    @property
    def params(self):
        return make_params(self.preset)

    @property
    def spawn_at(self) -> tuple:
        if not self.transfer_count:
            return ()
        # the last session ends (it takes under spawn_every steps) before
        # the final step, which would cut it short
        return tuple(range(FIRST_SPAWN, self.steps - self.spawn_every,
                           self.spawn_every))

    @property
    def ops_per_run(self) -> int:
        """A coarse run is one operation; a hybrid run is its sessions."""
        return len(self.spawn_at) or 1

    def hybrid(self):
        if not self.transfer_count:
            return None
        return HybridSpec(
            trigger=ScriptedTrigger(spawn_at=self.spawn_at,
                                    transfer_count=self.transfer_count),
            align=TimestepAlignment(fine_substeps=SUBSTEPS),
            policy=UntilArrivedPolicy())

    def run(self, seed: int, num_lps=None, mode=None):
        cfg = engine.EngineConfig(num_lps=num_lps or self.num_lps,
                                  total_timesteps=self.steps,
                                  master_seed=seed)
        return engine.run_simulation(cfg,
                                     TerritorySpec(self.num_entities,
                                                   self.params),
                                     hybrid=self.hybrid(),
                                     mode=mode or self.mode)

    def check(self, m, active_at_finish) -> list:
        """Checks of one run's outputs; active_at_finish is the engine's
        entity count when the step loop ended."""
        params = self.params
        errs = checks.accounting(m) + checks.invariants(m, params)
        if active_at_finish != self.num_entities:
            errs.append(f"{self.num_entities - active_at_finish} entities"
                        f" still frozen after the last step")
        if self.preset == "good":
            errs += checks.subcritical(m, params)
        if self.transfer_count:
            errs += checks.sessions(m, Level1Settings(), self.spawn_at,
                                    self.transfer_count)
            errs += checks.wire_round_trip(m)
        else:  # frozen entities draw no generation coin
            errs += checks.generation(m, params, self.num_entities,
                                      self.steps)
        return errs


WORKLOADS = {w.name: w for w in (
    Workload("coarse_good", num_entities=4000, steps=300, preset="good"),
    Workload("flood_lp2", num_entities=2000, steps=200, preset="bad",
             num_lps=2, mode="process"),
    Workload("hybrid_market", num_entities=2000, steps=300, preset="good",
             transfer_count=32, spawn_every=12),
)}
