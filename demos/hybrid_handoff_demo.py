"""Freeze a few entities out of the coarse simulation, run them through
a market session behind the wire protocol, and take them back.

Prints the full conversation with wrapper 0 so the framing is visible.
The sessions run inline; HybridSpec(endpoint="HOST:PORT") would send them
to an external wrapper instead.
"""

from hybridsim.coordination import (
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
    TimestepAlignment,
)
from hybridsim.engine import EngineConfig, run_simulation
from hybridsim.territory import TerritorySpec


def main():
    hy = HybridSpec(
        trigger=ScriptedTrigger(spawn_at=(4,), transfer_count=3),
        align=TimestepAlignment(fine_substeps=3),
        policy=FixedDurationPolicy(coarse_steps=3))
    cfg = EngineConfig(num_lps=1, total_timesteps=10, master_seed=2101)
    m = run_simulation(cfg, TerritorySpec(64), hybrid=hy, mode="inprocess")

    print()
    for t in m.wrapper_transcripts:
        print(f"--- wrapper {t['wrapper_id']} wire transcript"
              f" ('>' to wrapper, '<' back) ---")
        for line in t["lines"]:
            print(line)
        print()

    l1 = m.level1
    print(f"spawns {l1.spawns}, entities across {l1.entities_transferred},"
          f" failures {l1.failures}")
    print(f"sub-simulation totals: {l1.emissions_g:.1f} g emitted,"
          f" {l1.customers} customers, {l1.arrived} arrived,"
          f" {l1.market_messages} market messages over {l1.fine_steps}"
          f" fine steps")
    print(f"coarse traffic while they were away still balanced:"
          f" routed {m.routed} = delivered {m.totals.delivered}"
          f" + frozen drops {m.frozen_drops}")


if __name__ == "__main__":
    main()
