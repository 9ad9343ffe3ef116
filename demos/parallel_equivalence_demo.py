"""Partition the same world across several logical processes and show
that every counter comes out identical to the sequential run.

The multi-process run uses real worker processes, stepped in lockstep
by the parent; physics equality is exact, not statistical.
"""

import argparse

from hybridsim.engine import EngineConfig, run_simulation
from hybridsim.territory import TerritorySpec


def run(lps, entities, steps, seed):
    cfg = EngineConfig(num_lps=lps, total_timesteps=steps, master_seed=seed)
    mode = "inprocess" if lps == 1 else "process"
    return run_simulation(cfg, TerritorySpec(entities), mode=mode)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lps", type=int, default=4,
                    help="logical processes for the parallel run")
    ap.add_argument("--entities", type=int, default=1500)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    seq = run(1, args.entities, args.steps, args.seed)
    par = run(args.lps, args.entities, args.steps, args.seed)

    print(f"{args.entities} entities, {args.steps} steps, seed {args.seed}")
    print(f"{'counter':<18}{'lp=1':>10}{'lp=%d' % args.lps:>10}")
    for name in ("generated", "delivered", "relayed", "cache_filtered",
                 "ttl_filtered", "geofiltered", "ring_filtered",
                 "budget_filtered", "gossip_declined"):
        a = getattr(seq.totals, name)
        b = getattr(par.totals, name)
        mark = "" if a == b else "   <-- MISMATCH"
        print(f"{name:<18}{a:>10}{b:>10}{mark}")

    same = seq.comparable() == par.comparable()
    print()
    print("full comparable state (per-step vectors included):",
          "identical" if same else "DIFFERENT")
    print(f"wall clock: lp=1 {seq.wall_clock_seconds:.2f}s,"
          f" lp={args.lps} {par.wall_clock_seconds:.2f}s")


if __name__ == "__main__":
    main()
