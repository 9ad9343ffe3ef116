"""Command-line front-end.

Three subcommands: `run` executes one simulation and writes its full
metrics as JSON, `campaign` sweeps entity counts, LP counts and
presets into CSV tables, `conformance` replays the wrapper-protocol
golden transcripts. Flag values use the same syntax as config file
values and override them; see config.SCHEMA for keys and ranges.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import conformance
from .campaign import emit_results, run_campaign, run_one
from .config import load_settings
from .engine import EngineError

_RUN_FLAGS = (
    # (flag, schema key, help)
    ("--ses", "ses", "simulated entity count"),
    ("--lps", "lps", "logical process count"),
    ("--steps", "steps", "coarse timesteps"),
    ("--seed", "seed", "master seed (campaign: base seed)"),
    ("--preset", "preset", "parameter preset: good or bad"),
    ("--spawn-at", "spawn_at", "coarse steps that spawn a wrapper, comma"
                               " separated; empty disables hand-off"),
    ("--transfer-count", "transfer_count", "entities per wrapper spawn"),
    ("--substeps", "substeps", "fine steps per coarse step"),
    ("--duration", "duration", "wrapper lifetime in coarse steps"),
    ("--mode", "mode", "backend: auto, inprocess or process"),
    ("--out", "out", "output directory"),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="config file of key = value lines")
    for flag, key, help_text in _RUN_FLAGS:
        parser.add_argument(flag, dest=key, metavar="V", help=help_text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hybridsim",
        description="multi-level territory simulation experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single run")
    _add_common(run_p)

    camp_p = sub.add_parser("campaign",
                            help="sweep ses/lps/preset cells into CSV")
    _add_common(camp_p)
    camp_p.add_argument("--repetitions", dest="repetitions", metavar="V",
                        help="repetitions per cell")

    conf_p = sub.add_parser("conformance",
                            help="check wrapper golden transcripts")
    conf_p.add_argument("--regenerate", action="store_true",
                        help="rewrite the goldens from this implementation")
    return ap


def _flag_values(args: argparse.Namespace) -> dict:
    keys = [key for _, key, _ in _RUN_FLAGS] + ["repetitions"]
    return {key: getattr(args, key, None) for key in keys}


def _cmd_run(args) -> int:
    settings = load_settings(args.config, _flag_values(args))
    ses, lps, preset = settings.single_run()
    metrics = run_one(settings, ses, lps, preset, settings.seed,
                      {"preset": preset, "spawn_at": list(settings.spawn_at)})

    t = metrics.totals
    print(f"ses={ses} lps={lps} preset={preset} steps={settings.steps}"
          f" seed={settings.seed}")
    print(f"generated={t.generated} delivered={t.delivered}"
          f" relayed={t.relayed} routed={metrics.routed}"
          f" frozen_drops={metrics.frozen_drops}")
    if metrics.level1.spawns:
        lv = metrics.level1
        print(f"wrappers={lv.spawns} transferred={lv.entities_transferred}"
              f" emissions_g={lv.emissions_g:.3f} customers={lv.customers}"
              f" arrived={lv.arrived} market_messages={lv.market_messages}")
    print(f"wall_clock={metrics.wall_clock_seconds:.3f}s")

    os.makedirs(settings.out, exist_ok=True)
    out_path = os.path.join(settings.out, "run.json")
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(metrics.to_json())
        fh.write("\n")
    print(f"metrics written to {out_path}")
    return 0


def _cmd_campaign(args) -> int:
    settings = load_settings(args.config, _flag_values(args))
    result = run_campaign(settings, log=lambda m: print(m, file=sys.stderr))
    detail_path, summary_path = emit_results(result, settings.out)
    print(f"detail rows: {sum(len(c.rows) for c in result.cells)}"
          f" -> {detail_path}")
    print(f"summary cells: {len(result.cells)} -> {summary_path}")
    if not result.complete:
        for cell in result.cells:
            for rep, seed, message in cell.errors:
                print(f"FAILED cell ses={cell.key.ses} lps={cell.key.lps}"
                      f" preset={cell.key.preset} rep={rep} seed={seed}:"
                      f" {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_conformance(args) -> int:
    if args.regenerate:
        for path in conformance.regenerate_all():
            print(f"regenerated {path}")
    ok = True
    for name, passed, detail in conformance.check_all():
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        return _cmd_conformance(args)
    except (ValueError, EngineError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
