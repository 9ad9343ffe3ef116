"""Seeded experiment campaigns: sweep cells, aggregate, emit CSV.

A campaign is the cross product of entity counts, LP counts and
presets. Every cell runs the same repetition seeds (the seed setting
plus the rep index), so cells differ only in the axis under study.
Cells execute sequentially to keep wall-clock measurements honest.

Output is two CSV files with a fixed, documented column order:
detail.csv has one row per (cell, repetition); summary.csv has one row
per cell with mean and sample standard deviation of every counter plus
the wall-clock speedup against the LP=1 cell of the same (ses, preset)
when that cell exists and completed.
"""

from __future__ import annotations

import csv
import itertools
import os
import statistics
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

from .config import RunSettings, make_params
from .engine import EngineConfig, run_simulation
from .metrics import STEP_COUNTERS, Level1Totals, RunMetrics
from .territory import TerritorySpec

DETAIL_COLUMNS = (
    ("ses", "lps", "preset", "rep", "seed", "steps")
    + STEP_COUNTERS
    + ("routed", "frozen_drops")
    + tuple(f.name for f in fields(Level1Totals))
    + ("wall_clock_seconds",)
)

# the aggregated portion of a detail row
STAT_COLUMNS = DETAIL_COLUMNS[6:]

SUMMARY_COLUMNS = (
    ("ses", "lps", "preset", "repetitions", "completed")
    + tuple(f"{c}_mean" for c in STAT_COLUMNS)
    + tuple(f"{c}_sd" for c in STAT_COLUMNS)
    + ("speedup",)
)


class CellKey(NamedTuple):
    ses: int
    lps: int
    preset: str


def run_one(settings: RunSettings, ses: int, lps: int, preset: str,
            seed: int, config_echo: dict) -> RunMetrics:
    """Build and run one simulation: a single run or a campaign repetition."""
    cfg = EngineConfig(num_lps=lps, total_timesteps=settings.steps,
                       master_seed=seed,
                       barrier_timeout=settings.barrier_timeout)
    params = make_params(preset, dict(settings.param_overrides))
    return run_simulation(cfg, TerritorySpec(ses, params),
                          hybrid=settings.hybrid(), mode=settings.mode,
                          config_echo=config_echo)


@dataclass
class CellResult:
    key: CellKey
    rows: list = field(default_factory=list)    # detail row dicts, rep order
    errors: list = field(default_factory=list)  # (rep, seed, message)

    @property
    def complete(self) -> bool:
        return not self.errors

    def stats(self) -> dict:
        """column -> (mean, sample sd); sd is 0.0 below two rows."""
        out = {}
        for col in STAT_COLUMNS:
            values = [row[col] for row in self.rows]
            if not values:
                out[col] = (0.0, 0.0)
                continue
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) >= 2 else 0.0
            out[col] = (mean, sd)
        return out

    def mean_wall_clock(self) -> Optional[float]:
        if not self.rows:
            return None
        return statistics.fmean(r["wall_clock_seconds"] for r in self.rows)


@dataclass
class CampaignResult:
    settings: RunSettings
    cells: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(c.complete for c in self.cells)

    def cell(self, ses: int, lps: int, preset: str) -> Optional[CellResult]:
        for c in self.cells:
            if c.key == CellKey(ses, lps, preset):
                return c
        return None

    def speedup(self, cell: CellResult) -> Optional[float]:
        """WCT(LP=1) / WCT(LP=k) against the same (ses, preset)."""
        base = self.cell(cell.key.ses, 1, cell.key.preset)
        if base is None or not base.complete or not cell.complete:
            return None
        base_wct = base.mean_wall_clock()
        cell_wct = cell.mean_wall_clock()
        if not base_wct or not cell_wct:
            return None
        return base_wct / cell_wct


def _detail_row(key: CellKey, rep: int, metrics: RunMetrics) -> dict:
    return {**key._asdict(), "rep": rep, "seed": metrics.master_seed,
            "steps": metrics.total_timesteps, **metrics.totals.as_dict(),
            "routed": metrics.routed, "frozen_drops": metrics.frozen_drops,
            **metrics.level1.as_dict(),
            "wall_clock_seconds": metrics.wall_clock_seconds}


def run_campaign(settings: RunSettings, log=None) -> CampaignResult:
    """Execute every cell x repetition; failures never stop the sweep.

    Cells are settings.ses x lps x preset in that nesting order, and
    repetition rep of every cell runs with seed settings.seed + rep.
    """
    seeds = settings.repetition_seeds()
    say = log or (lambda msg: None)
    result = CampaignResult(settings=settings)
    for key in itertools.starmap(CellKey, itertools.product(
            settings.ses, settings.lps, settings.preset)):
        cell = CellResult(key)
        result.cells.append(cell)
        for rep, seed in enumerate(seeds):
            say(f"cell ses={key.ses} lps={key.lps} preset={key.preset}"
                f" rep={rep} seed={seed}")
            try:
                metrics = run_one(settings, *key, seed,
                                  {"preset": key.preset, "rep": rep})
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                cell.errors.append((rep, seed, message))
                say(f"  failed: {message}")
                continue
            cell.rows.append(_detail_row(key, rep, metrics))
    return result


def emit_results(result: CampaignResult, out_dir: str) -> tuple:
    """Write detail.csv and summary.csv; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    detail_path = os.path.join(out_dir, "detail.csv")
    summary_path = os.path.join(out_dir, "summary.csv")

    with open(detail_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=DETAIL_COLUMNS)
        writer.writeheader()
        for cell in result.cells:
            for row in cell.rows:
                writer.writerow(row)

    with open(summary_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for cell in result.cells:
            stats = cell.stats()
            row = dict(cell.key._asdict(),
                       repetitions=result.settings.repetitions,
                       completed=len(cell.rows))
            for col in STAT_COLUMNS:
                mean, sd = stats[col]
                row[f"{col}_mean"] = mean
                row[f"{col}_sd"] = sd
            speedup = result.speedup(cell)
            row["speedup"] = "" if speedup is None else speedup
            writer.writerow(row)

    return detail_path, summary_path
