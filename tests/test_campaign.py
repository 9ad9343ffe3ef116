"""Campaign sweeps: seeding, aggregation, CSV layout, failure isolation."""

import csv
import statistics

import pytest

from hybridsim.campaign import (
    DETAIL_COLUMNS,
    STAT_COLUMNS,
    SUMMARY_COLUMNS,
    CampaignResult,
    CellKey,
    CellResult,
    emit_results,
    run_campaign,
)
from hybridsim.config import ConfigError, RunSettings


def _small_settings(**kw):
    # generation cranked up so tiny cells still produce traffic
    base = dict(ses=(48,), lps=(1,), preset=("good",),
                repetitions=2, seed=170, steps=15,
                param_overrides=(("generation_probability", 0.05),))
    base.update(kw)
    return RunSettings(**base)


def test_repetition_seeds_are_base_plus_index():
    result = run_campaign(_small_settings(repetitions=4, seed=100, steps=1))
    assert [r["seed"] for r in result.cells[0].rows] == [100, 101, 102, 103]


def test_cells_are_the_full_cross_product():
    settings = _small_settings(ses=(10, 20), lps=(1, 2),
                               preset=("good", "bad"), repetitions=1, steps=1)
    cells = [c.key for c in run_campaign(settings).cells]
    assert len(cells) == 8
    assert cells[0] == CellKey(10, 1, "good")
    assert cells[1] == CellKey(10, 1, "bad")
    assert cells[-1] == CellKey(20, 2, "bad")


def test_spec_validation():
    for axis in ("ses", "lps", "preset"):
        with pytest.raises(ConfigError, match=repr(axis)):
            _small_settings(**{axis: ()})
    with pytest.raises(ConfigError, match="'repetitions'"):
        _small_settings(repetitions=0)


def test_seeds_past_63_bits_are_refused_before_any_run():
    top = 2**63 - 1
    log = []
    with pytest.raises(ConfigError, match="^config key 'seed'"):
        run_campaign(_small_settings(seed=top, repetitions=2, steps=1),
                     log=log.append)
    assert log == []
    result = run_campaign(_small_settings(seed=top, repetitions=1, steps=1))
    assert result.complete
    assert [r["seed"] for r in result.cells[0].rows] == [top]


def test_run_campaign_rows_and_determinism(tmp_path):
    settings = _small_settings()
    result = run_campaign(settings)
    assert result.complete
    assert len(result.cells) == 1
    cell = result.cells[0]
    assert len(cell.rows) == 2
    for rep, row in enumerate(cell.rows):
        assert row["rep"] == rep
        assert row["seed"] == 170 + rep
        assert row["steps"] == 15
        assert set(row) == set(DETAIL_COLUMNS)
    # different seeds, different traffic (with overwhelming likelihood)
    assert cell.rows[0]["generated"] != cell.rows[1]["generated"] or \
        cell.rows[0]["delivered"] != cell.rows[1]["delivered"]
    # rerun reproduces every deterministic column
    again = run_campaign(settings).cells[0]
    skip = {"wall_clock_seconds"}
    for a, b in zip(cell.rows, again.rows):
        assert {k: v for k, v in a.items() if k not in skip} == \
            {k: v for k, v in b.items() if k not in skip}


def test_forced_identical_seeds_give_zero_sd():
    # two one-repetition campaigns at the same seed, pooled into one cell
    settings = _small_settings(repetitions=1, seed=9)
    cell = CellResult(CellKey(48, 1, "good"))
    for _ in range(2):
        cell.rows += run_campaign(settings).cells[0].rows
    stats = cell.stats()
    for col in STAT_COLUMNS:
        if col == "wall_clock_seconds":
            continue
        mean, sd = stats[col]
        assert sd == 0.0, col
        assert mean == cell.rows[0][col]


def test_lp_sweep_means_agree(tmp_path):
    settings = _small_settings(lps=(1, 2), repetitions=2, steps=10)
    result = run_campaign(settings)
    one = result.cell(48, 1, "good")
    two = result.cell(48, 2, "good")
    sone, stwo = one.stats(), two.stats()
    for col in STAT_COLUMNS:
        if col == "wall_clock_seconds":
            continue
        assert sone[col] == stwo[col], col


def test_bad_preset_floods_more():
    settings = _small_settings(ses=(64,), preset=("good", "bad"),
                               repetitions=1, steps=20)
    result = run_campaign(settings)
    good = result.cell(64, 1, "good").rows[0]
    bad = result.cell(64, 1, "bad").rows[0]
    assert bad["relayed"] > good["relayed"]


def test_failed_repetition_is_isolated():
    # lps > ses cannot start; the other cell still runs
    settings = _small_settings(ses=(4, 48), lps=(8,), repetitions=1,
                               steps=5, mode="inprocess")
    log = []
    result = run_campaign(settings, log=log.append)
    assert not result.complete
    sick = result.cell(4, 8, "good")
    healthy = result.cell(48, 8, "good")
    assert sick.rows == [] and len(sick.errors) == 1
    rep, seed, message = sick.errors[0]
    assert (rep, seed) == (0, 170)
    assert "ValueError" in message
    assert healthy.complete and len(healthy.rows) == 1
    assert any("failed" in line for line in log)


def test_emit_results_layout(tmp_path):
    settings = _small_settings(lps=(1, 2), repetitions=2, steps=10)
    result = run_campaign(settings)
    detail_path, summary_path = emit_results(result, str(tmp_path / "out"))

    with open(detail_path, newline="") as fh:
        detail = list(csv.reader(fh))
    # the order README's "Campaign CSV layout" documents
    assert detail[0] == [
        "ses", "lps", "preset", "rep", "seed", "steps",
        "generated", "delivered", "relayed",
        "cache_filtered", "ttl_filtered", "geofiltered", "ring_filtered",
        "budget_filtered", "gossip_declined",
        "routed", "frozen_drops",
        "spawns", "entities_transferred", "emissions_g", "customers",
        "arrived", "market_messages", "route_discoveries", "fine_steps",
        "failures",
        "wall_clock_seconds",
    ]
    assert len(detail) == 1 + 4  # 2 cells x 2 reps

    with open(summary_path, newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 2
    with open(summary_path, newline="") as fh:
        assert next(csv.reader(fh)) == list(SUMMARY_COLUMNS)
    for row in summary:
        assert row["repetitions"] == "2"
        assert row["completed"] == "2"
    # lps=1 cell gets speedup 1.0 against itself; lps=2 gets a number
    assert float(summary[0]["speedup"]) == 1.0
    assert float(summary[1]["speedup"]) > 0


def test_summary_means_recomputed_by_independent_reader(tmp_path):
    settings = _small_settings(repetitions=3, steps=12)
    result = run_campaign(settings)
    detail_path, summary_path = emit_results(result, str(tmp_path / "out"))

    with open(detail_path, newline="") as fh:
        detail = list(csv.DictReader(fh))
    with open(summary_path, newline="") as fh:
        summary = list(csv.DictReader(fh))[0]

    assert len(detail) == 3
    for col in STAT_COLUMNS:
        values = [float(r[col]) for r in detail]
        assert float(summary[f"{col}_mean"]) == pytest.approx(
            statistics.fmean(values))
        assert float(summary[f"{col}_sd"]) == pytest.approx(
            statistics.stdev(values))


def test_speedup_definition_from_crafted_cells():
    settings = _small_settings(lps=(1, 4), repetitions=1)
    result = CampaignResult(settings=settings)
    base = CellResult(CellKey(48, 1, "good"))
    fast = CellResult(CellKey(48, 4, "good"))
    row = {c: 0 for c in DETAIL_COLUMNS}
    base.rows.append(dict(row, wall_clock_seconds=100.0))
    fast.rows.append(dict(row, wall_clock_seconds=50.0))
    result.cells.extend([base, fast])
    assert result.speedup(fast) == 2.0
    assert result.speedup(base) == 1.0
    # incomplete baseline: no speedup claim
    base.errors.append((0, 1, "boom"))
    assert result.speedup(fast) is None


def test_speedup_missing_baseline_is_none():
    settings = _small_settings(lps=(2,), repetitions=1)
    result = run_campaign(settings)
    cell = result.cells[0]
    assert result.speedup(cell) is None
    detail_path, summary_path = emit_results(result, "/tmp/hybridsim-test-sp")
    with open(summary_path, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["speedup"] == ""


def test_campaign_hybrid_cells_report_level1(tmp_path):
    settings = _small_settings(ses=(48,), repetitions=1, steps=12,
                               spawn_at=(4,), transfer_count=3)
    result = run_campaign(settings)
    assert result.complete
    row = result.cells[0].rows[0]
    assert row["spawns"] == 1
    assert row["entities_transferred"] == 3
    assert row["fine_steps"] == 6  # duration 3: two CONTINUE windows x 3
    assert row["emissions_g"] > 0
