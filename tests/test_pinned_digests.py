"""The physics, pinned: the comparable() sha256 of a few small runs.

Each digest covers every counter, per-step report, invariant extremum,
Level-1 total and wrapper transcript of its run, so a change to any
draw, stamp, row order or wire byte fails here. A change that alters
the physics on purpose updates these values and says why in CHANGES.md,
as it regenerates the golden transcripts.
"""

import hashlib
import json

import pytest

from hybridsim.config import make_params
from hybridsim.coordination import DensityTrigger, FixedDurationPolicy, HybridSpec
from hybridsim.engine import EngineConfig, run_simulation
from hybridsim.territory import TerritorySpec

# name -> (entities, steps, preset, generation rate, lps, mode, hybrid)
RUNS = {
    "good": (800, 100, "good", 0.004, 1, "inprocess", None),
    "bad": (400, 50, "bad", 0.004, 1, "inprocess", None),
    "density_hybrid": (300, 40, "good", 0.01, 1, "inprocess", HybridSpec(
        trigger=DensityTrigger(threshold=6, radius=120.0),
        policy=FixedDurationPolicy(coarse_steps=2))),
    "process_lp2": (300, 40, "bad", 0.01, 2, "process", None),
}

PINNED = {
    "good": "c92a47f5fc457c4706e4c3ccdcdbc14f55bafd250cb9980faa44e02e379ede65",
    "bad": "0be1cd52860a2beddd649b951859b38bfb16b6905417f09f8a04b93fc0dcb599",
    "density_hybrid":
        "7195296bb8dc6c97e39986427465c1ef2c39dec6aa20a524e8e5c1e11a3aaead",
    "process_lp2":
        "1fa96d068b8ca55ae01510385bd369a7bed2e0f0a56e4d91398d6005b5074f7c",
}


def _digest(name: str, seed: int = 11):
    n, steps, preset, rate, lps, mode, hybrid = RUNS[name]
    m = run_simulation(
        EngineConfig(num_lps=lps, total_timesteps=steps, master_seed=seed),
        TerritorySpec(n, make_params(preset,
                                     {"generation_probability": rate})),
        hybrid=hybrid, mode=mode)
    blob = json.dumps(m.comparable(), sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest(), m


@pytest.mark.parametrize("name", sorted(RUNS))
def test_comparable_digest_is_pinned(name):
    digest, m = _digest(name)
    assert m.totals.relayed > 0  # the run exercised the relay decision
    if RUNS[name][-1] is not None:
        assert m.level1.spawns > 0  # and the hand-off path
    assert digest == PINNED[name]
