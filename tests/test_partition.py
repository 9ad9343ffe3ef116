"""Partition independence as a property: any partition of the entities
over logical processes, however uneven, gives the 1-LP in-process run.

Both backends take their partition from engine.partition_entities when
they start, so patching that one name gives every LP the drawn parts.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hybridsim import engine
from hybridsim.config import PRESETS, make_params
from hybridsim.coordination import (
    DensityTrigger,
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
)
from hybridsim.engine import EngineConfig, run_simulation
from hybridsim.metrics import settings_fields
from hybridsim.territory import DisseminationParams, TerritorySpec

# gossip parameters inside their declared ranges, wide enough to matter
# in a small world; each but the generation rate may be left to the preset
_GOSSIP = {
    "gossip_probability": st.floats(0.0, 1.0),
    "geofilter_distance": st.floats(1.0, 2000.0),
    "ttl": st.integers(0, 8),
    "cache_capacity": st.integers(1, 40),
    "max_relays_per_step": st.integers(0, 12),
}


@st.composite
def _scenarios(draw, kind: str):
    """kind is coarse (no hand-off), hand_off (one scripted firing) or
    density (a DensityTrigger, which fires at any barrier where some
    disk around a free entity holds threshold entities)."""
    n = draw(st.integers(8, 160))
    k = draw(st.integers(2, min(5, n)))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1,
                                max_size=k - 1, unique=True)))
    parts = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    overrides = {key: value for key, strategy in _GOSSIP.items()
                 if (value := draw(st.none() | strategy)) is not None}
    overrides["generation_probability"] = draw(st.floats(0.01, 0.3))
    if draw(st.booleans()):  # a range, with the ring inside it
        reach = draw(st.floats(60.0, 400.0))
        overrides.update(interaction_range=reach,
                         forwarding_threshold=reach * draw(
                             st.floats(0.0, 0.99)))
    fields = settings_fields(DisseminationParams)
    assert all(fields[key].admits(v) for key, v in overrides.items())
    steps = draw(st.integers(3, 20))
    hybrid = None
    if kind == "hand_off":
        trigger = ScriptedTrigger(spawn_at=(draw(st.integers(0, steps - 2)),),
                                  transfer_count=draw(st.integers(1, 6)))
    elif kind == "density":
        # a disk of radius r holds pi r^2 / 10^4 entities on average
        trigger = DensityTrigger(threshold=draw(st.integers(2, 9)),
                                 radius=draw(st.floats(40.0, 200.0)))
    if kind != "coarse":
        hybrid = HybridSpec(
            trigger=trigger,
            policy=FixedDurationPolicy(coarse_steps=draw(st.integers(1, 3))))
    return dict(
        parts=parts, steps=steps, hybrid=hybrid,
        spec=TerritorySpec(n, make_params(
            draw(st.sampled_from(sorted(PRESETS))), overrides)),
        seed=draw(st.integers(0, 2**63 - 1)))


def _check(sc, mode: str) -> None:
    """The run over sc's parts, in mode, equals the 1-LP in-process run:
    comparable(), wrapper transcripts included."""
    def run(num_lps, mode):
        config = EngineConfig(num_lps=num_lps, total_timesteps=sc["steps"],
                              master_seed=sc["seed"])
        return run_simulation(config, sc["spec"], hybrid=sc["hybrid"],
                              mode=mode).comparable()

    one_lp = run(1, "inprocess")
    parts = dict(enumerate(sc["parts"]))
    with mock.patch.object(engine, "partition_entities",
                           lambda ids, num_lps, seed: parts):
        split = run(len(parts), mode)
    assert split == one_lp


_KINDS = ["coarse", "hand_off", "density"]


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_partition_gives_the_one_lp_run(kind, data):
    _check(data.draw(_scenarios(kind)), "inprocess")


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_any_partition_gives_the_one_lp_run_in_processes(kind, data):
    """The process backend forks a worker per LP: a few examples only."""
    _check(data.draw(_scenarios(kind)), "process")
