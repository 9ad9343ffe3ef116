"""Settings field types, counters and run-level metrics.

A settings type subclasses TypedSettings and declares each numeric field
with one of the types below, which states the values it accepts.
StepReport counts one logical process's events for one timestep; reports
merge across processes and steps. RunMetrics is the full outcome of a
run, including the always-on invariant monitor and sub-simulator totals.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import typing
from dataclasses import dataclass, field
from typing import Annotated, Callable, NamedTuple

_index = operator.index


class Accepts(NamedTuple):
    """The values of kind (int or float) that a settings field takes:
    those test passes, as text says. An int test reads the value through
    operator.index, so a float fails it, and so does a TypeError."""

    kind: type
    test: Callable
    text: str

    def check(self, name: str, value):
        """value, refused by name unless accepted; an int kind gives the
        plain int, so a numpy seed derives seeds as the int does."""
        try:
            ok = self.test(value)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} = {value!r} out of range;"
                             f" accepted: {self.text}")
        return _index(value) if self.kind is int else value

    def admits(self, value) -> bool:
        try:
            self.check("", value)
        except ValueError:
            return False
        return True


def _typed(kind: type, test: Callable, text: str):
    return Annotated[kind, Accepts(kind, test, text)]


Positive = _typed(float, lambda v: 0 < v < math.inf, "finite number > 0")
NonNegative = _typed(float, lambda v: 0 <= v < math.inf, "finite number >= 0")
Probability = _typed(float, lambda v: 0 <= v <= 1, "number in [0, 1]")
Threshold = _typed(float, lambda v: 0 < v <= math.inf,
                   "number > 0, or inf for never")
Count = _typed(int, lambda v: _index(v) >= 0, "integer >= 0")
AtLeastOne = _typed(int, lambda v: _index(v) >= 1, "integer >= 1")
Seed = _typed(int, lambda v: 0 <= _index(v) < 2**63, "integer in [0, 2**63)")


def accepts(field_type) -> Accepts:
    """What field_type, one of the types above, accepts."""
    return field_type.__metadata__[0]


@functools.cache
def settings_fields(cls) -> dict:
    """name -> Accepts of each field of dataclass cls declared with one of
    the types above; resolved once per class."""
    return {name: accepts(hint) for name, hint
            in typing.get_type_hints(cls, include_extras=True).items()
            if isinstance(getattr(hint, "__metadata__", (None,))[0], Accepts)}


class TypedSettings:
    """Base of a frozen settings dataclass: building one checks each field
    declared with a type above, keeping what Accepts.check gives."""

    def __post_init__(self):
        for name, field_accepts in settings_fields(type(self)).items():
            value = getattr(self, name)
            checked = field_accepts.check(name, value)
            if checked is not value:
                object.__setattr__(self, name, checked)


@dataclass
class StepReport:
    """Event counts for one (lp, timestep). The fields after relayed are
    the drop reasons, in decision order: every delivered message is
    counted under relayed or under exactly one drop reason."""

    generated: int = 0
    delivered: int = 0
    relayed: int = 0
    cache_filtered: int = 0
    ttl_filtered: int = 0
    geofiltered: int = 0
    ring_filtered: int = 0
    budget_filtered: int = 0
    gossip_declined: int = 0

    def merge(self, other: "StepReport") -> None:
        for name in STEP_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def dropped(self) -> int:
        return sum(getattr(self, r) for r in DROP_REASONS)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


STEP_COUNTERS = tuple(f.name for f in dataclasses.fields(StepReport))
DROP_REASONS = STEP_COUNTERS[STEP_COUNTERS.index("relayed") + 1:]


@dataclass
class InvariantMonitor:
    """Always-on extrema used by the invariant checks.

    Tracked during normal runs (not only under test) so that any
    configuration can be audited after the fact.
    """

    max_delivered_hop: int = 0
    relay_ring_min: float = math.inf
    relay_ring_max: float = 0.0
    relay_origin_max: float = 0.0
    max_relays_entity_step: int = 0
    cache_high_water: int = 0

    def note(self, **values) -> None:
        """Fold values in by field name: relay_ring_min keeps the smallest
        value seen, every other field the largest."""
        for name, value in values.items():
            keep = min if name == "relay_ring_min" else max
            setattr(self, name, keep(getattr(self, name), value))

    def merge(self, other: "InvariantMonitor") -> None:
        self.note(**dataclasses.asdict(other))

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if math.isinf(d["relay_ring_min"]):
            d["relay_ring_min"] = None
        return d


@dataclass
class Level1Totals:
    """Aggregated sub-simulator outcomes across all spawns in a run."""

    spawns: int = 0
    entities_transferred: int = 0
    emissions_g: float = 0.0
    customers: int = 0
    arrived: int = 0
    market_messages: int = 0
    route_discoveries: int = 0
    fine_steps: int = 0
    failures: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunMetrics:
    """Complete outcome of one simulation run.

    Everything except wall_clock_seconds must be bit-identical across
    repeated runs with the same seed, and across LP counts.
    """

    num_entities: int = 0
    num_lps: int = 0
    total_timesteps: int = 0
    master_seed: int = 0
    totals: StepReport = field(default_factory=StepReport)
    routed: int = 0
    frozen_drops: int = 0
    per_step: list = field(default_factory=list)  # StepReport per timestep
    routed_per_step: list = field(default_factory=list)
    monitor: InvariantMonitor = field(default_factory=InvariantMonitor)
    level1: Level1Totals = field(default_factory=Level1Totals)
    wall_clock_seconds: float = 0.0
    config_echo: dict = field(default_factory=dict)
    wrapper_transcripts: list = field(default_factory=list)

    def check_accounting(self) -> None:
        """Raise AssertionError if the counter identities do not hold."""
        t = self.totals
        assert self.routed == t.delivered + self.frozen_drops, (
            f"routed {self.routed} != delivered {t.delivered}"
            f" + frozen_drops {self.frozen_drops}"
        )
        assert t.delivered == t.relayed + t.dropped(), (
            f"delivered {t.delivered} != relayed {t.relayed}"
            f" + dropped {t.dropped()}"
        )

    def comparable(self) -> dict:
        """Deterministic view: everything except wall clock time."""
        return {
            "num_entities": self.num_entities,
            "total_timesteps": self.total_timesteps,
            "master_seed": self.master_seed,
            "totals": self.totals.as_dict(),
            "routed": self.routed,
            "frozen_drops": self.frozen_drops,
            "per_step": [r.as_dict() for r in self.per_step],
            "routed_per_step": list(self.routed_per_step),
            "monitor": self.monitor.as_dict(),
            "level1": self.level1.as_dict(),
            "wrapper_transcripts": [dict(t) for t in self.wrapper_transcripts],
        }

    def to_json(self, indent: int = 2) -> str:
        doc = self.comparable()
        doc["num_lps"] = self.num_lps
        doc["wall_clock_seconds"] = self.wall_clock_seconds
        doc["config"] = self.config_echo
        return json.dumps(doc, indent=indent, sort_keys=True)
