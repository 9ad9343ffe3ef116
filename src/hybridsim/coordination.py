"""Multi-level orchestration: freeze, hand off, supervise, reintegrate.

A trigger fires at a coarse barrier and returns one tuple of entity
ids per firing. They are serialized, removed from their logical
processes and sent to a sub-simulator wrapper together with the full
session configuration (spawn). From the next barrier on, the wrapper
reports one STATUS per coarse step and the coordinator answers
CONTINUE or END per policy; the barrier does not complete until every
active wrapper's STATUS has been processed, so coarse simulated time
never outruns a wrapper. On END the wrapper returns RESULT plus the
updated entity records, which are validated (set equality, rng cursor
accounting) and restored (reintegrate). The coordinator's active
handles are the one record of which entities are frozen.

Without an endpoint a session runs inline on the coarse thread
(wrapper.open_local): reading the wrapper's next record runs it, so the
coarse side's recv calls are where its time goes. With one it runs in
a remote wrapper over TCP, and io_timeout bounds each blocking call.
Both carry the same records, byte for byte.

The transfer snapshot is retained until RESULT validates. A wrapper
that breaks protocol mid-session, or a local session that raises, is
terminated and its entities are restored from the snapshot; the
ProtocolError names the wrapper's cause, and the run continues.
Conservation failures (lost or duplicated entities, bad cursor
accounting) are hard errors.

Timeline of a wrapper spawned at barrier T with a fixed duration of
three coarse steps: STATUS at T+1 and T+2 are answered CONTINUE (the
wrapper then runs one window of fine substeps each), STATUS at T+3 is
answered END, and the entities rejoin before barrier T+3 completes.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .engine import EngineError, torus_pairs
from .market import MarketParams
from .protocol import (
    LineChannel,
    ProtocolError,
    entity_fields,
    entity_from_fields,
    field,
    read_fields,
)
from .rng import derive_seed
from .transport import TransportParams

ENDPOINT_ENV_VAR = "HYBRIDSIM_L1_ENDPOINT"

RUNNING_L1B = "RUNNING_L1B"
DONE = "DONE"
FAILED = "FAILED"


class ConservationError(EngineError):
    """Entities were lost, duplicated or corrupted across a hand-off."""


class WrapperFailure(EngineError):
    """A wrapper could not be started; its entities were put back."""


@dataclass(frozen=True)
class TimestepAlignment(metrics.TypedSettings):
    """How fine steps nest inside one coarse step."""

    fine_substeps: metrics.AtLeastOne = 3


@dataclass(frozen=True)
class ScriptedTrigger(metrics.TypedSettings):
    """Fire at fixed coarse steps, taking the lowest-id free entities.

    spawn_at may repeat a step to start several wrappers at once; each
    firing takes the next transfer_count entities from the free pool.
    Selection ignores the LP layout entirely, which keeps hybrid runs
    identical across LP counts.
    """

    spawn_at: tuple = ()
    transfer_count: metrics.AtLeastOne = 1

    def __post_init__(self):
        super().__post_init__()
        step = metrics.accepts(metrics.Count)
        object.__setattr__(self, "spawn_at", tuple(
            step.check("spawn_at step", t) for t in self.spawn_at))

    def check(self, world, t: int, frozen) -> list:
        """The entity id tuples that leave at step t, one per firing."""
        if t not in self.spawn_at:
            return []
        pool = [eid for eid in range(world.num_entities) if eid not in frozen]
        k = self.transfer_count
        takes = (tuple(pool[i:i + k])
                 for i in range(0, k * self.spawn_at.count(t), k))
        return [take for take in takes if take]


# Centers per torus_pairs call, ascending: the first block that fires
# holds the lowest-id winner, and no block makes more pairs per point.
DENSITY_BLOCK = 512


@dataclass(frozen=True)
class DensityTrigger(metrics.TypedSettings):
    """Fire when some circular region holds at least threshold entities.

    Candidate regions are disks of the given radius centered on each
    free entity (the center counts itself; the disk boundary is
    inclusive). The lowest-id firing center wins and every free entity
    inside its disk is transferred. An infinite threshold never fires.
    Disk members come from engine.torus_pairs, the query the router
    uses, over blocks of DENSITY_BLOCK centers.
    """

    threshold: metrics.Threshold = float("inf")
    radius: metrics.Positive = 250.0

    def check(self, world, t: int, frozen) -> list:
        """[ids in the winning disk, ascending], or [] if none fires."""
        free = np.ones(world.num_entities, dtype=bool)
        free[list(frozen)] = False
        free = np.flatnonzero(free)
        if self.threshold > free.size:
            return []
        xs = world.pos_x[free]
        ys = world.pos_y[free]
        for lo in range(0, free.size, DENSITY_BLOCK):
            block = slice(lo, lo + DENSITY_BLOCK)
            center, point = torus_pairs(xs, ys, xs[block], ys[block],
                                        world.side, self.radius)
            fires = np.nonzero(np.bincount(center) >= self.threshold)[0]
            if fires.size:
                inside = np.sort(point[center == fires[0]])
                return [tuple(free[inside].tolist())]
        return []


@dataclass(frozen=True)
class FixedDurationPolicy(metrics.TypedSettings):
    """END after a fixed number of coarse steps in the wrapper."""

    coarse_steps: metrics.AtLeastOne = 3

    def decide(self, handle, t: int, status: dict) -> str:
        return "END" if t - handle.spawned_at >= self.coarse_steps else "CONTINUE"


@dataclass(frozen=True)
class UntilArrivedPolicy:
    """END once the wrapper reports no pedestrian still underway."""

    def decide(self, handle, t: int, status: dict) -> str:
        remaining = (field(status, "querying", int)
                     + field(status, "walking", int))
        return "END" if remaining == 0 else "CONTINUE"


@dataclass(frozen=True)
class Level1Settings(metrics.TypedSettings):
    """Sub-simulator configuration forwarded verbatim in INIT.

    The fields are those TransportParams and MarketParams take from the
    session configuration, with the same field types and defaults, so a
    value either model refuses fails here.
    """

    parking_capacity: metrics.Count = TransportParams.parking_capacity
    mean_cruise_time: metrics.NonNegative = TransportParams.mean_cruise_time
    mean_search_time: metrics.NonNegative = TransportParams.mean_search_time
    idle_time: metrics.NonNegative = TransportParams.idle_time
    cruise_rate: metrics.NonNegative = TransportParams.cruise_rate
    search_rate: metrics.NonNegative = TransportParams.search_rate
    idle_rate: metrics.NonNegative = TransportParams.idle_rate
    grid_side: metrics.AtLeastOne = MarketParams.grid_side
    spacing: metrics.Positive = MarketParams.spacing
    radio_range: metrics.Positive = MarketParams.radio_range
    walking_speed: metrics.Positive = MarketParams.walking_speed
    hop_limit: metrics.AtLeastOne = MarketParams.hop_limit

    def init_fields(self) -> dict:
        return dataclasses.asdict(self)

    def params(self, cls, **session):
        """cls (TransportParams or MarketParams) built from these
        settings; session gives the fields they do not hold."""
        own = self.init_fields()
        return cls(**session, **{f.name: own[f.name]
                                 for f in dataclasses.fields(cls)
                                 if f.name in own})


@dataclass(frozen=True)
class SessionResult(metrics.TypedSettings):
    """A RESULT record's fields: the entities and draws the session
    returns, and the six totals Level1Totals adds up."""

    entities: metrics.Count
    rng_draws: metrics.Count
    emissions: metrics.NonNegative
    customers: metrics.Count
    arrived: metrics.Count
    msgs: metrics.Count
    routes: metrics.Count
    fine_steps: metrics.Count


@dataclass(frozen=True)
class HybridSpec(metrics.TypedSettings):
    """Everything run_simulation needs to run hybrid: what fires, how
    time nests, when wrappers end, what the sub-simulators get."""

    trigger: object = None
    align: TimestepAlignment = TimestepAlignment()
    policy: object = FixedDurationPolicy()
    level1: Level1Settings = Level1Settings()
    endpoint: Optional[str] = None  # HOST:PORT; None runs wrappers inline
    io_timeout: metrics.Positive = 60.0  # seconds; remote sessions only

    def __post_init__(self):
        super().__post_init__()
        if self.endpoint is not None:
            parse_endpoint(self.endpoint)


def parse_endpoint(endpoint: str) -> tuple:
    """(host, port) from HOST:PORT; the port is decimal digits in 1-65535."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be HOST:PORT, got {endpoint!r}")
    if not (port.isascii() and port.isdigit()
            and 1 <= int(port) <= 65535):
        raise ValueError(
            f"endpoint port must be an integer in 1-65535: {endpoint!r}")
    return host, int(port)


def resolve_endpoint(spec: HybridSpec) -> Optional[str]:
    """Environment beats configuration; None means in-process."""
    return os.environ.get(ENDPOINT_ENV_VAR) or spec.endpoint


class WrapperHandle:
    """One live sub-simulator session, L0 side."""

    def __init__(self, wrapper_id: int, spawned_at: int, records, channel):
        self.wrapper_id = wrapper_id
        self.spawned_at = spawned_at
        self.records = tuple(records)  # snapshot kept until RESULT validates
        self.entity_ids = tuple(r.entity_id for r in self.records)
        self.channel = channel  # owns the socket or the local session
        self.state = RUNNING_L1B
        self.end_sent_at: Optional[int] = None

    @property
    def transcript(self) -> list:
        return self.channel.transcript

    def close(self) -> None:
        self.channel.close()

    def __repr__(self):
        return (f"WrapperHandle(id={self.wrapper_id},"
                f" spawned_at={self.spawned_at}, state={self.state},"
                f" entities={len(self.entity_ids)})")


def _connect(address: Optional[tuple], timeout: float) -> LineChannel:
    """A channel to a new session: run inline when address is None,
    else over TCP, where timeout bounds every blocking call."""
    if address is None:
        from . import wrapper
        return wrapper.open_local(transcript=[])
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(timeout)
    return LineChannel.over_socket(sock, transcript=[])


def spawn_level1(backend, entity_ids, t: int, spec: HybridSpec,
                 master_seed: int, side: float,
                 wrapper_id: int) -> WrapperHandle:
    """Freeze entities out of the engine and start a wrapper session.

    Blocks until the wrapper answers READY, i.e. until its transport
    stage has completed (the two sub-simulators run in sequence). On
    connection or handshake failure the entities are restored to their
    logical processes before WrapperFailure is raised.
    """
    ids = sorted(entity_ids)
    if not ids:
        raise ValueError("nothing to transfer: empty entity set")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate entity ids in transfer: {ids}")
    endpoint = resolve_endpoint(spec)
    # refuse a malformed endpoint before freezing anything
    address = None if endpoint is None else parse_endpoint(endpoint)

    records = backend.extract(ids)
    handle = None
    try:
        channel = _connect(address, spec.io_timeout)
        handle = WrapperHandle(wrapper_id, t, records, channel)
        init = spec.level1.init_fields()
        init.update(entities=len(records),
                    seed=derive_seed(master_seed, "wrapper", t, wrapper_id),
                    master_seed=master_seed, side=side,
                    substeps=spec.align.fine_substeps)
        channel.send("INIT", t, **init)
        for rec in records:
            channel.send("ENTITY", t, **entity_fields(rec))
        kind, rstep, _ = channel.recv(expect="READY")
        if rstep != t:
            raise ProtocolError(f"READY for step {rstep}, expected {t}")
    except (OSError, ProtocolError) as exc:
        if handle is not None:
            handle.close()
        backend.restore(records)
        where = endpoint or "local wrapper"
        raise WrapperFailure(
            f"wrapper {wrapper_id} failed to start on {where}: {exc}"
        ) from exc
    return handle


def coordinate_step(handle: WrapperHandle, t: int, decision_policy) -> dict:
    """Process one STATUS/response exchange for coarse step t.

    Returns the STATUS body. After an END reply the caller must follow
    up with reintegrate before the barrier completes.
    """
    if handle.state != RUNNING_L1B:
        raise EngineError(
            f"wrapper {handle.wrapper_id} is {handle.state}, cannot step")
    kind, sstep, status = handle.channel.recv(expect="STATUS")
    if sstep != t:
        raise ProtocolError(
            f"wrapper {handle.wrapper_id} sent STATUS for step {sstep}"
            f" at coarse step {t}")
    decision = decision_policy.decide(handle, t, status)
    if decision not in ("CONTINUE", "END"):
        raise EngineError(f"policy produced {decision!r}")
    handle.channel.send(decision, t)
    if decision == "END":
        handle.end_sent_at = t
    return status


def reintegrate(backend, handle: WrapperHandle, world, metrics=None) -> None:
    """Validate RESULT and returned records, restore the entities.

    RESULT, every returned ENTITY and BYE are read, each field typed and
    checked, before anything changes: a malformed record is a
    ProtocolError that leaves the entities frozen and Level1Totals
    untouched, for _terminate to restore the snapshot once. Checks:
    entity set equality with the transfer, per-entity fields unchanged
    except position and rng cursor, cursors advanced by exactly the draw
    total the wrapper reported. Violations are ConservationError (hard).
    Positions land in the global table so routing sees them immediately.
    Dropping the handle unfreezes them.
    """
    if handle.end_sent_at is None:
        raise EngineError(
            f"reintegrate before END on wrapper {handle.wrapper_id}")
    ch = handle.channel
    t = handle.end_sent_at
    kind, rstep, rf = ch.recv(expect="RESULT")
    if rstep != t:
        raise ProtocolError(f"RESULT for step {rstep}, expected {t}")
    result = read_fields(SessionResult, "RESULT", rf)
    if result.entities != len(handle.entity_ids):
        raise ConservationError(
            f"wrapper {handle.wrapper_id} returned {result.entities}"
            f" entities, transferred {len(handle.entity_ids)}")
    returned = []
    for _ in range(result.entities):
        ekind, estep, ef = ch.recv(expect="ENTITY")
        if estep != t:
            raise ProtocolError(f"returned ENTITY for step {estep},"
                                f" expected {t}")
        returned.append(entity_from_fields(ef))
    ch.recv(expect="BYE")

    sent = set(handle.entity_ids)
    got = [r.entity_id for r in returned]
    if len(set(got)) != len(got) or set(got) != sent:
        missing = sorted(sent - set(got))
        extra = sorted(set(got) - sent)
        raise ConservationError(
            f"wrapper {handle.wrapper_id} entity set mismatch:"
            f" missing {missing}, unexpected {extra}")

    by_id = {r.entity_id: r for r in handle.records}
    draw_total = 0
    for r in returned:
        snap = by_id[r.entity_id]
        if (r.kind != snap.kind or r.speed != snap.speed
                or r.target != snap.target or r.cache_ids != snap.cache_ids):
            raise ConservationError(
                f"entity {r.entity_id} came back altered beyond position"
                f" and rng cursor")
        if r.cursor < snap.cursor:
            raise ConservationError(
                f"entity {r.entity_id} rng cursor moved backwards:"
                f" {snap.cursor} -> {r.cursor}")
        draw_total += r.cursor - snap.cursor
    if draw_total != result.rng_draws:
        raise ConservationError(
            f"wrapper {handle.wrapper_id} draw accounting: cursors advanced"
            f" by {draw_total}, RESULT claims {result.rng_draws}")

    backend.restore(returned)
    world.update([r.entity_id for r in returned],
                 [r.x for r in returned], [r.y for r in returned])
    if metrics is not None:
        lv = metrics.level1
        lv.emissions_g += result.emissions
        lv.customers += result.customers
        lv.arrived += result.arrived
        lv.market_messages += result.msgs
        lv.route_discoveries += result.routes
        lv.fine_steps += result.fine_steps
    handle.state = DONE
    handle.close()


def _terminate(backend, handle: WrapperHandle, metrics, reason: str) -> None:
    """Protocol breakdown: drop the wrapper, restore the snapshot."""
    handle.close()
    backend.restore(handle.records)
    metrics.level1.failures += 1
    handle.state = FAILED
    print(f"wrapper {handle.wrapper_id} terminated: {reason}",
          file=sys.stderr)


class HybridCoordinator:
    """Drives every wrapper session from the engine's barrier hook; the
    entities its active handles hold are the frozen ones (frozen_ids).

    Active handles are serviced in wrapper id order, then triggers are
    evaluated and new wrappers spawned (their first STATUS arrives at
    the next barrier). With force_end every session is told END and
    reintegrated regardless of policy, so a run always finishes clean.
    """

    def __init__(self, spec: HybridSpec, config, model_spec):
        self.spec = spec
        self.master_seed = config.master_seed
        self.side = model_spec.side
        self.active = {}  # wrapper_id -> handle
        self.history = []  # every handle ever spawned, for audits
        self._next_id = 0

    def frozen_ids(self) -> set:
        """The ids of every entity an active wrapper holds."""
        return {eid for h in self.active.values() for eid in h.entity_ids}

    def at_barrier(self, t: int, world, backend, metrics,
                   force_end: bool = False) -> None:
        # every active wrapper was spawned at an earlier barrier, so one
        # coarse step in it is enough to be told END
        policy = (FixedDurationPolicy(coarse_steps=1) if force_end
                  else self.spec.policy)
        for wid in sorted(self.active):
            handle = self.active[wid]
            try:
                coordinate_step(handle, t, policy)
                if handle.end_sent_at is not None:
                    reintegrate(backend, handle, world, metrics)
                    del self.active[wid]
            except ProtocolError as exc:
                _terminate(backend, handle, metrics, str(exc))
                del self.active[wid]

        if force_end or self.spec.trigger is None:
            return
        for entity_ids in self.spec.trigger.check(world, t,
                                                  self.frozen_ids()):
            wid = self._next_id
            self._next_id += 1
            try:
                handle = spawn_level1(backend, entity_ids, t, self.spec,
                                      self.master_seed, self.side, wid)
            except WrapperFailure as exc:
                metrics.level1.failures += 1
                print(str(exc), file=sys.stderr)
                continue
            self.active[wid] = handle
            self.history.append(handle)
            metrics.level1.spawns += 1
            metrics.level1.entities_transferred += len(handle.entity_ids)

    def finish(self) -> list:
        """Every session's transcript; EngineError if one is active."""
        if self.active:
            raise EngineError(
                f"wrappers still active at end of run: {sorted(self.active)},"
                f" holding entities {sorted(self.frozen_ids())}")
        return [{"wrapper_id": h.wrapper_id, "spawned_at": h.spawned_at,
                 "state": h.state, "lines": list(h.transcript)}
                for h in self.history]

    def close(self) -> None:
        """Close every active session, so an aborted run leaks none: a
        remote one's socket, a local one's suspended session."""
        for handle in self.active.values():
            handle.close()
