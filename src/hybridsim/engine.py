"""Time-stepped engine: logical processes, end-of-step barrier, routing.

Entities are partitioned across logical processes (LPs). Each timestep
every LP updates its owned entities in ascending id order, then reports
end-of-step. At the barrier the engine updates the global position
table, runs any sub-simulator coordination, and routes the step's
broadcasts in one vectorised pass. Positions are binned into torus
cells wider than the interaction range, so each broadcast is tested
only against the entities of its sender's cell and the neighbouring
cells, with the same squared-distance expression as the flat scan in
territory.broadcast_reach. One lexsort on (owner LP, receiver, message
id, sender) then orders every copy, and each LP receives its share at
the start of the next timestep as an EnvelopeBatch: the step's
broadcast table plus two integer columns. One timestep of flight
latency, per-entity random streams and this canonical inbox order
together make results independent of the LP count.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import rng
from .metrics import InvariantMonitor, RunMetrics, StepReport
from .territory import (
    World,
    broadcast_reach,  # noqa: F401  re-exported; the benchmark tracer wraps it
    broadcast_table,
    entity_to_record,
    record_to_entity,
    table_broadcasts,
)


class EngineError(Exception):
    pass


class StepExecutionError(EngineError):
    """An entity update failed; carries enough context to find it."""

    def __init__(self, lp_id: int, step: int, entity_id, cause):
        self.lp_id = lp_id
        self.step = step
        self.entity_id = entity_id
        super().__init__(
            f"entity update failed in lp={lp_id} step={step}"
            f" entity={entity_id}: {cause}"
        )


class BarrierTimeoutError(EngineError):
    """The end-of-step barrier did not complete in time."""

    def __init__(self, step: int, silent_lp_ids):
        self.step = step
        self.silent_lp_ids = tuple(silent_lp_ids)
        super().__init__(
            f"end-of-step barrier timed out at step {step};"
            f" no report from lp(s) {list(self.silent_lp_ids)}"
        )


@dataclass(frozen=True)
class EngineConfig:
    num_lps: int = 1
    total_timesteps: int = 900
    master_seed: int = 1
    timestep_duration: float = 1.0
    barrier_timeout: float = 60.0

    def __post_init__(self):
        if self.num_lps < 1:
            raise ValueError("num_lps must be >= 1")
        if self.total_timesteps < 1:
            raise ValueError("total_timesteps must be >= 1")
        if self.timestep_duration <= 0:
            raise ValueError("timestep_duration must be positive")


def partition_entities(entity_ids, num_lps: int, seed: int) -> dict:
    """Deal entity ids round-robin over a seeded shuffle.

    Sizes differ by at most one. The shuffle uses a dedicated named
    stream so partitioning never perturbs entity randomness.
    """
    ids = sorted(entity_ids)
    if not ids:
        raise ValueError("cannot partition an empty entity set")
    if num_lps < 1:
        raise ValueError("num_lps must be >= 1")
    if num_lps > len(ids):
        raise ValueError(
            f"num_lps ({num_lps}) exceeds entity count ({len(ids)})"
        )
    perm = rng.named_generator(seed, "partition").permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    return {lp: sorted(shuffled[lp::num_lps]) for lp in range(num_lps)}


def owner_array(assignment: dict, num_entities: int) -> np.ndarray:
    """Entity id -> owning lp id, from a partition_entities assignment."""
    owner = np.empty(num_entities, dtype=np.intp)
    for lp_id, ids in assignment.items():
        owner[ids] = lp_id
    return owner


def split_by_owner(owner_of, items, key=int) -> dict:
    """lp_id -> the items whose entity id key(item) it owns, in input order."""
    by_lp = {}
    for item in items:
        by_lp.setdefault(int(owner_of[key(item)]), []).append(item)
    return by_lp


class InterLpEnvelope(NamedTuple):
    """One routed message copy: a row of an EnvelopeBatch."""

    produced_at: int
    dest: int
    sender: int
    sender_x: float
    sender_y: float
    message: object  # DisseminationMessage


class EnvelopeBatch:
    """One LP's inbox: the copies of one step's broadcasts it receives.

    ``table`` is the step's broadcast table (territory.BROADCAST_COLUMNS)
    and ``broadcasts`` the same rows as Broadcast objects. Copy i goes to
    entity ``dest[i]`` and carries row ``row[i]``; copies are ordered by
    (dest, message id, sender), the order in which they are consumed.
    Pickling ships only the table and the two columns; the receiving
    side rebuilds the Broadcast rows once. Reads as a sequence of
    InterLpEnvelope rows.
    """

    __slots__ = ("produced_at", "table", "dest", "row", "broadcasts")

    def __init__(self, produced_at: int, table: np.ndarray,
                 dest: np.ndarray, row: np.ndarray, broadcasts=None):
        self.produced_at = produced_at
        self.table = table
        self.dest = dest
        self.row = row
        self.broadcasts = (table_broadcasts(table) if broadcasts is None
                           else broadcasts)

    def __reduce__(self):
        return (EnvelopeBatch, (self.produced_at, self.table, self.dest,
                                self.row))

    def __len__(self) -> int:
        return len(self.dest)

    def _envelope(self, dest: int, r: int) -> InterLpEnvelope:
        b = self.broadcasts[r]
        return InterLpEnvelope(self.produced_at, dest, b.sender, b.sender_x,
                               b.sender_y, b.message)

    def __getitem__(self, i: int) -> InterLpEnvelope:
        return self._envelope(int(self.dest[i]), int(self.row[i]))

    def __iter__(self):
        for dest, r in zip(self.dest.tolist(), self.row.tolist()):
            yield self._envelope(dest, r)

    def __delitem__(self, i: int) -> None:
        self.dest = np.delete(self.dest, i)
        self.row = np.delete(self.row, i)


class LogicalProcess:
    """Owns a disjoint set of entities and steps them in id order.

    The id-ordered entity list and id array are rebuilt only when
    membership changes, so ``entities`` must be changed only through
    extract and restore.
    """

    def __init__(self, lp_id: int, entities: dict):
        self.lp_id = lp_id
        self.entities = entities  # entity_id -> SimulatedEntity
        self.inbox: Optional[EnvelopeBatch] = None
        self._reindex()

    def _reindex(self) -> None:
        ids = sorted(self.entities)
        self._order = [self.entities[i] for i in ids]
        self._ids = np.array(ids, dtype=np.int64)

    def extract(self, entity_ids) -> list:
        """Serialize and remove the given entities, in the given order."""
        records = [entity_to_record(self.entities.pop(eid))
                   for eid in entity_ids]
        self._reindex()
        return records

    def restore(self, records, master_seed: int, params) -> None:
        """Rebuild entities from records and take them back."""
        for rec in records:
            e = record_to_entity(rec, master_seed, params)
            self.entities[e.entity_id] = e
        self._reindex()

    def run_step(self, t: int, model, report: StepReport) -> list:
        """Update every owned entity once; returns this step's broadcasts.

        Per entity: consume its inbox copies in the batch's canonical
        order (message id, then sender id), then move, then maybe
        generate. A failure in any hook is re-raised with lp, step and
        entity ids.
        """
        inbox, self.inbox = self.inbox, None
        spans = [(0, 0)] * len(self._order)
        if inbox:
            if inbox.produced_at != t - 1:
                raise EngineError(
                    f"stale envelope in lp={self.lp_id} inbox at step {t}:"
                    f" produced_at={inbox.produced_at}"
                )
            # copies are sorted by dest: entity k's are [lo[k], hi[k])
            lo = np.searchsorted(inbox.dest, self._ids, side="left")
            hi = np.searchsorted(inbox.dest, self._ids, side="right")
            if int((hi - lo).sum()) != len(inbox):
                unknown = set(inbox.dest.tolist()).difference(self.entities)
                raise EngineError(
                    f"lp={self.lp_id} received envelopes for entities it"
                    f" does not own: {sorted(unknown)}"
                )
            spans = zip(lo.tolist(), hi.tolist())
            rows = inbox.broadcasts
            picks = inbox.row.tolist()
        outbox = []
        for e, (a, b) in zip(self._order, spans):
            try:
                model.begin_entity_step(e, t)
                for k in range(a, b):
                    relay = model.process_delivery(e, rows[picks[k]], t,
                                                   report)
                    if relay is not None:
                        outbox.append(relay)
                model.move(e, t)
                fresh = model.generate(e, t, report)
                if fresh is not None:
                    outbox.append(fresh)
            except Exception as exc:
                raise StepExecutionError(self.lp_id, t, e.entity_id,
                                         exc) from exc
        return outbox

    def positions(self):
        order = self._order
        xs = np.fromiter((e.x for e in order), dtype=np.float64,
                         count=len(order))
        ys = np.fromiter((e.y for e in order), dtype=np.float64,
                         count=len(order))
        return self._ids, xs, ys


class StepBarrier:
    """End-of-step bookkeeping: which LPs have reported for step t.

    wait_complete raises a timeout error naming the silent LPs. With a
    single LP the barrier completes immediately on its arrival. Arrival
    wall-clock times are kept for scheduling audits.
    """

    def __init__(self, lp_ids):
        self.lp_ids = frozenset(lp_ids)
        self._cond = threading.Condition()
        self._arrived = {}
        self._step = None
        self.trace = []  # (step, lp_id, perf_counter arrival)

    def begin_step(self, t: int) -> None:
        with self._cond:
            self._step = t
            self._arrived = {}

    def arrive(self, lp_id: int, t: int, payload=None) -> None:
        with self._cond:
            if t != self._step:
                raise EngineError(
                    f"lp={lp_id} reported end of step {t} during step"
                    f" {self._step}"
                )
            if lp_id not in self.lp_ids:
                raise EngineError(f"unknown lp_id {lp_id} at barrier")
            self._arrived[lp_id] = payload
            self.trace.append((t, lp_id, time.perf_counter()))
            self._cond.notify_all()

    def wait_complete(self, t: int, timeout: float) -> dict:
        """Block until every LP has arrived for step t; return payloads."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while set(self._arrived) != self.lp_ids:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    silent = sorted(self.lp_ids - set(self._arrived))
                    raise BarrierTimeoutError(t, silent)
                self._cond.wait(remaining)
            return dict(self._arrived)


class StepResult(NamedTuple):
    """What one LP hands to the barrier for one step."""

    lp_id: int
    report: StepReport
    outbox: list
    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray


# Routing cells are wider than the interaction range by this relative
# margin, far above the rounding error of binning a coordinate, so a
# receiver in range is never binned two cells away from its sender.
_CELL_MARGIN = 1e-9


def grid_cells(side: float, interaction_range: float) -> int:
    """Routing cells per torus axis: the most that keep each cell wider
    than the range by _CELL_MARGIN, and at least one."""
    return max(1, int(side / interaction_range * (1.0 - _CELL_MARGIN)))


def route_broadcasts(world: World, broadcasts, interaction_range: float,
                     t: int, frozen, owner_of) -> tuple:
    """Turn this step's broadcasts into next step's per-LP inboxes.

    Reach is computed against the global position table (squared
    toroidal distance, sender excluded), for each broadcast over the
    entities binned in its sender's cell and the neighbouring cells:
    offsets -1, 0, +1 per axis, or every cell of an axis with fewer than
    three. Copies addressed to frozen entities are dropped here and
    counted; everything else is delivered at t + 1. owner_of maps entity
    id to lp id. Returns (EnvelopeBatch by lp, routed count, frozen drop
    count).
    """
    if not broadcasts:
        return {}, 0, 0
    table = broadcast_table(broadcasts)
    side = world.side
    n = grid_cells(side, interaction_range)
    scale = n / side

    def cell_of(x):
        return np.minimum((x * scale).astype(np.intp), n - 1)

    # entities grouped by cell: members[starts[c]:starts[c] + counts[c]];
    # the narrowest dtype lets the stable argsort use a radix sort
    cell = (cell_of(world.pos_x) * n + cell_of(world.pos_y)).astype(
        np.min_scalar_type(n * n - 1))
    members = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=n * n)
    starts = np.cumsum(counts) - counts

    # every broadcast's neighbourhood, then every entity binned in it
    bx = table["sender_x"]
    by = table["sender_y"]
    offsets = np.arange(-1, 2) if n >= 3 else np.arange(n)
    nx = (cell_of(bx)[:, None] + offsets) % n
    ny = (cell_of(by)[:, None] + offsets) % n
    near = (nx[:, :, None] * n + ny[:, None, :]).ravel()
    span = counts[near]
    first = np.cumsum(span) - span
    bidx = np.repeat(np.arange(len(table)), len(offsets) ** 2)
    bidx = np.repeat(bidx, span)
    cand = members[np.repeat(starts[near] - first, span)
                   + np.arange(len(bidx))]

    dx = np.abs(world.pos_x[cand] - bx[bidx])
    np.minimum(dx, side - dx, out=dx)
    dy = np.abs(world.pos_y[cand] - by[bidx])
    np.minimum(dy, side - dy, out=dy)
    hit = dx * dx + dy * dy <= interaction_range * interaction_range
    hit &= cand != table["sender"][bidx]
    dest = cand[hit]
    row = bidx[hit]
    routed = len(dest)

    frozen_drops = 0
    if frozen:
        is_frozen = np.zeros(world.num_entities, dtype=bool)
        is_frozen[np.fromiter(frozen, dtype=np.intp, count=len(frozen))] = True
        live = ~is_frozen[dest]
        frozen_drops = routed - int(np.count_nonzero(live))
        dest = dest[live]
        row = row[live]

    lp = owner_of[dest]
    order = np.lexsort((table["sender"][row], table["message_id"][row],
                        dest, lp))
    # int32 halves what the process backend pickles per copy
    dest = dest[order].astype(np.int32)
    row = row[order].astype(np.int32)
    end = np.cumsum(np.bincount(lp)).tolist()
    inboxes = {lp_id: EnvelopeBatch(t, table, dest[a:b], row[a:b],
                                    broadcasts)
               for lp_id, (a, b) in enumerate(zip([0] + end, end)) if a < b}
    return inboxes, routed, frozen_drops


class InProcessBackend:
    """All LPs stepped round-robin on one thread.

    With num_lps == 1 this is the plain sequential simulator; with more
    it keeps exactly the same barrier semantics as the process backend,
    which is what makes the two comparable event for event.
    """

    def __init__(self, config: EngineConfig, model_spec):
        self.config = config
        self.params = model_spec.params
        self.monitor = InvariantMonitor()
        self.model = model_spec.build_model(config.master_seed, self.monitor)
        assignment = partition_entities(range(model_spec.num_entities),
                                        config.num_lps, config.master_seed)
        self.lps = {lp_id: LogicalProcess(lp_id, self.model.build_entities(ids))
                    for lp_id, ids in assignment.items()}
        self.owner_of = owner_array(assignment, model_spec.num_entities)
        self.barrier = StepBarrier(assignment.keys())

    def initial_positions(self):
        return [lp.positions() for lp in self.lps.values()]

    def step(self, t: int, inboxes: dict) -> dict:
        self.barrier.begin_step(t)
        for lp_id in sorted(self.lps):
            lp = self.lps[lp_id]
            lp.inbox = inboxes.get(lp_id)
            report = StepReport()
            outbox = lp.run_step(t, self.model, report)
            ids, xs, ys = lp.positions()
            self.barrier.arrive(lp_id, t,
                                StepResult(lp_id, report, outbox, ids, xs, ys))
        return self.barrier.wait_complete(t, self.config.barrier_timeout)

    def extract(self, entity_ids) -> list:
        """Serialize and remove entities from their LPs, in input order."""
        records = {}
        for lp_id, eids in split_by_owner(self.owner_of, entity_ids).items():
            for rec in self.lps[lp_id].extract(eids):
                records[rec.entity_id] = rec
        return [records[eid] for eid in entity_ids]

    def restore(self, records) -> None:
        by_lp = split_by_owner(self.owner_of, records,
                               key=lambda rec: rec.entity_id)
        for lp_id, recs in by_lp.items():
            self.lps[lp_id].restore(recs, self.config.master_seed,
                                    self.params)

    def entity_count(self) -> int:
        return sum(len(lp.entities) for lp in self.lps.values())

    def finish(self) -> InvariantMonitor:
        for lp in self.lps.values():
            self.model.collect_cache_stats(lp.entities)
        return self.monitor

    def close(self) -> None:
        pass


def run_simulation(config: EngineConfig, model_spec, hybrid=None,
                   mode: str = "auto", config_echo: Optional[dict] = None,
                   trace_barriers: bool = False) -> RunMetrics:
    """Run a complete simulation and return its metrics.

    mode selects the execution backend: "inprocess" steps every LP on
    this thread, "process" runs one OS process per LP, "auto" picks
    "process" when num_lps > 1. Counters are identical either way.
    hybrid, when given, is a coordination.HybridSpec describing when to
    hand entities off to fine-grained sub-simulators.
    """
    if mode not in ("auto", "inprocess", "process"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "process" if config.num_lps > 1 else "inprocess"
    if config.num_lps > model_spec.num_entities:
        raise ValueError("num_lps exceeds entity count")

    start = time.perf_counter()
    if mode == "process":
        from .parallel import ProcessBackend
        backend = ProcessBackend(config, model_spec)
    else:
        backend = InProcessBackend(config, model_spec)

    metrics = RunMetrics(
        num_entities=model_spec.num_entities,
        num_lps=config.num_lps,
        total_timesteps=config.total_timesteps,
        master_seed=config.master_seed,
        config_echo=dict(config_echo or {}),
    )
    coordinator = None
    if hybrid is not None:
        from .coordination import HybridCoordinator
        coordinator = HybridCoordinator(hybrid, config, model_spec)

    try:
        world = World(model_spec.side, model_spec.num_entities)
        for ids, xs, ys in backend.initial_positions():
            world.update(ids, xs, ys)

        interaction_range = model_spec.params.interaction_range
        frozen = {}  # entity_id -> wrapper handle
        inboxes = {}
        final_step = config.total_timesteps - 1
        for t in range(config.total_timesteps):
            results = backend.step(t, inboxes)

            step_report = StepReport()
            all_broadcasts = []
            for lp_id in sorted(results):
                res = results[lp_id]
                step_report.merge(res.report)
                all_broadcasts.extend(res.outbox)
                world.update(res.ids, res.xs, res.ys)

            if coordinator is not None:
                coordinator.at_barrier(t, world, backend, frozen, metrics,
                                       force_end=(t == final_step))

            active = backend.entity_count()
            if active + len(frozen) != model_spec.num_entities:
                raise EngineError(
                    f"conservation violated at step {t}: {active} active"
                    f" + {len(frozen)} frozen != {model_spec.num_entities}"
                )

            if t < final_step:
                inboxes, routed, drops = route_broadcasts(
                    world, all_broadcasts, interaction_range, t, frozen,
                    backend.owner_of)
            else:
                # nothing can be delivered beyond the horizon: final-step
                # broadcasts die on the air and are not counted as routed
                inboxes, routed, drops = {}, 0, 0

            metrics.totals.merge(step_report)
            metrics.per_step.append(step_report)
            metrics.routed += routed
            metrics.routed_per_step.append(routed)
            metrics.frozen_drops += drops

        if coordinator is not None:
            coordinator.finish(metrics)
            if frozen:
                raise EngineError(
                    f"entities still frozen after final step: {sorted(frozen)}"
                )
            metrics.wrapper_transcripts = [
                {"wrapper_id": h.wrapper_id, "spawned_at": h.spawned_at,
                 "state": h.state, "lines": list(h.transcript)}
                for h in coordinator.history
            ]
        metrics.monitor = backend.finish()
        if trace_barriers:
            metrics.barrier_trace = list(backend.barrier.trace)
    finally:
        backend.close()

    metrics.wall_clock_seconds = time.perf_counter() - start
    metrics.check_accounting()
    return metrics
