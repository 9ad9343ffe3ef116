"""Time-stepped engine: logical processes, step loop, routing.

Entities are partitioned across logical processes (LPs). A
LogicalProcess holds its entities as territory.EntityColumns, updates
them in three phases per timestep (one bulk relay decision over the
inbox, one array move, generation), and reports the step's broadcasts
and counters (StepResult); a failure in any phase is raised once,
naming the LP and the step. An active entity's position lives only in
its LP's columns, a frozen one's in its hand-off record; the parent
asks for positions (positions) only where it reads them.
InProcessBackend writes every backend operation once, over one
primitive that asks an LP, plus a routing hook; the process backend
(parallel.py) replaces the primitive, the hook and how the LPs start.
A step's broadcasts are one territory.BROADCAST_COLUMNS table: each
LP's outbox is such an array, which a worker pickles as raw bytes, and
the engine joins them in LP order. territory.BroadcastTable wraps it
only so that the benchmark's reach check can read sampled rows.
Once every LP has reported step t, the engine hands the barrier to the
hybrid coordinator, which alone knows the frozen entities, and routes
the step's table. Reach (reach_copies) is one vectorised pass of
torus_pairs, the one torus neighbourhood query (DensityTrigger asks it
too): each broadcast is tested only against the points binned in its
sender's cell and the neighbouring cells, with the flat scan's
squared-distance expression (territory.broadcast_reach), sender
excluded. The in-process backend routes the whole table over a World
it fills for the step (route_broadcasts), dropping the copies of
frozen entities; in the process backend each LP routes the whole table
to its own entities as the next step begins, and the parent only
counts what frozen entities lose. Either way canonical_order sorts the
copies by (receiver, message id, sender), and an LP consumes its share
as an EnvelopeBatch: the step's table plus two integer columns. Only
the first copy of each message to an entity reaches the relay
decision; the later ones, all cache-filtered, are counted in bulk. One
timestep of flight latency, per-entity random streams and this
canonical inbox order make results independent of the LP count and of
where routing runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import metrics, rng, territory
from .metrics import InvariantMonitor, RunMetrics, StepReport
from .territory import (
    BROADCAST_COLUMNS,
    BroadcastTable,
    World,
    broadcast_reach,  # noqa: F401  re-exported; the benchmark tracer wraps it
)


class EngineError(Exception):
    pass


class StepExecutionError(EngineError):
    """A step of one LP failed; names the LP, the step and the cause.

    cause is the exception, or its text as a worker relays it; either
    way the message reads the same."""

    def __init__(self, lp_id: int, step: int, cause):
        self.lp_id = lp_id
        self.step = step
        self.cause_text = (cause if isinstance(cause, str) else
                           f"{type(cause).__name__}: {cause}")
        super().__init__(
            f"step failed in lp={lp_id} step={step}: {self.cause_text}")


class BarrierTimeoutError(EngineError):
    """Some LP did not report the end of a step in time."""

    def __init__(self, step: int, silent_lp_ids):
        self.step = step
        self.silent_lp_ids = tuple(silent_lp_ids)
        super().__init__(
            f"end-of-step barrier timed out at step {step};"
            f" no report from lp(s) {list(self.silent_lp_ids)}"
        )


@dataclass(frozen=True)
class EngineConfig(metrics.TypedSettings):
    num_lps: metrics.AtLeastOne = 1
    total_timesteps: metrics.AtLeastOne = 900
    master_seed: metrics.Seed = 1
    barrier_timeout: metrics.Positive = 60.0  # seconds


def partition_entities(entity_ids, num_lps: int, seed: int) -> dict:
    """Deal entity ids round-robin over a seeded shuffle.

    Sizes differ by at most one. The shuffle uses a dedicated named
    stream so partitioning never perturbs entity randomness.
    """
    ids = sorted(entity_ids)
    if not ids:
        raise ValueError("cannot partition an empty entity set")
    metrics.accepts(metrics.AtLeastOne).check("num_lps", num_lps)
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

    ``table`` is the step's broadcast table (territory.BROADCAST_COLUMNS).
    Copy i goes to entity ``dest[i]`` and carries row ``row[i]``; copies
    are in canonical_order, the order in which they are consumed. The
    router builds one per LP in process, and each LP builds its own from
    a StepTable in the process backend. The LP reads the columns;
    ``broadcasts`` reads the table's rows as Broadcast objects. Iterating
    yields InterLpEnvelope rows, and a row can be deleted; the
    benchmark's reach check (perfbench/checks.py) reads and its test
    deletes them.
    """

    __slots__ = ("produced_at", "table", "dest", "row")

    def __init__(self, produced_at: int, table: np.ndarray,
                 dest: np.ndarray, row: np.ndarray):
        self.produced_at = produced_at
        self.table = table
        self.dest = dest
        self.row = row

    @property
    def broadcasts(self) -> BroadcastTable:
        return BroadcastTable(self.table)

    def __len__(self) -> int:
        return len(self.dest)

    def __iter__(self):
        rows = self.broadcasts  # one row at a time: no list of every copy
        for dest, r in zip(self.dest.tolist(), self.row.tolist()):
            yield InterLpEnvelope(self.produced_at, dest, *rows[r])

    def __delitem__(self, i: int) -> None:
        self.dest = np.delete(self.dest, i)
        self.row = np.delete(self.row, i)


def join_tables(tables) -> np.ndarray:
    """BROADCAST_COLUMNS tables end to end, put into one table made for
    them: a structured np.concatenate promotes the fields on every call,
    and a structured slice assignment copies field by field."""
    out = np.empty(sum(map(len, tables)), dtype=BROADCAST_COLUMNS)
    at = 0
    for table in tables:
        out.put(np.arange(at, at + len(table)), table)
        at += len(table)
    return out


class StepTable(NamedTuple):
    """A step's whole broadcast table, unrouted: what a process-backend
    worker receives and routes to its own entities (LogicalProcess.inbox)."""

    produced_at: int
    table: np.ndarray


class StepResult(NamedTuple):
    """What one LP reports for one step: its counters and its outbox."""

    report: StepReport
    outbox: np.ndarray  # BROADCAST_COLUMNS rows, by sender


class LogicalProcess:
    """Builds, steps and reports a disjoint set of entities, in id order.

    The entities are one territory.EntityColumns, changed between steps
    only through extract and restore. Its inbox is an EnvelopeBatch the
    router built, or, in the process backend, the previous step's
    StepTable, which it routes to its own entities (inbox). The per-LP
    calls are looked up in the territory module each time, so a
    function swapped in there is the one used.
    """

    def __init__(self, lp_id: int, entity_ids, spec, master_seed: int):
        self.lp_id = lp_id
        self.params = spec.params
        self.side = spec.side
        self.monitor = InvariantMonitor()
        self.cols = territory.build_entity(entity_ids, master_seed, self.side,
                                           self.params)

    def _check_ids(self, op: str, entity_ids, owned: bool) -> None:
        """EngineError unless each id is listed once and owned iff owned."""
        ids, counts = np.unique(np.fromiter(entity_ids, dtype=np.int64),
                                return_counts=True)
        twice = ids[counts > 1].tolist()
        wrong = ids[np.isin(ids, self.cols.ids) != owned].tolist()
        if twice or wrong:
            raise EngineError(
                f"lp={self.lp_id} refused {op}: ids listed twice {twice},"
                f" ids {'not' if owned else 'already'} owned {wrong}")

    def extract(self, entity_ids) -> list:
        """Serialize and remove the given entities, in the given order.

        Every id is checked before any is removed, so an extract that
        raises leaves the LP as it was.
        """
        self._check_ids("extract", entity_ids, owned=True)
        rows = np.searchsorted(self.cols.ids, list(entity_ids))
        records = self.cols.records(rows)
        self.cols.remove(rows)
        return records

    def restore(self, records) -> int:
        """Rebuild entities from records and take them back; how many.
        All are checked and rebuilt before any is taken, so a restore
        that raises leaves the LP as it was."""
        self._check_ids("restore", (rec.entity_id for rec in records),
                        owned=False)
        self.cols.add(records)
        return len(records)

    def inbox(self, sent: StepTable) -> EnvelopeBatch:
        """The copies of a step's whole table that reach this LP's own
        entities, in canonical order: what route_broadcasts gives this
        LP when the same entities are unfrozen in its World."""
        cols, table = self.cols, sent.table
        row, dest = reach_copies(table, cols.x, cols.y, cols.ids, self.side,
                                 self.params.interaction_range)
        order = canonical_order(table, row, dest)
        return EnvelopeBatch(sent.produced_at, table, dest[order], row[order])

    def run_step(self, t: int, inbox, report: StepReport) -> np.ndarray:
        """Update every owned entity once; returns this step's broadcasts.

        inbox is None, an EnvelopeBatch or a StepTable to route first.
        First one territory.decide_relay call decides the first copy of
        each message to each entity, in the batch's canonical order
        (message id, then sender id), relaying from where the entity
        stands. Every later copy of a message to the same entity would
        end at the cache filter the first one filled, so those are
        counted in bulk. Then every mobile entity moves and every entity
        maybe generates. The broadcasts are one BROADCAST_COLUMNS table,
        entity by entity, each entity's relays before its birth.
        """
        cols, params = self.cols, self.params
        cols.budget.fill(params.max_relays_per_step)
        relays = np.empty(0, dtype=BROADCAST_COLUMNS)
        if inbox is not None and inbox.produced_at != t - 1:
            raise EngineError(
                f"stale envelope in lp={self.lp_id} inbox at step {t}:"
                f" produced_at={inbox.produced_at}"
            )
        if isinstance(inbox, StepTable):
            inbox = self.inbox(inbox)
        if inbox:
            # a repeat carries the message the copy before it carried to
            # the same entity; the first copies go to the entities in
            # rows, non-decreasing, as dest is
            dest, mid = inbox.dest, inbox.table["message_id"][inbox.row]
            repeat = np.zeros(len(dest), dtype=bool)
            repeat[1:] = (dest[1:] == dest[:-1]) & (mid[1:] == mid[:-1])
            dest = dest[~repeat]
            rows = np.searchsorted(cols.ids, dest)
            if rows[-1] == len(cols.ids) or (cols.ids[rows] != dest).any():
                unknown = set(dest.tolist()).difference(cols.ids.tolist())
                raise EngineError(
                    f"lp={self.lp_id} received envelopes for entities it"
                    f" does not own: {sorted(unknown)}"
                )
            # touching the most recent id changes neither the cache nor
            # its high water: a repeat only counts, and its hop may be higher
            hops = inbox.table["hop_count"][inbox.row[repeat]]
            report.delivered += len(hops)
            report.cache_filtered += len(hops)
            self.monitor.note(max_delivered_hop=int(hops.max(initial=0)))
            relays = territory.decide_relay(
                cols, rows, inbox.table.take(inbox.row[~repeat]), params,
                self.side, report, self.monitor)
        territory.rwp_step(cols, self.side)
        born = territory.generate_message(cols, t, params)
        report.generated += len(born)
        out = join_tables([relays, born])
        return out.take(np.argsort(out["sender"], kind="stable"))

    def positions(self):
        return self.cols.ids, self.cols.x.copy(), self.cols.y.copy()

    def step(self, t: int, inbox) -> StepResult:
        """Run step t on inbox and report broadcasts and counts; any
        failure is raised once, as a StepExecutionError."""
        try:
            report = StepReport()
            return StepResult(report, self.run_step(t, inbox, report))
        except Exception as exc:
            raise StepExecutionError(self.lp_id, t, exc) from exc

    def finish(self) -> InvariantMonitor:
        """The run's invariant extrema, with every cache's high water."""
        self.monitor.note(
            cache_high_water=int(self.cols.cache_len.max(initial=0)))
        return self.monitor


# Cells are wider than the query radius by this relative margin, far
# above the rounding error of binning a coordinate, so a point in range
# is never binned two cells away from its center.
_CELL_MARGIN = 1e-9


def grid_cells(side: float, interaction_range: float) -> int:
    """Cells per torus axis for a radius: the most that keep each cell
    wider than it by _CELL_MARGIN, and at least one."""
    return max(1, int(side / interaction_range * (1.0 - _CELL_MARGIN)))


def torus_pairs(px, py, cx, cy, side: float, radius: float) -> tuple:
    """Every (center, point) index pair within radius on the torus, as
    two arrays grouped by ascending center.

    Points are binned into cells never narrower than the radius and at
    most about sqrt(#points) per axis (more would only be emptier), so a
    center is tested only against its own and the neighbouring cells:
    offsets -1, 0, +1 per axis, or every cell of an axis with fewer than
    three. The test is territory.broadcast_reach's squared toroidal
    distance, boundary inclusive.
    """
    n = min(grid_cells(side, radius), max(1, int(np.sqrt(len(px)))))
    scale = n / side

    def cell_of(x):
        return np.minimum((x * scale).astype(np.intp), n - 1)

    # points grouped by cell: members[starts[c]:starts[c] + counts[c]];
    # the narrowest dtype lets the stable argsort use a radix sort
    cell = (cell_of(px) * n + cell_of(py)).astype(
        np.min_scalar_type(n * n - 1))
    members = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=n * n)
    starts = np.cumsum(counts) - counts

    # every center's neighbourhood, then every point binned in it
    offsets = np.arange(-1, 2) if n >= 3 else np.arange(n)
    nx = (cell_of(cx)[:, None] + offsets) % n
    ny = (cell_of(cy)[:, None] + offsets) % n
    near = (nx[:, :, None] * n + ny[:, None, :]).ravel()
    span = counts[near]
    first = np.cumsum(span) - span
    center = np.repeat(np.repeat(np.arange(len(cx)), len(offsets) ** 2),
                       span)
    point = members[np.repeat(starts[near] - first, span)
                    + np.arange(len(center))]

    dx = np.abs(px[point] - cx[center])
    np.minimum(dx, side - dx, out=dx)
    dy = np.abs(py[point] - cy[center])
    np.minimum(dy, side - dy, out=dy)
    hit = dx * dx + dy * dy <= radius * radius
    return center[hit], point[hit]


def reach_copies(table: np.ndarray, px, py, ids, side: float,
                 radius: float) -> tuple:
    """(row, dest) of every copy of the table's broadcasts to the points
    (px, py) within radius, sender excluded; point k is entity ids[k],
    or entity k when ids is None."""
    row, k = torus_pairs(px, py, table["sender_x"], table["sender_y"], side,
                         radius)
    dest = k if ids is None else ids[k]
    keep = dest != table["sender"][row]
    return row[keep], dest[keep]


def canonical_order(table: np.ndarray, row, dest) -> np.ndarray:
    """The permutation that sorts copies (row of table to receiver key
    dest) into inbox order: by dest, then message id, sender and row.
    One sort of the table ranks its rows by (message id, sender, row),
    so a copy's key is one integer: dest, then rank."""
    rank = np.empty(len(table), dtype=np.int64)
    rank[np.lexsort((table["sender"], table["message_id"]))] = np.arange(
        len(table))
    return np.argsort(dest * len(table) + rank[row])


def frozen_copies(frozen, table: np.ndarray, side: float,
                  interaction_range: float) -> int:
    """How many copies of the table's broadcasts frozen entities lose:
    those that reach the positions in the frozen hand-off records,
    sender excluded."""
    if not frozen or not len(table):
        return 0
    ids, xs, ys = record_positions(frozen)
    return len(reach_copies(table, xs, ys, ids, side, interaction_range)[0])


def record_positions(records) -> tuple:
    """(ids, xs, ys) of hand-off records, as arrays."""
    return (np.array([r.entity_id for r in records], dtype=np.intp),
            np.array([r.x for r in records], dtype=float),
            np.array([r.y for r in records], dtype=float))


def route_broadcasts(world: World, broadcasts, interaction_range: float,
                     t: int, frozen, owner_of) -> tuple:
    """Turn this step's broadcasts, a BroadcastTable, into next step's
    per-LP inboxes; the in-process backend's router.

    Reach is reach_copies over world, every entity's position. Copies
    addressed to frozen entities are dropped here and counted; everything
    else is delivered at t + 1. owner_of maps entity id to lp id.
    Returns (EnvelopeBatch by lp, routed count, frozen drop count).
    """
    if not broadcasts:
        return {}, 0, 0
    table = broadcasts.table
    row, dest = reach_copies(table, world.pos_x, world.pos_y, None,
                             world.side, interaction_range)
    routed = len(dest)
    if frozen:
        is_frozen = np.zeros(world.num_entities, dtype=bool)
        is_frozen[np.fromiter(frozen, dtype=np.intp, count=len(frozen))] = True
        keep = ~is_frozen[dest]
        dest = dest[keep]
        row = row[keep]
    frozen_drops = routed - len(dest)

    lp = owner_of[dest]
    # owner LP first, so each LP's share is one slice
    order = canonical_order(table, row, lp * world.num_entities + dest)
    dest = dest[order]
    row = row[order]
    end = np.cumsum(np.bincount(lp)).tolist()
    inboxes = {lp_id: EnvelopeBatch(t, table, dest[a:b], row[a:b])
               for lp_id, (a, b) in enumerate(zip([0] + end, end)) if a < b}
    return inboxes, routed, frozen_drops


class InProcessBackend:
    """All LPs stepped round-robin on one thread.

    With num_lps == 1 this is the plain sequential simulator; with more
    it steps the same LogicalProcess objects over the same partition as
    the process backend, which inherits every operation written here
    and replaces _start, how the LPs start, and _ask, how one is asked.
    """

    def __init__(self, config: EngineConfig, model_spec):
        """An LP for each part of partition_entities' partition, which
        both backends look up here, when they start."""
        assignment = partition_entities(range(model_spec.num_entities),
                                        config.num_lps, config.master_seed)
        self.owner_of = owner_array(assignment, model_spec.num_entities)
        self.side = model_spec.side
        self._start(config, model_spec, assignment)

    def _start(self, config, model_spec, assignment: dict) -> None:
        self.lps = {lp_id: LogicalProcess(lp_id, ids, model_spec,
                                          config.master_seed)
                    for lp_id, ids in assignment.items()}

    def _ask(self, op: str, args_by_lp: dict) -> dict:
        """lp_id -> LogicalProcess.<op>(*args), each named LP in turn."""
        return {lp_id: getattr(self.lps[lp_id], op)(*args)
                for lp_id, args in args_by_lp.items()}

    def step(self, t: int, inboxes: dict) -> dict:
        return self._ask("step", {lp_id: (t, inboxes.get(lp_id))
                                  for lp_id in sorted(self.lps)})

    def positions(self) -> tuple:
        """(ids, xs, ys) of every active entity, in id order."""
        parts = self._ask("positions", dict.fromkeys(self.lps, ()))
        ids, xs, ys = (np.concatenate(col) for col in zip(*parts.values()))
        order = np.argsort(ids, kind="stable")
        return ids[order], xs[order], ys[order]

    def route(self, table: np.ndarray, interaction_range: float, t: int,
              frozen) -> tuple:
        """Step t's table as step t + 1's inboxes, routed here by
        route_broadcasts over a World of the LPs' positions and those of
        the frozen records: (inboxes by lp, routed, frozen drops)."""
        world = World(self.side, len(self.owner_of))
        # filled by id, so each LP's part as it is, unsorted by positions()
        for ids, xs, ys in self._ask("positions", dict.fromkeys(
                self.lps, ())).values():
            world.update(ids, xs, ys)
        world.update(*record_positions(frozen))
        return route_broadcasts(world, BroadcastTable(table),
                                interaction_range, t,
                                {r.entity_id for r in frozen}, self.owner_of)

    def extract(self, entity_ids) -> list:
        """Serialize and remove entities from their LPs, in input order.
        LPs are asked one at a time; if one refuses, what the others gave
        up is restored first, so a refused extract changes nothing."""
        got = {}
        try:
            for lp, ids in split_by_owner(self.owner_of, entity_ids).items():
                got.update((r.entity_id, r)
                           for r in self._ask("extract", {lp: (ids,)})[lp])
        except EngineError:
            self.restore(list(got.values()))
            raise
        return [got[eid] for eid in entity_ids]

    def restore(self, records) -> None:
        """Rebuild entities on their LPs, asked one at a time like extract;
        if one refuses, what the others took back is extracted again."""
        taken = []
        try:
            for lp, recs in split_by_owner(self.owner_of, records,
                                           key=lambda r: r.entity_id).items():
                self._ask("restore", {lp: (recs,)})
                taken += [rec.entity_id for rec in recs]
        except EngineError:
            self.extract(taken)
            raise

    def entity_count(self) -> int:
        return sum(len(lp.cols.ids) for lp in self.lps.values())

    def finish(self) -> InvariantMonitor:
        """Every LP's invariant extrema, merged in LP order."""
        merged = InvariantMonitor()
        every_lp = dict.fromkeys(sorted(self.lps), ())
        for monitor in self._ask("finish", every_lp).values():
            merged.merge(monitor)
        return merged

    def close(self) -> None:
        pass


def run_simulation(config: EngineConfig, model_spec, hybrid=None,
                   mode: str = "auto",
                   config_echo: Optional[dict] = None) -> RunMetrics:
    """Run a complete simulation and return its metrics.

    mode selects the execution backend: "inprocess" steps every LP on
    this thread, "process" runs one OS process per LP, "auto" picks
    "process" when num_lps > 1. Counters are identical either way.
    hybrid, a coordination.HybridSpec, says when to hand entities off to
    fine-grained sub-simulators; by default nothing triggers a hand-off.
    """
    from .coordination import HybridCoordinator, HybridSpec
    if mode not in ("auto", "inprocess", "process"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "process" if config.num_lps > 1 else "inprocess"

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
    coordinator = HybridCoordinator(hybrid or HybridSpec(), config,
                                    model_spec)

    try:
        interaction_range = model_spec.params.interaction_range
        inboxes, drops = {}, 0
        final_step = config.total_timesteps - 1
        for t in range(config.total_timesteps):
            results = backend.step(t, inboxes)

            step_report = StepReport()
            for res in results.values():  # in LP order
                step_report.merge(res.report)
            table = join_tables([res.outbox for res in results.values()])
            if t and metrics.routed_per_step[-1] is None:
                # the LPs routed step t - 1 themselves: every copy they
                # delivered now, and every copy frozen entities lost
                metrics.routed_per_step[-1] = step_report.delivered + drops

            coordinator.at_barrier(t, backend, metrics,
                                   force_end=(t == final_step))
            frozen = coordinator.frozen()

            active = backend.entity_count()
            if active + len(frozen) != model_spec.num_entities:
                raise EngineError(
                    f"conservation violated at step {t}: {active} active"
                    f" + {len(frozen)} frozen != {model_spec.num_entities}"
                )

            if t < final_step:
                # routed is None where the LPs route (the process backend)
                inboxes, routed, drops = backend.route(
                    table, interaction_range, t, frozen)
            else:
                # nothing can be delivered beyond the horizon: final-step
                # broadcasts die on the air and are not counted as routed
                inboxes, routed, drops = {}, 0, 0

            metrics.totals.merge(step_report)
            metrics.per_step.append(step_report)
            metrics.routed_per_step.append(routed)
            metrics.frozen_drops += drops
        metrics.routed = sum(metrics.routed_per_step)

        metrics.wrapper_transcripts = coordinator.finish()
        metrics.monitor = backend.finish()
    finally:
        coordinator.close()
        backend.close()

    metrics.wall_clock_seconds = time.perf_counter() - start
    metrics.check_accounting()
    return metrics
