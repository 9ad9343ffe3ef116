"""Process-parallel backend: one OS process per logical process.

The parent keeps the step loop, routing and coordination; each worker
holds one LogicalProcess and answers the parent's commands with it
(step, extract, restore, finish) over a pipe. Counters are
bit-identical to the in-process backend because partitioning,
per-entity streams and the canonical inbox order are all independent
of where an entity happens to live.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing.connection import wait as conn_wait

from .engine import (
    BarrierTimeoutError,
    EngineError,
    LogicalProcess,
    StepExecutionError,
    owner_array,
    partition_entities,
    split_by_owner,
)
from .metrics import InvariantMonitor


def _worker(lp_id: int, conn, config, model_spec, entity_ids) -> None:
    """Serve one LP: every reply is (op, payload), or ("error", ...)."""
    lp = LogicalProcess(lp_id, entity_ids, model_spec, config.master_seed)
    conn.send(("hello", lp.positions()))
    while _serve(lp, conn):
        pass
    conn.close()


def _serve(lp: LogicalProcess, conn) -> bool:
    """Answer one command; False on close. Its locals die on return, so
    no step's inbox or result is held while the next one is received."""
    op, *args = conn.recv()
    if op == "step":
        t, inbox = args
        try:
            reply = ("step", lp.step(t, inbox))
        except StepExecutionError as exc:  # the parent re-adds lp, step, id
            reply = ("error", lp.lp_id, t, exc.entity_id, str(exc.__cause__))
        except EngineError as exc:
            reply = ("error", lp.lp_id, t, None, str(exc))
    elif op == "extract":
        reply = ("extract", lp.extract(args[0]))
    elif op == "restore":
        lp.restore(args[0])
        reply = ("restore", len(args[0]))
    elif op == "finish":
        reply = ("finish", lp.finish())
    elif op == "close":
        return False
    else:
        raise EngineError(f"worker {lp.lp_id}: unknown command {op!r}")
    conn.send(reply)
    return True


class ProcessBackend:
    """Drives the worker pool and mirrors entity ownership.

    The parent tracks per-LP entity counts so conservation checks and
    frozen-entity bookkeeping never need a round trip. Every reply the
    parent waits for (hello, step, extract, restore, finish) must arrive
    within barrier_timeout.
    """

    def __init__(self, config, model_spec):
        self.config = config
        try:
            ctx = mp.get_context("fork")
        except ValueError:
            ctx = mp.get_context("spawn")
        assignment = partition_entities(range(model_spec.num_entities),
                                        config.num_lps, config.master_seed)
        self.owner_of = owner_array(assignment, model_spec.num_entities)
        self._counts = {lp_id: len(ids) for lp_id, ids in assignment.items()}
        self._conns = {}
        self._procs = {}
        self._silent = set()  # LPs that missed a reply deadline
        try:
            for lp_id, ids in assignment.items():
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_worker,
                                   args=(lp_id, child, config, model_spec,
                                         ids),
                                   daemon=True)
                self._conns[lp_id] = parent
                proc.start()
                child.close()
                self._procs[lp_id] = proc
            hello = self._collect(assignment, "hello")
        except BaseException:
            self.close()
            raise
        self._hello = [hello[lp_id] for lp_id in assignment]

    def _replies(self, lp_ids, on_timeout):
        """Yield (lp_id, reply) as each LP answers, within barrier_timeout.

        A worker that exits raises EngineError; if any is still silent at
        the deadline, on_timeout(silent lp ids) is raised and close() will
        not wait for those LPs.
        """
        deadline = time.monotonic() + self.config.barrier_timeout
        pending = {self._conns[lp_id]: lp_id for lp_id in lp_ids}
        while pending:
            remaining = deadline - time.monotonic()
            ready = (conn_wait(list(pending), timeout=remaining)
                     if remaining > 0 else [])
            if not ready:
                self._silent.update(pending.values())
                raise on_timeout(sorted(pending.values()))
            for conn in ready:
                lp_id = pending.pop(conn)
                try:
                    reply = conn.recv()
                except EOFError:
                    raise EngineError(f"worker for lp={lp_id} died") from None
                yield lp_id, reply

    def _collect(self, lp_ids, op: str) -> dict:
        """Each LP's payload in its reply to op."""
        timeout = self.config.barrier_timeout

        def silent(lps):
            return EngineError(f"no reply to {op} from lp(s) {lps}"
                               f" within {timeout:g} s")

        payloads = {}
        for lp_id, reply in self._replies(lp_ids, silent):
            if reply[0] != op:
                raise EngineError(f"worker {lp_id} sent {reply[0]!r} to {op}")
            payloads[lp_id] = reply[1]
        return payloads

    def initial_positions(self):
        return list(self._hello)

    def step(self, t: int, inboxes: dict) -> dict:
        for lp_id, conn in self._conns.items():
            conn.send(("step", t, inboxes.get(lp_id)))
        results = {}
        for lp_id, msg in self._replies(
                self._conns, lambda silent: BarrierTimeoutError(t, silent)):
            if msg[0] == "error":
                _, elp, estep, eid, text = msg
                if eid is not None:
                    raise StepExecutionError(elp, estep, eid, text)
                raise EngineError(text)
            if msg[0] != "step":
                raise EngineError(
                    f"worker {lp_id} sent {msg[0]!r} during step")
            results[lp_id] = msg[1]
        return results

    def extract(self, entity_ids) -> list:
        by_lp = split_by_owner(self.owner_of, entity_ids)
        for lp_id, eids in by_lp.items():
            self._conns[lp_id].send(("extract", eids))
        records = {}
        for lp_id, recs in self._collect(by_lp, "extract").items():
            for rec in recs:
                records[rec.entity_id] = rec
            self._counts[lp_id] -= len(recs)
        return [records[eid] for eid in entity_ids]

    def restore(self, records) -> None:
        by_lp = split_by_owner(self.owner_of, records,
                               key=lambda rec: rec.entity_id)
        for lp_id, recs in by_lp.items():
            self._conns[lp_id].send(("restore", recs))
        for lp_id, n in self._collect(by_lp, "restore").items():
            self._counts[lp_id] += n

    def entity_count(self) -> int:
        return sum(self._counts.values())

    def finish(self) -> InvariantMonitor:
        merged = InvariantMonitor()
        for conn in self._conns.values():
            conn.send(("finish",))
        monitors = self._collect(self._conns, "finish")
        for lp_id in self._conns:
            merged.merge(monitors[lp_id])
        return merged

    def close(self) -> None:
        """Stop every worker. One that missed a reply deadline is busy and
        cannot read the close command, so it is terminated at once; the
        rest share one deadline before any still alive is terminated."""
        for lp_id, conn in self._conns.items():
            if lp_id in self._silent:
                self._procs[lp_id].terminate()
                continue
            try:
                conn.send(("close",))
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        stuck = [proc for proc in self._procs.values() if proc.is_alive()]
        for proc in stuck:
            proc.terminate()
        for proc in stuck:
            proc.join(timeout=5.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
