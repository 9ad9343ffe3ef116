"""Process-parallel backend: one OS process per logical process.

The parent keeps the step loop and coordination; each worker holds one
LogicalProcess and answers the parent's commands with it over a pipe.
ProcessBackend inherits step, extract, restore and finish from
engine.InProcessBackend and replaces how an LP is asked (a command down
each LP's pipe, then one wait for all the replies) and the routing
hook: every worker gets the previous step's whole broadcast table and
routes it to its own entities, so the parent routes nothing and only
counts the copies frozen entities lose. A step's command and reply
carry numpy columns only (the table; the outbox table and the
positions), which pickle as raw bytes. Counters are bit-identical to
the in-process backend because partitioning, per-entity streams, the
reach test and the canonical inbox order are all independent of where
an entity lives and of where it is routed.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing.connection import wait as conn_wait
from multiprocessing.util import register_after_fork

from .engine import (
    BarrierTimeoutError,
    EngineError,
    InProcessBackend,
    LogicalProcess,
    StepExecutionError,
    StepTable,
    frozen_copies,
)


def _worker(lp_id: int, conn, config, model_spec, entity_ids) -> None:
    """Serve one LP: every reply is (op, payload), or ("error", lp id,
    step or None, text)."""
    lp = LogicalProcess(lp_id, entity_ids, model_spec, config.master_seed)
    conn.send(("hello", None))  # ready to serve
    while _serve(lp, conn):
        pass
    conn.close()


def _serve(lp: LogicalProcess, conn) -> bool:
    """Answer one (op, *args) command with LogicalProcess.<op>(*args);
    False on close. A failure is relayed as an error reply and the
    worker serves on. Its locals die on return, so no step's inbox or
    result is held while the next one is received. EOF, a parent that
    is gone, is a close."""
    try:
        op, *args = conn.recv()
    except EOFError:
        return False
    if op == "close":
        return False
    try:
        reply = (op, getattr(lp, op)(*args))
    except StepExecutionError as exc:  # the parent re-adds lp and step
        reply = ("error", lp.lp_id, exc.step, exc.cause_text)
    except Exception as exc:
        text = (str(exc) if isinstance(exc, EngineError) else
                f"worker for lp={lp.lp_id} failed in {op}:"
                f" {type(exc).__name__}: {exc}")
        reply = ("error", lp.lp_id, None, text)
    conn.send(reply)
    return True


class ProcessBackend(InProcessBackend):
    """InProcessBackend's operations, each LP in its own worker process.

    ``lps`` maps each lp id to the parent's end of its worker's pipe, and
    only _start, which starts the workers, and _ask, how an LP is asked,
    differ from the in-process backend.
    The parent mirrors per-LP entity counts from the extract and restore
    replies, so the engine's per-step conservation check never needs a
    round trip. A worker says hello, empty, once its LP is built.

    Every multiprocessing child forked later closes its copy of each
    parent end as it starts, so a worker holds no parent end of its own
    pipe, or of an earlier worker's, and reads EOF once the parent is
    gone, however it went.
    """

    def _start(self, config, model_spec, assignment: dict) -> None:
        self.config = config
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
        self._counts = {lp_id: len(ids) for lp_id, ids in assignment.items()}
        self.lps = {}
        self._procs = {}
        self._silent = set()  # LPs that missed a reply deadline
        try:
            for lp_id, ids in assignment.items():
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_worker,
                                   args=(lp_id, child, config, model_spec,
                                         ids),
                                   daemon=True)
                self.lps[lp_id] = parent
                register_after_fork(parent, type(parent).close)
                proc.start()
                child.close()
                self._procs[lp_id] = proc
            self._ask("hello", dict.fromkeys(assignment, ()))
        except BaseException:
            self.close()
            raise

    def _ask(self, op: str, args_by_lp: dict) -> dict:
        """Send each named LP (op, *args), then wait for every reply
        within barrier_timeout; lp_id -> payload, in the given order.

        Workers send hello unasked. A worker that exits raises at once.
        LPs silent at the deadline raise BarrierTimeoutError (a step) or
        EngineError, and close() terminates them without waiting. An
        error reply is raised once every LP has answered."""
        if op != "hello":
            for lp_id, args in args_by_lp.items():
                self.lps[lp_id].send((op, *args))
        timeout = self.config.barrier_timeout
        deadline = time.monotonic() + timeout
        pending = {self.lps[lp_id]: lp_id for lp_id in args_by_lp}
        replies = {}
        while pending:
            remaining = deadline - time.monotonic()
            ready = (conn_wait(list(pending), timeout=remaining)
                     if remaining > 0 else [])
            if not ready:
                silent = sorted(pending.values())
                self._silent.update(silent)
                if op == "step":
                    raise BarrierTimeoutError(args_by_lp[silent[0]][0],
                                              silent)
                raise EngineError(f"no reply to {op} from lp(s) {silent}"
                                  f" within {timeout:g} s")
            for conn in ready:
                lp_id = pending.pop(conn)
                try:
                    replies[lp_id] = conn.recv()
                except EOFError:
                    raise EngineError(f"worker for lp={lp_id} died") from None
        payloads = {}
        error = None
        for lp_id in args_by_lp:
            kind, *rest = replies[lp_id]
            if kind == "error":
                elp, estep, text = rest
                error = error or (EngineError(text) if estep is None else
                                  StepExecutionError(elp, estep, text))
                continue
            if kind != op:
                raise EngineError(f"worker {lp_id} sent {kind!r} to {op}")
            payloads[lp_id] = payload = rest[0]
            if op == "extract":
                self._counts[lp_id] -= len(payload)
            elif op == "restore":
                self._counts[lp_id] += payload
        if error is not None:
            raise error
        return payloads

    def route(self, world, table, interaction_range: float, t: int,
              frozen) -> tuple:
        """Step t's whole table for every LP, to route to its own entities
        as step t + 1 begins; frozen entities are in no LP, so the parent
        counts the copies they lose. routed is None: the engine books it
        from what step t + 1 delivers."""
        if not len(table):
            return {}, 0, 0
        return (dict.fromkeys(self.lps, StepTable(t, table)), None,
                frozen_copies(world, table, interaction_range, frozen))

    def entity_count(self) -> int:
        return sum(self._counts.values())

    def close(self) -> None:
        """Stop every worker. One that missed a reply deadline is busy and
        cannot read the close command, so it is terminated at once; the
        rest share one deadline before any still alive is terminated."""
        for lp_id, conn in self.lps.items():
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
        for conn in self.lps.values():
            try:
                conn.close()
            except OSError:
                pass
