"""Layer tracer for the traced run, installed from outside the library.

Each probe wraps one public function or method of a ``hybridsim``
module; the module is the layer. Every call keeps a frame on a
per-thread stack, so a layer's self time is its calls' duration minus
the time of the probed calls nested inside them. Calls at layer seams
also leave a span (id, name, start, end, parent span, thread); calls
made once per entity or per delivery only add to per-name totals, since
a span each would cost more memory than the run itself. Random draws
are counted, not timed: a timer costs as much as the draw.

A wrapper costs about two microseconds per call, as much as many
per-entity calls take. ``calibrate`` measures that cost on an empty
function wrapped the same way, and every recorded duration has the cost
of the probes inside it taken out, so a layer's seconds estimate what
the untraced program spends there. Spans keep their raw timestamps.

Worker processes of the process backend are forked with the probes in
place; each resets its own state and writes it to ``out_dir`` when its
loop ends, and ``collect_workers`` merges those files back.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import threading
import time
from multiprocessing import connection as mp_connection

from hybridsim import (coordination, engine, market, parallel, protocol, rng,
                       territory, wrapper)

LAYERS = ("engine", "territory", "parallel", "coordination", "protocol",
          "wrapper", "market", "transport")

# Blocking receives count as this pseudo-layer, so that a layer's self
# time is time it computed, not time it waited for another thread or
# process. Decoding and unpickling stay with their layers.
WAIT = "wait"

COARSE_THREAD = "main"


CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5


class ThreadState:
    """What one thread (or one worker process) recorded."""

    def __init__(self, label: str):
        self.label = label
        # frames: [child seconds, nearest span id, tracer seconds inside]
        self.stack = []
        self.spans = []  # (id, name, start, end, parent id, thread)
        self.calls = {}  # probe name -> calls
        self.incl = {}  # probe name -> seconds including nested probes
        self.own = {}  # probe name -> self seconds
        self.layer_self = {}  # layer -> self seconds
        self.counts = {}  # counter name -> total
        self.seq = 0

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("label", "spans", "calls", "incl", "own", "layer_self",
                 "counts")}

    @classmethod
    def from_dict(cls, d: dict) -> "ThreadState":
        st = cls(d["label"])
        for k in ("calls", "incl", "own", "layer_self", "counts"):
            setattr(st, k, d[k])
        st.spans = [tuple(s) for s in d["spans"]]
        return st


class Tracer:
    def __init__(self, out_dir: str, cost=None):
        """cost is the tracer's own time per call (see ``calibrate``);
        by default it is measured here."""
        self.out_dir = out_dir
        self._reset("")
        self.cost = calibrate() if cost is None else cost

    def _reset(self, process_label: str) -> None:
        self._local = threading.local()
        self.states = []
        self._process_label = process_label

    def _state(self) -> ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            if self._process_label:
                label = self._process_label
            elif threading.current_thread() is threading.main_thread():
                label = COARSE_THREAD
            else:
                label = "wrapper"  # the only other threads are sessions
            st = ThreadState(label)
            self._local.state = st
            self.states.append(st)  # list.append is atomic under the GIL
        return st

    def timed(self, layer: str, name: str, fn, span: bool = True,
              note=None):
        """Wrap fn; note(state, args, result) may add counters after it."""
        state_of = self._state
        kind = "span" if span else "plain"
        inner = self.cost[kind + ".inner"]  # between the two clock reads
        outer = self.cost[kind + ".outer"]  # the rest, charged to the caller

        def traced(*args, **kwargs):
            st = state_of()
            stack = st.stack
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else None
            if span:
                st.seq += 1
                sid = f"{st.label}:{st.seq}"
            else:
                sid = parent_span
            frame = [0.0, sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                d = t1 - t0 - frame[2] - inner
                if parent is not None:
                    parent[0] += d
                    parent[2] += frame[2] + inner + outer
                own = d - frame[0]
                st.calls[name] = st.calls.get(name, 0) + 1
                st.incl[name] = st.incl.get(name, 0.0) + d
                st.own[name] = st.own.get(name, 0.0) + own
                st.layer_self[layer] = st.layer_self.get(layer, 0.0) + own
                if span:
                    st.spans.append((sid, name, t0, t1, parent_span,
                                     st.label))
            if note is not None:
                note(st, args, result)
            return result
        return traced

    def counted(self, key: str, fn, amount=None):
        """Wrap fn to add amount(args, result) (default 1) to a counter."""
        state_of = self._state
        cost = self.cost["count"]

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            st = state_of()
            st.add(key, 1 if amount is None else amount(args, result))
            if st.stack:
                st.stack[-1][2] += cost
            return result
        return counting

    def _worker_probe(self, orig):
        run = self.timed("parallel", "parallel.worker", orig)

        def worker(lp_id, conn, config, model_spec, entity_ids):
            self._reset(f"lp{lp_id}")
            try:
                run(lp_id, conn, config, model_spec, entity_ids)
            finally:
                self.dump(os.path.join(self.out_dir,
                                       f"worker-lp{lp_id}.json"))
        return worker

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([st.as_dict() for st in self.states], fh)

    def collect_workers(self) -> int:
        """Merge and delete the files workers wrote; returns how many."""
        paths = sorted(glob.glob(os.path.join(self.out_dir, "worker-*.json")))
        for path in paths:
            with open(path) as fh:
                self.states.extend(ThreadState.from_dict(d)
                                   for d in json.load(fh))
            os.remove(path)
        return len(paths)

    def probes(self) -> list:
        T = self.timed
        lp = engine.LogicalProcess
        ipb = engine.InProcessBackend
        pb = parallel.ProcessBackend
        conn = mp_connection.Connection
        coord = coordination.HybridCoordinator
        chan = protocol.LineChannel
        return [
            (engine, "run_simulation",
             T("engine", "engine.run_simulation", engine.run_simulation)),
            (ipb, "__init__", T("engine", "engine.setup", ipb.__init__)),
            (ipb, "step", T("engine", "engine.step", ipb.step)),
            (ipb, "extract", T("engine", "engine.extract", ipb.extract)),
            (ipb, "restore", T("engine", "engine.restore", ipb.restore)),
            (ipb, "finish", T("engine", "engine.finish", ipb.finish)),
            (lp, "run_step", T("engine", "engine.run_step", lp.run_step)),
            (lp, "positions", T("engine", "engine.positions", lp.positions)),
            (engine, "route_broadcasts",
             T("engine", "engine.route", engine.route_broadcasts,
               note=_note_route)),
            (engine, "broadcast_reach",
             T("territory", "territory.reach", engine.broadcast_reach,
               span=False)),
            (territory, "build_entity",
             T("territory", "territory.build_entity", territory.build_entity,
               span=False)),
            (territory, "rwp_step",
             T("territory", "territory.rwp_step", territory.rwp_step,
               span=False)),
            (territory, "generate_message",
             T("territory", "territory.generate", territory.generate_message,
               span=False)),
            (territory, "decide_relay",
             T("territory", "territory.decide_relay", territory.decide_relay,
               span=False)),
            (rng.Stream, "uniform",
             self.counted("rng.draws", rng.Stream.uniform)),
            (rng.Stream, "skip",
             self.counted("rng.skip.draws", rng.Stream.skip,
                          lambda args, result: args[1])),
            (pb, "__init__", T("parallel", "parallel.setup", pb.__init__)),
            (pb, "step", T("parallel", "parallel.step", pb.step)),
            (pb, "finish", T("parallel", "parallel.finish", pb.finish)),
            (pb, "close", T("parallel", "parallel.close", pb.close)),
            (parallel, "conn_wait",
             T(WAIT, "parallel.wait", parallel.conn_wait)),
            (parallel, "_worker", self._worker_probe(parallel._worker)),
            (conn, "send", T("parallel", "parallel.send", conn.send)),
            (conn, "recv", T("parallel", "parallel.recv", conn.recv)),
            (conn, "_send_bytes",
             self.counted("parallel.bytes_out", conn._send_bytes,
                          lambda args, result: len(args[1]))),
            (conn, "_recv_bytes",
             T(WAIT, "parallel.read", conn._recv_bytes, span=False,
               note=lambda st, args, result: st.add(
                   "parallel.bytes_in", result.getbuffer().nbytes))),
            (coord, "at_barrier",
             T("coordination", "coordination.at_barrier", coord.at_barrier)),
            (coordination, "spawn_level1",
             T("coordination", "coordination.spawn",
               coordination.spawn_level1,
               note=lambda st, args, result: st.add("coordination.sessions",
                                                    1))),
            (coordination, "coordinate_step",
             T("coordination", "coordination.coordinate_step",
               coordination.coordinate_step)),
            (coordination, "reintegrate",
             T("coordination", "coordination.reintegrate",
               coordination.reintegrate)),
            (chan, "send", T("protocol", "protocol.send", chan.send)),
            (chan, "recv", T(WAIT, "protocol.recv", chan.recv)),
            (protocol, "encode_record",
             T("protocol", "protocol.encode", protocol.encode_record,
               span=False,
               note=lambda st, args, result: st.add("protocol.bytes",
                                                    len(result)))),
            (protocol, "decode_record",
             T("protocol", "protocol.decode", protocol.decode_record,
               span=False)),
            (wrapper, "run_session",
             T("wrapper", "wrapper.session", wrapper.run_session)),
            (wrapper, "simulate_arrivals",
             T("transport", "transport.arrivals", wrapper.simulate_arrivals)),
            (market.MarketRun, "fine_step",
             T("market", "market.fine_step", market.MarketRun.fine_step,
               span=False)),
            (market, "route_discover",
             T("market", "market.route_discover", market.route_discover,
               span=False)),
            (market.MarketScene, "neighbors",
             T("market", "market.neighbors", market.MarketScene.neighbors,
               span=False)),
        ]

    def write_spans(self, path: str) -> int:
        n = 0
        with open(path, "w") as fh:
            for st in self.states:
                for sid, name, start, end, parent, thread in st.spans:
                    fh.write(json.dumps({"id": sid, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent,
                                         "thread": thread}) + "\n")
                    n += 1
        return n


NO_COST = {"plain.inner": 0.0, "plain.outer": 0.0, "span.inner": 0.0,
           "span.outer": 0.0, "count": 0.0}


def calibrate() -> dict:
    """Seconds a probe adds per call, measured on an empty function.

    ``<kind>.inner`` is the part that falls between the wrapper's two
    clock reads, so inside the recorded duration; ``<kind>.outer`` is
    the rest, which lands in the caller's duration. ``count`` is what a
    counting wrapper adds to its caller. Each is the median of a few
    repeats of many calls, made under a parent frame as in a real run.
    """
    def noop(a, b, c, d):  # per-entity calls take a few arguments
        return None

    def per_call(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn(0, 1, 2, 3)
        return (time.perf_counter() - t0) / CALIBRATION_CALLS

    samples = {k: [] for k in NO_COST}
    for _ in range(CALIBRATION_REPEATS):
        probe = Tracer("", NO_COST)
        probe._state().stack.append([0.0, None, 0.0])
        bare = per_call(noop)
        for kind, span in (("plain", False), ("span", True)):
            total = per_call(probe.timed("calibration", kind, noop, span))
            window = probe._state().incl[kind] / CALIBRATION_CALLS
            samples[kind + ".inner"].append(window - bare)
            samples[kind + ".outer"].append(total - window)
        samples["count"].append(per_call(probe.counted("calibration", noop))
                                - bare)
    return {k: statistics.median(v) for k, v in samples.items()}


def _note_route(st, args, result) -> None:
    inboxes = result[0]
    st.add("engine.route.broadcasts", len(args[1]))
    st.add("engine.route.envelopes", sum(len(v) for v in inboxes.values()))


def summarize(states, totals, untraced_wall_s: float) -> tuple:
    """Per-layer metrics from merged thread states.

    totals is the traced run's StepReport. Parent-side IPC figures are
    those of the coarse thread; ``<layer>.self.s`` and the work figures
    sum every thread and worker. Returns (metrics, table); table maps
    (layer, thread) to self seconds for every thread that recorded any.
    """
    def total(field, key, threads=None):
        return sum(getattr(st, field).get(key, 0)
                   for st in states
                   if threads is None or st.label in threads)

    coarse = (COARSE_THREAD,)
    span_name = {s[0]: s[1] for st in states for s in st.spans}
    root = [s for st in states if st.label == COARSE_THREAD
            for s in st.spans if s[1] == "engine.run_simulation"]
    traced_wall = sum(s[3] - s[2] for s in root)
    status_wait = sum(
        s[3] - s[2] for st in states if st.label == COARSE_THREAD
        for s in st.spans
        if s[1] == "protocol.recv"
        and span_name.get(s[4]) == "coordination.coordinate_step")
    relay_calls = total("calls", "territory.decide_relay")

    m = {
        "engine.run_step.s": total("incl", "engine.run_step"),
        "engine.positions.s": total("incl", "engine.positions"),
        "engine.route.s": total("incl", "engine.route"),
        "engine.route.broadcasts": total("counts", "engine.route.broadcasts"),
        "engine.route.envelopes": total("counts", "engine.route.envelopes"),
        "territory.rwp_step.calls": total("calls", "territory.rwp_step"),
        "territory.rwp_step.s": total("incl", "territory.rwp_step"),
        "territory.generate.calls": total("calls", "territory.generate"),
        "territory.generate.s": total("incl", "territory.generate"),
        "territory.decide_relay.calls": relay_calls,
        "territory.decide_relay.s": total("incl", "territory.decide_relay"),
        "territory.reach.calls": total("calls", "territory.reach"),
        "territory.reach.s": total("incl", "territory.reach"),
        # deliveries that reached a receiver that did not hold the message
        "territory.first_copy_ratio":
            (totals.delivered - totals.cache_filtered) / relay_calls
            if relay_calls else 0.0,
        "rng.draws": total("counts", "rng.draws"),
        "rng.skip.draws": total("counts", "rng.skip.draws"),
        "parallel.bytes_out": total("counts", "parallel.bytes_out", coarse),
        "parallel.bytes_in": total("counts", "parallel.bytes_in", coarse),
        "parallel.send.s": total("incl", "parallel.send", coarse),
        "parallel.recv.s": total("incl", "parallel.recv", coarse),
        "parallel.wait.s": total("incl", "parallel.wait", coarse),
        "coordination.sessions": total("counts", "coordination.sessions"),
        "coordination.spawn.s": total("incl", "coordination.spawn"),
        "coordination.status_wait.s": status_wait,
        "coordination.reintegrate.s": total("incl",
                                            "coordination.reintegrate"),
        "protocol.records": total("calls", "protocol.encode"),
        "protocol.bytes": total("counts", "protocol.bytes"),
        "protocol.encode.s": total("incl", "protocol.encode"),
        "protocol.decode.s": total("incl", "protocol.decode"),
        "wrapper.session.s": total("incl", "wrapper.session"),
        "market.route_discover.calls": total("calls", "market.route_discover"),
        "market.route_discover.s": total("incl", "market.route_discover"),
        "market.neighbors.calls": total("calls", "market.neighbors"),
        "market.fine_step.s": total("incl", "market.fine_step"),
        "transport.arrivals.s": total("incl", "transport.arrivals"),
    }
    for layer in LAYERS:
        m[f"{layer}.self.s"] = total("layer_self", layer)
    m["trace.uncovered.s"] = total("own", "engine.run_simulation", coarse)
    m["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall_s - 1.0)

    table = {}
    for st in states:
        for layer, s in st.layer_self.items():
            key = (layer, st.label)
            table[key] = table.get(key, 0.0) + s
    return m, table
