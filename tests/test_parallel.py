"""Process backend: bit-exact parity with in-process, failure handling."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import connection as mp_connection

import numpy as np
import pytest

import hybridsim
from hybridsim import engine
from hybridsim.config import make_params
from hybridsim.coordination import FixedDurationPolicy, HybridSpec, ScriptedTrigger
from hybridsim.engine import (
    BarrierTimeoutError,
    EngineConfig,
    EngineError,
    InProcessBackend,
    LogicalProcess,
    StepExecutionError,
    StepTable,
    partition_entities,
    run_simulation,
)
from hybridsim.parallel import ProcessBackend
from hybridsim.territory import BROADCAST_COLUMNS, TerritorySpec


def _config(num_lps, steps=30, seed=11, timeout=60.0):
    return EngineConfig(num_lps=num_lps, total_timesteps=steps,
                        master_seed=seed, barrier_timeout=timeout)


def test_process_run_matches_inprocess_bit_exact():
    spec = TerritorySpec(num_entities=150)
    a = run_simulation(_config(2), spec, mode="inprocess")
    b = run_simulation(_config(2), spec, mode="process")
    assert a.comparable() == b.comparable()
    assert a.totals.generated > 0  # the run actually did work
    assert a.totals.delivered > 0


def test_process_lp_count_does_not_change_results():
    spec = TerritorySpec(num_entities=150)
    two = run_simulation(_config(2), spec, mode="process")
    four = run_simulation(_config(4), spec, mode="process")
    assert two.comparable() == four.comparable()


# what a step reply pickles to beyond its outbox: the reply tuple, the
# StepResult and StepReport with their field names, and the array header
REPLY_ALLOWANCE = 1024


def test_step_reply_crosses_the_pipe_as_columns(monkeypatch):
    """A worker's step reply is its report and its outbox as raw column
    bytes, a table row per broadcast: no position, and no Broadcast or
    DisseminationMessage object in it."""
    received = []
    recv_bytes = mp_connection.Connection._recv_bytes

    def recording(conn, *args):
        buf = recv_bytes(conn, *args)
        received.append(buf.getvalue())
        return buf

    monkeypatch.setattr(mp_connection.Connection, "_recv_bytes", recording)
    spec = TerritorySpec(300, make_params("bad",
                                          {"generation_probability": 0.1}))
    run_simulation(_config(2, steps=6), spec, mode="process")
    replies = [(blob, pickle.loads(blob)) for blob in received]
    steps = [(blob, reply[1]) for blob, reply in replies
             if reply[0] == "step"]
    assert len(steps) == 2 * 6
    relayed = 0
    for blob, res in steps:
        assert isinstance(res.outbox, np.ndarray)
        assert res.outbox.dtype == BROADCAST_COLUMNS
        assert b"Broadcast" not in blob
        assert b"DisseminationMessage" not in blob
        assert len(blob) <= (BROADCAST_COLUMNS.itemsize * len(res.outbox)
                             + REPLY_ALLOWANCE)
        relayed += int(np.count_nonzero(res.outbox["hop_count"]))
    assert relayed > 0  # relay rows crossed too, not only births


# what a step command pickles to beyond its table: the command tuple, the
# StepTable and the array header
COMMAND_ALLOWANCE = 1024


def test_step_command_carries_the_table_only(monkeypatch):
    """The parent sends each worker the previous step's whole table and
    nothing per copy; the worker routes it."""
    sent = []
    send_bytes = mp_connection.Connection._send_bytes

    def recording(conn, buf):
        sent.append(bytes(buf))
        return send_bytes(conn, buf)

    monkeypatch.setattr(mp_connection.Connection, "_send_bytes", recording)
    spec = TerritorySpec(300, make_params("bad",
                                          {"generation_probability": 0.1}))
    run_simulation(_config(2, steps=6), spec, mode="process")
    commands = [(blob, pickle.loads(blob)) for blob in sent]
    steps = [(blob, cmd) for blob, cmd in commands if cmd[0] == "step"]
    assert len(steps) == 2 * 6
    tables = [(blob, inbox) for blob, (_, t, inbox) in steps if t > 0]
    assert len(tables) == 2 * 5
    for blob, inbox in tables:
        assert isinstance(inbox, StepTable) and len(inbox.table) > 0
        assert len(blob) <= inbox.table.nbytes + COMMAND_ALLOWANCE


@pytest.mark.parametrize("mode,calls", [("process", 0), ("inprocess", 5)])
def test_only_the_inprocess_parent_calls_the_router(mode, calls,
                                                    monkeypatch):
    counted = []
    route = engine.route_broadcasts

    def counting(*args):
        counted.append(args[3])
        return route(*args)

    monkeypatch.setattr(engine, "route_broadcasts", counting)
    run_simulation(_config(2, steps=6), TerritorySpec(120), mode=mode)
    assert counted == list(range(calls))  # one per non-final step


def test_stale_table_is_rejected_in_a_worker():
    """A table not produced at the step before reaches the worker's LP,
    which refuses it; the parent raises that once, naming LP and step,
    and the workers serve on."""
    spec = TerritorySpec(300, make_params("bad",
                                          {"generation_probability": 0.1}))
    before = set(multiprocessing.active_children())
    pb = ProcessBackend(_config(2, steps=6), spec)
    try:
        results = pb.step(0, {})
        table = np.concatenate([results[lp].outbox for lp in sorted(results)])
        assert len(table) > 0
        stale = dict.fromkeys(pb.lps, StepTable(0, table))
        with pytest.raises(StepExecutionError) as info:
            pb.step(2, stale)
        assert str(info.value) == ("step failed in lp=0 step=2: EngineError:"
                                   " stale envelope in lp=0 inbox at step 2:"
                                   " produced_at=0")
        assert sorted(pb.step(1, stale)) == [0, 1]
    finally:
        pb.close()
    assert set(multiprocessing.active_children()) <= before


def test_auto_mode_picks_process_for_multiple_lps():
    spec = TerritorySpec(num_entities=60)
    one = run_simulation(_config(1, steps=10), spec, mode="auto")
    three = run_simulation(_config(3, steps=10), spec, mode="auto")
    assert one.comparable() == three.comparable()


def test_hybrid_run_identical_across_backends():
    # enough messages that copies reach the frozen entities, which the
    # process backend's parent counts alone, and the restored ones
    spec = TerritorySpec(64, make_params("good",
                                         {"generation_probability": 0.1}))
    hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(5,), transfer_count=4),
                        policy=FixedDurationPolicy(3))
    a = run_simulation(_config(1, steps=12, seed=20), spec, hybrid=hybrid,
                       mode="inprocess")
    b = run_simulation(_config(3, steps=12, seed=20), spec, hybrid=hybrid,
                       mode="process")
    assert a.level1.spawns == 1
    assert a.level1.entities_transferred == 4
    assert a.frozen_drops > 0
    # wrapper transcripts are part of the comparable surface: the fine
    # level must see byte-identical traffic regardless of LP layout
    assert a.comparable() == b.comparable()


def test_extract_restore_through_pipes():
    spec = TerritorySpec(num_entities=24)
    config = _config(3, steps=5)
    pb = ProcessBackend(config, spec)
    try:
        ib = InProcessBackend(config, spec)
        ids = [0, 7, 13, 21]
        got = pb.extract(ids)
        assert [r.entity_id for r in got] == ids  # input order, not lp order
        assert got == ib.extract(ids)  # same partition, same streams
        assert pb.entity_count() == 20
        pb.restore(got)
        assert pb.entity_count() == 24
        # state after a round trip is unchanged
        assert pb.extract(ids) == got
        pb.restore(got)
    finally:
        pb.close()


def test_worker_failure_outside_a_step_names_its_cause():
    spec = TerritorySpec(num_entities=24)
    pb = ProcessBackend(_config(2, steps=5), spec)
    try:
        lp = int(pb.owner_of[5])
        [rec] = pb.extract([5])
        # a record whose target is not a pair: in-process this is a
        # ValueError; the worker relays it and serves on
        with pytest.raises(EngineError,
                           match=rf"lp={lp} failed in restore: ValueError"):
            pb.restore([rec._replace(target=(1.0,))])
        assert pb.entity_count() == 23
        assert sorted(pb.step(0, {})) == [0, 1]
    finally:
        pb.close()


def _stepped_ids(backend, t):
    """The ids of the active entities, in order, once step t has run."""
    backend.step(t, {})
    return backend.positions()[0].tolist()


def test_positions_are_in_id_order_and_equal_on_both_backends():
    spec = TerritorySpec(num_entities=40)
    backends = [cls(_config(2), spec)
                for cls in (InProcessBackend, ProcessBackend)]
    try:
        def positions():
            got = [b.positions() for b in backends]
            for ids, xs, ys in got:
                assert len(ids) == len(xs) == len(ys)
                assert (np.diff(ids) > 0).all()
            for a, b in zip(got[0], got[1]):
                assert np.array_equal(a, b)
            return got[0]

        assert positions()[0].tolist() == list(range(40))
        for t in range(3):
            for b in backends:
                b.step(t, {})
        moved = positions()
        taken = [b.extract([7, 30, 2]) for b in backends]
        assert taken[0] == taken[1]
        assert positions()[0].tolist() == [i for i in range(40)
                                           if i not in (2, 7, 30)]
        for b, recs in zip(backends, taken):
            b.restore(recs[::-1])
        for a, b in zip(positions(), moved):
            assert np.array_equal(a, b)
        assert {(r.entity_id, r.x, r.y) for r in taken[0]} == {
            (i, moved[1][i], moved[2][i]) for i in (2, 7, 30)}
    finally:
        for b in backends:
            b.close()


@pytest.mark.parametrize("backend", [InProcessBackend, ProcessBackend])
def test_refused_extract_changes_nothing(backend):
    spec = TerritorySpec(num_entities=24)
    b = backend(_config(2, steps=5), spec)
    try:
        lp = int(b.owner_of[5])
        with pytest.raises(EngineError, match=rf"lp={lp} refused extract:"
                           r" ids listed twice \[5\], ids not owned \[\]"):
            b.extract([5, 5])
        other = next(i for i in range(6, 24) if b.owner_of[i] == lp)
        [rec] = b.extract([other])
        with pytest.raises(EngineError, match=r"ids listed twice \[\],"
                           rf" ids not owned \[{other}\]"):
            b.extract([5, other])
        b.restore([rec])
        assert b.entity_count() == 24
        ids = _stepped_ids(b, 0)
        assert ids == list(range(24))
        assert [r.entity_id for r in b.extract([other, 5])] == [other, 5]
    finally:
        b.close()


@pytest.mark.parametrize("backend", [InProcessBackend, ProcessBackend])
def test_refused_extract_over_two_lps_changes_nothing(backend):
    spec = TerritorySpec(num_entities=24)
    b = backend(_config(2, steps=5), spec)
    try:
        gone = 1
        kept = next(i for i in range(24) if b.owner_of[i] != b.owner_of[gone])
        [rec] = b.extract([gone])
        # the LP of kept is asked first and gives it up; the LP of gone
        # refuses, and kept must be handed back
        with pytest.raises(EngineError,
                           match=rf"lp={int(b.owner_of[gone])} refused"
                           rf" extract: ids listed twice \[\], ids not owned"
                           rf" \[{gone}\]"):
            b.extract([kept, gone])
        assert b.entity_count() == 23
        ids = _stepped_ids(b, 0)
        assert ids == [i for i in range(24) if i != gone]
        b.restore([rec])
        assert [r.entity_id for r in b.extract([kept, gone])] == [kept, gone]
    finally:
        b.close()


@pytest.mark.parametrize("backend", [InProcessBackend, ProcessBackend])
def test_refused_restore_over_two_lps_changes_nothing(backend):
    spec = TerritorySpec(num_entities=24)
    b = backend(_config(2, steps=5), spec)
    try:
        owned = 2
        back = next(i for i in range(24) if b.owner_of[i] != b.owner_of[owned])
        [rec_owned] = b.extract([owned])
        b.restore([rec_owned])
        [rec_back] = b.extract([back])
        # the LP of back is asked first and takes it; the LP of owned
        # refuses, and back must be given up again
        with pytest.raises(EngineError,
                           match=rf"lp={int(b.owner_of[owned])} refused"
                           rf" restore: ids listed twice \[\], ids already"
                           rf" owned \[{owned}\]"):
            b.restore([rec_back, rec_owned])
        assert b.entity_count() == 23
        ids = _stepped_ids(b, 0)
        assert ids == [i for i in range(24) if i != back]
        b.restore([rec_back])
        assert b.entity_count() == 24
    finally:
        b.close()


@pytest.mark.parametrize("backend", [InProcessBackend, ProcessBackend])
def test_refused_restore_changes_nothing(backend):
    spec = TerritorySpec(num_entities=24)
    b = backend(_config(1, steps=5), spec)
    try:
        good, bad = b.extract([3, 4])
        # the second record cannot be rebuilt: the first is not taken
        with pytest.raises((ValueError, EngineError),
                           match="not enough values to unpack"):
            b.restore([good, bad._replace(target=(1.0,))])
        with pytest.raises(EngineError, match=r"lp=0 refused restore: ids"
                           r" listed twice \[3\], ids already owned \[\]"):
            b.restore([good, good])
        assert b.entity_count() == 22
        ids = _stepped_ids(b, 0)
        assert ids == [i for i in range(24) if i not in (3, 4)]
        b.restore([good])
        with pytest.raises(EngineError, match=r"lp=0 refused restore: ids"
                           r" listed twice \[\], ids already owned \[3\]"):
            b.restore([bad, good])
        assert b.entity_count() == 23
        ids = _stepped_ids(b, 1)
        assert ids == [i for i in range(24) if i != 4]
        b.restore([bad])
        assert b.entity_count() == 24
    finally:
        b.close()


# --- failure paths -------------------------------------------------------


_STALL_SPEC = TerritorySpec(num_entities=6)
_STALL_ENTITY = 0


def _stall(monkeypatch, method, seconds, every_lp=False):
    """Make LogicalProcess.method sleep first in the LP that owns
    _STALL_ENTITY (in every LP with every_lp): its start-up (__init__),
    its step (run_step) or its final report (finish). Workers are forked
    after the patch, so they inherit it."""
    orig = getattr(LogicalProcess, method)

    def stalled(lp, *args):
        owned = args[1] if method == "__init__" else lp.cols.ids
        if every_lp or _STALL_ENTITY in owned:
            time.sleep(seconds)
        return orig(lp, *args)

    monkeypatch.setattr(LogicalProcess, method, stalled)


def _stalled_lp(config):
    assignment = partition_entities(range(_STALL_SPEC.num_entities),
                                    config.num_lps, config.master_seed)
    return next(lp for lp, ids in assignment.items()
                if _STALL_ENTITY in ids)


def test_barrier_timeout_names_the_silent_lp(monkeypatch):
    _stall(monkeypatch, "run_step", 2.0)
    config = _config(2, steps=3, timeout=0.3)
    lp = _stalled_lp(config)
    pb = ProcessBackend(config, _STALL_SPEC)
    try:
        with pytest.raises(BarrierTimeoutError) as info:
            pb.step(0, {})
        assert str(lp) in str(info.value)
    finally:
        pb.close()


def test_worker_death_mid_step_is_reported(monkeypatch):
    _stall(monkeypatch, "run_step", 30.0)
    config = _config(2, steps=3, timeout=60.0)
    lp = _stalled_lp(config)
    pb = ProcessBackend(config, _STALL_SPEC)
    try:
        killer = threading.Timer(0.3, pb._procs[lp].terminate)
        killer.start()
        with pytest.raises(EngineError, match=f"lp={lp} died"):
            pb.step(0, {})
        killer.join()
    finally:
        pb.close()


def test_slow_hello_times_out_and_closes_started_workers(monkeypatch):
    _stall(monkeypatch, "__init__", 2.0)
    config = _config(2, steps=3, timeout=0.3)
    lp = _stalled_lp(config)
    before = set(multiprocessing.active_children())
    t0 = time.monotonic()
    with pytest.raises(EngineError, match=rf"hello from lp\(s\) \[{lp}\]"):
        ProcessBackend(config, _STALL_SPEC)
    assert time.monotonic() - t0 < 10.0  # the stall, not a 60 s default
    assert set(multiprocessing.active_children()) <= before


def test_slow_finish_times_out_naming_the_lp(monkeypatch):
    _stall(monkeypatch, "finish", 2.0)
    config = _config(2, steps=3, timeout=0.3)
    lp = _stalled_lp(config)
    pb = ProcessBackend(config, _STALL_SPEC)
    try:
        pb.step(0, {})
        with pytest.raises(EngineError,
                           match=rf"finish from lp\(s\) \[{lp}\]"):
            pb.finish()
    finally:
        pb.close()


def test_close_gives_every_hung_worker_one_shared_deadline(monkeypatch):
    _stall(monkeypatch, "run_step", 30.0, every_lp=True)
    config = _config(2, steps=3, timeout=0.3)
    before = set(multiprocessing.active_children())
    pb = ProcessBackend(config, _STALL_SPEC)
    try:
        with pytest.raises(BarrierTimeoutError) as info:
            pb.step(0, {})
        assert info.value.silent_lp_ids == (0, 1)
    finally:
        t0 = time.monotonic()
        pb.close()
        closed_in = time.monotonic() - t0
    assert closed_in < 2.0  # hung LPs are terminated, not given 5 s
    assert set(multiprocessing.active_children()) <= before


_ORPHANING_PARENT = """
import time
from hybridsim.engine import EngineConfig
from hybridsim.parallel import ProcessBackend
from hybridsim.territory import TerritorySpec
pb = ProcessBackend(EngineConfig(num_lps=2, total_timesteps=3,
                                 master_seed=11),
                    TerritorySpec(num_entities=6))
print(*(proc.pid for proc in pb._procs.values()), flush=True)
time.sleep(60)
"""


def _running(pid):
    """True while pid exists and is not a zombie (an orphan's reaper
    may be slow to collect it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_the_parent_is_killed():
    src = os.path.dirname(os.path.dirname(hybridsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    parent = subprocess.Popen([sys.executable, "-c", _ORPHANING_PARENT],
                              stdout=subprocess.PIPE, text=True, env=env)
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.kill()  # SIGKILL: no atexit, no close()
        parent.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
