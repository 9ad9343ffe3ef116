"""Wrapper sessions end to end, plus the golden transcript checks."""

import io
import math
import os
import re
import socket
import threading

import pytest

from hybridsim.conformance import (
    GOLDEN_NAMES,
    check_all,
    check_transcript,
    golden_path,
    load_transcript,
    replay,
    save_transcript,
)
from hybridsim.coordination import (
    HybridSpec,
    Level1Settings,
    WrapperFailure,
    spawn_level1,
)
from hybridsim.engine import EngineConfig, InProcessBackend
from hybridsim.protocol import (
    LineChannel,
    ProtocolError,
    decode_record,
    entity_fields,
    entity_from_fields,
)
from hybridsim.territory import EntityRecord, TerritorySpec
from hybridsim import wrapper
from hybridsim.wrapper import main, open_local

_RECORDS = (
    EntityRecord(1, "mobile", 10.0, 20.0, (30.0, 40.0), 2.5, (4, 8), 6),
    EntityRecord(3, "static", 50.0, 60.0, None, 0.0, (), 0),
    EntityRecord(5, "mobile", 70.0, 80.0, None, 1.0, (2,), 9),
)


def _open_session(records=_RECORDS, step=5, master_seed=42, seed=777,
                  side=500.0, substeps=3):
    """open_local plus INIT/ENTITY/READY; returns the coarse channel."""
    ch = open_local()
    init = dict(Level1Settings().init_fields(),
                entities=len(records), side=side, substeps=substeps,
                master_seed=master_seed, seed=seed)
    ch.send("INIT", step, **init)
    for rec in records:
        ch.send("ENTITY", step, **entity_fields(rec))
    kind, rstep, _ = ch.recv(expect="READY")
    assert rstep == step
    return ch


def test_immediate_end_echoes_records_bit_exact():
    ch = _open_session()
    kind, step, st = ch.recv(expect="STATUS")
    assert step == 6
    assert st["querying"] == "3" and st["arrived"] == "0"
    assert st["msgs"] == "0" and st["fine_steps"] == "0"
    ch.send("END", 6)
    kind, rstep, res = ch.recv(expect="RESULT")
    assert rstep == 6
    assert res["entities"] == "3"
    assert res["fine_steps"] == "0"
    assert res["rng_draws"] == "0"
    back = []
    for _ in _RECORDS:
        _, estep, ef = ch.recv(expect="ENTITY")
        assert estep == 6
        back.append(entity_from_fields(ef))
    assert tuple(back) == _RECORDS  # nothing advanced, nothing drawn
    ch.recv(expect="BYE")
    ch.close()


def test_continue_then_end_advances_fine_clock():
    ch = _open_session(substeps=3)
    _, _, st0 = ch.recv(expect="STATUS")
    ch.send("CONTINUE", 6)
    _, step, st1 = ch.recv(expect="STATUS")
    assert step == 7 and st1["fine_steps"] == "3"
    ch.send("CONTINUE", 7)
    _, step, st2 = ch.recv(expect="STATUS")
    assert step == 8 and st2["fine_steps"] == "6"
    ch.send("END", 8)
    _, _, res = ch.recv(expect="RESULT")
    assert res["fine_steps"] == "6"
    # two draws per entering customer, cursors must account for them
    draws = int(res["rng_draws"])
    assert draws == 2 * int(res["customers"])
    total_delta = 0
    returned = {}
    for _ in _RECORDS:
        _, _, ef = ch.recv(expect="ENTITY")
        rec = entity_from_fields(ef)
        returned[rec.entity_id] = rec
    ch.recv(expect="BYE")
    for orig in _RECORDS:
        total_delta += returned[orig.entity_id].cursor - orig.cursor
    assert total_delta == draws
    # identity fields survive the round trip untouched
    for orig in _RECORDS:
        rec = returned[orig.entity_id]
        assert rec.kind == orig.kind
        assert rec.speed == orig.speed
        assert rec.target == orig.target
        assert rec.cache_ids == orig.cache_ids
    ch.close()


def test_emissions_independent_of_market_progress():
    ch = _open_session()
    _, _, st0 = ch.recv(expect="STATUS")
    ch.send("CONTINUE", 6)
    _, _, st1 = ch.recv(expect="STATUS")
    assert st1["emissions"] == st0["emissions"]
    assert st1["customers"] == st0["customers"]
    ch.send("END", 7)
    _, _, res = ch.recv(expect="RESULT")
    assert res["emissions"] == st0["emissions"]
    for _ in _RECORDS:
        ch.recv(expect="ENTITY")
    ch.recv(expect="BYE")
    ch.close()


def _failed(cause=""):
    """What a read on the coarse side raises once the local session has
    failed for the given cause."""
    return pytest.raises(ProtocolError,
                         match="^wrapper session failed: " + re.escape(cause))


def test_session_rejects_zero_entities():
    ch = open_local()
    init = dict(Level1Settings().init_fields(), entities=0, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **init)
    with _failed("INIT entities = 0 out of range"):
        ch.recv()
    ch.close()


def test_session_rejects_settings_out_of_range():
    """A value Level1Settings refuses ends the session with a
    ProtocolError naming the field, not an uncaught ValueError."""
    ch = open_local()
    init = dict(Level1Settings().init_fields(), entities=1, side=100.0,
                substeps=3, master_seed=1, seed=1, spacing=-1.0)
    ch.send("INIT", 0, **init)
    with _failed("INIT spacing = -1.0 out of"):
        ch.recv()
    ch.close()


@pytest.mark.parametrize("side", [math.nan, 0.0, -1.0, math.inf])
def test_session_rejects_side_out_of_range(side):
    """A torus side that is not finite and > 0 ends the session with a
    ProtocolError naming side; NaN once returned every entity at (0, 0)."""
    ch = open_local()
    init = dict(Level1Settings().init_fields(), entities=1, side=side,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **init)
    with _failed(f"INIT side = {side!r} out of"):
        ch.recv()
    ch.close()


@pytest.mark.parametrize("field,value", [
    ("master_seed", -1), ("seed", -5), ("master_seed", 2**63),
    ("entities", 0), ("substeps", 0)])
def test_session_rejects_init_field_out_of_range(field, value):
    """An INIT session field out of range ends the session with a
    ProtocolError naming it; a negative seed once died inside numpy with
    an OverflowError."""
    ch = open_local()
    init = dict(Level1Settings().init_fields(), entities=1, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **{**init, field: value})
    with _failed(f"INIT {field} = {value!r} out of range"):
        ch.recv()
    ch.close()


def test_spawn_with_refused_side_restores_entities():
    config = EngineConfig(num_lps=2, total_timesteps=10, master_seed=7)
    backend = InProcessBackend(config, TerritorySpec(num_entities=8))
    before = backend.extract([2, 5])
    backend.restore(before)
    with pytest.raises(WrapperFailure, match="failed to start on local"
                       " wrapper: wrapper session failed: INIT side = nan"
                       " out of"):
        spawn_level1(backend, [2, 5], 4, HybridSpec(), config.master_seed,
                     math.nan, 0)
    assert backend.entity_count() == 8
    assert backend.extract([2, 5]) == before


def test_session_rejects_out_of_order_entities():
    ch = open_local()
    init = dict(Level1Settings().init_fields(), entities=2, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **init)
    ch.send("ENTITY", 0, **entity_fields(_RECORDS[2]))
    ch.send("ENTITY", 0, **entity_fields(_RECORDS[0]))  # descending ids
    with _failed("ENTITY records must arrive in ascending id order"):
        ch.recv()
    ch.close()


def test_session_rejects_step_mismatch():
    ch = _open_session()
    ch.recv(expect="STATUS")
    ch.send("CONTINUE", 99)  # wrapper is at step 6
    with _failed("CONTINUE for step 99 while at step 6"):
        ch.recv()
    ch.close()


def test_session_waiting_for_a_record_never_sent_fails_at_once():
    """A read while the session still waits for ENTITY would block a
    socket until its timeout; inline it fails naming what is missing."""
    ch = open_local()
    init = dict(Level1Settings().init_fields(), entities=2, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **init)
    ch.send("ENTITY", 0, **entity_fields(_RECORDS[0]))
    with _failed("waits for a record the coarse side has not sent"):
        ch.recv()
    # the session is over: a later read finds the channel closed
    with pytest.raises(ProtocolError, match="^connection closed"):
        ch.recv()
    ch.close()


def test_session_runs_only_when_the_coarse_side_reads(monkeypatch):
    """Sending INIT and ENTITY runs none of the session; the first read
    runs it up to its first STATUS, and a closed channel sends nothing."""
    built = []
    read_fields = wrapper.read_fields

    def recording(cls, kind, fields):
        built.append(cls)
        return read_fields(cls, kind, fields)

    monkeypatch.setattr(wrapper, "read_fields", recording)
    ch = open_local()
    init = dict(Level1Settings().init_fields(), entities=1, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 4, **init)
    ch.send("ENTITY", 4, **entity_fields(_RECORDS[0]))
    assert built == []
    assert ch.recv(expect="READY")[1] == 4
    assert built == [wrapper.SessionInit, Level1Settings]
    assert ch.recv(expect="STATUS")[1] == 5
    ch.close()
    with pytest.raises(ProtocolError,
                       match="^send failed: I/O operation on closed file"):
        ch.send("END", 5)


def _serve_on_a_thread():
    """The two ends of a connection, the wrapper end served by
    serve_connection on a thread as the TCP server does."""
    coarse_end, wrapper_end = socket.socketpair()
    th = threading.Thread(target=wrapper.serve_connection,
                          args=(wrapper_end,), daemon=True)
    th.start()
    return LineChannel.over_socket(coarse_end), wrapper_end, th


@pytest.mark.parametrize("clean", [True, False], ids=["bye", "error"])
def test_serve_connection_closes_its_socket(clean, capsys):
    """The wrapper end of a remote session is closed once the session
    ends, after BYE and after a ProtocolError alike; a failure is one
    line on stderr."""
    ch, sock, th = _serve_on_a_thread()
    init = dict(Level1Settings().init_fields(), entities=len(_RECORDS),
                side=500.0, substeps=3, master_seed=42, seed=777)
    ch.send("INIT", 5, **init)
    for rec in _RECORDS:
        ch.send("ENTITY", 5, **entity_fields(rec))
    ch.recv(expect="READY")
    ch.recv(expect="STATUS")
    if clean:
        ch.send("END", 6)
        ch.recv(expect="RESULT")
        for _ in _RECORDS:
            ch.recv(expect="ENTITY")
        ch.recv(expect="BYE")
    else:
        ch.send("CONTINUE", 99)  # wrapper is at step 6
    th.join(timeout=10.0)
    assert not th.is_alive()
    err = capsys.readouterr().err.splitlines()
    if clean:
        assert err == []
    else:
        assert err == ["wrapper session failed: CONTINUE for step 99 while"
                       " at step 6"]
    ch.close()
    assert sock.fileno() == -1


def test_main_rejects_malformed_listen():
    with pytest.raises(SystemExit):
        main(["--listen", "no-port-here"])


@pytest.mark.parametrize("listen", ["127.0.0.1:abc", "h:0", "h:99999",
                                    ":7420"])
def test_main_refuses_listen_outside_the_endpoint_rule(listen, monkeypatch,
                                                       capsys):
    def bind(*args, **kwargs):
        raise AssertionError(f"bound a socket for {listen!r}")

    monkeypatch.setattr(wrapper.socket, "create_server", bind)
    with pytest.raises(SystemExit) as info:
        main(["--listen", listen])
    assert info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("hybridsim.wrapper: error: --listen")
    assert repr(listen) in err[-1]


# --- golden transcripts --------------------------------------------------


def test_goldens_all_pass():
    results = check_all()
    assert [name for name, _, _ in results] == list(GOLDEN_NAMES)
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"


# A standalone session whose pedestrians move, recorded before the market
# stepped from event to event: 6 customers on a 4x4 grid with hop limit 3
# and walking speed 0.5, 30 fine steps a coarse step, END after two
# CONTINUEs. Every golden above reads walking=0 arrived=0, so only this
# file pins the walker arithmetic. It is not a golden: conformance
# regenerates the goldens from its own scenarios.
WALKING_SESSION = os.path.join(os.path.dirname(__file__),
                               "session_walking.transcript")


def test_walking_session_replays_byte_identical():
    lines = load_transcript(WALKING_SESSION)
    expected, actual = replay(lines)
    assert actual == expected
    # what the file is kept for: arrivals, retries, a walker at END
    init = decode_record(lines[0][2:])[2]
    *_, last = (decode_record(line[2:])[2] for line in lines
                if line.startswith("< STATUS"))
    assert init["substeps"] == "30"
    assert int(last["arrived"]) >= 1 and int(last["walking"]) >= 1
    assert int(last["routes"]) > int(init["entities"])


def test_golden_replay_is_deterministic():
    lines = load_transcript(golden_path("session_small"))
    a = replay(lines)
    b = replay(lines)
    assert a == b
    assert a[0] == a[1]


def test_tampered_golden_is_caught(tmp_path):
    lines = load_transcript(golden_path("session_small"))
    # corrupt one wrapper-side line
    idx = next(i for i, l in enumerate(lines) if l.startswith("< STATUS"))
    bad = list(lines)
    bad[idx] = bad[idx].replace("step=", "step=9", 1)
    p = tmp_path / "bad.transcript"
    save_transcript(str(p), bad)
    ok, detail = check_transcript(str(p))
    assert not ok
    assert "mismatch" in detail


def test_missing_golden_reports_cleanly(tmp_path):
    ok, detail = check_transcript(str(tmp_path / "nope.transcript"))
    assert not ok and "missing" in detail


def test_load_transcript_validates_prefixes(tmp_path):
    p = tmp_path / "junk.transcript"
    p.write_text("> INIT step=0\n!! what\n")
    with pytest.raises(ValueError):
        load_transcript(str(p))
