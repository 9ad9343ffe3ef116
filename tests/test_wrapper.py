"""Wrapper sessions end to end, plus the golden transcript checks."""

import io
import math
import os
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
from hybridsim.wrapper import main, start_local

_RECORDS = (
    EntityRecord(1, "mobile", 10.0, 20.0, (30.0, 40.0), 2.5, (4, 8), 6),
    EntityRecord(3, "static", 50.0, 60.0, None, 0.0, (), 0),
    EntityRecord(5, "mobile", 70.0, 80.0, None, 1.0, (2,), 9),
)


def _open_session(records=_RECORDS, step=5, master_seed=42, seed=777,
                  side=500.0, substeps=3):
    """start_local plus INIT/ENTITY/READY; returns the coarse channel."""
    sock = start_local()
    ch = LineChannel.over_socket(sock)
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


@pytest.fixture
def sessions(monkeypatch):
    """The threads that start_local runs wrapper sessions on."""
    threads = []
    session = wrapper._local_session

    def tracked(sock):
        threads.append(threading.current_thread())
        session(sock)

    monkeypatch.setattr(wrapper, "_local_session", tracked)
    return threads


def _assert_session_failed(sessions, capsys, cause=""):
    """The one session has ended, and said once that it failed (for the
    given cause), before the test returns and stops capturing its
    output."""
    [th] = sessions
    th.join(timeout=10.0)
    assert not th.is_alive()
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("wrapper session failed: " + cause)


def test_session_rejects_zero_entities(sessions, capsys):
    sock = start_local()
    ch = LineChannel.over_socket(sock)
    init = dict(Level1Settings().init_fields(), entities=0, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **init)
    with pytest.raises(ProtocolError, match="closed"):
        ch.recv()
    ch.close()
    _assert_session_failed(sessions, capsys)


def test_session_rejects_settings_out_of_range(sessions, capsys):
    """A value Level1Settings refuses ends the session with a
    ProtocolError naming the field, not an uncaught ValueError."""
    sock = start_local()
    sock.settimeout(10.0)  # a session that waits for ENTITY fails here
    ch = LineChannel.over_socket(sock)
    init = dict(Level1Settings().init_fields(), entities=1, side=100.0,
                substeps=3, master_seed=1, seed=1, spacing=-1.0)
    ch.send("INIT", 0, **init)
    with pytest.raises(ProtocolError, match="closed"):
        ch.recv()
    ch.close()
    _assert_session_failed(sessions, capsys, "INIT spacing = -1.0 out of")


@pytest.mark.parametrize("side", [math.nan, 0.0, -1.0, math.inf])
def test_session_rejects_side_out_of_range(side, sessions, capsys):
    """A torus side that is not finite and > 0 ends the session with a
    ProtocolError naming side; NaN once returned every entity at (0, 0)."""
    sock = start_local()
    sock.settimeout(10.0)
    ch = LineChannel.over_socket(sock)
    init = dict(Level1Settings().init_fields(), entities=1, side=side,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **init)
    with pytest.raises(ProtocolError, match="closed"):
        ch.recv()
    ch.close()
    _assert_session_failed(sessions, capsys, f"INIT side = {side!r} out of")


@pytest.mark.parametrize("field,value", [
    ("master_seed", -1), ("seed", -5), ("master_seed", 2**63),
    ("entities", 0), ("substeps", 0)])
def test_session_rejects_init_field_out_of_range(field, value, sessions,
                                                 capsys):
    """An INIT session field out of range ends the session with a
    ProtocolError naming it; a negative seed once died inside numpy with
    an OverflowError."""
    sock = start_local()
    sock.settimeout(10.0)
    ch = LineChannel.over_socket(sock)
    init = dict(Level1Settings().init_fields(), entities=1, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **{**init, field: value})
    with pytest.raises(ProtocolError, match="closed"):
        ch.recv()
    ch.close()
    _assert_session_failed(sessions, capsys,
                           f"INIT {field} = {value!r} out of range")


def test_spawn_with_refused_side_restores_entities(sessions, capsys):
    config = EngineConfig(num_lps=2, total_timesteps=10, master_seed=7)
    backend = InProcessBackend(config, TerritorySpec(num_entities=8))
    before = backend.extract([2, 5])
    backend.restore(before)
    with pytest.raises(WrapperFailure, match="failed to start"):
        spawn_level1(backend, [2, 5], 4, HybridSpec(), config.master_seed,
                     math.nan, 0)
    _assert_session_failed(sessions, capsys, "INIT side = nan out of")
    assert backend.entity_count() == 8
    assert backend.extract([2, 5]) == before


def test_session_rejects_out_of_order_entities(sessions, capsys):
    sock = start_local()
    ch = LineChannel.over_socket(sock)
    init = dict(Level1Settings().init_fields(), entities=2, side=100.0,
                substeps=3, master_seed=1, seed=1)
    ch.send("INIT", 0, **init)
    ch.send("ENTITY", 0, **entity_fields(_RECORDS[2]))
    ch.send("ENTITY", 0, **entity_fields(_RECORDS[0]))  # descending ids
    with pytest.raises(ProtocolError, match="closed"):
        ch.recv()
    ch.close()
    _assert_session_failed(sessions, capsys)


def test_session_rejects_step_mismatch(sessions, capsys):
    ch = _open_session()
    ch.recv(expect="STATUS")
    ch.send("CONTINUE", 99)  # wrapper is at step 6
    with pytest.raises(ProtocolError, match="closed"):
        ch.recv()
    ch.close()
    _assert_session_failed(sessions, capsys)


@pytest.mark.parametrize("clean", [True, False], ids=["bye", "error"])
def test_serve_connection_closes_its_socket(clean, sessions, capsys,
                                            monkeypatch):
    """The wrapper end of a session is closed once the session ends,
    after BYE and after a ProtocolError alike."""
    served = []
    serve = wrapper.serve_connection

    def recording(sock):
        served.append(sock)
        serve(sock)

    monkeypatch.setattr(wrapper, "serve_connection", recording)
    ch = _open_session()
    ch.recv(expect="STATUS")
    if clean:
        ch.send("END", 6)
        ch.recv(expect="RESULT")
        for _ in _RECORDS:
            ch.recv(expect="ENTITY")
        ch.recv(expect="BYE")
        [th] = sessions
        th.join(timeout=10.0)
        assert not th.is_alive()
        assert capsys.readouterr().err == ""
    else:
        ch.send("CONTINUE", 99)  # wrapper is at step 6
        _assert_session_failed(sessions, capsys, "CONTINUE for step 99")
    ch.close()
    [sock] = served
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
