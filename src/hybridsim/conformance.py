"""Golden-transcript conformance for the wrapper protocol.

A transcript is the byte-exact record of one session seen from the
coarse side: lines starting "> " went to the wrapper, lines starting
"< " came back. Checking replays the "> " lines through a fresh
wrapper session and demands byte-identical output; any alternative
wrapper implementation can be held to the same files.

Two scenarios ship as goldens: a small hand-pinned standalone session,
and the two wrappers of a scripted hybrid run (two concurrent
transfers of four entities, three coarse steps each).
"""

from __future__ import annotations

import io
import os
from importlib.resources import files

from .campaign import run_one
from .config import RunSettings
from .coordination import ENDPOINT_ENV_VAR, Level1Settings
from .protocol import LineChannel, entity_fields
from .territory import EntityRecord
from .wrapper import open_local, run_session

GOLDEN_NAMES = ("session_small", "hybrid_w0", "hybrid_w1")

# the standalone scenario, pinned forever
_SESSION_RECORDS = (
    EntityRecord(0, "mobile", 10.0, 20.0, (30.0, 40.0), 3.5, (5, 9), 12),
    EntityRecord(2, "static", 50.0, 60.0, None, 0.0, (), 4),
    EntityRecord(4, "mobile", 70.0, 80.0, None, 2.0, (1,), 7),
    EntityRecord(6, "mobile", 90.0, 100.0, (110.0, 120.0), 9.0, (), 3),
)
_SESSION_INIT = dict(
    Level1Settings().init_fields(), entities=len(_SESSION_RECORDS),
    seed=777, master_seed=42, side=200.0, substeps=3)
_SESSION_SPAWN_STEP = 5
_SESSION_COARSE_STEPS = 3

# the hybrid scenario: two wrappers spawned at the same barrier; every
# key is a RunSettings key
HYBRID_SCENARIO = dict(ses=64, steps=12, seed=20260822, spawn_at=(5, 5),
                       transfer_count=4, substeps=3, duration=3)


def golden_dir() -> str:
    return os.fspath(files("hybridsim") / "golden")


def golden_path(name: str) -> str:
    return os.path.join(golden_dir(), name + ".transcript")


def load_transcript(path: str) -> list:
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().splitlines()
    for line in lines:
        if not (line.startswith("> ") or line.startswith("< ")):
            raise ValueError(f"{path}: bad transcript line {line!r}")
    return lines


def save_transcript(path: str, lines) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def replay(lines) -> tuple:
    """Feed the coarse side's lines to a fresh session.

    Returns (expected, actual) wrapper output lines, payload only.
    """
    sent = [line[2:] for line in lines if line.startswith("> ")]
    expected = [line[2:] for line in lines if line.startswith("< ")]
    rfile = io.BytesIO(("".join(l + "\n" for l in sent)).encode("ascii"))
    wfile = io.BytesIO()
    run_session(LineChannel(rfile, wfile))
    actual = wfile.getvalue().decode("ascii").splitlines()
    return expected, actual


def check_transcript(path: str) -> tuple:
    """Replay one golden file; returns (ok, detail)."""
    if not os.path.exists(path):
        return False, "golden file missing (run conformance --regenerate)"
    try:
        expected, actual = replay(load_transcript(path))
    except Exception as exc:
        return False, f"replay failed: {type(exc).__name__}: {exc}"
    if expected == actual:
        return True, f"{len(expected)} wrapper lines byte-identical"
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return False, (f"first mismatch at wrapper line {i}:"
                           f" expected {e!r}, got {a!r}")
    return False, (f"length mismatch: expected {len(expected)} lines,"
                   f" got {len(actual)}")


def check_all() -> list:
    """[(name, ok, detail)] for every golden scenario."""
    return [(name,) + check_transcript(golden_path(name))
            for name in GOLDEN_NAMES]


def _record_session() -> list:
    """Drive the pinned standalone session and capture its transcript."""
    ch = open_local(transcript=[])
    try:
        t0 = _SESSION_SPAWN_STEP
        ch.send("INIT", t0, **_SESSION_INIT)
        for rec in _SESSION_RECORDS:
            ch.send("ENTITY", t0, **entity_fields(rec))
        ch.recv(expect="READY")
        for i in range(_SESSION_COARSE_STEPS):
            kind, step, _ = ch.recv(expect="STATUS")
            last = i == _SESSION_COARSE_STEPS - 1
            ch.send("END" if last else "CONTINUE", step)
        kind, step, fields = ch.recv(expect="RESULT")
        for _ in range(len(_SESSION_RECORDS)):
            ch.recv(expect="ENTITY")
        ch.recv(expect="BYE")
    finally:
        ch.close()
    return list(ch.transcript)


def _record_hybrid() -> dict:
    """Run the scripted hybrid scenario, one LP in-process, the way a
    single run is built from its settings; transcripts per wrapper."""
    settings = RunSettings(**dict(HYBRID_SCENARIO,
                                  ses=(HYBRID_SCENARIO["ses"],)),
                           mode="inprocess")
    metrics = run_one(settings, *settings.single_run(), settings.seed, {})
    return {f"hybrid_w{t['wrapper_id']}": t["lines"]
            for t in metrics.wrapper_transcripts}


def regenerate_all() -> list:
    """Rebuild every golden from the reference implementation."""
    # goldens must come from the in-process wrapper, not a remote one
    previous = os.environ.pop(ENDPOINT_ENV_VAR, None)
    try:
        transcripts = {"session_small": _record_session()}
        transcripts.update(_record_hybrid())
    finally:
        if previous is not None:
            os.environ[ENDPOINT_ENV_VAR] = previous
    os.makedirs(golden_dir(), exist_ok=True)
    written = []
    for name in GOLDEN_NAMES:
        path = golden_path(name)
        save_transcript(path, transcripts[name])
        written.append(path)
    return written
