"""Sub-simulator wrapper: serves one entity hand-off session.

The wrapper owns the fine-grained side of the control protocol. On
INIT it receives the session configuration and the transferred entity
records, runs the vehicle arrival model to completion (its outputs are
instantaneous at coarse scale), builds the market scene, and answers
READY. From then on it emits one STATUS per coarse step and obeys
CONTINUE (advance the market by the configured fine substeps) or END
(stop, report RESULT plus the returned entity records, say BYE).

The session is written once, as a generator (session) that yields the
record kind and step it waits for and is sent each record as a
LineChannel decoded and checked it. Two functions feed it:

- run_session, over any blocking channel: a TCP connection of the
  standalone server (one thread per connection), or conformance.replay;
- open_local, for sessions in this process: it runs inline on the
  caller's thread over an in-memory channel pair, and each read on the
  coarse side resumes the session until it has written a line. No
  thread, no socket; the same records, encoded and decoded the same way.

A local session that fails ends the coarse side's read with a
ProtocolError naming the wrapper's cause. The standalone server:

    python -m hybridsim.wrapper --listen 0.0.0.0:7420

--listen follows the HOST:PORT rule of coordination.parse_endpoint; an
address it refuses ends in one error line and exit status 2, unbound.
"""

from __future__ import annotations

import argparse
import dataclasses
import socket
import sys
import threading
from dataclasses import dataclass

from . import metrics
from .coordination import Level1Settings, SessionResult, parse_endpoint
from .market import MarketParams, MarketRun, MarketScene
from .protocol import (
    LineChannel,
    ProtocolError,
    entity_fields,
    entity_from_fields,
    read_fields,
)
from .territory import wrap_coord
from .transport import TransportParams, simulate_arrivals


@dataclass(frozen=True)
class SessionInit(metrics.TypedSettings):
    """The fields of an INIT record that are not Level1Settings'."""

    entities: metrics.AtLeastOne
    side: metrics.Positive
    substeps: metrics.AtLeastOne
    master_seed: metrics.Seed
    seed: metrics.Seed


def session(ch: LineChannel):
    """One session as a generator: yields (kinds, step), the record
    kind(s) it waits for and the step they must carry (None for INIT's,
    which sets it), is sent each such record as (kind, step, fields),
    and writes its own records to ch. It returns after BYE."""
    _, t0, init = yield "INIT", None
    setup = read_fields(SessionInit, "INIT", init)
    level1 = read_fields(Level1Settings, "INIT", init)
    n = setup.entities

    records = []
    for _ in range(n):
        records.append(entity_from_fields((yield "ENTITY", t0)[2]))
    ids = [r.entity_id for r in records]
    if ids != sorted(set(ids)):
        raise ProtocolError("ENTITY records must arrive in ascending id order")

    arrivals = simulate_arrivals(
        level1.params(TransportParams, n_vehicles=n, seed=setup.seed))
    scene = MarketScene(level1.params(MarketParams))
    run = MarketRun(scene, records, arrivals.customers_entering,
                    setup.master_seed)
    # the vehicle cohort's outcome rides on every STATUS and the RESULT
    cohort = dict(emissions=arrivals.total_emissions,
                  customers=arrivals.customers_entering)

    ch.send("READY", t0)

    coarse = t0
    while True:
        coarse += 1
        ch.send("STATUS", coarse, **run.status(), **cohort)
        rkind, _, _ = yield ("CONTINUE", "END"), coarse
        if rkind == "END":
            break
        run.advance(setup.substeps)

    st = run.status()
    result = SessionResult(entities=n, rng_draws=run.total_draws(),
                           arrived=st["arrived"], msgs=st["msgs"],
                           routes=st["routes"], fine_steps=st["fine_steps"],
                           **cohort)
    ch.send("RESULT", coarse, **dataclasses.asdict(result))
    for rec in run.result_records():
        wrapped = rec._replace(x=wrap_coord(rec.x, setup.side),
                               y=wrap_coord(rec.y, setup.side))
        ch.send("ENTITY", coarse, **entity_fields(wrapped))
    ch.send("BYE", coarse)


def run_session(ch: LineChannel) -> None:
    """Serve one complete session on a blocking channel."""
    steps = session(ch)
    try:
        expect = next(steps)
        while True:
            expect = steps.send(ch.recv(*expect))
    except StopIteration:
        pass


def serve_connection(sock: socket.socket) -> None:
    """Serve one session on a connected socket and close it; a failure
    is printed, never raised, so that it ends only its own session."""
    ch = LineChannel.over_socket(sock)
    try:
        run_session(ch)
    except Exception as exc:
        print(_failure(exc), file=sys.stderr)
    finally:
        ch.close()


def _failure(exc: Exception) -> str:
    """What ended a session: a protocol breach, or any other fault."""
    if isinstance(exc, ProtocolError):
        return f"wrapper session failed: {exc}"
    return f"wrapper session crashed: {exc!r}"


def serve(host: str, port: int) -> None:
    """Accept loop: one thread per session, runs until interrupted."""
    with socket.create_server((host, port)) as srv:
        print(f"wrapper listening on {host}:{port}", file=sys.stderr)
        while True:
            conn, peer = srv.accept()
            print(f"session from {peer[0]}:{peer[1]}", file=sys.stderr)
            threading.Thread(target=serve_connection, args=(conn,),
                             daemon=True).start()


class _Pipe:
    """One direction of a local session: the bytes written to it and
    not read yet, behind the file methods LineChannel calls. Its one
    writer is a LineChannel, so it holds whole lines or nothing."""

    def __init__(self):
        self.buf = bytearray()
        self.closed = False

    def write(self, raw: bytes) -> None:
        if self.closed:
            raise ValueError("I/O operation on closed file")
        self.buf += raw

    def flush(self) -> None:
        pass

    def readline(self, limit: int) -> bytes:
        end = self.buf.find(b"\n", 0, limit)
        n = limit if end < 0 else end + 1
        line = bytes(self.buf[:n])
        del self.buf[:n]
        return line

    def close(self) -> None:
        self.closed = True


class _LocalSession:
    """The coarse side's read end of a session run inline.

    A read resumes the session generator, sending it each record the
    wrapper's channel decodes from the coarse side's writes, until the
    session has written a line or ended. Any exception the session
    raises ends the read as a ProtocolError naming it.
    """

    def __init__(self, to_wrapper: _Pipe):
        self._in = to_wrapper
        self._out = _Pipe()
        self._ch = LineChannel(to_wrapper, self._out)
        self._steps = session(self._ch)
        self._expect = next(self._steps)  # INIT: the session waits

    def readline(self, limit: int) -> bytes:
        while self._steps is not None and not self._out.buf:
            self._resume()
        return self._out.readline(limit)

    def _resume(self) -> None:
        try:
            if not self._in.buf:
                raise ProtocolError(
                    "waits for a record the coarse side has not sent")
            self._expect = self._steps.send(self._ch.recv(*self._expect))
        except StopIteration:
            self._steps = None
        except Exception as exc:
            self.close()
            raise ProtocolError(_failure(exc)) from exc

    def close(self) -> None:
        if self._steps is not None:
            self._steps.close()
            self._steps = None


def open_local(transcript=None) -> LineChannel:
    """The coarse side's channel to a new session run inline."""
    to_wrapper = _Pipe()
    return LineChannel(_LocalSession(to_wrapper), to_wrapper, transcript)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hybridsim.wrapper",
        description="serve sub-simulator sessions over TCP")
    ap.add_argument("--listen", metavar="HOST:PORT", required=True,
                    help="address to accept coarse-side connections on")
    args = ap.parse_args(argv)
    try:
        host, port = parse_endpoint(args.listen)
    except ValueError as exc:
        ap.error(f"--listen: {exc}")
    try:
        serve(host, port)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
