"""Sub-simulator wrapper: serves one entity hand-off session.

The wrapper owns the fine-grained side of the control protocol. On
INIT it receives the session configuration and the transferred entity
records, runs the vehicle arrival model to completion (its outputs are
instantaneous at coarse scale), builds the market scene, and answers
READY. From then on it emits one STATUS per coarse step and obeys
CONTINUE (advance the market by the configured fine substeps) or END
(stop, report RESULT plus the returned entity records, say BYE).

Runs in-process behind a socketpair for local sessions, or as a
standalone TCP server for remote ones:

    python -m hybridsim.wrapper --listen 0.0.0.0:7420

--listen follows the HOST:PORT rule of coordination.parse_endpoint; an
address it refuses ends in one error line and exit status 2, unbound.
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
from dataclasses import dataclass

from . import metrics
from .coordination import Level1Settings, parse_endpoint
from .market import MarketParams, MarketRun, MarketScene
from .protocol import (
    LineChannel,
    ProtocolError,
    entity_fields,
    entity_from_fields,
    field,
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


def read_init(cls, init: dict):
    """cls (SessionInit or Level1Settings) built from an INIT record's
    fields, each read as its type; a value cls refuses is a ProtocolError
    naming the field."""
    values = {name: field(init, name, accepts.kind)
              for name, accepts in metrics.settings_fields(cls).items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ProtocolError(f"INIT {exc}") from None


def run_session(ch: LineChannel) -> None:
    """Serve one complete session on an open channel."""
    kind, t0, init = ch.recv(expect="INIT")
    session = read_init(SessionInit, init)
    level1 = read_init(Level1Settings, init)
    n = session.entities

    records = []
    for _ in range(n):
        ekind, estep, ef = ch.recv(expect="ENTITY")
        if estep != t0:
            raise ProtocolError(
                f"ENTITY step {estep} does not match INIT step {t0}"
            )
        records.append(entity_from_fields(ef))
    ids = [r.entity_id for r in records]
    if ids != sorted(set(ids)):
        raise ProtocolError("ENTITY records must arrive in ascending id order")

    arrivals = simulate_arrivals(
        level1.params(TransportParams, n_vehicles=n, seed=session.seed))
    scene = MarketScene(level1.params(MarketParams))
    run = MarketRun(scene, records, arrivals.customers_entering,
                    session.master_seed)
    # the vehicle cohort's outcome rides on every STATUS and the RESULT
    cohort = dict(emissions=arrivals.total_emissions,
                  customers=arrivals.customers_entering)

    ch.send("READY", t0)

    coarse = t0
    while True:
        coarse += 1
        ch.send("STATUS", coarse, **run.status(), **cohort)
        rkind, rstep, _ = ch.recv(expect=("CONTINUE", "END"))
        if rstep != coarse:
            raise ProtocolError(
                f"{rkind} for step {rstep} while at step {coarse}"
            )
        if rkind == "END":
            break
        run.advance(session.substeps)

    st = run.status()
    ch.send("RESULT", coarse, entities=n, arrived=st["arrived"],
            msgs=st["msgs"], routes=st["routes"], fine_steps=st["fine_steps"],
            rng_draws=run.total_draws(), **cohort)
    for rec in run.result_records():
        wrapped = rec._replace(x=wrap_coord(rec.x, session.side),
                               y=wrap_coord(rec.y, session.side))
        ch.send("ENTITY", coarse, **entity_fields(wrapped))
    ch.send("BYE", coarse)


def serve_connection(sock: socket.socket) -> None:
    ch = LineChannel.over_socket(sock)
    try:
        run_session(ch)
    finally:
        ch.close()


def start_local() -> socket.socket:
    """In-process wrapper on a socketpair; returns the coarse-side socket."""
    l0_end, l1_end = socket.socketpair()
    th = threading.Thread(target=_local_session, args=(l1_end,), daemon=True)
    th.start()
    return l0_end


def _local_session(sock: socket.socket) -> None:
    try:
        serve_connection(sock)
    except ProtocolError as exc:
        print(f"wrapper session failed: {exc}", file=sys.stderr)
    except Exception as exc:  # session thread must never kill the process
        print(f"wrapper session crashed: {exc!r}", file=sys.stderr)


def serve(host: str, port: int) -> None:
    """Accept loop: one thread per session, runs until interrupted."""
    with socket.create_server((host, port)) as srv:
        print(f"wrapper listening on {host}:{port}", file=sys.stderr)
        while True:
            conn, peer = srv.accept()
            print(f"session from {peer[0]}:{peer[1]}", file=sys.stderr)
            threading.Thread(target=_local_session, args=(conn,),
                             daemon=True).start()


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
