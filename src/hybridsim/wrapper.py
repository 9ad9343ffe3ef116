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
import math
import socket
import sys
import threading

from .coordination import Level1Settings, parse_endpoint
from .market import MarketParams, MarketRun, MarketScene
from .protocol import (
    LineChannel,
    ProtocolError,
    entity_fields,
    entity_from_fields,
    field_float,
    field_int,
)
from .territory import wrap_coord
from .transport import TransportParams, simulate_arrivals


def run_session(rfile, wfile) -> None:
    """Serve one complete session on an open byte-stream pair."""
    ch = LineChannel(rfile, wfile)
    kind, t0, init = ch.recv(expect="INIT")
    n = field_int(init, "entities")
    if n < 1:
        raise ProtocolError("INIT with no entities")
    side = field_float(init, "side")
    if not 0 < side < math.inf:
        raise ProtocolError(f"INIT side = {side!r} out of range;"
                            " accepted: finite number > 0")
    substeps = field_int(init, "substeps")
    if substeps < 1:
        raise ProtocolError("substeps must be >= 1")
    master_seed = field_int(init, "master_seed")
    l1_seed = field_int(init, "seed")
    level1 = Level1Settings.from_init(init)

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
        level1.params(TransportParams, n_vehicles=n, seed=l1_seed))
    scene = MarketScene(level1.params(MarketParams))
    run = MarketRun(scene, records, arrivals.customers_entering, master_seed)

    ch.send("READY", t0)

    coarse = t0
    while True:
        coarse += 1
        st = run.status()
        ch.send("STATUS", coarse,
                querying=st["querying"], walking=st["walking"],
                arrived=st["arrived"], msgs=st["msgs"], routes=st["routes"],
                fine_steps=st["fine_steps"],
                emissions=arrivals.total_emissions,
                customers=arrivals.customers_entering)
        rkind, rstep, _ = ch.recv(expect=("CONTINUE", "END"))
        if rstep != coarse:
            raise ProtocolError(
                f"{rkind} for step {rstep} while at step {coarse}"
            )
        if rkind == "END":
            break
        run.advance(substeps)

    st = run.status()
    ch.send("RESULT", coarse,
            entities=n, arrived=st["arrived"], msgs=st["msgs"],
            routes=st["routes"], fine_steps=run.fine_clock,
            rng_draws=run.total_draws(),
            emissions=arrivals.total_emissions,
            customers=arrivals.customers_entering)
    for rec in run.result_records():
        wrapped = rec._replace(x=wrap_coord(rec.x, side),
                               y=wrap_coord(rec.y, side))
        ch.send("ENTITY", coarse, **entity_fields(wrapped))
    ch.send("BYE", coarse)


def serve_connection(sock: socket.socket) -> None:
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    try:
        run_session(rfile, wfile)
    finally:
        for f in (wfile, rfile):
            try:
                f.close()
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass


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
