"""Fixtures shared by the hand-off tests."""

import socket
import threading

import pytest

from hybridsim import wrapper


@pytest.fixture
def remote():
    """A TCP wrapper server on 127.0.0.1:0 serving each connection with
    run_session on its own thread; yields its HOST:PORT and the threads."""
    srv = socket.create_server(("127.0.0.1", 0))
    sessions = []

    def accept_loop():
        while True:
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            th = threading.Thread(target=wrapper.serve_connection,
                                  args=(conn,), daemon=True)
            th.start()
            sessions.append(th)

    acceptor = threading.Thread(target=accept_loop, daemon=True)
    acceptor.start()
    try:
        yield f"127.0.0.1:{srv.getsockname()[1]}", sessions
    finally:
        srv.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        srv.close()
        acceptor.join(timeout=10.0)
        for th in sessions:
            th.join(timeout=10.0)
        assert not acceptor.is_alive()
        assert not any(th.is_alive() for th in sessions)
