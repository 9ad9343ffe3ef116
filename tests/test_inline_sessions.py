"""Local wrapper sessions run inline on the coarse thread.

A session without an endpoint is served by wrapper.open_local: no
thread, no socket, its records encoded and decoded as on a TCP
connection. The remote wrapper (wrapper.serve_connection, one thread
per connection, driving the session through run_session) is the oracle:
a whole hybrid run against it (the remote fixture, tests/conftest.py)
must equal the local run byte for byte.
"""

import socket
import threading

import pytest

from hybridsim import conformance
from hybridsim.campaign import run_one
from hybridsim.config import RunSettings
from hybridsim.coordination import (
    ENDPOINT_ENV_VAR,
    DensityTrigger,
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
    UntilArrivedPolicy,
)
from hybridsim.engine import EngineConfig, run_simulation
from hybridsim.territory import TerritorySpec


def _golden_hybrid():
    """The golden hybrid scenario: two wrappers spawned at one barrier."""
    settings = RunSettings(**dict(conformance.HYBRID_SCENARIO,
                                  ses=(conformance.HYBRID_SCENARIO["ses"],)),
                           mode="inprocess")
    return run_one(settings, *settings.single_run(), settings.seed, {})


def _density():
    """A DensityTrigger firing at most barriers, sessions overlapping."""
    hybrid = HybridSpec(trigger=DensityTrigger(threshold=6, radius=120.0),
                        policy=FixedDurationPolicy(2))
    return run_simulation(EngineConfig(num_lps=2, total_timesteps=20,
                                       master_seed=5),
                          TerritorySpec(120), hybrid=hybrid,
                          mode="inprocess")


def _process():
    """Two worker processes; sessions walk until every pedestrian arrives."""
    hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(3, 3, 8),
                                                transfer_count=5),
                        policy=UntilArrivedPolicy())
    return run_simulation(EngineConfig(num_lps=2, total_timesteps=30,
                                       master_seed=17),
                          TerritorySpec(150), hybrid=hybrid, mode="process")


@pytest.mark.parametrize("run", [_golden_hybrid, _density, _process],
                         ids=["golden_hybrid", "density", "process"])
def test_local_sessions_equal_the_remote_wrapper(run, remote, monkeypatch):
    endpoint, sessions = remote
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    local = run()
    monkeypatch.setenv(ENDPOINT_ENV_VAR, endpoint)
    over_tcp = run()
    assert local.level1.spawns >= 2 and local.level1.failures == 0
    assert len(sessions) == local.level1.spawns
    assert local.comparable() == over_tcp.comparable()
    assert local.wrapper_transcripts == over_tcp.wrapper_transcripts


def test_local_hybrid_run_starts_no_thread_and_opens_no_socket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a local session started a thread or socket")

    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(socket, "socketpair", refuse)
    monkeypatch.setattr(socket, "socket", refuse)
    hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(2, 4),
                                                transfer_count=3),
                        policy=FixedDurationPolicy(3))
    m = run_simulation(EngineConfig(num_lps=1, total_timesteps=10,
                                    master_seed=3),
                       TerritorySpec(40), hybrid=hybrid, mode="inprocess")
    assert m.level1.spawns == 2 and m.level1.failures == 0
    assert [t["state"] for t in m.wrapper_transcripts] == ["DONE", "DONE"]
    assert threading.active_count() == before
