"""Hand-off machinery: triggers, policies, spawn/conserve/reintegrate."""

import contextlib
import io
import math
import random
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridsim.coordination import (
    ENDPOINT_ENV_VAR,
    DONE,
    FAILED,
    RUNNING_L1B,
    ConservationError,
    DensityTrigger,
    FixedDurationPolicy,
    HybridCoordinator,
    HybridSpec,
    Level1Settings,
    ScriptedTrigger,
    TimestepAlignment,
    UntilArrivedPolicy,
    WrapperFailure,
    WrapperHandle,
    coordinate_step,
    reintegrate,
    resolve_endpoint,
    spawn_level1,
)
from hybridsim import coordination, market, transport, wrapper
from hybridsim.engine import (EngineConfig, EngineError, InProcessBackend,
                              grid_cells, run_simulation)
from hybridsim.metrics import Level1Totals, RunMetrics, settings_fields
from hybridsim.protocol import (LineChannel, ProtocolError, encode_record,
                               entity_fields, format_value)
from hybridsim.rng import derive_seed
from hybridsim.territory import EntityRecord, TerritorySpec, World


def _world_at(side, xs, ys):
    w = World(side, len(xs))
    w.update(list(range(len(xs))), xs, ys)
    return w


def brute_density(world, threshold, radius, frozen=frozenset()):
    """O(n^2) reference: lowest-id disk holding >= threshold free entities."""
    free = [i for i in range(world.num_entities) if i not in frozen]
    for c in free:
        cx, cy = float(world.pos_x[c]), float(world.pos_y[c])
        members = []
        for o in free:
            dx = abs(float(world.pos_x[o]) - cx)
            dy = abs(float(world.pos_y[o]) - cy)
            dx = min(dx, world.side - dx)
            dy = min(dy, world.side - dy)
            if dx * dx + dy * dy <= radius * radius:
                members.append(o)
        if len(members) >= threshold:
            return c, tuple(members)
    return None


def chunked_density(world, threshold, radius, frozen=frozenset()):
    """All-pairs reference in numpy, 512 centers at a time: what
    DensityTrigger.check computed before it asked engine.torus_pairs."""
    free = np.array([i for i in range(world.num_entities) if i not in frozen],
                    dtype=np.int64)
    xs = world.pos_x[free]
    ys = world.pos_y[free]
    side = world.side
    for lo in range(0, free.size, 512):
        dx = np.abs(xs[None, :] - xs[lo:lo + 512, None])
        dy = np.abs(ys[None, :] - ys[lo:lo + 512, None])
        np.minimum(dx, side - dx, out=dx)
        np.minimum(dy, side - dy, out=dy)
        inside = dx * dx + dy * dy <= radius * radius
        hits = np.nonzero(inside.sum(axis=1) >= threshold)[0]
        if hits.size:
            k = int(hits[0])
            return int(free[lo + k]), tuple(free[inside[k]].tolist())
    return None


def _density_events(expect):
    """What DensityTrigger.check returns for an oracle's answer."""
    return [] if expect is None else [expect[1]]


# --- triggers ------------------------------------------------------------


def test_density_default_threshold_never_fires():
    w = _world_at(1000.0, [10.0] * 50, [10.0] * 50)  # maximally clustered
    assert DensityTrigger().check(w, 0, frozenset()) == []


def test_density_fires_against_brute_force_oracle():
    import random
    rng = random.Random(404)
    n = 120
    xs = [rng.uniform(0, 1000) for _ in range(n)]
    ys = [rng.uniform(0, 1000) for _ in range(n)]
    # plant a cluster away from id order so the oracle does the work
    for i in range(40, 52):
        xs[i] = 600.0 + rng.uniform(-20, 20)
        ys[i] = 300.0 + rng.uniform(-20, 20)
    w = _world_at(1000.0, xs, ys)
    for threshold, radius in [(3, 60.0), (8, 60.0), (12, 200.0)]:
        expect = brute_density(w, threshold, radius)
        events = DensityTrigger(threshold, radius).check(w, 0, frozenset())
        if expect is None:
            assert events == []
            continue
        c, members = expect
        assert c in members  # the center counts itself
        assert events == [members]


def test_density_hit_beyond_first_chunk():
    # the scan works in chunks of 512 ids; park the only cluster past that
    n = 600
    xs = [300.0 + (i % 24) * 25.0 for i in range(n)]  # sparse 25-grid
    ys = [300.0 + (i // 24 % 24) * 25.0 for i in range(n)]
    for k, i in enumerate(range(520, 540)):
        xs[i] = 50.0 + k * 0.5
        ys[i] = 50.0
    w = _world_at(1000.0, xs, ys)
    expect = brute_density(w, 15, 10.0)
    assert expect is not None and expect[0] == 520
    events = DensityTrigger(15, 10.0).check(w, 0, frozenset())
    assert events == [expect[1]] == [tuple(range(520, 540))]


def test_density_counts_across_the_seam():
    # 995 and 5 are 10 apart on a side-1000 torus
    w = _world_at(1000.0, [995.0, 5.0, 500.0], [500.0, 500.0, 0.0])
    assert DensityTrigger(2, 20.0).check(w, 0, frozenset()) == [(0, 1)]


def test_density_boundary_inclusive():
    w = _world_at(1000.0, [0.0, 250.0], [0.0, 0.0])
    assert DensityTrigger(2, 250.0).check(w, 0, frozenset()) == [(0, 1)]


def test_density_lowest_id_center_wins():
    # two qualifying clusters; the one containing the lowest id reports
    xs = [100.0, 101.0, 102.0, 800.0, 801.0, 802.0]
    ys = [100.0, 100.0, 100.0, 800.0, 800.0, 800.0]
    w = _world_at(1000.0, xs, ys)
    assert DensityTrigger(3, 10.0).check(w, 0, frozenset()) == [(0, 1, 2)]
    # with 0 frozen, the cluster of 1 and 2 is one short: the far one wins
    assert DensityTrigger(3, 10.0).check(w, 0, {0: "h"}) == [(3, 4, 5)]


def test_density_ignores_frozen_entities():
    xs = [100.0, 101.0, 102.0]
    ys = [100.0, 100.0, 100.0]
    w = _world_at(1000.0, xs, ys)
    assert DensityTrigger(3, 10.0).check(w, 0, frozenset({1})) == []
    # and the remaining pair still qualifies at a lower threshold
    assert DensityTrigger(2, 10.0).check(w, 0, frozenset({1})) == [(0, 2)]


@st.composite
def _density_scenes(draw):
    side = draw(st.sampled_from([100.0, 250.0, 1000.0]))
    # radius / side from 1/20 to 3/2: many cells, fewer than three, and a
    # disk wider than the torus
    radius = side * draw(st.sampled_from([0.05, 0.12, 0.2, 0.3, 1 / 3, 0.4,
                                          0.5, 0.7, 1.0, 1.5]))
    n = draw(st.integers(1, 40))
    # cell edges of the uncapped and the capped grid, 0, just below side,
    # and points exactly radius apart
    edges = [0.0, np.nextafter(side, 0.0)]
    for cells in {grid_cells(side, radius),
                  min(grid_cells(side, radius), math.isqrt(n))}:
        for k in range(1, cells):
            c = k * side / cells
            edges += [c, np.nextafter(c, 0.0), np.nextafter(c, side)]
    if radius < side:
        edges += [radius, side - radius]
    coord = st.one_of(st.floats(0.0, side, exclude_max=True),
                      st.sampled_from(edges))
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    # some entities stacked on others, so disks fill up
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        xs[i], ys[i] = xs[j], ys[j]
    frozen = dict.fromkeys(draw(st.sets(st.integers(0, n - 1))), "handle")
    threshold = draw(st.integers(1, n + 1))
    return _world_at(side, xs, ys), threshold, radius, frozen


@settings(max_examples=400, deadline=None)
@given(_density_scenes())
def test_density_matches_brute_force_on_edges(scene):
    world, threshold, radius, frozen = scene
    got = DensityTrigger(threshold, radius).check(world, 0, frozen)
    assert got == _density_events(brute_density(world, threshold, radius,
                                                frozen))


def test_density_at_8000_entities_matches_chunked_scan():
    rng = random.Random(8000)
    n = 8000
    side = TerritorySpec(num_entities=n).side
    xs = [rng.uniform(0, side) for _ in range(n)]
    ys = [rng.uniform(0, side) for _ in range(n)]
    # clusters in the second, the sixth (straddling the seam) and the
    # fourteenth block of 512 centers: the first of them must win
    for lo, (x, y) in ((700, (5000.0, 5000.0)), (7000, (200.0, 300.0)),
                       (3000, (side - 1.0, 1.0))):
        for i in range(lo, lo + 60):
            xs[i] = (x + rng.uniform(-40, 40)) % side
            ys[i] = (y + rng.uniform(-40, 40)) % side
    w = _world_at(side, xs, ys)
    frozen = dict.fromkeys(range(0, n, 97), "handle")
    expect = chunked_density(w, 40, 250.0, frozen)
    assert expect is not None and expect[0] < 760  # the first cluster
    assert DensityTrigger(40, 250.0).check(w, 0, frozen) == [expect[1]]


def test_density_triggered_run_is_identical_across_backends():
    spec = TerritorySpec(num_entities=400)
    hybrid = HybridSpec(trigger=DensityTrigger(threshold=30, radius=250.0),
                        policy=FixedDurationPolicy(2))
    runs = [run_simulation(EngineConfig(num_lps=lps, total_timesteps=20,
                                        master_seed=21),
                           spec, hybrid=hybrid, mode=mode)
            for lps, mode in ((1, "inprocess"), (2, "process"))]
    assert runs[0].level1.spawns >= 2
    assert runs[0].comparable() == runs[1].comparable()


def test_density_validation():
    with pytest.raises(ValueError):
        DensityTrigger(threshold=0)
    with pytest.raises(ValueError):
        DensityTrigger(radius=0.0)


def test_scripted_fires_at_configured_steps():
    trig = ScriptedTrigger(spawn_at=(3,), transfer_count=2)
    w = _world_at(100.0, [0.0] * 6, [0.0] * 6)
    assert trig.check(w, 2, frozenset()) == []
    assert trig.check(w, 3, frozenset()) == [(0, 1)]
    assert trig.check(w, 4, frozenset()) == []


def test_scripted_repeated_step_takes_disjoint_sets():
    trig = ScriptedTrigger(spawn_at=(5, 5), transfer_count=4)
    w = _world_at(100.0, [0.0] * 8, [0.0] * 8)
    assert trig.check(w, 5, frozenset()) == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_scripted_skips_frozen_and_takes_partial():
    trig = ScriptedTrigger(spawn_at=(1,), transfer_count=3)
    w = _world_at(100.0, [0.0] * 4, [0.0] * 4)
    assert trig.check(w, 1, {0: object(), 1: object()}) == [(2, 3)]
    # entirely frozen pool: the firing is dropped
    frozen = {i: object() for i in range(4)}
    assert trig.check(w, 1, frozen) == []


def test_scripted_validation():
    with pytest.raises(ValueError):
        ScriptedTrigger(spawn_at=(-1,))
    with pytest.raises(ValueError):
        ScriptedTrigger(transfer_count=0)


def test_no_trigger_is_quiet():
    config, spec, backend, world = _bench()
    coord = HybridCoordinator(HybridSpec(trigger=None), config, spec)
    metrics = RunMetrics()
    coord.at_barrier(0, world, backend, metrics)
    assert coord.active == {} and coord.history == []
    assert coord.frozen_ids() == set() and coord.finish() == []
    assert metrics.level1.spawns == 0 and metrics.level1.failures == 0


# --- alignment and policies ----------------------------------------------


def test_alignment_fine_dt():
    assert TimestepAlignment(fine_substeps=4).fine_substeps == 4
    with pytest.raises(ValueError):
        TimestepAlignment(fine_substeps=0)


class _StubHandle:
    def __init__(self, spawned_at):
        self.spawned_at = spawned_at


def test_fixed_duration_policy():
    p = FixedDurationPolicy(3)
    h = _StubHandle(spawned_at=10)
    assert p.decide(h, 11, {}) == "CONTINUE"
    assert p.decide(h, 12, {}) == "CONTINUE"
    assert p.decide(h, 13, {}) == "END"
    with pytest.raises(ValueError):
        FixedDurationPolicy(0)


def test_until_arrived_policy():
    p = UntilArrivedPolicy()
    h = _StubHandle(0)
    assert p.decide(h, 1, {"querying": "2", "walking": "1"}) == "CONTINUE"
    assert p.decide(h, 1, {"querying": "0", "walking": "1"}) == "CONTINUE"
    assert p.decide(h, 1, {"querying": "0", "walking": "0"}) == "END"


def test_level1_settings_init_fields():
    fields = Level1Settings().init_fields()
    assert len(fields) == 12
    assert fields["grid_side"] == 10
    assert fields["parking_capacity"] == 100
    assert fields["walking_speed"] == 1.4


def test_level1_settings_take_their_defaults_and_ranges_from_the_models():
    """spacing=-1 was accepted and every spawn then died in the wrapper
    thread; each field now has its model's field type and default."""
    level1 = Level1Settings()
    for cls in (market.MarketParams, transport.TransportParams):
        for name, value in level1.init_fields().items():
            if hasattr(cls, name):
                assert value == getattr(cls(), name)
                assert (settings_fields(Level1Settings)[name]
                        == settings_fields(cls)[name]), name
    assert (level1.params(transport.TransportParams, n_vehicles=3)
            == transport.TransportParams(n_vehicles=3))
    assert level1.params(market.MarketParams) == market.MarketParams()
    for field, value in (("spacing", -1.0), ("spacing", math.nan),
                         ("radio_range", math.inf), ("hop_limit", 0),
                         ("idle_rate", math.nan), ("mean_cruise_time", -1.0),
                         ("parking_capacity", math.inf)):
        with pytest.raises(ValueError, match=f"^{field} = .* out of range"):
            Level1Settings(**{field: value})


def test_hybrid_spec_endpoint_validation():
    HybridSpec(endpoint="127.0.0.1:7420")  # fine
    with pytest.raises(ValueError):
        HybridSpec(endpoint="nocolon")
    with pytest.raises(ValueError):
        HybridSpec(endpoint="host:notaport")
    # a NaN io_timeout once failed inside spawn_level1, after the
    # entities were extracted
    for timeout in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^io_timeout = .* out of range;"
                                             " accepted: finite number > 0$"):
            HybridSpec(io_timeout=timeout)


@pytest.mark.parametrize("endpoint", ["h:-1", "h:+80", "h:0", "h:99999"])
def test_endpoint_port_outside_1_to_65535_is_refused(endpoint, monkeypatch):
    with pytest.raises(ValueError, match="1-65535"):
        HybridSpec(endpoint=endpoint)
    # the environment path: refused before any entity is frozen
    config, spec, backend, world = _bench()
    monkeypatch.setenv(ENDPOINT_ENV_VAR, endpoint)
    with pytest.raises(ValueError, match="1-65535"):
        spawn_level1(backend, [2, 5], 4, HybridSpec(), config.master_seed,
                     spec.side, 0)
    assert backend.entity_count() == 12


def test_resolve_endpoint_env_beats_spec(monkeypatch):
    spec = HybridSpec(endpoint="10.0.0.1:9000")
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    assert resolve_endpoint(spec) == "10.0.0.1:9000"
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "10.0.0.2:9001")
    assert resolve_endpoint(spec) == "10.0.0.2:9001"
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "")  # empty means unset
    assert resolve_endpoint(spec) == "10.0.0.1:9000"
    assert resolve_endpoint(HybridSpec()) is None  # no env, no spec
    monkeypatch.delenv(ENDPOINT_ENV_VAR)
    assert resolve_endpoint(HybridSpec()) is None


# --- spawn / coordinate / reintegrate against the real wrapper -----------


def _bench(n=12, num_lps=3, master_seed=7):
    config = EngineConfig(num_lps=num_lps, total_timesteps=30,
                          master_seed=master_seed)
    spec = TerritorySpec(num_entities=n)
    backend = InProcessBackend(config, spec)
    world = World(spec.side, n)
    for lp in backend.lps.values():
        world.update(*lp.positions())
    return config, spec, backend, world


def test_spawn_rejects_bad_entity_sets():
    config, spec, backend, world = _bench()
    hs = HybridSpec()
    with pytest.raises(ValueError):
        spawn_level1(backend, [], 4, hs, config.master_seed, spec.side, 0)
    with pytest.raises(ValueError):
        spawn_level1(backend, [2, 2], 4, hs, config.master_seed, spec.side, 0)


def test_spawn_freezes_and_reaches_ready():
    config, spec, backend, world = _bench()
    handle = spawn_level1(backend, [7, 2, 5], 4, HybridSpec(),
                          config.master_seed, spec.side, wrapper_id=0)
    try:
        assert backend.entity_count() == 9
        assert handle.state == RUNNING_L1B
        assert handle.entity_ids == (2, 5, 7)  # sorted on the way in
        assert handle.spawned_at == 4
        lines = handle.transcript
        assert lines[0].startswith("> INIT step=4 ")
        assert f"master_seed={config.master_seed}" in lines[0]
        assert f"seed={derive_seed(config.master_seed, 'wrapper', 4, 0)}" \
            in lines[0]
        assert sum(l.startswith("> ENTITY") for l in lines) == 3
        assert lines[-1] == "< READY step=4"
    finally:
        coordinate_step(handle, 5, FixedDurationPolicy(1))
        reintegrate(backend, handle, world)


def test_spawn_connection_refused_restores_entities():
    config, spec, backend, world = _bench()
    before = backend.extract([2, 5, 7])
    backend.restore(before)
    hs = HybridSpec(endpoint="127.0.0.1:1", io_timeout=5.0)
    with pytest.raises(WrapperFailure):
        spawn_level1(backend, [2, 5, 7], 4, hs, config.master_seed,
                     spec.side, 0)
    assert backend.entity_count() == 12
    assert backend.extract([2, 5, 7]) == before
    backend.restore(before)


def test_spawn_then_immediate_end_is_a_no_op():
    config, spec, backend, world = _bench()
    ids = [1, 4, 9]
    before = backend.extract(ids)
    backend.restore(before)
    handle = spawn_level1(backend, ids, 6, HybridSpec(),
                          config.master_seed, spec.side, 0)
    status = coordinate_step(handle, 7, FixedDurationPolicy(1))
    assert handle.end_sent_at == 7
    assert status["fine_steps"] == "0"
    reintegrate(backend, handle, world)
    assert handle.state == DONE
    assert backend.entity_count() == 12
    assert backend.extract(ids) == before  # bit-exact round trip
    backend.restore(before)


def test_fixed_duration_session_shape_and_metrics():
    config, spec, backend, world = _bench()
    metrics = RunMetrics()
    handle = spawn_level1(backend, [0, 3], 10, HybridSpec(),
                          config.master_seed, spec.side, 0)
    for t in (11, 12, 13):
        coordinate_step(handle, t, FixedDurationPolicy(3))
    assert handle.end_sent_at == 13
    reintegrate(backend, handle, world, metrics)
    lines = handle.transcript
    assert sum(l.startswith("< STATUS") for l in lines) == 3
    assert sum(l.startswith("> CONTINUE") for l in lines) == 2
    assert sum(l.startswith("> END") for l in lines) == 1
    # two CONTINUE windows of default 3 substeps each
    assert metrics.level1.fine_steps == 6
    assert metrics.level1.customers == 2
    assert metrics.level1.emissions_g > 0
    # reintegrated positions are in the world table
    recs = backend.extract([0, 3])
    for r in recs:
        assert world.position(r.entity_id) == (r.x, r.y)
    backend.restore(recs)


def test_until_arrived_session_runs_to_completion():
    config, spec, backend, world = _bench()
    metrics = RunMetrics()
    handle = spawn_level1(backend, [0, 1, 2], 0, HybridSpec(),
                          config.master_seed, spec.side, 0)
    policy = UntilArrivedPolicy()
    t = 0
    while handle.end_sent_at is None:
        t += 1
        assert t < 500, "market session did not converge"
        coordinate_step(handle, t, policy)
    reintegrate(backend, handle, world, metrics)
    assert metrics.level1.arrived == 3
    assert metrics.level1.route_discoveries >= 3
    assert metrics.level1.market_messages > 0


def test_coordinate_step_guards_state():
    config, spec, backend, world = _bench()
    handle = spawn_level1(backend, [5], 2, HybridSpec(),
                          config.master_seed, spec.side, 0)
    handle.state = DONE
    with pytest.raises(EngineError):
        coordinate_step(handle, 3, FixedDurationPolicy(1))
    handle.state = RUNNING_L1B
    coordinate_step(handle, 3, FixedDurationPolicy(1))
    reintegrate(backend, handle, world)


def test_reintegrate_requires_end():
    config, spec, backend, world = _bench()
    handle = spawn_level1(backend, [5], 2, HybridSpec(),
                          config.master_seed, spec.side, 0)
    with pytest.raises(EngineError, match="before END"):
        reintegrate(backend, handle, world)
    coordinate_step(handle, 3, FixedDurationPolicy(1))
    reintegrate(backend, handle, world)


def test_spawn_over_tcp_endpoint(remote):
    endpoint, sessions = remote
    config, spec, backend, world = _bench()
    hs = HybridSpec(endpoint=endpoint, io_timeout=30.0)
    handle = spawn_level1(backend, [3, 8], 1, hs, config.master_seed,
                          spec.side, 0)
    coordinate_step(handle, 2, FixedDurationPolicy(1))
    reintegrate(backend, handle, world)
    assert handle.state == DONE
    assert backend.entity_count() == 12
    assert len(sessions) == 1


def test_wrapper_flooding_one_line_is_terminated_and_restored(capsys):
    # a remote wrapper that answers READY, then sends 1 MiB with no newline
    srv = socket.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]

    def flood():
        conn, _ = srv.accept()
        with conn, conn.makefile("rb") as rfile:
            init = rfile.readline().decode("ascii")
            n = int(init.split("entities=")[1].split()[0])
            for _ in range(n):
                rfile.readline()
            try:
                conn.sendall(b"READY step=4\n" + b"x" * (1 << 20))
            except OSError:
                pass  # the coarse side hung up mid-flood

    th = threading.Thread(target=flood, daemon=True)
    th.start()
    try:
        config, spec, backend, world = _bench()
        before = backend.extract([3, 8])
        backend.restore(before)
        hs = HybridSpec(endpoint=f"127.0.0.1:{port}", io_timeout=10.0)
        coord = HybridCoordinator(hs, config, spec)
        handle = spawn_level1(backend, [3, 8], 4, hs, config.master_seed,
                              spec.side, 0)
        coord.active[0] = handle
        assert coord.frozen_ids() == {3, 8}
        metrics = RunMetrics()
        coord.at_barrier(5, world, backend, metrics)
        th.join(timeout=10.0)
        assert not th.is_alive()
    finally:
        srv.close()
    assert "wrapper 0 terminated: no newline within the 65536-byte line" \
        " limit" in capsys.readouterr().err
    assert handle.state == FAILED and metrics.level1.failures == 1
    assert coord.active == {} and coord.frozen_ids() == set()
    assert backend.entity_count() == 12
    assert backend.extract([3, 8]) == before
    assert handle.channel.sock.fileno() == -1  # closed, not leaked


# --- conservation checks with a scripted fake wrapper --------------------


def _script_channel(script):
    """A LineChannel that plays back a canned wrapper dialogue of
    (kind, step, fields) records and writes what L0 sends to nowhere."""
    wire = b"".join(encode_record(kind, step, **fields)
                    for kind, step, fields in script)
    return LineChannel(io.BytesIO(wire), io.BytesIO(), transcript=[])


class _RestoreLog:
    def __init__(self):
        self.restored = []

    def restore(self, records):
        self.restored.append(tuple(records))


_R0 = EntityRecord(1, "mobile", 5.0, 6.0, None, 1.5, (3,), 4)
_R1 = EntityRecord(2, "static", 7.0, 8.0, None, 0.0, (), 0)


def _wire(rec):
    return {k: format_value(v) for k, v in entity_fields(rec).items()}


def _result(n, draws=0, **over):
    f = dict(entities=str(n), rng_draws=str(draws), emissions="0.0",
             customers="0", arrived="0", msgs="0", routes="0",
             fine_steps="0")
    f.update({k: str(v) for k, v in over.items()})
    return f


def _ended_handle(script, records=(_R0, _R1)):
    h = WrapperHandle(3, 5, records, _script_channel(script))
    h.state = RUNNING_L1B
    h.end_sent_at = 5
    return h


def test_reintegrate_detects_missing_and_extra():
    wrong = _R1._replace(entity_id=9)
    h = _ended_handle([("RESULT", 5, _result(2)),
                       ("ENTITY", 5, _wire(_R0)),
                       ("ENTITY", 5, _wire(wrong)),
                       ("BYE", 5, {})])
    with pytest.raises(ConservationError, match=r"missing \[2\].*unexpected \[9\]"):
        reintegrate(_RestoreLog(), h, World(100.0, 10))


def test_reintegrate_detects_count_mismatch():
    h = _ended_handle([("RESULT", 5, _result(1)),
                       ("ENTITY", 5, _wire(_R0)),
                       ("BYE", 5, {})])
    with pytest.raises(ConservationError, match="returned 1"):
        reintegrate(_RestoreLog(), h, World(100.0, 10))


def test_reintegrate_detects_field_corruption():
    tampered = _R0._replace(speed=99.0)
    h = _ended_handle([("RESULT", 5, _result(2)),
                       ("ENTITY", 5, _wire(tampered)),
                       ("ENTITY", 5, _wire(_R1)),
                       ("BYE", 5, {})])
    with pytest.raises(ConservationError, match="entity 1.*altered"):
        reintegrate(_RestoreLog(), h, World(100.0, 10))


def test_reintegrate_detects_cursor_regression():
    rewound = _R0._replace(cursor=2)  # snapshot had 4
    h = _ended_handle([("RESULT", 5, _result(2)),
                       ("ENTITY", 5, _wire(rewound)),
                       ("ENTITY", 5, _wire(_R1)),
                       ("BYE", 5, {})])
    with pytest.raises(ConservationError, match="cursor moved backwards"):
        reintegrate(_RestoreLog(), h, World(100.0, 10))


def test_reintegrate_detects_draw_miscount():
    moved = _R0._replace(cursor=10)  # +6 draws, RESULT claims 4
    h = _ended_handle([("RESULT", 5, _result(2, draws=4)),
                       ("ENTITY", 5, _wire(moved)),
                       ("ENTITY", 5, _wire(_R1)),
                       ("BYE", 5, {})])
    with pytest.raises(ConservationError, match="draw accounting"):
        reintegrate(_RestoreLog(), h, World(100.0, 10))


def test_reintegrate_accepts_position_and_cursor_changes():
    moved = _R0._replace(x=50.0, y=60.0, cursor=6)
    h = _ended_handle([("RESULT", 5, _result(2, draws=2)),
                       ("ENTITY", 5, _wire(moved)),
                       ("ENTITY", 5, _wire(_R1)),
                       ("BYE", 5, {})])
    log = _RestoreLog()
    world = World(100.0, 10)
    reintegrate(log, h, world)
    assert log.restored == [(moved, _R1)]
    assert world.position(1) == (50.0, 60.0)
    assert h.state == DONE


_TOTALS = ("emissions", "customers", "arrived", "msgs", "routes",
           "fine_steps")


def _terminated_once(result=None, bye_step=6):
    """Wrapper 0, holding entities 4 and 6, answers the barrier at step 6
    with STATUS, then RESULT (_result(2) unless given), both ENTITY
    records unchanged and BYE for bye_step, and must end alone: its
    entities restored once, from the snapshot, and Level1Totals counting
    only the failure. Returns the cause it was terminated for."""
    config, spec, backend, world = _bench()
    records = tuple(backend.extract([4, 6]))
    handle = WrapperHandle(0, 5, records, _script_channel(
        [("STATUS", 6, {}), ("RESULT", 6, result or _result(2)),
         *(("ENTITY", 6, _wire(r)) for r in records),
         ("BYE", bye_step, {})]))
    coord = HybridCoordinator(HybridSpec(policy=FixedDurationPolicy(1)),
                              config, spec)
    coord.active[0] = handle
    restored = []
    restore = backend.restore
    backend.restore = lambda recs: restored.append(tuple(recs)) or restore(
        recs)
    metrics = RunMetrics()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        coord.at_barrier(6, world, backend, metrics)
    assert restored == [records]
    assert backend.entity_count() == 12 and coord.active == {}
    assert handle.state == FAILED
    assert metrics.level1 == Level1Totals(failures=1)
    return err.getvalue().split("wrapper 0 terminated: ")[1]


@pytest.mark.parametrize("value", [None, "abc", "nan", "-5"])
@pytest.mark.parametrize("name", _TOTALS)
def test_bad_result_total_terminates_only_its_wrapper(name, value):
    """A RESULT total that is dropped (None), unreadable or out of range
    ends only its wrapper, and the cause names the field."""
    result = _result(2)
    if value is None:
        del result[name]
    else:
        result[name] = value
    cause = _terminated_once(result=result)
    assert repr(name) in cause or f"RESULT {name} = " in cause


def test_bye_for_another_step_terminates_only_its_wrapper():
    """BYE must carry the END's step, like RESULT and every ENTITY
    before it; one that does not ends only its wrapper."""
    assert _terminated_once(bye_step=9) == (
        "BYE for step 9 while at step 6\n")


# --- the coordinator loop ------------------------------------------------


def test_coordinator_full_cycle_with_scripted_trigger():
    config, spec, backend, world = _bench()
    hs = HybridSpec(trigger=ScriptedTrigger(spawn_at=(4,), transfer_count=2),
                    policy=FixedDurationPolicy(1))
    coord = HybridCoordinator(hs, config, spec)
    metrics = RunMetrics()
    coord.at_barrier(4, world, backend, metrics)
    assert sorted(coord.active) == [0]
    assert coord.frozen_ids() == {0, 1}
    assert backend.entity_count() == 10
    assert metrics.level1.spawns == 1
    assert metrics.level1.entities_transferred == 2
    coord.at_barrier(5, world, backend, metrics)
    assert coord.active == {} and coord.frozen_ids() == set()
    assert backend.entity_count() == 12
    [transcript] = coord.finish()  # no active wrappers: clean
    assert transcript["wrapper_id"] == 0 and transcript["spawned_at"] == 4
    assert transcript["state"] == DONE
    assert transcript["lines"] == coord.history[0].transcript
    assert [h.state for h in coord.history] == [DONE]


def test_coordinator_force_end_overrides_policy():
    config, spec, backend, world = _bench()
    hs = HybridSpec(trigger=ScriptedTrigger(spawn_at=(2,), transfer_count=3),
                    policy=FixedDurationPolicy(99))
    coord = HybridCoordinator(hs, config, spec)
    metrics = RunMetrics()
    coord.at_barrier(2, world, backend, metrics)
    assert len(coord.active) == 1
    coord.at_barrier(3, world, backend, metrics, force_end=True)
    assert coord.active == {} and coord.frozen_ids() == set()
    assert backend.entity_count() == 12
    # force_end also suppresses new spawns
    hs2 = HybridSpec(trigger=ScriptedTrigger(spawn_at=(9,), transfer_count=1))
    coord2 = HybridCoordinator(hs2, config, spec)
    coord2.at_barrier(9, world, backend, metrics, force_end=True)
    assert coord2.active == {}


def test_coordinator_finish_flags_active_wrappers():
    config, spec, backend, world = _bench()
    hs = HybridSpec(trigger=ScriptedTrigger(spawn_at=(1,), transfer_count=1),
                    policy=FixedDurationPolicy(50))
    coord = HybridCoordinator(hs, config, spec)
    coord.at_barrier(1, world, backend, RunMetrics())
    with pytest.raises(EngineError, match=r"wrappers still active at end of"
                       r" run: \[0\], holding entities \[0\]"):
        coord.finish()
    # clean up the live session
    coord.at_barrier(2, world, backend, RunMetrics(), force_end=True)


def test_coordinator_spawn_failure_is_soft():
    config, spec, backend, world = _bench()
    hs = HybridSpec(trigger=ScriptedTrigger(spawn_at=(3,), transfer_count=2),
                    endpoint="127.0.0.1:1", io_timeout=5.0)
    coord = HybridCoordinator(hs, config, spec)
    metrics = RunMetrics()
    coord.at_barrier(3, world, backend, metrics)
    assert coord.active == {} and coord.frozen_ids() == set()
    assert backend.entity_count() == 12  # entities put back
    assert metrics.level1.failures == 1
    assert metrics.level1.spawns == 0
    assert coord._next_id == 1  # the failed id is burned, not reused


def test_coordinator_terminates_protocol_breaker_and_continues():
    config, spec, backend, world = _bench()
    coord = HybridCoordinator(HybridSpec(), config, spec)
    records = tuple(backend.extract([4, 6]))
    # a wrapper that sends STATUS for the wrong step
    bad = WrapperHandle(0, 5, records,
                        _script_channel([("STATUS", 99, {"querying": "0"})]))
    bad.state = RUNNING_L1B
    coord.active[0] = bad
    assert coord.frozen_ids() == {4, 6}
    metrics = RunMetrics()
    coord.at_barrier(6, world, backend, metrics)
    assert coord.active == {} and coord.frozen_ids() == set()
    assert bad.state == FAILED
    assert metrics.level1.failures == 1
    assert backend.entity_count() == 12  # snapshot restored
    assert coord.finish() == []  # a handle put in by hand has no history


def test_concurrent_sessions_commute():
    # two independent sessions serviced in either order must leave the
    # same entity state and totals behind
    def run(order):
        config, spec, backend, world = _bench()
        metrics = RunMetrics()
        handles = {
            0: spawn_level1(backend, [0, 1], 2, HybridSpec(),
                            config.master_seed, spec.side, 0),
            1: spawn_level1(backend, [2, 3], 2, HybridSpec(),
                            config.master_seed, spec.side, 1),
        }
        for wid in order:
            coordinate_step(handles[wid], 3, FixedDurationPolicy(1))
            reintegrate(backend, handles[wid], world, metrics)
        state = backend.extract([0, 1, 2, 3])
        return (state, metrics.level1.fine_steps, metrics.level1.customers,
                metrics.level1.emissions_g)

    assert run((0, 1)) == run((1, 0))


def test_aborted_run_closes_every_active_wrapper(monkeypatch, capsys):
    # two wrappers spawned at once; wrapper 0 (entities 0 and 1) claims
    # one draw more in RESULT than its cursors show, which aborts the
    # run while wrapper 1's session still waits for its answer
    sessions = []
    session = wrapper.session

    def tracked(ch):
        sessions.append(session(ch))
        return sessions[-1]

    monkeypatch.setattr(wrapper, "session", tracked)
    total_draws = market.MarketRun.total_draws

    def miscounted(run):
        lies = any(rec.entity_id == 0 for rec in run.records)
        return total_draws(run) + (1 if lies else 0)

    monkeypatch.setattr(market.MarketRun, "total_draws", miscounted)
    handles = []
    spawn = coordination.spawn_level1

    def recording(*args):
        handles.append(spawn(*args))
        return handles[-1]

    monkeypatch.setattr(coordination, "spawn_level1", recording)
    hybrid = HybridSpec(trigger=ScriptedTrigger(spawn_at=(2, 2),
                                                transfer_count=2),
                        policy=FixedDurationPolicy(1))
    with pytest.raises(ConservationError, match="wrapper 0 draw accounting"):
        run_simulation(EngineConfig(num_lps=1, total_timesteps=6,
                                    master_seed=7),
                       TerritorySpec(num_entities=12), hybrid=hybrid)
    assert [h.entity_ids for h in handles] == [(0, 1), (2, 3)]
    for h in handles:
        with pytest.raises(ProtocolError, match="send failed"):
            h.channel.send("CONTINUE", 3)
    # wrapper 0's session ran to BYE; wrapper 1's, suspended waiting for
    # CONTINUE or END, was closed with the run, and neither said a word
    assert len(sessions) == 2
    assert all(s.gi_frame is None for s in sessions)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("ready", [False, True], ids=["init", "continue"])
def test_local_session_crash_names_its_cause_and_restores(ready,
                                                          monkeypatch,
                                                          capsys):
    """A local session that raises something other than a ProtocolError
    (a market or vehicle model fault) ends as a ProtocolError naming it:
    before READY as WrapperFailure, later by termination. Either way the
    entities come back bit-exact and the next barrier runs."""
    def crash(*args):
        raise RuntimeError("model fault")

    if ready:
        monkeypatch.setattr(market.MarketRun, "advance", crash)
    else:
        monkeypatch.setattr(wrapper, "simulate_arrivals", crash)
    config, spec, backend, world = _bench()
    before = backend.extract([0, 1, 2])
    backend.restore(before)
    hs = HybridSpec(trigger=ScriptedTrigger(spawn_at=(2,), transfer_count=3),
                    policy=FixedDurationPolicy(5))
    coord = HybridCoordinator(hs, config, spec)
    metrics = RunMetrics()
    for t in (2, 3, 4, 5):
        coord.at_barrier(t, world, backend, metrics)
    cause = "wrapper session crashed: RuntimeError('model fault')"
    [line] = capsys.readouterr().err.splitlines()
    if ready:
        assert line == f"wrapper 0 terminated: {cause}"
        assert [h.state for h in coord.history] == [FAILED]
        assert metrics.level1.spawns == 1
    else:
        assert line == ("wrapper 0 failed to start on local wrapper: "
                        + cause)
        assert coord.history == [] and metrics.level1.spawns == 0
    assert metrics.level1.failures == 1
    assert coord.active == {} and coord.frozen_ids() == set()
    assert backend.entity_count() == 12
    assert backend.extract([0, 1, 2]) == before


def test_coordinator_close_closes_suspended_local_sessions(monkeypatch):
    sessions = []
    session = wrapper.session

    def tracked(ch):
        sessions.append(session(ch))
        return sessions[-1]

    monkeypatch.setattr(wrapper, "session", tracked)
    config, spec, backend, world = _bench()
    hs = HybridSpec(trigger=ScriptedTrigger(spawn_at=(1, 1),
                                            transfer_count=2),
                    policy=FixedDurationPolicy(9))
    coord = HybridCoordinator(hs, config, spec)
    coord.at_barrier(1, world, backend, RunMetrics())
    coord.at_barrier(2, world, backend, RunMetrics())
    assert len(sessions) == 2
    assert all(s.gi_frame is not None for s in sessions)  # suspended
    coord.close()
    assert all(s.gi_frame is None for s in sessions)
