"""Correctness checks on the outputs of a benchmark run.

Each check returns a list of failure messages, empty when the output is
right. Expected values come from the parameters and from computations
made here, apart from the library: the gossip bounds from the model's
geometry, receivers from a pure-Python torus scan, wire fields from a
plain split of the transcript lines. None of them is a stored copy of a
counter.
"""

from __future__ import annotations

import math
from urllib.parse import unquote

from hybridsim.metrics import DROP_REASONS, StepReport
from hybridsim.protocol import decode_record, encode_record
from hybridsim.territory import DENSITY_AREA_PER_ENTITY

GENERATION_SIGMAS = 5.0  # a false alarm is then rarer than 1 in 10^6 runs


def accounting(m) -> list:
    """Per-step reports sum to the totals; routed and delivered balance.

    ``RunMetrics.check_accounting`` asserts the two balances too, and
    the engine refuses to return with entities frozen; this copy is kept
    on purpose, so the benchmark's verdict does not rest on the
    program's own assertions, which a change could weaken or drop.
    """
    errs = []
    if len(m.per_step) != m.total_timesteps:
        errs.append(f"{len(m.per_step)} step reports for"
                    f" {m.total_timesteps} steps")
    summed = StepReport()
    for r in m.per_step:
        summed.merge(r)
    if summed != m.totals:
        errs.append(f"per-step reports sum to {summed.as_dict()},"
                    f" totals are {m.totals.as_dict()}")
    if sum(m.routed_per_step) != m.routed:
        errs.append(f"per-step routed sums to {sum(m.routed_per_step)},"
                    f" total routed is {m.routed}")
    t = m.totals
    if m.routed != t.delivered + m.frozen_drops:
        errs.append(f"routed {m.routed} != delivered {t.delivered}"
                    f" + frozen drops {m.frozen_drops}")
    drops = sum(getattr(t, r) for r in DROP_REASONS)
    if t.delivered != t.relayed + drops:
        errs.append(f"delivered {t.delivered} != relayed {t.relayed}"
                    f" + drops {drops}")
    return errs


def invariants(m, params) -> list:
    """The dissemination bounds the parameters impose on the monitor."""
    mon = m.monitor
    errs = []
    if mon.max_delivered_hop > params.ttl:
        errs.append(f"hop {mon.max_delivered_hop} > ttl {params.ttl}")
    if m.totals.relayed:
        if not (params.forwarding_threshold < mon.relay_ring_min
                and mon.relay_ring_max <= params.interaction_range):
            errs.append(f"relay ring [{mon.relay_ring_min},"
                        f" {mon.relay_ring_max}] outside"
                        f" ({params.forwarding_threshold},"
                        f" {params.interaction_range}]")
        if mon.relay_origin_max > params.geofilter_distance:
            errs.append(f"relay origin {mon.relay_origin_max} >"
                        f" geofence {params.geofilter_distance}")
    if mon.max_relays_entity_step > params.max_relays_per_step:
        errs.append(f"{mon.max_relays_entity_step} relays in one entity"
                    f" step > budget {params.max_relays_per_step}")
    if mon.cache_high_water > params.cache_capacity:
        errs.append(f"cache high water {mon.cache_high_water} > capacity"
                    f" {params.cache_capacity}")
    return errs


def subcritical_ceiling(params) -> float:
    """R / (1 - m): expected deliveries per message of the branching
    process, R receivers per broadcast and m relays per broadcast."""
    r, f = params.interaction_range, params.forwarding_threshold
    receivers = math.pi * r * r / DENSITY_AREA_PER_ENTITY
    m = receivers * (1.0 - (f / r) ** 2) * params.gossip_probability
    if m >= 1.0:
        raise ValueError(f"parameters are supercritical (m={m:.3f})")
    return receivers / (1.0 - m)


def subcritical(m, params) -> list:
    t = m.totals
    if t.generated == 0:
        return ["no message generated"]
    ceiling = subcritical_ceiling(params)
    per_msg = t.delivered / t.generated
    if per_msg > ceiling:
        return [f"delivered per generated message {per_msg:.2f} above the"
                f" subcritical ceiling {ceiling:.2f}"]
    return []


def generation(m, params, num_entities: int, steps: int) -> list:
    """Generated messages lie near the binomial mean N*T*p."""
    trials = num_entities * steps
    p = params.generation_probability
    mean = trials * p
    sd = math.sqrt(trials * p * (1.0 - p))
    if abs(m.totals.generated - mean) > GENERATION_SIGMAS * sd:
        return [f"generated {m.totals.generated}, binomial mean {mean:.1f}"
                f" +- {GENERATION_SIGMAS:g} sd ({sd:.1f})"]
    return []


def brute_reach(xs, ys, side: float, sx: float, sy: float, r: float,
                exclude: int) -> list:
    """Ids within toroidal range of (sx, sy), by a plain scan."""
    rr = r * r
    out = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if i == exclude:
            continue
        dx = abs(x - sx)
        dx = min(dx, side - dx)
        dy = abs(y - sy)
        dy = min(dy, side - dy)
        if dx * dx + dy * dy <= rr:
            out.append(i)
    return out


class ReachSampler:
    """Wraps route_broadcasts to compare sampled broadcasts' receivers
    with ``brute_reach`` over the same position table."""

    EVERY_STEPS = 10
    PER_STEP = 4

    def __init__(self, orig):
        self.orig = orig
        self.compared = 0
        self.errors = []

    def __call__(self, world, broadcasts, interaction_range, t, frozen,
                 owner_of):
        result = self.orig(world, broadcasts, interaction_range, t, frozen,
                           owner_of)
        if t % self.EVERY_STEPS or not broadcasts:
            return result
        got = {}
        for envs in result[0].values():
            for env in envs:
                key = (env.sender, env.message.message_id)
                got.setdefault(key, []).append(env.dest)
        keys = [(b.sender, b.message.message_id) for b in broadcasts]
        xs, ys = world.pos_x.tolist(), world.pos_y.tolist()
        stride = max(1, len(broadcasts) // self.PER_STEP)
        for b in broadcasts[::stride][:self.PER_STEP]:
            key = (b.sender, b.message.message_id)
            if keys.count(key) != 1:
                continue  # same message twice from one sender: ambiguous
            want = [i for i in brute_reach(xs, ys, world.side, b.sender_x,
                                           b.sender_y, interaction_range,
                                           b.sender)
                    if i not in frozen]
            have = sorted(got.get(key, []))
            self.compared += 1
            if have != want:
                self.errors.append(
                    f"step {t} sender {b.sender}: routed to {len(have)}"
                    f" receivers, torus scan finds {len(want)}")
        return result


def _fields(line: str) -> tuple:
    """(kind, {key: value}) of one transcript line, by plain splitting."""
    parts = line[2:].split(" ")
    return parts[0], {k: unquote(v)
                      for k, v in (p.split("=", 1) for p in parts[1:])}


def sessions(m, level1, spawn_at, transfer_count: int) -> list:
    """Hand-off totals and every session's RESULT against the schedule
    and the transport model's emission interval."""
    lv = m.level1
    errs = []
    firings = len(spawn_at)
    cap = level1.parking_capacity
    expect = {
        "spawns": firings,
        "entities_transferred": firings * transfer_count,
        "customers": firings * min(transfer_count, cap),
    }
    for name, want in expect.items():
        if getattr(lv, name) != want:
            errs.append(f"level1.{name} = {getattr(lv, name)}, expected"
                        f" {want}")
    if lv.arrived != lv.customers:
        errs.append(f"{lv.arrived} of {lv.customers} customers arrived")
    if len(m.wrapper_transcripts) != firings:
        errs.append(f"{len(m.wrapper_transcripts)} transcripts for"
                    f" {firings} firings")
    fixed = (level1.mean_cruise_time * level1.cruise_rate
             + level1.mean_search_time * level1.search_rate)
    for tr in m.wrapper_transcripts:
        wid = tr["wrapper_id"]
        results = [f for kind, f in map(_fields, tr["lines"])
                   if kind == "RESULT"]
        if len(results) != 1:
            errs.append(f"wrapper {wid}: {len(results)} RESULT records")
            continue
        res = results[0]
        n = int(res["entities"])
        customers = int(res["customers"])
        if customers != min(n, cap):
            errs.append(f"wrapper {wid}: {customers} customers of {n}"
                        f" vehicles, capacity {cap}")
        if int(res["rng_draws"]) != 2 * customers:
            errs.append(f"wrapper {wid}: rng_draws {res['rng_draws']}"
                        f" != 2 x {customers} customers")
        idle = min(n, cap) * level1.idle_time * level1.idle_rate
        lo, hi = 0.5 * n * fixed + idle, 1.5 * n * fixed + idle
        e = float(res["emissions"])
        if not (lo * (1 - 1e-12) <= e <= hi * (1 + 1e-12)):
            errs.append(f"wrapper {wid}: emissions {e} outside"
                        f" [{lo}, {hi}]")
    return errs


def wire_round_trip(m) -> list:
    """Every transcript line decodes and re-encodes to the same bytes."""
    errs = []
    for tr in m.wrapper_transcripts:
        for line in tr["lines"]:
            raw = line[2:].encode("ascii") + b"\n"
            kind, step, fields = decode_record(raw)
            again = encode_record(kind, step, **fields)
            if again != raw:
                errs.append(f"wrapper {tr['wrapper_id']}: {raw!r} re-encodes"
                            f" as {again!r}")
    return errs


def conformance() -> list:
    """Goldens replay byte-identically, and recording them afresh (what
    ``hybridsim conformance --regenerate`` writes) gives the same files."""
    from hybridsim import conformance as conf
    errs = [f"golden {name}: {detail}"
            for name, ok, detail in conf.check_all() if not ok]
    fresh = {"session_small": conf._record_session()}
    fresh.update(conf._record_hybrid())
    for name in conf.GOLDEN_NAMES:
        if fresh.get(name) != conf.load_transcript(conf.golden_path(name)):
            errs.append(f"golden {name}: a fresh recording differs from the"
                        f" committed file")
    return errs
