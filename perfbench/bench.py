"""Measurement and reporting for one invocation of the benchmark.

Imported by run.py once ``hybridsim`` is importable from the checkout.
An invocation checks the workload once (reference run, goldens), then
repeats the whole workload until the given seconds have passed,
checking every run's outputs, with a batch of set-up-only probes before
each run. In trace mode one more run is made with the layer tracer in
place.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy
from hybridsim import engine

import checks
import layertrace
from probes import RunClock, SetupDone, patched
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 60  # at least, in batches of SETUP_BATCH
SETUP_BATCH = 12
MIN_RUNS = 2  # a flood_lp2 run can take most of a 15 s window
MIN_REACH_SAMPLES = 20


def digest(m) -> str:
    blob = json.dumps(m.comparable(), sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def measure(wl, seed: int) -> dict:
    """One timed run of the workload, untraced, with its checks."""
    clock = RunClock()
    gc.collect()  # every run starts from the same heap, outside the clock
    try:
        with patched(clock.probes()):
            t_call = time.perf_counter()
            m = wl.run(seed)
            t_ret = time.perf_counter()
    except Exception as exc:  # a failed run is counted, the loop goes on
        return {"error": f"{type(exc).__name__}: {exc}"}
    first = clock.steps[0]
    return {
        "wall": t_ret - t_call,
        "setup": first - t_call,
        "steps": clock.step_durations(),
        "throughput": wl.num_entities * wl.steps / (t_ret - first),
        "rss": clock.peak_rss,
        "sessions": list(clock.session_s.values()),
        "digest": digest(m),
        "level1_failures": m.level1.failures,
        "errors": wl.check(m, clock.active_at_finish),
    }


def setup_time(wl, seed: int) -> float:
    """Seconds from the run call to its first coarse step, then abort."""
    clock = RunClock(setup_only=True)
    gc.collect()
    with patched(clock.probes()):
        t_call = time.perf_counter()
        try:
            wl.run(seed)
        except SetupDone:
            pass
    return clock.steps[0] - t_call


def preflight(wl, seed: int) -> tuple:
    """Checks made once, outside the timed region.

    Returns (expected digest or None, errors). A multi-LP workload is
    run once at 1 LP in-process; that run's digest is what every timed
    run must reproduce, and sampled broadcasts of it are routed to the
    receivers a plain torus scan finds.
    """
    if wl.transfer_count:
        return None, checks.conformance()
    if wl.num_lps == 1:
        return None, []
    sampler = checks.ReachSampler(engine.route_broadcasts)
    clock = RunClock()
    with patched(clock.probes() + [(engine, "route_broadcasts", sampler)]):
        m = wl.run(seed, num_lps=1, mode="inprocess")
    errs = wl.check(m, clock.active_at_finish) + sampler.errors
    if sampler.compared < MIN_REACH_SAMPLES:
        errs.append(f"only {sampler.compared} broadcasts compared with the"
                    f" torus scan, need {MIN_REACH_SAMPLES}")
    return digest(m), errs


def traced_run(wl, seed: int, untraced_wall: float) -> tuple:
    """One run under the layer tracer; returns (rep, metrics, table)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for stale in OUT_DIR.glob("worker-*.json"):  # left by an aborted run
        stale.unlink()
    tracer = layertrace.Tracer(str(OUT_DIR))
    print("tracer cost per call, taken out of the layer figures: "
          + ", ".join(f"{k} {v * 1e6:.3f} us" for k, v in tracer.cost.items()))
    clock = RunClock()
    with patched(clock.probes()), patched(tracer.probes()):
        m = wl.run(seed)
    errs = wl.check(m, clock.active_at_finish)
    workers = tracer.collect_workers()
    if wl.mode == "process" and workers != wl.num_lps:
        errs.append(f"spans of {workers} of {wl.num_lps} workers collected")
    spans = tracer.write_spans(
        str(OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"))
    print(f"trace: {spans} spans written to perfbench/out/")
    metrics, table = layertrace.summarize(tracer.states, m.totals,
                                          untraced_wall)
    rep = {"digest": digest(m), "level1_failures": m.level1.failures,
           "errors": errs}
    return rep, metrics, table


def end_to_end(setups, ok) -> dict:
    """End-to-end metrics from the set-up probes and the completed runs."""
    steps = [s for r in ok for s in r["steps"]]
    return {
        # the lower quartile: set-up is short, and the host slows some
        # probes by half again; the fast quarter shows the program's cost
        "setup_s": quantile(setups + [r["setup"] for r in ok], 0.25),
        "entity_steps_per_s": statistics.median(r["throughput"] for r in ok),
        "step_ms_p50": 1e3 * quantile(steps, 0.50),
        "step_ms_p95": 1e3 * quantile(steps, 0.95),
        "peak_rss_mib": statistics.median(r["rss"] for r in ok) / 2**20,
    }


def print_table(table) -> None:
    threads = sorted({t for _, t in table})
    print("self seconds by layer and thread (main is the coarse thread):")
    print("  " + f"{'layer':<14}" + "".join(f"{t:>11}" for t in threads))
    for layer in sorted({layer for layer, _ in table}):
        cells = "".join(f"{table.get((layer, t), 0.0):11.3f}"
                        for t in threads)
        print(f"  {layer:<14}{cells}")


def run(args) -> int:
    """One invocation; returns the exit code."""
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known:"
              f" {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    units = {spec["name"]: spec["unit"]
             for spec in declared["end_to_end"] + declared["per_layer"]}
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    seed = args.seed
    print(f"host: {len(os.sched_getaffinity(0))} usable cores,"
          f" python {platform.python_version()}, numpy {numpy.__version__}")
    print(f"workload {wl.name}: {wl.num_entities} entities x {wl.steps}"
          f" steps, {wl.preset} preset, {wl.num_lps} LP {wl.mode},"
          f" {len(wl.spawn_at)} hand-offs of {wl.transfer_count}, seed {seed}")

    expected, errors = preflight(wl, seed)
    # set-up probes go in batches between the timed runs, so that they
    # see the same slow and fast spells of the host as the runs do; the
    # runs alone fill the --seconds window
    setups = []
    reps = []
    timed = 0.0
    while len(reps) < MIN_RUNS or timed < args.seconds:
        setups += [setup_time(wl, seed) for _ in range(SETUP_BATCH)]
        start = time.perf_counter()
        reps.append(measure(wl, seed))
        timed += time.perf_counter() - start
    while len(setups) < SETUP_PROBES:
        setups += [setup_time(wl, seed) for _ in range(SETUP_BATCH)]
    walls = [r["wall"] for r in reps if "error" not in r]

    if args.trace:
        rep, layer_metrics, table = traced_run(
            wl, seed, statistics.median(walls) if walls else float("nan"))
        reps.append(rep)

    attempted = failed = 0
    ok = []  # completed untraced runs with the expected digest
    for i, r in enumerate(reps, 1):
        attempted += wl.ops_per_run
        if "error" in r:
            failed += wl.ops_per_run
            print(f"run {i}: FAILED {r['error']}")
            continue
        if expected is None:
            expected = r["digest"]
        if r["digest"] != expected:
            failed += wl.ops_per_run
            print(f"run {i}: digest {r['digest']} differs from {expected}")
            continue
        failed += r["level1_failures"]
        errors += [f"run {i}: {e}" for e in r["errors"]]
        if "steps" in r:
            ok.append(r)
        wall = f"wall {r['wall']:.3f} s, " if "wall" in r else "traced, "
        print(f"run {i}: {wall}comparable() sha256 {r['digest']}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    correct = not errors
    print(f"checks: {'all passed' if correct else f'{len(errors)} failed'};"
          f" {attempted} operations attempted, {failed} failed")

    if not ok:
        print("perfbench: no run completed", file=sys.stderr)
        return 1
    values = end_to_end(setups, ok)
    n_steps = sum(len(r["steps"]) for r in ok)
    print(f"samples: {len(setups) + len(ok)} set-ups, {len(ok)} timed runs,"
          f" {n_steps} coarse steps ({n_steps // 20} beyond p95)")
    if args.trace:
        sessions = [s for r in ok for s in r["sessions"]]
        layer_metrics["coordination.session_ms_p50"] = (
            1e3 * statistics.median(sessions) if sessions else 0.0)
        print_table(table)
        values.update(layer_metrics)

    for name, v in values.items():
        print(f"{name} = {v:.6g} {units[name]}")
    metrics = {spec["name"]: {"value": values[spec["name"]],
                              "unit": spec["unit"]} for spec in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
