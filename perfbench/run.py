"""Benchmark entry point: one workload, one seed, timed from outside.

    python3 perfbench/run.py --workload coarse_good --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``hybridsim`` is imported from
its ``src`` directory and nowhere else. The report goes to standard
output; its last line is one JSON object with the keys correct,
attempted, failed and metrics. The metrics are the end-to-end ones of
BENCHMARK.json, or its per-layer ones with ``--trace 1``, in the units
that file gives. Exits 2 without a result when the library is missing
and 1 when a check failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_library() -> str:
    """Import hybridsim from this checkout; returns an error or ''."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hybridsim
    except ImportError as exc:
        return f"cannot import hybridsim from {src}: {exc}"
    where = Path(hybridsim.__file__).resolve().parent
    if where != src / "hybridsim":
        return f"hybridsim was imported from {where}, not from {src}"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = load_library()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import bench  # needs hybridsim on the path
    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
