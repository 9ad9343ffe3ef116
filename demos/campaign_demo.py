"""Small factorial campaign: two populations x two presets, three
repetitions each, results written as CSV next to this script."""

import os

from hybridsim import RunSettings, emit_results, run_campaign


def main():
    settings = RunSettings(
        ses=(500, 1000),
        lps=(1,),
        preset=("good", "bad"),
        repetitions=3,
        seed=400,  # repetition rep runs with seed 400 + rep
        steps=150,
    )
    result = run_campaign(settings, log=lambda msg: print("  " + msg))

    print()
    for cell in result.cells:
        mean, sd = cell.stats()["delivered"]
        print(f"ses={cell.key.ses} preset={cell.key.preset}:"
              f" delivered {mean:.0f} +- {sd:.0f}"
              f" over {len(cell.rows)} reps")
        for rep, seed, msg in cell.errors:
            print(f"  rep {rep} (seed {seed}) failed: {msg}")

    out = os.path.join(os.path.dirname(__file__), "campaign_out")
    detail, summary = emit_results(result, out)
    print(f"\nwrote {detail}")
    print(f"wrote {summary}")


if __name__ == "__main__":
    main()
