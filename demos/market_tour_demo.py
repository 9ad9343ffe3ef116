"""Walk a handful of pedestrians through the market scene at fine
resolution: route queries first, then the walk to the stall.
"""

from hybridsim.market import MarketParams, MarketRun, MarketScene
from hybridsim.territory import EntityRecord


def main():
    scene = MarketScene(MarketParams())
    n = 6
    records = [EntityRecord(i, "mobile", 0.0, 0.0, None, 0.0, (), 0)
               for i in range(n)]
    run = MarketRun(scene, records, n, master_seed=99)

    print(f"{scene.num_sellers} sellers on a {scene.params.grid_side}x"
          f"{scene.params.grid_side} grid, spacing {scene.params.spacing},"
          f" radio range {scene.params.radio_range}")
    print(f"{n} pedestrians enter at the perimeter\n")

    print(f"{'fine step':>9} {'querying':>9} {'walking':>8}"
          f" {'arrived':>8} {'messages':>9}")
    last = None
    while (st := run.status())["arrived"] < n:
        row = (st["querying"], st["walking"], st["arrived"], st["msgs"])
        if row != last:
            print(f"{run.fine_clock:>9} {row[0]:>9} {row[1]:>8}"
                  f" {row[2]:>8} {row[3]:>9}")
            last = row
        run.fine_step()
        if run.fine_clock > 2000:  # safety net, never hit in practice
            print("giving up")
            break

    print(f"\nall arrived at fine step {run.fine_clock}")
    print(f"{run.route_discoveries} route discoveries,"
          f" {run.messages} messages total")
    for p in run.peds:
        print(f"  pedestrian {p.entity_id}: seller {p.target_seller},"
              f" route {p.route_hops} hops, entry"
              f" ({p.entry_x:.1f}, {p.entry_y:.1f})")


if __name__ == "__main__":
    main()
