"""Vehicle cohort model on its own: emissions and parking outcomes as
the cohort grows past the lot capacity."""

from hybridsim.transport import TransportParams, simulate_arrivals


def main():
    capacity = 10
    print(f"parking capacity {capacity}, stochastic phase durations\n")
    print(f"{'vehicles':>8} {'customers':>9} {'emissions g':>12}")
    for n in (0, 5, 10, 20, 40):
        r = simulate_arrivals(TransportParams(
            n_vehicles=n, parking_capacity=capacity, seed=2026))
        print(f"{n:>8} {r.customers_entering:>9} {r.total_emissions:>12.1f}")

    # a scripted cohort is exactly reproducible by hand: one vehicle
    # cruising 10 tu at 2 g/tu then idling 5 tu at 1 g/tu is 25 g
    r = simulate_arrivals(TransportParams(
        n_vehicles=1, parking_capacity=1,
        scripted_phases=(("cruise", 10.0), ("idle", 5.0))))
    print(f"\nscripted check: {r.total_emissions} g (expected 25.0)")


if __name__ == "__main__":
    main()
