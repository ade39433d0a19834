"""A 90-day sliding-window KPI dashboard.

The paper assumes static dimension sizes; production dashboards keep a
rolling window ("the past three months") and must expire old days while
absorbing new ones every midnight. This example drives
:class:`~repro.ingest.rolling.RollingCubeService` over an in-memory
:class:`~repro.serve.CubeService` through half a year of simulated
days, printing trailing-window KPIs as the window slides — all queries
stay O(1) per call on the circular time axis.

Run:  python examples/rolling_dashboard.py
"""

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.ingest.rolling import RollingCubeService
from repro.serve import CubeService

WINDOW = 90       # keep the last 90 days
BUCKETS = 50      # customer age buckets
SIMULATED_DAYS = 180


def main():
    rng = np.random.default_rng(33)
    print(f"sliding dashboard: {WINDOW}-day window over {BUCKETS} buckets\n")

    checkpoints = {29, 89, 119, 179}
    daily_totals = {}
    with CubeService(
        RelativePrefixSumCube,
        np.zeros((WINDOW, BUCKETS)),
        method_kwargs={"box_size": (10, 7)},
    ) as service:
        window = RollingCubeService(service)
        for day in range(SIMULATED_DAYS):
            # a day's sales, one atomic group: volume drifts upward over
            # the half year, and a new day advances the window first
            sales = []
            for _ in range(int(rng.integers(20, 40)) + day // 4):
                bucket = int(
                    np.clip(rng.normal(BUCKETS / 2, 12), 0, BUCKETS - 1)
                )
                sales.append(((day, bucket), float(rng.lognormal(3.0, 0.4))))
            window.submit_slot_batch(sales)
            daily_totals[day] = sum(amount for _, amount in sales)

            if day in checkpoints:
                first = window.oldest_slot
                expected = sum(
                    daily_totals[d] for d in range(first, day + 1)
                )
                window_total = window.window_sum(first, day)
                assert abs(window_total - expected) < 1e-6, "window drifted!"
                week = window.trailing_sum(7)
                month = window.trailing_sum(30)
                print(
                    f"day {day:>3}: window [{first:>3}..{day:>3}]  "
                    f"7d {week:>10.2f}  30d {month:>10.2f}  "
                    f"{WINDOW}d {window_total:>11.2f}"
                )

        # After 180 days the window holds exactly the last 90; day 0-89
        # data has been expired by slice reuse, not by any
        # rebuild-the-world step.
        first = window.oldest_slot
    assert first == SIMULATED_DAYS - WINDOW
    print(
        f"\nafter {SIMULATED_DAYS} days the window holds days "
        f"[{first}..{SIMULATED_DAYS - 1}]; everything older was expired "
        f"in-place on the circular axis"
    )
    print("rolling dashboard example OK")


if __name__ == "__main__":
    main()
