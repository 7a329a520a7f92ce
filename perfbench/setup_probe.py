"""One set-up of a workload in a fresh interpreter, timed.

    python3 perfbench/setup_probe.py <workload> <population> <limit, 0 for all>

Imports capnet from the checkout's src/, generates the workload's
population and solves the warm-up instance, then prints the seconds that
took, in wall time and scaled to reference host speed (hostspeed.py).
run.py starts it several times and reports the median of the scaled
times as setup_s.
"""

import sys

from hostspeed import Meter
from workloads import WORKLOADS, import_capnet, population, warm_up


def main():
    name, number, limit = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]) or None
    workload = WORKLOADS[name]
    meter = Meter()
    with meter:
        capnet = import_capnet()
        population(capnet, workload, number, limit)
        warm_up(capnet, workload)
    print(meter.wall, meter.scaled)


if __name__ == "__main__":
    main()
