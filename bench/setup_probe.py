"""One benchmark set-up in a fresh interpreter: import occmatch and write
the workload's input files. Prints the seconds that took, then the seconds
of the machine-speed kernel (speed.py) run after it.

    python3 bench/setup_probe.py <workload> <seed> <input-dir>
"""

import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed, input_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    bench = Path(__file__).resolve().parent
    t0 = time.perf_counter()
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import occmatch  # noqa: F401  (the import is what is timed)
    import workloads
    workloads.write_inputs(workload, seed, input_dir)
    setup = time.perf_counter() - t0
    import speed
    print(repr(setup), repr(speed.reference_seconds()))


if __name__ == "__main__":
    main()
