"""Set-up time of one workload, measured in a fresh interpreter.

Times importing the package, then building each of the workload's specs
(block system, Pauli decomposition, cost evaluator) and running one
warm-up evaluation, as a zero-iteration ensemble member per spec, then
the calibration kernel. Prints one JSON line: {"setup_s": ..., "cal_s": ...}.

    python3 bench/setup_probe.py --workload exact-ensemble --seed 0
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports advqls)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload].setup(args.seed)
    setup_s = perf_counter() - START
    from bench import calibrate

    # same interpreter, right after: the host speed the set-up ran at
    cal_s = sorted(calibrate() for _ in range(3))[1]
    print(json.dumps({"setup_s": setup_s, "cal_s": cal_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
