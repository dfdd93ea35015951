"""fedbeam benchmark: one workload per invocation, result as the last line.

    python3 bench/run.py --workload fedavg|central|scenes --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. The
run sets up its inputs SETUP_REPEATS times, with whole rounds of the
workload's commands between the set-ups for S seconds in all, then checks
the outputs. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds and prints the
per-layer metrics. See bench/README.md.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
# The BLAS pool is sized before numpy loads, identically on every commit.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(NPROC)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["fedavg", "central", "scenes"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fedbeam", "__init__.py")):
        print(f"error: no fedbeam sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import harness  # needs the paths and BLAS settings above

    return harness.run(args, ROOT, NPROC)


if __name__ == "__main__":
    sys.exit(main())
