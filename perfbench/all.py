"""Runs every workload untraced, then traced.

    python3 perfbench/all.py [--seed N] [--seconds S]

Each run is ``run.py`` in its own interpreter; their output is passed
through.  Exit status is 0 only when every run was correct.
"""

import argparse
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, check=False,
            )
            status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
