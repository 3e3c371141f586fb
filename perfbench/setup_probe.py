"""Times one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> [--tiny]

Set-up is everything before the first timed operation: importing the
program, building the apps and generating the plans.  Calibration
slices before and after it give the host's speed (see ``speed.py``).
Prints one JSON object: ``{"setup_s": reference seconds, "raw_s":
wall seconds}``.
"""

import json
import pathlib
import sys
import time

import speed

#: Calibration slices on each side of the set-up.
SLICES = 10


def main() -> None:
    slices = [speed.calibration_slice() for _ in range(SLICES)]
    started = time.perf_counter()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    import workloads

    # Set-up runs no slices, so the probe's spool is never written.
    probe = speed.SpeedProbe(pathlib.Path(__file__).resolve().parent)
    workloads.setup(sys.argv[1], int(sys.argv[2]), probe=probe, tiny="--tiny" in sys.argv[3:])
    raw = time.perf_counter() - started
    slices += [speed.calibration_slice() for _ in range(SLICES)]
    print(json.dumps({"setup_s": raw / speed.speed_factor(slices), "raw_s": raw}))


if __name__ == "__main__":
    main()
