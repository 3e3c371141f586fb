"""Host-speed calibration, so times from a noisy shared host compare.

A shared 2-cpu host runs the same pure-Python work at speeds that
drift by 20-40% within a second: the cpu itself runs the same loop
slower or faster, with no steal time the guest can see.  Every
experiment therefore starts with one calibration slice: a fixed,
allocation-free integer loop (no garbage-collector interplay with the
program's heap).  A slice's duration over :data:`REFERENCE_SLICE_S`
is the host's speed factor at that moment.  The benchmark subtracts
the slices from its times, divides each experiment's latency by its
own slice's factor and a pass's wall time by the median factor of the
pass, so the times it reports are seconds at the reference speed.

A slice's duration is the cpu time of the thread that runs it
(``time.thread_time``), not wall time.  While the slice waits for a
cpu or for the GIL, its clock stops.  So a program change that takes
cpu from the slice's process (a busier parent on a 2-cpu fleet, a
background thread holding the GIL) makes the program slower without
making the slice slower, and the factor does not divide it out.

Slices run wherever the experiment runs, fleet workers included: a
campaign's slice runs when the recipe's deployment is deployed, and is
spooled under the deploy seed, which is the recipe's seed.  Each
process appends its slices to its own file in a spool directory that
the benchmark drains after each campaign, and pairs every recipe with
its own slice on any backend.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import statistics
import time
import typing as _t

#: Median slice cpu time on the host the benchmark was defined on
#: (2-cpu x86-64 VM, Python 3.11).  It only fixes the unit: reported
#: seconds are seconds at this speed.
REFERENCE_SLICE_S = 0.0012

#: Iterations of the calibration loop (about 1.2 ms at the reference
#: speed, 2% of a 60 ms recipe).
SLICE_ITERATIONS = 12_000


@dataclasses.dataclass(frozen=True)
class Slice:
    #: Wall seconds the slice added to the experiment that ran it.
    wall_s: float
    #: Thread cpu seconds the slice took: the host's speed.
    cpu_s: float


def calibration_slice() -> Slice:
    """Run one slice."""
    wall = time.perf_counter()
    cpu = time.thread_time()
    total = 0
    for value in range(SLICE_ITERATIONS):
        total += value * value % 7
    return Slice(time.perf_counter() - wall, time.thread_time() - cpu)


def speed_factor(slices: _t.Sequence[Slice]) -> float:
    """How many times slower than the reference the host ran."""
    return statistics.median(one.cpu_s for one in slices) / REFERENCE_SLICE_S


class SpeedProbe:
    """Runs slices and spools them by key, one file per process."""

    def __init__(self, spool: pathlib.Path) -> None:
        #: An existing directory, visible to every worker process.
        self.spool = spool

    def slice(self, key: int) -> None:
        done = calibration_slice()
        with open(self.spool / f"{os.getpid()}.txt", "a", encoding="ascii") as handle:
            handle.write(f"{key} {done.wall_s!r} {done.cpu_s!r}\n")

    def drain(self) -> _t.Dict[int, Slice]:
        """Key -> slice, for every slice spooled since the last drain."""
        slices: _t.Dict[int, Slice] = {}
        for path in sorted(self.spool.glob("*.txt")):
            for line in path.read_text().splitlines():
                key, wall, cpu = line.split()
                if int(key) in slices:
                    raise RuntimeError(f"two calibration slices for key {key}")
                slices[int(key)] = Slice(float(wall), float(cpu))
            path.unlink()
        return slices


class CalibratedFactory:
    """A deployment factory whose apps run one slice when deployed.

    The slice is keyed by the deploy seed.  Picklable (a plain class
    holding the factory and the probe), so the process fleet's workers
    run the slices too.
    """

    def __init__(self, factory: _t.Callable, probe: SpeedProbe) -> None:
        self.factory = factory
        self.probe = probe

    def __call__(self):
        app = self.factory()
        deploy = app.deploy

        def calibrated_deploy(*args, seed, **kwargs):
            self.probe.slice(seed)
            return deploy(*args, seed=seed, **kwargs)

        app.deploy = calibrated_deploy
        return app
