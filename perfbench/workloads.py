"""The three benchmark workloads, driven only through repro's public API.

Each workload is closed loop and driven from one process: the next
recipe (or exploration) starts when the previous one has finished.
A workload object is built by :func:`setup` (imports, app builds and
plan generation: the part ``setup_s`` times) and then runs whole
passes with :meth:`run_pass`.  One pass is one operator verdict:

* ``campaign-dsb``: a serial campaign over the auto-generated
  socialnetwork (81 recipes) and hotelreservation (53 recipes) plans,
  5 requests per recipe, ending when both resilience-report JSON
  documents are built.
* ``campaign-fleet``: the 42-recipe tree3 plan, 10 requests per
  recipe, on the ``processes`` backend with one worker per usable cpu
  and the default batch size and result transport.
* ``explore-seeded``: ``run_explore`` over every seeded-bug app with
  the prioritized strategy until every planted bug is found (budget
  150 executions per app), serially.

A pass checks its own output: campaign reports must hash to the
digest recorded in ``digests.json`` and explorations must find exactly
each manifest's planted bugs.  Every experiment starts with one host
speed calibration slice (see ``speed.py``), and its latency is paired
with that slice.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import time
import typing as _t

import speed
from repro import campaign
from repro.apps import (
    SEEDED_BUG_SUITE,
    build_hotelreservation_app,
    build_socialnetwork_app,
    build_tree_app,
)
from repro.explore import executor as explore_executor
from repro.explore import run_explore

DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")

#: The benchmark's ``--seed`` picks one of this many input seeds
#: (``seed % SEED_SLOTS``); every slot's report digests are recorded in
#: ``digests.json``, so any seed gets an exact output check.
SEED_SLOTS = 16

#: Explore budget per app, as in the seeded-bug benchmark.
EXPLORE_BUDGET = 150

#: Recipes per app kept by the tiny size the benchmark's tests use.
TINY_RECIPES = 3
#: Seeded-bug apps the tiny size explores (the two cheapest).
TINY_EXPLORE_APPS = ("deepfanout", "stuckbreaker")

#: Outcome statuses that count as failed operations.  A ``fail`` or
#: ``inconclusive`` verdict is a correct answer about the naive apps.
FAILED_STATUSES = ("error", "timeout")


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def input_seed(seed: int) -> int:
    """The seed the program receives for benchmark seed ``seed``."""
    return seed % SEED_SLOTS


def report_digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclasses.dataclass
class PassResult:
    """What one pass did, as the benchmark measures and checks it."""

    #: Wall seconds from the first recipe to the verdict.
    wall_s: float
    #: Fault experiments attempted (recipes or explore executions).
    attempted: int
    #: Experiments that errored, timed out or lost their worker.
    failed: int
    #: Wall seconds of each timed experiment (a campaign leaves out
    #: its failed recipes).
    latencies: _t.List[float]
    #: Output-check failures, empty when every output was correct.
    mismatches: _t.List[str]
    #: Workload-specific exact counts (e.g. executions to all bugs).
    counts: _t.Dict[str, int] = dataclasses.field(default_factory=dict)
    #: App -> sha256 of its resilience-report JSON (campaigns only).
    digests: _t.Dict[str, str] = dataclasses.field(default_factory=dict)
    #: The calibration slice each of those experiments started with.
    slices: _t.List[speed.Slice] = dataclasses.field(default_factory=list)
    #: Processes the experiments ran on in parallel.
    workers: int = 1

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.failed == 0

    @property
    def speed_factor(self) -> float:
        return speed.speed_factor(self.slices)

    @property
    def reference_wall_s(self) -> float:
        """Pass wall time without the slices, at the reference speed."""
        slices_s = sum(one.wall_s for one in self.slices)
        return (self.wall_s - slices_s / self.workers) / self.speed_factor

    @property
    def reference_latencies(self) -> _t.List[float]:
        """Experiment latencies without their slice, at the reference speed.

        Each latency is scaled by its own slice, not by the pass's
        factor: the host's speed changes within a second, and this
        narrows the run-to-run spread of the latency quantiles (see
        README.md).
        """
        return [
            (value - own.wall_s) * speed.REFERENCE_SLICE_S / own.cpu_s
            for value, own in zip(self.latencies, self.slices, strict=True)
        ]


class CampaignWorkload:
    """A campaign over one or more plans, verdict = every report built."""

    def __init__(
        self,
        name: str,
        factories: _t.Sequence[_t.Callable],
        *,
        seed: int,
        requests: int,
        workers: int,
        backend: str,
        tiny: bool,
        check: bool,
        probe: speed.SpeedProbe,
    ) -> None:
        self.probe = probe
        self.workers = workers
        self.backend = backend
        self.plans = []
        for factory in factories:
            plan = campaign.plan_campaign(factory, seed=input_seed(seed), requests=requests)
            if tiny:
                plan = plan.limit(TINY_RECIPES)
            self.plans.append((factory, plan))
        #: App -> recorded report digest; None skips the check (used
        #: only when recording the digests).
        self.expected = None
        if check:
            recorded = load_digests()[name]["tiny" if tiny else "full"]
            self.expected = {
                plan.app: recorded[plan.app][input_seed(seed)] for _, plan in self.plans
            }

    def run_pass(self, *, workers: _t.Optional[int] = None, backend: _t.Optional[str] = None) -> PassResult:
        """One full campaign pass; ``workers``/``backend`` override the
        workload's own fleet only for the traced serial reference."""
        workers = self.workers if workers is None else workers
        backend = self.backend if backend is None else backend
        latencies: _t.List[float] = []
        slices: _t.List[speed.Slice] = []
        mismatches: _t.List[str] = []
        digests: _t.Dict[str, str] = {}
        attempted = failed = 0
        started = time.perf_counter()
        for factory, plan in self.plans:
            runner = campaign.CampaignRunner(
                speed.CalibratedFactory(factory, self.probe), workers=workers, backend=backend
            )
            result = runner.run(plan)
            digest = digests[plan.app] = report_digest(result.resilience_report().to_json())
            spooled = self.probe.drain()
            for outcome in result.outcomes:
                attempted += 1
                if outcome.status in FAILED_STATUSES:
                    failed += 1
                    continue
                if outcome.seed not in spooled:
                    raise RuntimeError(
                        f"recipe {outcome.name!r} ran without a calibration slice:"
                        " its deployment was not deployed from the factory's app"
                    )
                latencies.append(outcome.wall_time)
                slices.append(spooled[outcome.seed])
            if self.expected is not None and digest != self.expected[plan.app]:
                mismatches.append(
                    f"{plan.app}: report sha256 {digest} != recorded {self.expected[plan.app]}"
                )
        wall = time.perf_counter() - started
        return PassResult(
            wall,
            attempted,
            failed,
            latencies,
            mismatches,
            digests=digests,
            slices=slices,
            workers=workers,
        )


class ExploreWorkload:
    """Fault-space search over the seeded-bug suite, verdict = every
    planted bug found."""

    workers = 1
    backend = "threads"

    def __init__(self, *, seed: int, tiny: bool) -> None:
        self.seed = seed
        apps = TINY_EXPLORE_APPS if tiny else tuple(SEEDED_BUG_SUITE)
        self.planted = {app: set(SEEDED_BUG_SUITE[app].bug_ids()) for app in apps}
        for app in apps:
            # The app build is part of set-up; every execution rebuilds it.
            SEEDED_BUG_SUITE[app].builder()

    def run_pass(self) -> PassResult:
        """One exploration of every app.  Per-execution latency comes
        from a timer on ``execute_task`` that also runs the execution's
        calibration slice, installed for the pass only."""
        latencies: _t.List[float] = []
        slices: _t.List[speed.Slice] = []
        original = explore_executor.execute_task
        # Wrap whatever is installed, so a tracer's span stays inside.
        explore_executor.execute_task = _timed(original, latencies, slices)
        mismatches: _t.List[str] = []
        attempted = failed = to_all_bugs = 0
        started = time.perf_counter()
        try:
            for app, planted in self.planted.items():
                result = run_explore(
                    app,
                    budget=EXPLORE_BUDGET,
                    seed=input_seed(self.seed),
                    strategy="prioritized",
                    stop_when_found=True,
                )
                attempted += len(result.executed)
                failed += len(result.errors)
                found = {finding.bug_id for finding in result.findings}
                if found != planted:
                    mismatches.append(
                        f"{app}: found {sorted(found)} != planted {sorted(planted)}"
                    )
                else:
                    to_all_bugs += result.executions_to_all_bugs
        finally:
            explore_executor.execute_task = original
        wall = time.perf_counter() - started
        return PassResult(
            wall,
            attempted,
            failed,
            latencies,
            mismatches,
            counts={"executions_to_all_bugs": to_all_bugs},
            slices=slices,
        )


def _timed(
    fn: _t.Callable, latencies: _t.List[float], slices: _t.List[speed.Slice]
) -> _t.Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        slices.append(speed.calibration_slice())
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - started)

    return timed


def setup(
    name: str,
    seed: int,
    *,
    probe: speed.SpeedProbe,
    tiny: bool = False,
    check: bool = True,
):
    """Build workload ``name`` for benchmark seed ``seed``; ``probe``
    spools the campaigns' calibration slices.  ``check=False`` skips
    loading the recorded report digests, which only
    ``record_digests.py`` does."""
    if name == "campaign-dsb":
        return CampaignWorkload(
            name,
            (build_socialnetwork_app, build_hotelreservation_app),
            seed=seed,
            requests=5,
            workers=1,
            backend="threads",
            tiny=tiny,
            check=check,
            probe=probe,
        )
    if name == "campaign-fleet":
        return CampaignWorkload(
            name,
            (functools.partial(build_tree_app, 3),),
            seed=seed,
            requests=10,
            workers=nproc(),
            backend="processes",
            tiny=tiny,
            check=check,
            probe=probe,
        )
    if name == "explore-seeded":
        return ExploreWorkload(seed=seed, tiny=tiny)
    raise ValueError(f"unknown workload {name!r}")
