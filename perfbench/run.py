"""Benchmark for recipe campaigns, the process fleet and fault-space search.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-dsb --seed 1 --seconds 15 --trace 0

Workloads: ``campaign-dsb``, ``campaign-fleet``, ``explore-seeded``
(see ``workloads.py`` and ``README.md``).  A run

1. times set-up (imports, app builds, plan generation) in fresh
   interpreters and reports the median as ``setup_s``;
2. runs one untimed warm-up pass at the tiny size, so ``.pyc``
   compilation and lazy imports are not measured;
3. runs whole passes for about ``--seconds`` seconds (and at least
   200 experiment samples), checking every pass's output.

With ``--trace 0`` it reports the end-to-end metrics.  With
``--trace 1`` it runs the same untimed passes, then the same passes
again with per-layer spans on, and reports the per-layer table and
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with provenance and (traced runs) the span tree, is written
under ``perfbench/results/``.  Exit status is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import typing as _t

import speed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("campaign-dsb", "campaign-fleet", "explore-seeded")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Fewest per-experiment latency samples a run takes: p90 then has
#: twenty samples beyond it, which keeps it steady from run to run.
MIN_LATENCY_SAMPLES = 200

#: End-to-end metric -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "recipes_per_s": "1/s",
    "recipe_p50_s": "s",
    "recipe_p90_s": "s",
    "time_to_verdict_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.
PER_LAYER_UNITS = {
    "simulation.self_s": "s",
    "http.codec_s": "s",
    "http.codec_calls": "count",
    "network.send_s": "s",
    "network.sends": "count",
    "agent.match_s": "s",
    "agent.matches": "count",
    "agent.faults_injected": "count",
    "logstore.emit_s": "s",
    "logstore.write_s": "s",
    "logstore.records": "count",
    "logstore.read_s": "s",
    "logstore.queries": "count",
    "microservice.deploy_s": "s",
    "microservice.deploys": "count",
    "microservice.requests": "count",
    "microservice.retries": "count",
    "core.inject_s": "s",
    "core.assert_s": "s",
    "core.checks": "count",
    "observability.attribute_s": "s",
    "observability.report_s": "s",
    "campaign.plan_s": "s",
    "campaign.fleet_overhead_s": "s",
    "campaign.worker_busy_frac": "ratio",
    "campaign.result_decode_s": "s",
    "campaign.fleet_speedup_vs_serial": "ratio",
    "explore.discover_s": "s",
    "explore.frontier_s": "s",
    "explore.shapes_s": "s",
    "explore.useful_ratio": "ratio",
    "explore.executions_to_all_bugs": "count",
    "trace.overhead_frac": "ratio",
}


def quantile(values: _t.Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` (0..1).

    A beta-weighted mean of all order statistics.  About a tenth of a
    campaign's recipes fail their checks and run twice as long as the
    rest, so p90 falls at the edge of that slow cluster.  Interpolating
    between the two order statistics next to it
    (``repro.analysis.cdf.percentile``) jumps from run to run as the
    cluster's fastest members move; this estimate moves smoothly (see
    README.md for both spreads on the same runs).
    """
    from scipy.stats import beta

    ordered = sorted(values)
    n = len(ordered)
    edges = beta.cdf([i / n for i in range(n + 1)], q * (n + 1), (1 - q) * (n + 1))
    return float(sum((edges[i + 1] - edges[i]) * ordered[i] for i in range(n)))


class ChildPeakRss:
    """Samples the peak RSS (``VmHWM``) of this process's live children.

    Started only around passes that spawn worker processes.  A
    worker's high-water mark only grows, so sampling every 0.2 s until
    the worker exits catches its peak; the largest sum over live
    children is the fleet's peak.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="child-peak-rss", daemon=True)

    def __enter__(self) -> "ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            total = 0
            for pid in child_pids():
                try:
                    with open(f"/proc/{pid}/status", "r") as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                total += int(line.split()[1])
                                break
                except (OSError, IndexError, ValueError):
                    continue  # exited while being read
            self.peak_kb = max(self.peak_kb, total)
            if self._stop.wait(self.interval):
                return


def child_pids() -> _t.List[int]:
    """Processes whose parent is this process, zombies included."""
    me = str(os.getpid())
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", "r") as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue  # exited while being read
        if ppid == me:
            pids.append(int(pid))
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stops every process this run started and waits until each has ended.

    The fleet joins its workers when a campaign ends, but spawning
    them also starts multiprocessing's resource tracker, which
    outlives the fleet and would end only some time after this
    interpreter exits.  The tracker is closed the way multiprocessing
    closes it, so it can release what it tracks; anything else still
    running gets SIGTERM, then SIGKILL after ``grace_s`` seconds.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop_tracker = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    pending = set(child_pids())
    for pid in pending:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    while pending:
        for pid in list(pending):
            try:
                ended = os.waitpid(pid, os.WNOHANG)[0] == pid
            except ChildProcessError:
                ended = True  # already reaped
            if ended:
                pending.discard(pid)
        if pending and time.monotonic() > deadline:
            for pid in pending:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        if pending:
            time.sleep(0.02)


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Set-up seconds at the reference speed, measured in a fresh
    interpreter."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(wl, seconds: float, tiny: bool) -> list:
    """The timed passes: as many whole passes as come closest to
    ``seconds``, and enough for the latency-sample floor at full size."""
    passes = [wl.run_pass()]
    count = max(1, round(seconds / passes[0].wall_s))
    if not tiny:
        count = max(count, math.ceil(MIN_LATENCY_SAMPLES / max(1, len(passes[0].latencies))))
    passes += [wl.run_pass() for _ in range(count - 1)]
    return passes


def warm_up(workload: str, seed: int, probe):
    """One untimed pass at the tiny size.  It runs every code path a
    full pass does, so ``.pyc`` compilation and lazy imports are paid
    before timing, in a fraction of a full pass's time."""
    import workloads

    return workloads.setup(workload, seed, tiny=True, probe=probe).run_pass()


def measure(
    workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False
) -> dict:
    """One benchmark run; returns the full result document."""
    spool = RESULTS / f"spool-{os.getpid()}"
    spool.mkdir(parents=True)
    try:
        probe = speed.SpeedProbe(spool)
        if trace:
            return _measure_traced(workload, seed, seconds, tiny, probe)
        return _measure(workload, seed, seconds, tiny, probe)
    finally:
        stop_children()
        shutil.rmtree(spool, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, tiny: bool, probe) -> dict:
    setups = [probe_setup(workload, seed, tiny) for _ in range(1 if tiny else SETUP_PROBES)]
    import workloads

    wl = workloads.setup(workload, seed, tiny=tiny, probe=probe)
    spawns = wl.backend == "processes"
    sampler = ChildPeakRss() if spawns else None
    with sampler or contextlib.nullcontext():
        warm = warm_up(workload, seed, probe)
        passes = timed_passes(wl, seconds, tiny)
    walls = [run.reference_wall_s for run in passes]
    latencies = [value for run in passes for value in run.reference_latencies]
    attempted = sum(run.attempted for run in passes)
    failed = sum(run.failed for run in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sampler is not None:
        peak_kb += sampler.peak_kb
    values = {
        "setup_s": statistics.median(setups),
        "recipes_per_s": (attempted - failed) / sum(walls),
        "recipe_p50_s": quantile(latencies, 0.5),
        "recipe_p90_s": quantile(latencies, 0.9),
        # A mean: with a handful of passes it is steadier than a median.
        "time_to_verdict_s": statistics.mean(walls),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    samples = {
        "setup_s": len(setups),
        "recipes_per_s": len(passes),
        "recipe_p50_s": len(latencies),
        "recipe_p90_s": len(latencies),
        "time_to_verdict_s": len(passes),
        "peak_rss_mb": 1,
    }
    notes = {
        "error_frac": failed / attempted,
        "passes": len(passes),
        "experiments_per_pass": passes[0].attempted,
        "workers": wl.workers,
        "backend": wl.backend,
        "pass_wall_s": [run.wall_s for run in passes],
        "pass_speed_factor": [run.speed_factor for run in passes],
    }
    if workload == "explore-seeded":
        # The same numbers under the names the exploration literature uses.
        notes["time_to_all_bugs_s"] = values["time_to_verdict_s"]
        notes["executions_per_s"] = values["recipes_per_s"]
        notes["executions_to_all_bugs"] = passes[0].counts["executions_to_all_bugs"]
    document = _document(
        workload, seed, [warm] + passes, passes, values, END_TO_END_UNITS, samples, notes
    )
    document["recipe_latency_s"] = latencies
    # Raw measurements, so other scalings and estimators can be
    # recomputed from the same runs.
    document["raw_passes"] = [
        {
            "wall_s": run.wall_s,
            "latencies_s": run.latencies,
            "slice_wall_s": [one.wall_s for one in run.slices],
            "slice_cpu_s": [one.cpu_s for one in run.slices],
        }
        for run in passes
    ]
    return document


def _measure_traced(workload: str, seed: int, seconds: float, tiny: bool, probe) -> dict:
    import spans
    import workloads

    wl = workloads.setup(workload, seed, tiny=tiny, probe=probe)
    warm = warm_up(workload, seed, probe)
    untraced = timed_passes(wl, seconds, tiny)
    count = len(untraced)
    spawns = wl.backend == "processes"
    # The fleet's workers are never traced, so the layers below the
    # fleet are traced on a serial pass over the same plan.
    serial = wl.run_pass(workers=1, backend="threads") if spawns else None

    setup_tracer = spans.Tracer()
    with setup_tracer:
        traced_wl = workloads.setup(workload, seed, tiny=tiny, probe=probe)
    fleet_tracer = None
    fleet_passes: _t.List = []
    if spawns:
        fleet_tracer = spans.Tracer()
        with fleet_tracer:
            fleet_passes = [traced_wl.run_pass() for _ in range(count)]
    layer_tracer = spans.Tracer()
    with layer_tracer:
        if spawns:
            layer_passes = [traced_wl.run_pass(workers=1, backend="threads")]
        else:
            layer_passes = [traced_wl.run_pass() for _ in range(count)]
    reference = [serial] if spawns else untraced

    n = len(layer_passes)
    # Seconds at the reference speed, per pass.
    scale = n * statistics.median(run.speed_factor for run in layer_passes)
    summary = layer_tracer.summary()

    def seconds_in(name, key="total_s"):
        return summary.get(name, {}).get(key, 0) / scale

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / n

    def counted(key):
        return layer_tracer.counts.get(key, 0) / n

    def median_wall(runs):
        return statistics.median(run.reference_wall_s for run in runs)

    # Raw times (slices on both sides), so wall and busy time agree.
    busy = sum(sum(run.latencies) for run in untraced)
    wall = sum(run.wall_s for run in untraced)
    experiments = sum(run.attempted for run in layer_passes)
    useful = (
        experiments
        - sum(run.failed for run in layer_passes)
        - layer_tracer.counts.get("explore.deferred", 0)
    )
    decode_s = 0.0
    if spawns:
        decode_s = fleet_tracer.summary().get("campaign.decode", {}).get("total_s", 0) / (
            len(fleet_passes) * statistics.median(run.speed_factor for run in fleet_passes)
        )
    plan_s = setup_tracer.summary().get("campaign.plan", {}).get("total_s", 0)
    values = {
        "simulation.self_s": seconds_in("simulation.run", "self_s"),
        "http.codec_s": seconds_in("http.codec"),
        "http.codec_calls": calls("http.codec"),
        "network.send_s": seconds_in("network.send"),
        "network.sends": calls("network.send"),
        "agent.match_s": seconds_in("agent.match"),
        "agent.matches": calls("agent.match"),
        "agent.faults_injected": counted("agent.faults_injected"),
        "logstore.emit_s": seconds_in("logstore.emit"),
        "logstore.write_s": seconds_in("logstore.write"),
        "logstore.records": counted("logstore.records"),
        "logstore.read_s": seconds_in("logstore.read"),
        "logstore.queries": counted("logstore.queries"),
        "microservice.deploy_s": seconds_in("microservice.deploy"),
        "microservice.deploys": calls("microservice.deploy"),
        "microservice.requests": counted("microservice.requests"),
        "microservice.retries": counted("microservice.retries"),
        "core.inject_s": seconds_in("core.inject"),
        "core.assert_s": seconds_in("core.check"),
        "core.checks": calls("core.check"),
        "observability.attribute_s": seconds_in("observability.attribute"),
        "observability.report_s": seconds_in("observability.report"),
        "campaign.plan_s": plan_s / statistics.median(run.speed_factor for run in layer_passes),
        "campaign.fleet_overhead_s": statistics.mean(
            (run.wall_s - sum(run.latencies) / wl.workers) / run.speed_factor for run in untraced
        ),
        "campaign.worker_busy_frac": busy / (wall * wl.workers),
        "campaign.result_decode_s": decode_s,
        "campaign.fleet_speedup_vs_serial": (
            serial.reference_wall_s / median_wall(untraced) if spawns else 1.0
        ),
        "explore.discover_s": seconds_in("explore.discover"),
        "explore.frontier_s": seconds_in("explore.frontier"),
        "explore.shapes_s": seconds_in("explore.shapes"),
        "explore.useful_ratio": useful / experiments if workload == "explore-seeded" else 0.0,
        "explore.executions_to_all_bugs": untraced[0].counts.get("executions_to_all_bugs", 0),
        "trace.overhead_frac": median_wall(layer_passes) / median_wall(reference) - 1.0,
    }
    samples = {name: n for name in values}
    tracers = [("setup", setup_tracer), ("layers", layer_tracer)]
    if fleet_tracer is not None:
        tracers.insert(1, ("fleet", fleet_tracer))
    problems = [
        f"{phase}: {problem}" for phase, tracer in tracers for problem in tracer.check_nesting()
    ]
    notes = {
        "passes": count,
        "layer_passes": n,
        "layer_pass_backend": "threads" if spawns else wl.backend,
        "spans": sum(len(tracer.name) for _, tracer in tracers),
        "unwrapped_targets": layer_tracer.missing,
        "span_nesting_problems": problems[:10],
        "untraced_pass_wall_s": [run.wall_s for run in untraced],
        "layer_pass_wall_s": [run.wall_s for run in layer_passes],
        "layer_pass_speed_factor": [run.speed_factor for run in layer_passes],
    }
    runs = [warm] + untraced + ([serial] if serial else []) + fleet_passes + layer_passes
    document = _document(
        workload, seed, runs, untraced, values, PER_LAYER_UNITS, samples, notes
    )
    # A target the program lacks would read as a layer that got free:
    # fail the run instead, so a change that moves a call site updates
    # spans.TARGETS.
    if problems or layer_tracer.missing:
        document["correct"] = False
    document["span_trees"] = [
        dict(tracer.span_tree(workload), phase=phase) for phase, tracer in tracers
    ]
    return document


def _document(workload, seed, checked, timed, values, units, samples, notes) -> dict:
    mismatches = [text for run in checked for text in run.mismatches]
    return {
        "correct": not mismatches and all(run.failed == 0 for run in checked),
        "attempted": sum(run.attempted for run in timed),
        "failed": sum(run.failed for run in timed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "samples": samples,
        "notes": notes,
        "mismatches": sorted(set(mismatches)),
        "provenance": provenance(workload, seed),
    }


def provenance(workload: str, seed: int) -> dict:
    import workloads

    return {
        "workload": workload,
        "cpus": os.cpu_count(),
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "seed": seed,
        "input_seed": workloads.input_seed(seed),
    }


def git_rev() -> str:
    """HEAD of the checkout's own ``.git``, read without running git
    (a checkout without one reports ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's sources, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_result(document: dict, stem: str) -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    trees = document.pop("span_trees", None)
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    if trees is not None:
        with gzip.open(RESULTS / f"{stem}.spans.json.gz", "wt", compresslevel=6) as handle:
            json.dump(trees, handle, separators=(",", ":"))
    return path


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    document = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_result(document, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    for name, metric in document["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6f} {metric['unit']:6s} n={document['samples'][name]}")
    for name, value in document["notes"].items():
        print(f"{name:36s} {value}")
    for mismatch in document["mismatches"]:
        print(f"MISMATCH {mismatch}")
    print(f"result written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {key: document[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
