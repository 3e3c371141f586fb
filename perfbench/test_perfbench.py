"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that output mismatches fail a run, and that the recorded
spans nest.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    document = run.measure(workload, 3, 0, False, tiny=True)
    assert document["correct"], document["mismatches"]
    assert document["attempted"] >= 1
    assert document["failed"] == 0
    for metric in BENCHMARK["end_to_end"]:
        emitted = document["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]
    assert set(document["provenance"]) >= {"cpus", "nproc", "python", "git_rev", "seed"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_the_per_layer_table_with_nested_spans(workload):
    document = run.measure(workload, 3, 0, True, tiny=True)
    assert document["correct"], (document["mismatches"], document["notes"])
    metrics = document["metrics"]
    for metric in BENCHMARK["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    for name in ("simulation.self_s", "http.codec_calls", "network.sends",
                 "logstore.records", "logstore.queries", "microservice.deploys",
                 "microservice.requests", "core.checks"):
        assert metrics[name]["value"] > 0, name
    if workload == "explore-seeded":
        assert metrics["explore.discover_s"]["value"] > 0
        assert 0 < metrics["explore.useful_ratio"]["value"] <= 1
    else:
        assert metrics["campaign.plan_s"]["value"] > 0
        assert metrics["observability.report_s"]["value"] > 0
    if workload == "campaign-fleet":
        assert metrics["campaign.result_decode_s"]["value"] > 0
    for tree in document["span_trees"]:
        assert tree["workload"] == workload
        _assert_nested(tree)


def _assert_nested(tree):
    start, end, parent = tree["start_ns"], tree["end_ns"], tree["parent"]
    children = [0] * len(start)
    for index, up in enumerate(parent):
        assert start[index] <= end[index]
        if up >= 0:
            assert up < index
            assert start[up] <= start[index] and end[index] <= end[up]
            children[up] += end[index] - start[index]
    for index, covered in enumerate(children):
        assert end[index] - start[index] - covered >= 0


def test_report_digest_mismatch_fails_the_pass(tmp_path):
    probe = speed.SpeedProbe(tmp_path)
    workload = workloads.setup("campaign-dsb", 0, probe=probe, tiny=True)
    workload.expected = {app: "0" * 64 for app in workload.expected}
    result = workload.run_pass()
    assert not result.correct
    assert len(result.mismatches) == 2


def test_bug_set_mismatch_fails_the_pass(tmp_path):
    probe = speed.SpeedProbe(tmp_path)
    workload = workloads.setup("explore-seeded", 0, probe=probe, tiny=True)
    workload.planted["stuckbreaker"] = workload.planted["stuckbreaker"] | {"not/planted"}
    result = workload.run_pass()
    assert not result.correct
    assert [text.split(":")[0] for text in result.mismatches] == ["stuckbreaker"]


def test_tracer_restores_what_it_wrapped():
    import repro.agent.proxy as proxy
    from repro.logstore.store import EventStore
    from repro.campaign.results import RecipeOutcome

    before = (proxy.decode_request, EventStore.__dict__["search_iter"],
              RecipeOutcome.__dict__["from_dict"])
    with spans.Tracer():
        assert proxy.decode_request is not before[0]
    after = (proxy.decode_request, EventStore.__dict__["search_iter"],
             RecipeOutcome.__dict__["from_dict"])
    assert after == before


def test_tracer_times_generators_per_resume_only():
    def numbers():
        yield 1
        yield 2

    tracer = spans.Tracer()
    wrapped = tracer._generator_span("logstore.read", numbers)
    assert list(wrapped()) == [1, 2]
    # Two items plus the resume that finds the generator exhausted.
    assert tracer.summary()["logstore.read"]["calls"] == 3


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-dsb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_fleet_run_leaves_no_process_running():
    # A run in a session of its own.  When measure() returns, the run
    # has no child left (fleet worker, resource tracker); once it has
    # exited, no process of its session is alive.
    child = subprocess.Popen(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(HERE.parent / 'src')!r}); import run;"
         " run.measure('campaign-fleet', 3, 0, False, tiny=True);"
         " print(run.child_pids())"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    assert stdout.splitlines()[-1] == "[]"
    assert _session_members(child.pid) == []


def _session_members(session):
    members = []
    for pid in pathlib.Path("/proc").iterdir():
        try:
            fields = (pid / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(pid.name))
    return members


def test_tracer_lists_targets_the_program_lacks(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", (
        ("http.codec", "repro.agent.proxy", "no_such_function"),
        ("agent.match", "repro.agent.matcher", "NoSuchMatcher.match"),
        ("campaign.plan", "repro.no_such_module", "plan"),
    ))
    with spans.Tracer() as tracer:
        pass
    assert tracer.missing == [
        "repro.agent.proxy.no_such_function",
        "repro.agent.matcher.NoSuchMatcher.match",
        "repro.no_such_module.plan",
    ]


def test_traced_run_fails_when_a_target_is_missing(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("http.codec", "repro.agent.proxy", "no_such_function"),
    ))
    document = run.measure("campaign-dsb", 3, 0, True, tiny=True)
    assert not document["correct"]
    assert document["notes"]["unwrapped_targets"] == ["repro.agent.proxy.no_such_function"]
