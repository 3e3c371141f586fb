"""Records the resilience-report digests the campaign workloads check.

    python3 perfbench/record_digests.py

Runs every campaign workload at both sizes for every seed slot,
serially (reports are byte-identical across backends and worker
counts), and writes ``perfbench/digests.json``.  The digests pin the
program's output: re-record them only for a change that is meant to
alter the resilience report.
"""

import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    spool = HERE / "results" / "record-spool"
    spool.mkdir(parents=True, exist_ok=True)
    probe = speed.SpeedProbe(spool)
    doc = {}
    for name in ("campaign-dsb", "campaign-fleet"):
        for tiny in (False, True):
            by_app: dict = {}
            for slot in range(workloads.SEED_SLOTS):
                wl = workloads.setup(name, slot, probe=probe, tiny=tiny, check=False)
                result = wl.run_pass(workers=1, backend="threads")
                if result.failed:
                    raise SystemExit(f"{name} slot {slot}: {result.failed} failed recipes")
                for app, digest in result.digests.items():
                    by_app.setdefault(app, []).append(digest)
                print(name, "tiny" if tiny else "full", slot, result.digests, flush=True)
            doc.setdefault(name, {})["tiny" if tiny else "full"] = by_app
    workloads.DIGESTS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(spool)


if __name__ == "__main__":
    main()
