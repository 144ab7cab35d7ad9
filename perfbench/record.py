"""Record the reference outputs that the benchmark checks every case against.

Run from the root of a source checkout, at the commit that defines the
reference:

    python3 perfbench/record.py [workload ...]

It rebuilds each workload's catalog, runs every case once through
``entbound.cli.main`` and writes ``perfbench/reference/<workload>.json``:
the cases with their argv, input files, expected exit code and full-precision
output, plus the exact triple behind each ``simulate`` case.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from collections import defaultdict

import run  # first: it pins BLAS to one thread before numpy is loaded
from run import REFERENCE, SRC, WORK, cases, check


def _record_case(main, entry: dict, workdir: str) -> dict:
    # the second run's time is recorded, free of first-call warm-up
    first = run.run_case(main, entry, workdir)
    res = run.run_case(main, entry, workdir)
    expected = 2 if entry["check"] == "error" else 0
    if res["rc"] != expected:
        raise SystemExit(f"{entry['id']}: exit {res['rc']}, expected {expected}\n{res['stderr']}")
    if res["stdout"] != first["stdout"]:
        raise SystemExit(f"{entry['id']}: stdout differs between two runs")
    entry = dict(entry, exit=res["rc"], seconds=res["latency_s"])
    if entry["check"] == "error":
        entry["output"] = None
        return entry
    out = check.parse_strict(res["stdout"])
    if entry["check"] == "simulate":
        exact = run.run_case(main, {"id": "exact", "argv": entry["exact_argv"] + ["--full-precision"]},
                             workdir)
        entry["exact_c"] = check.parse_strict(exact["stdout"])["c"]
        out = {k: out[k] for k in ("n", "shots", "seed")}
    entry["output"] = out
    return entry


def record(workload: str, main) -> None:
    catalog = cases.build_catalog(workload)
    workdir = WORK / f"record-{workload}"
    run._write_inputs(catalog, workdir)
    try:
        probe = {"id": "probe", "argv": cases.PROBES[workload], "check": "exact"}
        probe = _record_case(main, probe, str(workdir))
        recorded = [_record_case(main, entry, str(workdir)) for entry in catalog]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cost = defaultdict(list)
    for entry in recorded:
        cost[entry["stratum"]].append(entry["seconds"])
    for stratum, secs in sorted(cost.items()):
        print(f"{workload:16} {stratum:28} median {1000 * statistics.median(secs):9.1f} ms"
              f"  max {1000 * max(secs):9.1f} ms", file=sys.stderr)
    head = {"workload": workload, "source_sha256": run._source_digest(), "probe": probe}
    with open(REFERENCE / f"{workload}.json", "w") as fh:
        fh.write(json.dumps(head, sort_keys=True)[:-1] + ',"cases":[\n')
        fh.write(",\n".join(json.dumps(e, sort_keys=True) for e in recorded))
        fh.write("\n]}\n")


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    from entbound.cli import main as cli_main

    REFERENCE.mkdir(exist_ok=True)
    for workload in argv or cases.WORKLOADS:
        record(workload, cli_main)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
