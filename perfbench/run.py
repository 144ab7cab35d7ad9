"""End-to-end benchmark of the ``entbound`` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload data-bounds --seed 1 --seconds 10 --trace 0

One client drives ``entbound.cli.main(argv)`` in a closed loop inside this
process: the next case starts when the previous one has returned, with stdout
and stderr captured and checked against the recorded reference. ``--seed``
picks the cases from the workload's catalog (see ``cases.py``); the run makes
several passes over them in seeded orders, as many as take about
``--seconds`` at the reference commit's recorded speed, and reports medians
over passes. ``setup_s`` is measured apart, in fresh interpreters running
``python -m entbound.cli`` on the workload's probe.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` replays one pass
with spans around the package's public functions and prints the
per-layer metrics; end-to-end numbers never come from a traced pass. The last
stdout line is the result object; the line before it is the run record (host,
versions, calibration, sample counts). Spans are written to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# BLAS runs one thread, here and in the fresh interpreters. On a host whose
# cores are shared with other work, a threaded BLAS call waits for its slowest
# thread: measured pass times of one workload with two threads stayed about
# 20% apart after the host-speed correction below, against a few percent with
# one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import cases  # noqa: E402
import check  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

#: fresh interpreters per run for setup_s; the median is reported
SETUP_LAUNCHES = 5
#: passes over the run's cases; throughput and CPU time are medians over passes
MIN_PASSES = 3
LAUNCH_TIMEOUT_S = 120
#: samples that must lie beyond the reported tail percentile
TAIL_SAMPLES = 10
#: probe_host() on a quiet host of the kind the reference was recorded on.
#: Timed metrics are scaled by REFERENCE_PROBE_S over the mean probe_host()
#: time taken between the cases of each pass (the mean, so slow spells count
#: as much as they slowed the pass), and read as seconds on that quiet host:
#: the speed of a shared host drifts by a third over minutes, far more than
#: the change a bound must catch. Unscaled figures stay in the run record.
REFERENCE_PROBE_S = 0.004
#: least time between two host probes
PROBE_EVERY_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "throughput_cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_case": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}
IMPORT_METRICS = ("import.total_s", "import.numpy_s", "import.scipy_s")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- run record -----------------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def _blas() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    out = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def _host(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def _probe_matrix():
    import numpy as np

    x = np.random.default_rng(0).standard_normal((128, 256)).view(complex)
    return x + x.conj().T


_PROBE_MATRIX = _probe_matrix()


def probe_host() -> float:
    """Seconds a fixed pure-Python loop and two LAPACK eigensolves take now.

    The two halves follow the two kinds of work the workloads do: interpreter
    time (parsing, the optimisers) and dense linear algebra (state builds).
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    np.linalg.eigvalsh(_PROBE_MATRIX)
    np.linalg.eigvalsh(_PROBE_MATRIX)
    return time.perf_counter() - start


def _calibrate() -> dict:
    """Fixed pure-Python and BLAS work, to show host drift beside the results."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    loop_s = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((400, 400))
    a @ a  # starts the BLAS threads outside the timed part
    start = time.perf_counter()
    for _ in range(20):
        a = a @ a
        a /= np.abs(a).max()
    return {"python_loop_s": loop_s, "blas_matmul_s": time.perf_counter() - start}


# -- fresh interpreters ---------------------------------------------------------------

def _launch(argv, extra=()) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-m", "entbound.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def import_breakdown(stderr: str) -> dict:
    """Total, numpy and scipy import seconds from ``python -X importtime`` output.

    numpy and scipy count each outermost import of a module of that package,
    so nested imports are not counted twice.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|", 2)
        name = field[1:]
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e6))
    out = dict.fromkeys(IMPORT_METRICS, 0.0)
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent, so walk it backwards
    for depth, name, seconds in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0:
            out["import.total_s"] += seconds
        for pkg in ("numpy", "scipy"):
            if name.split(".")[0] == pkg and not any(a.split(".")[0] == pkg for _, a in stack):
                out[f"import.{pkg}_s"] += seconds
        stack.append((depth, name))
    return out


# -- the closed loop ------------------------------------------------------------------

def run_case(main, entry: dict, workdir: str, tracer=None) -> dict:
    argv = [a.replace("{work}", workdir) for a in entry["argv"]]
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.case = entry["id"]
    start, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
    latency, cpu = time.perf_counter() - start, time.process_time() - cpu
    return {"id": entry["id"], "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "latency_s": latency, "cpu_s": cpu}


def run_pass(main, order: list, workdir: str, tracer=None) -> tuple[list, float]:
    """Run cases in order, probing the host between them; (results, scale).

    ``scale`` converts this pass's times to the reference host speed.
    """
    probes, last = [probe_host()], time.perf_counter()
    results = []
    for entry in order:
        results.append(run_case(main, entry, workdir, tracer))
        if time.perf_counter() - last >= PROBE_EVERY_S:
            probes.append(probe_host())
            last = time.perf_counter()
    probes.append(probe_host())
    return results, REFERENCE_PROBE_S / statistics.mean(probes)


def _write_inputs(catalog, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for entry in catalog:
        for name, text in entry.get("files", {}).items():
            (workdir / name).write_text(text)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it (floor 50)."""
    return min(99.9, max(50.0, 100.0 * (1 - TAIL_SAMPLES / count)))


def planned_passes(selected: list, seconds: float) -> int:
    """Passes over the run's cases that take about ``seconds`` at the reference speed.

    The count depends only on the recorded timings and ``seconds``, never on
    the commit under test, so every commit runs the same cases for a seed and
    the per-layer counts of two commits compare like for like.
    """
    cost = sum(e["seconds"] for e in selected)
    return max(MIN_PASSES, round(seconds / cost))


def _load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "entbound" / "cli.py").is_file():
        print(f"no entbound sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if not (REFERENCE / f"{args.workload}.json").is_file():
        print(f"no reference for {args.workload}; run perfbench/record.py", file=sys.stderr)
        return 2

    ref = _load_reference(args.workload)
    by_id = {e["id"]: e for e in ref["cases"]}
    selected = cases.select(cases.strata(ref["cases"]), args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    try:
        _write_inputs(selected, workdir)
        record["calibration_start"] = _calibrate()
        failures: list[str] = []

        probe = ref["probe"]
        if args.trace:
            _, proc = _launch(probe["argv"], extra=("-X", "importtime"))
            launches = [proc]
            layer = import_breakdown(proc.stderr)
        else:
            probes = [probe_host() for _ in range(5)]
            timed = [_launch(probe["argv"]) for _ in range(SETUP_LAUNCHES)]
            probes += [probe_host() for _ in range(5)]
            launches = [proc for _, proc in timed]
            record["setup_launch_s"] = [wall for wall, _ in timed]
            setup_scale = REFERENCE_PROBE_S / statistics.median(probes)
        for proc in launches:
            bad = check.check_case(probe, proc.returncode, proc.stdout, proc.stderr)
            if bad:
                failures.append(f"probe: {bad}")

        sys.path.insert(0, str(SRC))
        from entbound.cli import main as cli_main

        # pays first-call warm-up (BLAS, LAPACK workspaces) outside the timed loop
        run_case(cli_main, probe, str(workdir))

        passes = [cases.shuffled(selected, args.workload, args.seed, k)
                  for k in range(planned_passes(selected, args.seconds))]
        results, pass_s, pass_cpu_s, scales = [], [], [], []
        for order in passes:
            done, scale = run_pass(cli_main, order, str(workdir))
            results.extend(done)
            pass_s.append(sum(r["latency_s"] for r in done))
            pass_cpu_s.append(sum(r["cpu_s"] for r in done))
            scales.append(scale)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["calibration_end"] = _calibrate()
        record.update(passes=len(passes), cases_per_pass=len(selected), pass_s=pass_s,
                      pass_cpu_s=pass_cpu_s, pass_scale=scales)

        attempted, failed = len(results), 0
        first_stdout = {}
        for res in results:
            bad = check.check_case(by_id[res["id"]], res["rc"], res["stdout"], res["stderr"])
            # every output, simulate's sampled counts included, repeats byte for byte
            first = first_stdout.setdefault(res["id"], res["stdout"])
            if not bad and first != res["stdout"]:
                bad = "stdout differs between two runs of the same case"
            if bad:
                failed += 1
                failures.append(f"{res['id']}: {bad}")

        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                # the wrapped cli.main, as bound in its module once installed
                traced_main = sys.modules["entbound.cli"].main
                traced, traced_scale = run_pass(traced_main, passes[0], str(workdir), tracer)
            finally:
                tracer.uninstall()
            traced_s = sum(r["latency_s"] for r in traced)
            attempted += len(traced)
            for res in traced:
                if res["stdout"] != first_stdout[res["id"]]:
                    failed += 1
                    failures.append(f"{res['id']}: traced stdout differs from untraced")
            layer.update(tracer.metrics())
            untraced = statistics.median(s * k for s, k in zip(pass_s, scales))
            layer["trace.overhead_frac"] = traced_s * traced_scale / untraced - 1
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            record["by_size"] = tracer.by_size(lambda case: by_id[case]["n"] if case else None)
            metrics = {k: {"value": float(v), "unit": _layer_unit(k)} for k, v in layer.items()}
        else:
            per_pass = len(selected)
            by_case: dict[str, list] = {}
            for i, r in enumerate(results):
                by_case.setdefault(r["id"], []).append(r["latency_s"] * scales[i // per_pass])
            # each case stands for its median over the passes, once per pass: one
            # slow pass cannot reorder cases whose latencies lie close together
            latencies = [statistics.median(v) for v in by_case.values() for _ in v]
            tail = tail_percentile(len(latencies))
            record.update(latency_samples=len(latencies), latency_tail_percentile=tail)
            values = {
                "setup_s": statistics.median(record["setup_launch_s"]) * setup_scale,
                "throughput_cases_per_s":
                    per_pass / statistics.median(s * k for s, k in zip(pass_s, scales)),
                "latency_p50_ms": 1000 * statistics.median(latencies),
                "latency_tail_ms": 1000 * percentile(latencies, tail),
                "cpu_ms_per_case":
                    1000 * statistics.median(c * k for c, k in zip(pass_cpu_s, scales)) / per_pass,
                "peak_rss_mb": peak_rss_mb,
                "success_frac": 1 - failed / attempted,
            }
            record["unscaled"] = {
                "setup_s": statistics.median(record["setup_launch_s"]),
                "throughput_cases_per_s": per_pass / statistics.median(pass_s),
                "cpu_ms_per_case": 1000 * statistics.median(pass_cpu_s) / per_pass,
            }
            metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}

        record.update(host=_host(args.seed), failures=failures[:20])
        print(json.dumps({"run_record": record}, sort_keys=True))
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
