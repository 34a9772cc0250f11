"""Benchmark of cdalg: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload rotated-classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from anywhere; it measures the library in ``src/`` of the checkout
that holds this file.  Every op's output is checked, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Failed ops are listed on standard error.

With ``--trace 0`` the metrics are the end-to-end ones.  ``setup_s`` is the
median over several fresh interpreters (``SETUP_PROBES`` set-up-only processes
plus the measured one), each timed from process start to its first op.  With
``--trace 1`` a fixed number of blocks runs untraced and then traced, and the
metrics are the per-layer ones; the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("rotated-classify", "named-cli", "lowdim")
SETUP_PROBES = 2
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Every run must end within 180 s; the children share this budget.
RUN_BUDGET_S = 175


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one worker process (killed and reaped if it passes the deadline)."""
    started = time.monotonic()
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} run of {workload} exceeded its time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} run of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def provenance(workload: str, seed: int, traced: bool, report: dict, setup_samples) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "ops_by_kind": report["ops_by_kind"],
        "blocks": report["blocks"],
        "inputs_sha256": report["inputs_sha256"],
        "latency_samples": None if traced else report["attempted"],
        "samples_beyond_p90": report.get("samples_beyond_p90"),
        "kinds_near_p50": report.get("kinds_near_p50"),
        "kinds_near_p90": report.get("kinds_near_p90"),
        "median_ms_by_kind": report.get("median_ms_by_kind"),
        "unnormalized": report.get("raw"),
        "speed_factor": report.get("speed_factor"),
        "setup_samples_s": setup_samples,
        "fail_ratio": report["failed"] / report["attempted"],
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """Identifies the measured code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """(result line, provenance) for one workload."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if traced:
        report = spawn("trace", workload, seed, seconds, deadline)
        metrics = report["metrics"]
        samples = None
    else:
        samples = [spawn("setup", workload, seed, seconds, deadline)["setup_s"]
                   for _ in range(SETUP_PROBES)]
        report = spawn("measure", workload, seed, seconds, deadline)
        samples.append(report["setup_s"])
        report["setup_s"] = statistics.median(samples)
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    return result, provenance(workload, seed, traced, report, samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "cdalg")):
        print(f"no cdalg sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, prov = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = result
            print(json.dumps({"provenance": prov}))
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
            print(f"{name} fail_ratio {prov['fail_ratio']:.6g} 1")
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
