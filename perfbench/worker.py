"""One benchmark process: set up a workload, run its ops, check every output.

``run.py`` starts this file in a fresh interpreter for each set-up probe and
for each measured or traced run, so set-up time and peak memory belong to one
workload.  It prints one JSON object as its last line.

Modes:
  setup    set up only, and report the time since ``--spawned-at``;
  measure  set up, then run whole blocks of ops until ``--seconds`` have
           passed, one op at a time (a closed loop with one caller);
  trace    run a fixed number of blocks untraced, traced and untraced again,
           on the same inputs each time, and report the per-layer metrics;
           the overhead ratio compares the traced pass with the mean of the
           two untraced ones, so warm-up favours neither side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Blocks per traced run.  The count is fixed, not timed, so that every count
# metric repeats exactly for a seed.
TRACE_BLOCKS = {"rotated-classify": 2, "named-cli": 1, "lowdim": 20}
# A measured run also goes on until it has this many ops, so that at least
# ten latency samples lie beyond the 90th percentile.
MIN_OPS = 100


def judge(op, result, exc) -> str | None:
    """None when the op did what it should, else what went wrong."""
    if op.expect is not None:
        if isinstance(exc, op.expect):
            return None
        got = f"{type(exc).__name__}: {exc}" if exc is not None else "a result"
        return f"expected {op.expect.__name__}, got {got}"
    if exc is not None:
        return f"unexpected {type(exc).__name__}: {exc}"
    try:
        return op.check(result)
    except Exception as err:  # a malformed result must count as a failure
        return f"output check raised {type(err).__name__}: {err}"


def run_op(op, tracer=None) -> tuple[float, str | None]:
    """Latency of one op, and its failure message; the check is not timed."""
    if tracer is None:
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as err:
            exc = err
        return time.perf_counter() - t0, judge(op, result, exc)
    with tracer.root("op", op.kind) as info:
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as err:
            exc = err
        elapsed = time.perf_counter() - t0
        info["returned"] = exc is None
    with tracer.root("check", op.kind):
        return elapsed, judge(op, result, exc)


class Tally:
    """Op latencies (raw and speed-normalized), kinds, failures and a
    digest of the inputs, in op order."""

    def __init__(self, workload: str):
        self.workload = workload
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.speed = speed.Normalizer()

    def run_block(self, ops, index: int, tracer=None) -> None:
        for op in ops:
            self.digest.update(op.inputs.encode())
            elapsed, error = run_op(op, tracer)
            self.raw.append(elapsed)
            self.kinds.append(op.kind)
            self.scaled.extend(self.speed.add(elapsed))
            if error is not None:
                self.failed += 1
                print(f"FAIL {self.workload} block {index} op {op.kind} [{op.inputs[:80]}]: {error}",
                      file=sys.stderr, flush=True)
        self.scaled.extend(self.speed.flush())


def import_cdalg():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cdalg
    import cdalg.cli  # noqa: F401  (the CLI layer is traced too)

    where = os.path.dirname(os.path.abspath(cdalg.__file__))
    if where != os.path.join(ROOT, "src", "cdalg"):
        raise ImportError(f"cdalg was imported from {where}, not from this checkout")
    return cdalg


def latency_stats(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10)[-1]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
    }


def measure(wl, seconds: float, setup_s: float) -> dict:
    tally = Tally(wl.name)
    deadline = time.perf_counter() + seconds
    blocks = 0
    while True:
        tally.run_block(wl.block(blocks), blocks)
        blocks += 1
        if time.perf_counter() >= deadline and len(tally.scaled) >= MIN_OPS:
            break
    stats = latency_stats(tally.scaled)
    by_kind: dict[str, list[float]] = {}
    for kind, x in zip(tally.kinds, tally.scaled):
        by_kind.setdefault(kind, []).append(x)

    def kinds_near(q: float) -> dict[str, float]:
        """Share of each op kind among the 5% of samples nearest to q."""
        ranked = sorted((abs(x - q / 1e3), kind) for kind, x in zip(tally.kinds, tally.scaled))
        window = ranked[: max(1, len(ranked) // 20)]
        counts = Counter(kind for _, kind in window)
        return {kind: round(c / len(window), 3) for kind, c in counts.most_common()}

    factors = tally.speed.factors
    return {
        "setup_s": setup_s,
        **stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(tally.scaled),
        "failed": tally.failed,
        "blocks": blocks,
        "ops_by_kind": dict(Counter(tally.kinds)),
        "kinds_near_p50": kinds_near(stats["op_p50_ms"]),
        "kinds_near_p90": kinds_near(stats["op_p90_ms"]),
        "median_ms_by_kind": {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by_kind.items())},
        "raw": latency_stats(tally.raw),
        "speed_factor": {"median": statistics.median(factors), "min": min(factors), "max": max(factors)},
        "inputs_sha256": tally.digest.hexdigest(),
    }


def trace(wl, seed: int) -> dict:
    tr = tracing.Tracer()
    tr.install()
    with tr.root("setup"):
        wl.setup()
    tr.uninstall()
    blocks = TRACE_BLOCKS[wl.name]

    def run_pass(tracer=None) -> Tally:
        tally = Tally(wl.name)
        for b in range(blocks):
            tally.run_block(wl.block(b), b, tracer)
        return tally

    before = run_pass()
    tr.install()
    traced = run_pass(tr)
    tr.uninstall()
    after = run_pass()
    untraced_s = (sum(before.scaled) + sum(after.scaled)) / 2
    ratio = sum(traced.scaled) / untraced_s
    summary = tracing.summarize(tr.spans)
    out_dir = os.path.join(HERE, "out")
    tr.write(os.path.join(out_dir, f"spans-{wl.name}-{seed}.jsonl"))
    with open(os.path.join(out_dir, f"trace-{wl.name}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"by_kind": summary["by_kind"], "layers": summary["layers"]}, fh, indent=1)
    return {
        "metrics": tracing.layer_metrics(summary, ratio),
        "attempted": sum(len(t.scaled) for t in (before, traced, after)),
        "failed": sum(t.failed for t in (before, traced, after)),
        "blocks": blocks,
        "ops_by_kind": dict(Counter(traced.kinds)),
        "inputs_sha256": traced.digest.hexdigest(),
        "spans": len(tr.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    speed_before = speed.reference_time()
    kernel_s = time.monotonic() - t0
    cdalg = import_cdalg()

    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.mode == "trace":
            report = trace(wl, args.seed)
        else:
            wl.setup()
            # The speed kernel run before the import is the benchmark's, not set-up.
            setup_s = time.monotonic() - args.spawned_at - kernel_s
            setup_s *= speed.REFERENCE_S / ((speed_before + speed.reference_time()) / 2)
            if args.mode == "setup":
                report = {"setup_s": setup_s}
            else:
                report = measure(wl, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy

    report["numpy"] = numpy.__version__
    report["cdalg"] = cdalg.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
