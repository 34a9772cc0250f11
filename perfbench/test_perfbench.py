"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Traced runs are started through ``run.py`` exactly as the benchmark is run,
so these tests take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402
from workloads import RotatedClassify  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple[dict, dict, dict]:
    """(result line, provenance, trace summary) of one traced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[0])["provenance"]
    with open(os.path.join(HERE, "out", f"trace-{workload}-{seed}.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return json.loads(lines[-1]), provenance, summary


@pytest.mark.parametrize("workload", ["rotated-classify", "named-cli", "lowdim"])
def test_counts_repeat_for_a_seed_and_inputs_change_with_it(workload):
    first, prov1, summary = traced_run(workload, 11)
    second, prov2, _ = traced_run(workload, 11)
    other, prov3, _ = traced_run(workload, 12)
    for result in (first, second, other):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _, _ in tracing.LAYER_METRICS}
    for name in tracing.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert prov1["inputs_sha256"] == prov2["inputs_sha256"]
    assert prov1["inputs_sha256"] != prov3["inputs_sha256"]
    assert prov1["ops_by_kind"] == prov3["ops_by_kind"]
    if workload == "rotated-classify":
        check_classification_counts(summary["by_kind"])


def check_classification_counts(by_kind: dict) -> None:
    """is_locally_complex runs twice per classification and once before a
    rejection; verify_iso once per trivial-grading and twice per
    natural-grading classification."""
    for kind, (_, grading, expected) in RotatedClassify.KINDS.items():
        calls = by_kind[kind]
        ops = calls["ops"]
        if expected is None:
            assert calls.get("properties.is_locally_complex") == ops, kind
            assert "analysis.verify_iso" not in calls, kind
        else:
            assert calls["properties.is_locally_complex"] == 2 * ops, kind
            per_op = 1 if grading == "trivial" else 2
            assert calls["analysis.verify_iso"] == per_op * ops, kind


def test_coverage_check_fails_on_a_missed_reference():
    import cdalg.cli  # noqa: F401  (every module the tracer scans)
    from cdalg import analysis, linalg

    original = linalg.nullspace
    probe = types.ModuleType("cdalg._coverage_probe")
    probe.SOLVERS = [original]  # a binding the attribute patch cannot reach
    sys.modules[probe.__name__] = probe
    try:
        with pytest.raises(tracing.CoverageError, match="nullspace"):
            tracing.Tracer().install()
        assert linalg.nullspace is original
    finally:
        del sys.modules[probe.__name__]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert linalg.nullspace is not original and analysis.nullspace is linalg.nullspace
        assert tr.unwrapped_references() == []
    finally:
        tr.uninstall()
    assert linalg.nullspace is original and analysis.nullspace is original


def test_fails_without_the_library(tmp_path):
    """Given only the benchmark's own files, it exits non-zero with no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lowdim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
