"""Self-tests of the benchmark harness, at tiny scale.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from workloads import WORKLOADS, import_bottiter, make_workload

HERE = Path(__file__).resolve().parent


def tiny(name: str, seed: int, workdir: Path):
    workload = make_workload(name, import_bottiter(), seed, workdir, tiny=True)
    workload.warm_up()
    return workload


def count_metrics(metrics: dict) -> dict:
    """The traced metrics that are counts, or ratios of counts."""
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit == "count" or (unit == "ratio" and not name.startswith("trace."))
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = tiny(name, workloads.DEFAULT_SEED, tmp_path)
    metrics, sweeps = run.run_untraced(workload, 0)
    assert len(sweeps) == 1
    assert sweeps[0]["failures"] == []
    assert set(metrics) == {"verify_s", "query_p50_ms", "query_p99_ms", "queries_per_s"}
    assert all(value > 0 for value, _ in metrics.values())


def test_corrupted_expected_summary_counts_as_failure(tmp_path):
    expected = workloads.load_expected()
    pinned = next(s for s in expected if (s["n"], s["horizon"], s["Q"]) == (4, 200, 499))
    pinned["by_step"]["gap-bound"] += 1
    pinned["by_step"]["jump-clash"] -= 1
    workload = workloads.VerifyWorkload(
        import_bottiter(), workloads.DEFAULT_SEED, 200, range(3, 5), 1, 499, expected
    )
    failures = run.measure_sweep(workload)["failures"]
    assert len(failures) == 1
    assert "n=4" in failures[0] and "pinned" in failures[0]


def test_wrong_query_answers_count_as_failures(tmp_path):
    workload = tiny("profile-queries", 5, tmp_path)
    alpha = next(q for q in workload.queries if q.kind == "alpha")
    assert workload.check(alpha, (0, '{"alpha": "1/3"}', "")) is not None
    iterate = next(q for q in workload.queries if q.kind == "iterate")
    code, text, err = workload._call(iterate)
    assert workload.check(iterate, (2, text, "boom")) is not None
    # After the first answer, any answer that differs from it is wrong.
    assert workload.check(iterate, (code, text + " ", err)) is not None


@pytest.mark.parametrize("name", ["verify-desk", "profile-queries"])
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    runs = [
        run.run_traced(tiny(name, 3, tmp_path), 0, tmp_path / f"spans{i}")[0]
        for i in range(2)
    ]
    assert count_metrics(runs[0]) == count_metrics(runs[1])
    assert runs[0]["kernel.calls"][0] > 0
    # Per-layer self times add up to the traced time of the sweep.
    assert 0.97 < runs[0]["trace.self_coverage"][0] <= 1.0 + 1e-9
    assert (tmp_path / "spans0.bin").stat().st_size > 0


def test_calls_sent_to_the_compiled_kernel_are_counted(tmp_path):
    workload = tiny("verify-desk", 3, tmp_path)
    # The pure kernel has the compiled kernel's interface; stand it in.
    kernel = sys.modules["bottiter.kernel"]
    kernel._fastkernel, kernel._FORCE_PURE = sys.modules["bottiter._purekernel"], False
    metrics, _ = run.run_traced(workload, 0, tmp_path / "spans")
    assert metrics["kernel.compiled_share"][0] == 1.0


def test_seed_determines_the_inputs(tmp_path):
    bt = import_bottiter()

    def inputs(name, seed):
        workload = make_workload(name, bt, seed, tmp_path / f"{name}-{seed}", tiny=True)
        if name == "profile-queries":
            return [(q.kind, q.argv[3:], q.doc) for q in workload.queries]
        return workload.qs

    for name in WORKLOADS:
        assert inputs(name, 1) == inputs(name, 1)
        assert inputs(name, 1) != inputs(name, 2)
    assert inputs("verify-ci", workloads.DEFAULT_SEED)[0] == 499
    assert inputs("verify-desk", workloads.DEFAULT_SEED)[0] == 20011


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-ci",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
