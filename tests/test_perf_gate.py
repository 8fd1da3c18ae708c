"""The perf gate of ``scripts/run_perf_bench.py`` reads its baseline first.

``--out`` defaults to the committed ``BENCH_kernel.json``, the same file
CI passes to ``--check-against``.  If the results were written before
the baseline was read, the gate would compare the run with itself and
always pass.  These tests stub out the measurement, so they cost no
simulation time.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from scripts import run_perf_bench  # noqa: E402

#: Quick-window size of the ``saturated`` workload (see main()).
QUICK_SATURATED_CYCLES = 1_500


def _stub_run_workload(builder, strict, cycles, scale, repeats=1,
                       flow_stats=False):
    return {
        "wall_s": 1.0,
        "cycles": cycles,
        "cycles_per_s": 100.0,
        "flits_per_s": 100.0,
        "flits_forwarded": 100,
        "completed_txns": 10,
    }


def _unreachable_baseline() -> dict:
    activity = {
        "cycles": QUICK_SATURATED_CYCLES,
        "cycles_per_s": 1e12,
        "flits_per_s": 1e12,
    }
    return {"quick_workloads": {"saturated": {"activity": activity}}}


def test_gate_reads_baseline_before_out_overwrites_it(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(run_perf_bench, "run_workload", _stub_run_workload)
    bench = tmp_path / "BENCH_kernel.json"
    bench.write_text(json.dumps(_unreachable_baseline()))
    status = run_perf_bench.main([
        "--quick", "--workload", "saturated",
        "--check-against", str(bench), "--out", str(bench),
    ])
    assert status == 1
    assert "REGRESSION" in capsys.readouterr().out
    # --out still receives this run's results.
    written = json.loads(bench.read_text())
    assert written["quick_workloads"]["saturated"]["activity"][
        "cycles_per_s"
    ] == 100.0


def test_gate_passes_against_reachable_baseline(tmp_path, monkeypatch):
    monkeypatch.setattr(run_perf_bench, "run_workload", _stub_run_workload)
    baseline = _unreachable_baseline()
    activity = baseline["quick_workloads"]["saturated"]["activity"]
    activity["cycles_per_s"] = activity["flits_per_s"] = 100.0
    bench = tmp_path / "BENCH_kernel.json"
    bench.write_text(json.dumps(baseline))
    assert run_perf_bench.main([
        "--quick", "--workload", "saturated",
        "--check-against", str(bench), "--out", str(bench),
    ]) == 0


def test_unreadable_baseline_fails_before_measuring(tmp_path, monkeypatch):
    def _must_not_run(*args, **kwargs):
        raise AssertionError("measured despite an unreadable baseline")

    monkeypatch.setattr(run_perf_bench, "run_workload", _must_not_run)
    assert run_perf_bench.main([
        "--quick", "--workload", "saturated",
        "--check-against", str(tmp_path / "missing.json"),
        "--out", str(tmp_path / "out.json"),
    ]) == 1
