"""Output checks, failure counting, and tiny smoke runs of every workload."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import harness
import workloads
from selhaz import cli

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    value, pct, count = harness.tail(samples)
    assert count == 100 and value == 90.0 and pct == 90.0
    assert sum(s > value for s in samples) == 10
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_with_workers_sets_or_adds_the_flag():
    assert workloads.with_workers(("risk-table",), 2) == ("risk-table", "--workers", "2")
    assert workloads.with_workers(("x", "--workers", "2", "--n", "3"), 1) == (
        "x", "--workers", "1", "--n", "3",
    )  # fmt: skip


def _corrupting(main, corrupt_call: int):
    """main, but the output of call number corrupt_call has a digit appended."""
    calls = []

    def fake(argv):
        calls.append(argv)
        code = main(argv)
        if len(calls) == corrupt_call:
            sys.stdout.write("0")
        return code

    return fake


def test_corrupted_repeat_counts_as_failed():
    workload = workloads.build("table-default", seed=5, reps=200)
    runner = harness.Runner(workload, _corrupting(cli.main, corrupt_call=3))
    runner.reference_pass()
    times = []
    runner.run_pass(times)
    runner.run_pass(times)
    assert runner.attempted == 3
    assert runner.failed == 1
    assert "differs" in runner.problems[0]


def test_wrong_reference_value_counts_as_failed():
    workload = workloads.build("table-default", seed=5, reps=200)

    def wrong_n2(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        lines = buf.getvalue().splitlines()
        cells = lines[1].split(",")
        cells[4] = "0.900000"  # R_N2 of the first grid point, far from exact
        lines[1] = ",".join(cells)
        sys.stdout.write("\n".join(lines) + "\n")
        return code

    runner = harness.Runner(workload, wrong_n2)
    runner.reference_pass()
    assert runner.failed == 1
    assert "N2" in runner.problems[0] and "SE from exact" in runner.problems[0]
    # A later byte-identical repeat of the bad output also fails.
    runner.run_pass([])
    assert runner.failed == 2


def test_failing_command_counts_as_failed():
    workload = workloads.build("exact-k2", seed=5, reps=200)
    runner = harness.Runner(workload, lambda argv: cli.main(argv + ["--n", "1"]))
    seconds, ok = runner.invoke(1)
    assert not ok and runner.failed == 1 and "exit 1" in runner.problems[0]


def test_exact_check_rejects_mc_far_from_exact():
    workload = workloads.build("exact-k2", seed=5, reps=200)
    runner = harness.Runner(workload, cli.main)
    runner.reference_pass()
    assert runner.failed == 0, runner.problems
    outputs = list(runner.reference)
    doc = json.loads(outputs[1])
    doc["mc_risk"] = doc["exact_risk"] + 6 * doc["mc_std_error"]
    outputs[1] = json.dumps(doc)
    problems = workload.check(outputs)
    assert [i for i, _ in problems] == [1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_timed_run_completes(name, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 3)
    workload = workloads.build(name, seed=3, reps=300)
    src = Path(cli.__file__).resolve().parents[1]
    result = harness.timed_run(workload, cli.main, 0.0, src)
    assert result["runner"].failed == 0, result["runner"].problems
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["detail"]["setup_samples"] == 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_completes(name, tmp_path):
    workload = workloads.build(name, seed=3, reps=5000 if name == "dominance-k5" else 300)
    out = tmp_path / "spans.json"
    result = harness.traced_run(workload, cli.main, 0.0, out)
    assert result["runner"].failed == 0, result["runner"].problems
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["detail"]["counts_repeat"]
    assert json.loads(out.read_text())["spans"]
