"""Tests of the benchmark itself, at tiny sizes."""

import json
import sys

import pytest

from perfbench import run, tracing, workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "evenodd": lambda: workloads.EvenOdd(n=10),
    "fuzz": lambda: workloads.Fuzz(batch=4),
    "verify": lambda: workloads.Verify(corpus=8),
}


def _program_modules():
    return {k: m for k, m in sys.modules.items() if k == tracing.PACKAGE or k.startswith(tracing.PACKAGE + ".")}


@pytest.fixture(autouse=True)
def keep_program_modules(monkeypatch):
    """Set-up re-imports coercion_forge; hand the other tests their own copy back."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = _program_modules()
    yield
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def test_the_declared_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted(name, trace):
    record = workloads.measure(TINY[name](), seed=1, seconds=0, trace=trace)
    assert record["correct"], record["failures"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    assert {m["name"]: workloads.unit_of(m["name"]) for m in declared} == {
        m["name"]: m["unit"] for m in declared
    }


def test_traced_counts_repeat_between_runs():
    n = 10
    first, second = (workloads.measure(workloads.EvenOdd(n), 1, 0, True)["metrics"] for _ in range(2))
    counts = {k: v for k, v in first.items() if k.endswith(workloads.COUNT_SUFFIXES)}
    assert counts == {k: second[k] for k in counts}
    assert first["lam_s.steps_e"] + first["lam_s.steps_c"] == 6 * n + 4
    assert first["lam_sx.steps_e"] + first["lam_sx.steps_c"] == 9 * n + 6
    # stride 1: three size walks on the start, on each state and on the end;
    # the walks' recursive calls are not counted
    assert first["lam_s.size.calls"] == 3 * (6 * n + 4 + 2)


def test_a_wrong_expected_peak_raises_the_failed_ratio(monkeypatch):
    monkeypatch.setitem(workloads.EVENODD_PEAKS, "lams", (2, 22, 31))
    record = workloads.measure(workloads.EvenOdd(n=10), 1, 0, False)
    assert record["failed"] / record["attempted"] > 0
    assert not record["correct"]
    assert "want (2, 22, 31)" in record["failures"][0]


def test_a_missing_function_makes_its_layer_absent_and_the_rest_still_runs(monkeypatch):
    cf = workloads.import_program()
    original_step = cf.lam_sx.step
    monkeypatch.delattr(cf.lam_s, "metric_f")
    tracer = tracing.Tracer(cf)
    assert tracer.absent == ["lam_s.size"]
    tracer.install()
    try:
        cf.harness.spaceBench(4, "lamsx")
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(1.0)
    assert "lam_s.size.calls" not in metrics
    assert metrics["lam_sx.steps_e"] + metrics["lam_sx.steps_c"] == 9 * 4 + 6
    assert cf.lam_sx.step is original_step


def test_without_the_program_it_fails_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fuzz", "--seed", "1", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
