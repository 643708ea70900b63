"""Tests of the benchmark itself: statistics, failure accounting, seeded
inputs and tracing.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import rkhsquad
from rkhsquad import experiments, verify, worst_case

import run
import worker
import workloads
from tracer import HOOK_SPAN, Tracer, kernel_entries, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, p, beyond",
    [(3, None, None), (19, None, None), (20, 50.0, 10), (99, 50.0, 49),
     (100, 90.0, 10), (999, 90.0, 99), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_percentile_is_highest_with_ten_samples_beyond(n, p, beyond):
    report = run.percentile_report(range(n))
    assert report["n"] == n
    assert report["median"] == (n - 1) / 2
    if p is None:
        assert report["tail"] is None
    else:
        assert report["tail"]["p"] == p
        assert report["tail"]["beyond"] == beyond
        assert sum(1 for v in range(n) if v > report["tail"]["value"]) == beyond


# -- failure accounting ---------------------------------------------------------


def test_run_ops_records_failures_without_retry():
    calls = []

    def body(value):
        def f():
            calls.append(value)
            if value == "raise":
                raise ArithmeticError("boom")
            return {"x": 1.0}

        return f

    ops = [
        workloads.Op("ok", body("ok"), lambda out: None),
        workloads.Op("raises", body("raise"), lambda out: None),
        workloads.Op("bad-gate", body("bad"), lambda out: "wrong"),
        workloads.Op("gate-raises", body("gate"), lambda out: 1 / 0),
    ]
    records = worker.run_ops(ops)
    assert calls == ["ok", "raise", "bad", "gate"]
    assert [r["ok"] for r in records] == [True, False, False, False]
    assert "ArithmeticError" in records[1]["reason"]
    assert records[2]["reason"] == "wrong"
    assert "ZeroDivisionError" in records[3]["reason"]


def test_failure_counts_and_ok_ratio():
    op = lambda ok: {"name": "big", "seconds": 1.0, "ok": ok}  # noqa: E731
    passes = [
        {"ops": [op(True), op(False), op(True)], "pass_s": 2.0, "rss_mb": 10.0},
        {"error": "worker exited 1"},
        {"ops": [op(True), op(True), op(True)], "pass_s": 4.0, "rss_mb": 30.0},
    ]
    attempted, failed = run.failure_counts(passes, planned_ops=3)
    assert (attempted, failed) == (9, 4)
    metrics = run.end_to_end(passes, [0.5, 0.7, 0.6], "big", attempted, failed)
    assert metrics["ok_op_ratio"]["value"] == pytest.approx(5 / 9)
    assert metrics["pass_s"]["value"] == 3.0
    assert metrics["setup_s"]["value"] == 0.6
    assert metrics["peak_rss_mb"]["value"] == 20.0


def test_gates_reject_wrong_outputs():
    ops = {op.name: op for op in workloads.build("mdm-decay", 1)}
    good = {"cost": 9.0, "value": 0.1589746032158469, "tail": 0.0, "weights": np.ones(5) / 5}
    gate = ops["A@10"].gate
    assert gate(good) is None
    assert "reference" in gate({**good, "value": good["value"] * (1 + 1e-9)})
    assert "budget" in gate({**good, "cost": 11.0})
    assert "non-finite" in gate({**good, "tail": float("nan")})

    gram = workloads.build("quad-gram", 1)[0]
    pref = 5.0 ** -1.0  # (1 + 4 sigma^2)^(-d/4) at sigma = 1, d = 4
    assert gram.gate({"e_g": pref * 0.5, "e_h": 0.5, "weights": np.ones(3)}) is None
    assert "residual" in gram.gate({"e_g": pref * 0.5 * (1 + 1e-8), "e_h": 0.5, "weights": np.ones(3)})

    verify_gate = workloads.build("quad-gram", 1)[-1].gate
    assert verify_gate({"exit": 0, "stdout": "PASS a\nPASS b\n"}) is None
    assert verify_gate({"exit": 1, "stdout": "PASS a\nFAIL b\n"}) is not None


# -- seeded inputs --------------------------------------------------------------


def _same(a, b):
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b))
    return (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first, again, other = (workloads.inputs(workload, s) for s in (3, 3, 4))
    assert first.keys() == again.keys() == other.keys()
    assert all(_same(first[k], again[k]) for k in first)
    if first:
        assert not all(_same(first[k], other[k]) for k in first)


def test_workload_tables_agree():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.BIG_OP) == run.WORKLOADS
    for name in run.WORKLOADS:
        assert workloads.BIG_OP[name] in [op.name for op in workloads.build(name, 1)]


# -- tracing --------------------------------------------------------------------


def _cheap_ops():
    mdm = [op for op in workloads.build("mdm-decay", 5) if op.name.startswith("A@")][:3]
    spline = workloads.build("approx-spline", 5)[:1]
    gram = workloads.build("quad-gram", 5)[:1]
    gh = [op for op in workloads.build("quad-gram", 5) if op.name == "tensor-decay"]
    return mdm + spline + gram + gh


def test_traced_outputs_are_bit_identical():
    plain = worker.run_ops(_cheap_ops())
    tracer = Tracer().install()
    try:
        traced = worker.run_ops(_cheap_ops(), tracer)
    finally:
        tracer.uninstall()
    assert all(r["ok"] for r in plain + traced), plain + traced
    assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
    names = {span[0] for span in tracer.spans}
    assert {"algorithms.mdm_build", "algorithms._pairwise_quadratic", "worst_case._solve_spd.eig",
            "worst_case.MultiIndexSet", "cli.main", "algorithms.tensor_rule"} <= names


def test_install_rebinds_every_namespace_and_uninstall_restores():
    originals = (experiments.mdm_build, worst_case.hermite_table, verify.SUITES["mehler"],
                 rkhsquad.MultiIndexSet.__dict__["box"], np.linalg.eigvalsh)
    tracer = Tracer().install()
    try:
        assert experiments.mdm_build is not originals[0]
        assert experiments.mdm_build is rkhsquad.mdm_build
        assert worst_case.hermite_table is not originals[1]
        assert verify.SUITES["mehler"] is verify.suite_mehler is not originals[2]
    finally:
        tracer.uninstall()
    assert (experiments.mdm_build, worst_case.hermite_table, verify.SUITES["mehler"],
            rkhsquad.MultiIndexSet.__dict__["box"], np.linalg.eigvalsh) == originals


def test_self_times_and_layer_metrics():
    spans = [
        ["algorithms.mdm_wce", 0.0, 10.0, -1, 0, False],
        ["algorithms._pairwise_quadratic", 1.0, 7.0, 0, 0, False],
        ["kernels.hermite_kernel", 2.0, 3.0, 1, 0, True],
        ["worst_case._solve_spd.eig", 8.0, 9.0, 0, 0, False],
        [HOOK_SPAN, 9.0, 9.5, 0, 0, False],
    ]
    assert self_times(spans) == [2.5, 5.0, 1.0, 1.0, 0.5]
    layers = layer_metrics(spans, {"algorithms.support_groups": 4}, pass_s=10.0)
    assert layers["algorithms.mdm_wce.self_s"] == 2.5
    assert layers["trace.hook_s"] == 0.5
    assert "bench.self_s" not in layers and f"{HOOK_SPAN}.self_s" not in layers
    assert layers["algorithms.self_s"] == 7.5
    assert layers["worst_case._solve_spd.eig_s"] == 1.0
    assert layers["kernels.raised"] == 1 and "algorithms.raised" not in layers
    assert layers["trace.self_share"] == 0.95
    assert layers["algorithms.support_groups"] == 4


def test_kernel_entries_matches_pairwise_count():
    rng = np.random.default_rng(0)
    groups = []
    for supp in [(), (0,), (2,), (0, 2), (1, 3, 4)]:
        n = int(rng.integers(1, 5))
        groups.append((supp, np.zeros((n, 5)), np.ones(n)))
    want = sum(
        groups[a][1].shape[0] * groups[b][1].shape[0] * len(set(groups[a][0]) | set(groups[b][0]))
        for a in range(len(groups)) for b in range(a, len(groups))
    )
    assert kernel_entries(groups) == want
