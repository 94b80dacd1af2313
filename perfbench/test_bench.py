"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import math
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

import spans
import stats

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 4.0
    assert stats.percentile(xs, 50) == 2.5
    assert stats.percentile(xs, 25) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, label", [(5, "max"), (19, "max"), (20, "p50"),
                                      (40, "p75"), (100, "p90"), (200, "p95"),
                                      (1000, "p99")])
def test_high_percentile_keeps_ten_samples_beyond(n, label):
    xs = [float(i) for i in range(n)]
    got, value = stats.high_percentile(xs)
    assert got == label
    if label == "max":
        assert value == n - 1
    else:
        q = float(label[1:])
        assert value == pytest.approx(stats.percentile(xs, q))
        assert sum(x > value for x in xs) >= stats.MIN_TAIL


def test_summary_reports_sample_count():
    s = stats.summary([3.0, 1.0, 2.0])
    assert s == {"n": 3, "p50": 2.0, "max": 3.0}


def test_seconds_per_digit():
    assert stats.digits(1.0, 1e-8) == pytest.approx(8.0)
    assert stats.digits(2.0, 2e-9) == pytest.approx(9.0)
    assert stats.seconds_per_digit(4.0, stats.digits(1.0, 1e-8)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        stats.digits(1.0, 0.0)
    with pytest.raises(ValueError):
        stats.seconds_per_digit(1.0, 0.0)


def test_fail_rate():
    assert stats.fail_rate(0, 7) == 0.0
    assert stats.fail_rate(3, 12) == 0.25
    for failed, attempted in ((1, 0), (-1, 3), (4, 3)):
        with pytest.raises(ValueError):
            stats.fail_rate(failed, attempted)


def test_geomean_and_quartile_spread():
    assert stats.geomean([0.1, 10.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert stats.quartile_spread(xs) == pytest.approx((q3 - q1) / med)


def test_self_time_of_nested_spans():
    #  root [0, 10]  > a [1, 4] > b [2, 3]
    #                > c [5, 6]
    tree = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 6.0, 0)]
    assert stats.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(stats.self_times(tree)) == pytest.approx(10.0)


def test_tracer_records_nested_calls_and_restores():
    ticks = iter(range(100))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)

    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer:
        tracer.wrap(mod, "outer", "outer", lambda a, k: {"x": a[0]})
        tracer.wrap(mod, "inner", "inner")
        tracer.op = 7
        assert mod.outer(3) == 8
    assert (mod.inner, mod.outer) == original
    (name0, s0, e0, p0, op0, a0), (name1, s1, e1, p1, op1, a1) = tracer.spans
    assert (name0, p0, op0, a0) == ("outer", None, 7, {"x": 3})
    assert (name1, p1, op1, a1) == ("inner", 0, 7, None)
    assert s0 < s1 < e1 < e0


def test_tracer_refuses_a_missing_name():
    tracer = spans.Tracer()
    with pytest.raises(AttributeError):
        tracer.wrap(types.SimpleNamespace(), "missing", "missing")


def test_tracer_closes_span_when_call_raises():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = spans.Tracer()
    with tracer:
        tracer.wrap(mod, "boom", "boom")
        with pytest.raises(ZeroDivisionError):
            mod.boom()
    assert tracer.spans[0][2] is not None
    assert tracer._stack == []


def test_layer_shares_account_for_traced_time():
    import layers
    prob3, prob7 = {"n": 3}, {"n": 7}
    sweep = "mgsolver.distributive_two_color_sweep"
    tree = [
        ["op", 0.0, 10.0, None, 0, None],
        ["mgsolver.v_cycle", 1.0, 9.0, 0, 0, prob7],
        [sweep, 1.0, 4.0, 1, 0, {"n": 7, "band": None}],
        ["mgsolver.assemble_residual", 2.0, 3.0, 2, 0, prob7],
        [sweep, 4.0, 5.0, 1, 0, {"n": 7, "band": 13}],
        [sweep, 5.0, 7.0, 1, 0, {"n": 3, "band": None}],
        ["mgsolver.assemble_residual", 5.5, 6.0, 5, 0, prob3],
    ]
    m = layers.layer_metrics(tree, coarsest_n=3, traced_s=10.0, untraced_s=8.0)
    assert m["mgsolver.sweep_full.calls"] == 1
    assert m["mgsolver.sweep_full.self_share"] == pytest.approx(20.0)
    assert m["mgsolver.sweep_full.mnodes_per_s"] == pytest.approx(49 / 3.0 / 1e6)
    assert m["mgsolver.sweep_band.useful_ratio"] == pytest.approx(13 / 49)
    assert m["mgsolver.coarsest.sweeps"] == 1
    assert m["mgsolver.coarsest.self_share"] == pytest.approx(20.0)
    assert m["mgsolver.assemble_residual.calls"] == 1
    assert m["mgsolver.assemble_residual.in_sweep_share"] == 1.0
    assert m["mgsolver.v_cycle.unattributed_share"] == pytest.approx(20.0)
    assert m["bench.op.self_share"] == pytest.approx(20.0)
    assert m["trace.overhead_share"] == pytest.approx(25.0)
    layer_total = sum(v for k, v in m.items() if k.endswith("self_share")
                      and k != "bench.op.self_share")
    assert layer_total == pytest.approx(m["trace.layer_share"])
    assert (m["trace.layer_share"] + m["mgsolver.v_cycle.unattributed_share"]
            + m["bench.op.self_share"]) == pytest.approx(100.0)


def test_measure_runs_every_probe_outside_the_measured_time():
    import run

    class Sleepy:
        def draw_round(self):
            return [None]

        def run(self, inp):
            time.sleep(0.002)
            return {"ok": True}, []

    def probe():
        time.sleep(0.05)
        return "setup"

    _, results, problems, probed = run.measure(Sleepy(), 0.02, probe, 4)
    assert probed == ["setup"] * 4
    assert problems == []
    # 0.2 s of probes would end the loop after a few operations if counted.
    assert len(results) >= 8


def test_benchmark_json_declares_the_printed_metrics():
    import layers
    import run
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert max(bench["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert math.isclose(max(m["bound"] for m in bench["end_to_end"]), 0.25)
