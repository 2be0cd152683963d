"""Per-layer metrics read off spans and counters, and the trace-shape checks."""
import pytest

from perfbench import layers, workloads
from perfbench.tracing import Counters, Span, Tracer
from roughscale import cli, pipeline
from roughscale.scaling import divisors_of_1440


def test_job_values_sums_spans_and_forms_ratios():
    spans = [Span(0, "pipeline.run_rolling", 0.0, 10.0, None, 1),
             Span(1, "mfdfa.fluctuation_function", 1.0, 4.0, 0, 1),
             Span(2, "mfdfa.segment_variances", 2.0, 3.0, 1, 1),
             Span(3, "mfdfa.fluctuation_function", 5.0, 7.0, 0, 1)]
    c = Counters()
    c.add("mfdfa.points_detrended", 900)
    c.add("mfdfa.full_span_points", 300)
    c.add("pipeline.run_rolling_calls")
    c.add("pipeline.window_overlap_sum", 0.75)
    v = layers.job_values(spans, c)
    assert v["mfdfa.fluctuation_function_s"] == pytest.approx(5.0)
    assert v["mfdfa.fluctuation_function_calls"] == 2
    assert v["mfdfa.segment_variances_s"] == pytest.approx(1.0)
    assert v["pipeline.self_s"] == pytest.approx(5.0)
    assert v["mfdfa.recompute_ratio"] == pytest.approx(3.0)
    assert v["pipeline.window_overlap"] == pytest.approx(0.75)
    assert v["market_data.parse_ticks_s"] == 0.0 and v["cli.self_s"] == 0.0

    metrics = layers.per_layer_metrics([v, {**v, "pipeline.self_s": 7.0}], [], 0.1)
    assert [m for m, _, _ in layers.PER_LAYER] == list(metrics)
    assert metrics["pipeline.self_s"]["value"] == pytest.approx(6.0)  # median of 5 and 7
    assert metrics["trace_overhead_frac"] == {"value": 0.1, "unit": "ratio"}


def test_shape_checks_gate_absent_layers_and_report_the_largest():
    oracle = [Span(0, "mfdfa.fluctuation_function", 0.0, 1.0, None, 1),
              Span(1, "market_data.parse_ticks", 1.0, 2.0, None, 1)]
    checks = layers.shape_checks("oracle_study", oracle)
    assert [(c["check"], c["gate"], c["ok"]) for c in checks] == [
        ("no market_data spans", True, False), ("no pipeline spans", True, True)]
    rolling = [Span(0, "pipeline.run_rolling", 0.0, 10.0, None, 1),
               Span(1, "scaling.fit_ansatz", 0.0, 6.0, 0, 1),
               Span(2, "mfdfa.segment_variances", 6.0, 9.0, 0, 1)]
    checks = layers.shape_checks("rolling_rv", rolling)
    largest = checks[-1]
    assert largest["gate"] is False and largest["ok"] is False
    assert "largest module is scaling" in largest["detail"]


def test_full_trace_of_a_small_cli_run(tmp_path):
    wl = workloads.TicksCLI()
    wl.num_days, wl.window_days, wl.step_days = 80, 60, 10
    inputs = wl.setup(4, tmp_path)
    originals = (cli.parse_ticks, pipeline.fluctuation_function)
    with Tracer() as tracer:
        tracer.install(layers.TARGETS)
        with tracer.span("bench.job"):
            assert wl.job(inputs) == 0
    assert (cli.parse_ticks, pipeline.fluctuation_function) == originals
    v = layers.job_values(tracer.spans, tracer.counters)
    deltas = len(divisors_of_1440())
    windows = wl.expected_windows()
    assert v["pipeline.windows"] == windows == 3
    assert v["market_data.rows_parsed"] == inputs.valid_rows
    assert v["market_data.resample_calls"] == deltas
    assert v["market_data.grid_days"] == deltas * inputs.days_with_trades
    assert v["market_data.leading_backfills"] == deltas
    assert v["realized_volatility.log_increments_calls"] == deltas * windows
    assert v["mfdfa.fluctuation_function_calls"] == deltas * windows
    assert v["scaling.fit_ansatz_calls"] == windows
    # six solver starts per fit that gets past its input checks (short
    # windows can give h2 <= 0, which fit_ansatz rejects before solving)
    assert v["scaling.least_squares_calls"] % 6 == 0
    assert v["scaling.nfev"] >= v["scaling.least_squares_calls"]
    assert v["multifractal_metrics.taylor_b1_calls"] == windows
    assert v["pipeline.window_overlap"] == pytest.approx(1 - 10 / 60)
    assert v["mfdfa.recompute_ratio"] > 1
    assert v["cli.self_s"] > 0 and v["market_data.parse_ticks_s"] > 0
    pool_spans = [s for s in tracer.spans if s.name == "mfdfa.fluctuation_function"]
    run = next(s for s in tracer.spans if s.name == "pipeline.run_rolling")
    assert all(s.parent == run.id for s in pool_spans)
    assert layers.largest_module(tracer.spans) is not None
