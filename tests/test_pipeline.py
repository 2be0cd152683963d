import dataclasses
import datetime as dt
import json
import re
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from perfbench.generators import rolling_inputs
from roughscale import market_data, mfdfa, pipeline
from roughscale.errors import DataError, NumericError
from roughscale.finite_sample import relative_error
from roughscale.market_data import (TickSeries, date_to_epoch_seconds, intraday_log_returns,
                                    resample_prices, samples_per_day, trade_index)
from roughscale.mfdfa import (MIN_FIT_LENGTH, MfdfaConfig, default_scales,
                              fluctuation_function, generalized_hurst)
from roughscale.multifractal_metrics import delta_h, taylor_b1
from roughscale.pipeline import (RollingSpec, WindowReport,
                                 build_rv_by_delta, emit_report, report_document,
                                 resolve_deltas, run_rolling)
from roughscale.realized_volatility import RVSeries, compute_daily_rv, log_increments
from roughscale.scaling import FrequencySweep, divisors_of_1440, fit_ansatz
from roughscale.synthetic import generate_fgn

DAY0 = dt.date(2014, 1, 2)


def fgn_rv_series(num_days, H=0.13, seed=0, delta=5):
    """RV series whose log-RV increments are exactly fGn(H)."""
    length = 1 << max(10, int(np.ceil(np.log2(num_days))))
    increments = generate_fgn(H, length, seed)[:num_days - 1]
    log_rv = np.concatenate([[0.0], np.cumsum(increments)])
    dates = [DAY0 + dt.timedelta(days=i) for i in range(num_days)]
    return RVSeries(delta_minutes=delta, dates=dates, rv=np.exp(log_rv),
                    daily_return=np.zeros(num_days), samples_per_day=1440 // delta)


class TestRolling:
    def test_window_count_rule(self):
        data = {5: fgn_rv_series(400)}
        rolling = RollingSpec(window_days=365, step_days=5)
        reports = run_rolling(data, rolling)
        assert len(reports) == (400 - 365) // 5 + 1 == 8
        assert reports[0].window_start == DAY0
        assert reports[1].window_start == DAY0 + dt.timedelta(days=5)

    def test_fgn_driven_log_rv_recovers_h(self):
        data = {5: fgn_rv_series(2922, H=0.13, seed=21)}
        rolling = RollingSpec(window_days=2922, step_days=5)
        reports = run_rolling(data, rolling)
        assert len(reports) == 1
        r = reports[0]
        assert r.reason is None or r.reason == "too_few_deltas_for_ansatz"
        assert r.h2_by_delta[5] == pytest.approx(0.13, abs=0.04)
        assert r.reference_n == 288

    def test_reference_n_recorded(self):
        data = {5: fgn_rv_series(400)}
        reports = run_rolling(data, RollingSpec(window_days=365, step_days=5))
        assert all(r.reference_n == 288 for r in reports)

    def test_reference_relative_error_of_a_window(self):
        # the paper's claim (ii): a/(n+a) of the window's fit at the
        # reference delta's n; null for a window without a fit
        data = rolling_inputs(1, 800).rv_by_delta
        rolling = RollingSpec(window_days=730, step_days=70)
        report = run_rolling(data, rolling)[0]
        assert report.ansatz is not None
        want = relative_error(report.reference_n, report.ansatz.a)
        assert report.reference_relative_error == want
        assert report.to_dict()["reference_relative_error"] == want
        alone = run_rolling({5: data[5]}, rolling)[0]
        assert alone.reason == "too_few_deltas_for_ansatz"
        assert alone.to_dict()["reference_relative_error"] is None

    def test_multi_delta_with_ansatz(self):
        data = {d: fgn_rv_series(420, seed=d, delta=d) for d in (5, 30, 60, 120)}
        reports = run_rolling(data, RollingSpec(window_days=365, step_days=50))
        assert len(reports) == 2
        for r in reports:
            assert set(r.h2_by_delta) == {5, 30, 60, 120}
            assert r.delta_h3 is not None
            assert r.b1 == pytest.approx(-r.delta_h3 / 6)

    def test_window_isolation(self):
        data = {5: fgn_rv_series(420, seed=33)}
        rolling = RollingSpec(window_days=365, step_days=50)
        full = run_rolling(data, rolling)
        rv = data[5]
        start = full[1].window_start
        end = start + dt.timedelta(days=365)
        keep = [i for i, d in enumerate(rv.dates) if start <= d < end]
        sliced = {5: RVSeries(delta_minutes=5, dates=[rv.dates[i] for i in keep],
                              rv=rv.rv[keep], daily_return=rv.daily_return[keep],
                              samples_per_day=288)}
        alone = run_rolling(sliced, rolling)
        assert len(alone) == 1
        # inside the span the window's segments come from the span's table,
        # alone from its own: the same numbers up to roundoff
        assert alone[0].h2_by_delta[5] == pytest.approx(full[1].h2_by_delta[5], rel=1e-12, abs=0)

    def test_worker_count_does_not_change_results(self):
        data = {5: fgn_rv_series(420, seed=44)}
        rolling = RollingSpec(window_days=365, step_days=10)
        doc1 = report_document(run_rolling(data, rolling, workers=1))
        doc4 = report_document(run_rolling(data, rolling, workers=4))
        assert json.dumps(doc1) == json.dumps(doc4)

    def test_short_span_rejected(self):
        data = {5: fgn_rv_series(100)}
        with pytest.raises(DataError):
            run_rolling(data, RollingSpec(window_days=365, step_days=5))

    def test_reference_series_without_days(self):
        empty = RVSeries(delta_minutes=5, dates=[], rv=np.zeros(0), daily_return=np.zeros(0),
                         samples_per_day=288)
        with pytest.raises(DataError, match="no usable days in the data span"):
            run_rolling({5: empty}, RollingSpec(window_days=365, step_days=5))

    def test_missing_reference_delta_in_mapping(self):
        data = {10: fgn_rv_series(400, delta=10)}
        with pytest.raises(DataError, match="reference delta 5"):
            run_rolling(data, RollingSpec(window_days=365, step_days=5))

    @pytest.mark.parametrize("key,message", [
        (7, "delta 7 is not a positive divisor of 1440"),
        (10, "RV mapping key 10 holds a series of delta 5"),
    ])
    def test_bad_mapping_key_rejected_before_any_mfdfa(self, key, message):
        data = dict(rolling_inputs(5, 400).rv_by_delta)
        data[key] = data[5]
        with mock.patch.object(pipeline, "fluctuation_function",
                               wraps=pipeline.fluctuation_function) as spy, \
                pytest.raises(ValueError, match=message):
            run_rolling(data, RollingSpec(window_days=365, step_days=35))
        assert spy.call_count == 0

    def test_insufficient_window_reported_not_fatal(self):
        rv = fgn_rv_series(400)
        # zero out most days so drops leave too little data in each window
        broken = RVSeries(delta_minutes=5, dates=rv.dates,
                          rv=np.where(np.arange(400) % 3 == 0, rv.rv, 0.0),
                          daily_return=rv.daily_return, samples_per_day=288)
        reports = run_rolling({5: broken}, RollingSpec(window_days=365, step_days=50))
        assert all(r.reason == "insufficient_data" for r in reports)

    @pytest.mark.parametrize("increments", [MIN_FIT_LENGTH - 1, MIN_FIT_LENGTH])
    def test_shortest_fittable_window(self, increments):
        # a window of 40 to 47 increments has a default grid of 2 scales: its
        # delta is short, and the run goes on
        data = {d: fgn_rv_series(120, seed=d, delta=d) for d in (5, 60)}
        reports = run_rolling(data, RollingSpec(window_days=increments + 1, step_days=10))
        for report in reports:
            if increments < MIN_FIT_LENGTH:
                assert report.reason == "insufficient_data"
                assert report.diagnostics["short_deltas"] == [5, 60]
            else:
                assert list(report.h2_by_delta) == [5, 60]
                assert "short_deltas" not in report.diagnostics

    def test_detrend_order_checked_when_every_window_is_short(self):
        data = {5: fgn_rv_series(120)}
        with pytest.raises(ValueError, match=r"smallest scale must be >= detrend_order \+ 2"):
            run_rolling(data, RollingSpec(window_days=30, step_days=10), detrend_order=9)

    def test_window_with_fewer_than_two_positive_days_not_fatal(self):
        rv = fgn_rv_series(400)
        positive = (np.arange(400) == 0) | (np.arange(400) >= 390)
        sparse = RVSeries(delta_minutes=5, dates=rv.dates,
                          rv=np.where(positive, rv.rv, 0.0),
                          daily_return=rv.daily_return, samples_per_day=288)
        reports = run_rolling({5: sparse}, RollingSpec(window_days=365, step_days=50))
        assert len(reports) == 1
        assert reports[0].reason == "insufficient_data"
        assert reports[0].diagnostics["short_deltas"] == [5]
        assert reports[0].diagnostics["dropped_days"] == 364


class TestResolveDeltas:
    def test_sorted_distinct_with_the_reference(self):
        assert resolve_deltas([15, 1, 15], 5) == [1, 5, 15]
        assert resolve_deltas(None, 5) == resolve_deltas(None, 1440) == divisors_of_1440()

    @pytest.mark.parametrize("deltas,reference", [([0, 5], 5), ([-5, 5], 5),
                                                  ([5, 7], 5), ([5, 60], 7)])
    def test_each_delta_and_the_reference_must_divide_1440(self, deltas, reference):
        with pytest.raises(ValueError, match="is not a positive divisor of 1440"):
            resolve_deltas(deltas, reference)


def gappy_rv_series(num_days, seed, delta):
    """fGn-driven RV series with missing dates and scattered zero-RV days."""
    rv = fgn_rv_series(num_days, seed=seed, delta=delta)
    rng = np.random.default_rng(seed)
    values = rv.rv.copy()
    values[rng.choice(num_days, 12, replace=False)] = 0.0
    # a zero-RV day on the first and on the last day of the second window
    values[[20, 20 + 364]] = 0.0
    kept = np.ones(num_days, dtype=bool)
    gaps = np.setdiff1d(np.arange(1, num_days - 1), [20, 20 + 364])
    kept[rng.choice(gaps, 15, replace=False)] = False
    return RVSeries(delta_minutes=delta, dates=[d for d, k in zip(rv.dates, kept) if k],
                    rv=values[kept], daily_return=rv.daily_return[kept],
                    samples_per_day=rv.samples_per_day)


def window_rv(rv, start, end):
    """The days of `rv` in [start, end), as an RV series of their own."""
    keep = [i for i, d in enumerate(rv.dates) if start <= d < end]
    return RVSeries(delta_minutes=rv.delta_minutes, dates=[rv.dates[i] for i in keep],
                    rv=rv.rv[keep], daily_return=rv.daily_return[keep],
                    samples_per_day=rv.samples_per_day)


def direct_cell(rv, start, end):
    """One window's series the direct way: date-filter, then log-increments."""
    window = window_rv(rv, start, end)
    if len(window) < 2:
        return None
    dropped = int(np.count_nonzero(window.rv <= 0))
    if len(window) - dropped < 2:
        return dropped, np.empty(0)
    incr = log_increments(window, zero_policy="drop")
    assert incr.dropped_days == dropped
    return dropped, incr.values


class TestIndexRangeWindows:
    """Windows sliced from the full-span increments match the direct path."""

    def test_report_matches_direct_computation(self):
        data = {d: gappy_rv_series(470, seed=d, delta=d) for d in (5, 15, 30, 60, 120)}
        # delta 60: a long zero-RV run leaves the early windows too short
        rv60 = data[60]
        data[60] = RVSeries(delta_minutes=60, dates=rv60.dates,
                            rv=np.where(np.arange(len(rv60)) < 330, 0.0, rv60.rv),
                            daily_return=rv60.daily_return, samples_per_day=24)
        # delta 120: a single positive day, so no window has an increment
        rv120 = data[120]
        data[120] = RVSeries(delta_minutes=120, dates=rv120.dates,
                             rv=np.where(np.arange(len(rv120)) == 200, 1.0, 0.0),
                             daily_return=rv120.daily_return, samples_per_day=12)
        rolling = RollingSpec(window_days=365, step_days=20)
        deltas = sorted(data)
        first = data[5].dates[0]
        count = (470 - 365) // 20 + 1
        direct = []
        for i in range(count):
            start = first + dt.timedelta(days=i * 20)
            end = start + dt.timedelta(days=365)
            cells = [(d, direct_cell(data[d], start, end)) for d in deltas]
            direct.append(reference_window_report(start, end, cells, 5, 1, []))
        assert any(r.diagnostics.get("short_deltas") == [60, 120] for r in direct)
        assert any(r.diagnostics.get("short_deltas") == [120] for r in direct)
        for workers in (1, 2):
            assert_reports_match(run_rolling(data, rolling, workers=workers), direct)

    def test_detrend_order_reaches_each_window_mfdfa(self):
        data = {d: gappy_rv_series(470, seed=d, delta=d) for d in (5, 15, 30)}
        report = run_rolling(data, RollingSpec(window_days=365, step_days=20),
                             detrend_order=2)[1]
        for delta, q_values in ((5, None), (15, [2.0])):
            curve = window_curve(data[delta], report, 2, q_values)
            i = curve.index(2.0)
            assert report.h2_by_delta[delta] == pytest.approx(curve.h_values[i], rel=1e-12, abs=0)
            assert report.h2_stderr_by_delta[delta] == pytest.approx(curve.stderr[i], rel=1e-12,
                                                                      abs=0)
        want = window_curve(data[5], report, 2).h_values
        np.testing.assert_allclose(report.curve_h, want, rtol=1e-12, atol=0)
        order_1 = window_curve(data[5], report, 1).h_values
        assert np.abs(np.array(report.curve_h) - order_1).max() > 1e-6


def reference_window_report(start, end, cells, reference_delta, detrend_order,
                            exclude_deltas):
    """`_window_report` the per-delta way: one MFDFA call per delta, on the
    window's own series."""
    report = WindowReport(window_start=start, window_end=end,
                          reference_delta=reference_delta,
                          reference_n=samples_per_day(reference_delta))
    dropped_days = 0
    short_deltas = []
    failed_deltas = []
    for delta, cut in cells:
        dropped, series = cut or (0, ())
        dropped_days += dropped
        if len(series) < MIN_FIT_LENGTH:
            short_deltas.append(delta)
            continue
        reference = delta == reference_delta
        try:
            surface = fluctuation_function(series, MfdfaConfig.for_series(
                len(series), detrend_order, None if reference else [2.0]))
        except NumericError:
            failed_deltas.append(delta)
            continue
        curve = generalized_hurst(surface)
        i = curve.index(2.0)
        report.h2_by_delta[delta] = float(curve.h_values[i])
        report.h2_stderr_by_delta[delta] = float(curve.stderr[i])
        if reference:
            report.curve_q = curve.q_values.tolist()
            report.curve_h = curve.h_values.tolist()
            report.diagnostics["zero_variance_segments"] = int(surface.excluded_segments.sum())
            report.delta_h3 = delta_h(curve, 3.0)
            report.b0, report.b1 = taylor_b1(curve, 3.0)
    report.diagnostics["dropped_days"] = dropped_days
    if short_deltas:
        report.diagnostics["short_deltas"] = short_deltas
    if failed_deltas:
        report.diagnostics["mfdfa_failed_deltas"] = failed_deltas
    if not report.h2_by_delta:
        report.reason = "insufficient_data"
    elif len(report.h2_by_delta) < 3:
        report.reason = "too_few_deltas_for_ansatz"
    else:
        deltas = sorted(report.h2_by_delta)
        sweep = FrequencySweep(deltas=np.array(deltas),
                               h2=np.array([report.h2_by_delta[d] for d in deltas]))
        try:
            report.ansatz = fit_ansatz(sweep, exclude=exclude_deltas)
        except NumericError as exc:
            report.reason = "ansatz_fit_failed"
            report.diagnostics["ansatz_error"] = str(exc)
        else:
            a = report.ansatz.a
            report.reference_relative_error = a / (report.reference_n + a)
    return report


def assert_reports_match(got, want):
    """The gate for a fast path: every number within 1e-12 relative of the
    direct computation, and the same deltas, q grid, reason and diagnostics
    (exclusion counts included), in the same order."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        gd, wd = g.to_dict(), w.to_dict()
        assert (gd["window_start"], gd["reason"]) == (wd["window_start"], wd["reason"])
        assert list(gd["diagnostics"].items()) == list(wd["diagnostics"].items())
        for key in ("h2_by_delta", "h2_stderr_by_delta"):
            assert list(gd[key]) == list(wd[key])
            assert list(gd[key].values()) == pytest.approx(list(wd[key].values()),
                                                           rel=1e-12, abs=0)
        assert gd["curve_q"] == wd["curve_q"]
        assert gd["curve_h"] == pytest.approx(wd["curve_h"], rel=1e-12, abs=0)
        for key in ("delta_h3", "b0", "b1", "reference_relative_error"):
            assert (gd[key] is None) == (wd[key] is None)
            if wd[key] is not None:
                assert gd[key] == pytest.approx(wd[key], rel=1e-12, abs=0)
        assert (gd["ansatz"] is None) == (wd["ansatz"] is None)
        for key, value in (wd["ansatz"] or {}).items():
            if isinstance(value, float):
                assert gd["ansatz"][key] == pytest.approx(value, rel=1e-12, abs=0), key
            else:
                assert gd["ansatz"][key] == value, key


class TestStackedDeltas:
    """A window's deltas hold series of different lengths, and each delta's
    windows go through MFDFA together."""

    def test_report_matches_the_per_delta_loop(self):
        # zero-RV days that differ by delta give the deltas' series of one
        # window different lengths: 15 and 30 share one, 60 and 120 differ
        zero_days = {5: [], 15: [40], 30: [90], 60: [40, 41], 120: [100, 200, 300]}
        data = {}
        for delta, zeros in zero_days.items():
            rv = fgn_rv_series(400, seed=delta, delta=delta)
            values = rv.rv.copy()
            values[zeros] = 0.0
            data[delta] = RVSeries(delta_minutes=delta, dates=rv.dates, rv=values,
                                   daily_return=rv.daily_return, samples_per_day=1440 // delta)
        want = []
        for i in range((400 - 365) // 35 + 1):
            start = DAY0 + dt.timedelta(days=35 * i)
            end = start + dt.timedelta(days=365)
            cells = [(d, direct_cell(data[d], start, end)) for d in sorted(data)]
            lengths = {len(cell[1]) for d, cell in cells if d != 5}
            assert len(lengths) == 3
            want.append(reference_window_report(start, end, cells, 5, 1, []))
        # one call per delta, whatever its windows' series lengths
        with mock.patch.object(pipeline, "fluctuation_function",
                               wraps=pipeline.fluctuation_function) as spy:
            got = run_rolling(data, RollingSpec(window_days=365, step_days=35))
        assert spy.call_count == len(data)
        assert_reports_match(got, want)
        # delta order whichever delta is the reference
        other = run_rolling(data, RollingSpec(window_days=365, step_days=35),
                            reference_delta=60)
        for report in other:
            assert list(report.h2_by_delta) == list(report.h2_stderr_by_delta) == sorted(data)
            assert len(report.curve_q) == 13

    def test_windows_on_two_grids_take_one_call_and_one_table(self):
        # zero-RV days split each delta's windows over two default scale
        # grids; the kernel gives each window its own, from one set of
        # running sums a delta, and only the reference delta's full q grid
        # tabulates cells in a table
        data = rolling_inputs(3, 3062).rv_by_delta
        rolling = RollingSpec(window_days=2922, step_days=20)
        first = data[5].dates[0]
        grids = {d: set() for d in data}
        want = []
        for i in range((3062 - 2922) // 20 + 1):
            start = first + dt.timedelta(days=20 * i)
            end = start + dt.timedelta(days=2922)
            cells = [(d, direct_cell(data[d], start, end)) for d in sorted(data)]
            for d, (_, series) in cells:
                grids[d].add(tuple(default_scales(len(series))))
            want.append(reference_window_report(start, end, cells, 5, 1, []))
        assert all(len(g) == 2 for g in grids.values())
        with mock.patch.object(pipeline, "fluctuation_function",
                               wraps=pipeline.fluctuation_function) as calls, \
                mock.patch.object(mfdfa, "_running_sums", wraps=mfdfa._running_sums) as sums, \
                mock.patch.object(mfdfa, "_order1_table", wraps=mfdfa._order1_table) as tables:
            got = run_rolling(data, rolling)
        assert calls.call_count == sums.call_count == len(data) == 36
        assert tables.call_count == 1
        assert_reports_match(got, want)

    def test_a_window_with_a_constant_delta_drops_that_delta(self):
        # a stretch of equal RV makes every log-increment of Δ = 30 zero in
        # some windows: their MFDFA at Δ = 30 fails, and the rest stands
        data = dict(rolling_inputs(5, 500).rv_by_delta)
        rv = data[30]
        values = rv.rv.copy()
        values[340:470] = 1e-4
        data[30] = RVSeries(delta_minutes=30, dates=rv.dates, rv=values,
                            daily_return=rv.daily_return, samples_per_day=48)
        rolling = RollingSpec(window_days=90, step_days=35)
        got = run_rolling(data, rolling)
        deltas = sorted(data)
        want = []
        for report in got:
            cells = [(d, direct_cell(data[d], report.window_start, report.window_end))
                     for d in deltas]
            want.append(reference_window_report(report.window_start, report.window_end,
                                                cells, 5, 1, []))
        assert_reports_match(got, want)
        failed = [r for r in got if "mfdfa_failed_deltas" in r.diagnostics]
        assert failed and all(r.diagnostics["mfdfa_failed_deltas"] == [30] for r in failed)
        assert all(30 not in r.h2_by_delta and len(r.h2_by_delta) == len(deltas) - 1
                   for r in failed)
        assert any(30 in r.h2_by_delta for r in got)

    def test_one_metrics_call_per_run(self):
        # Δh(3) and B₁ of every window from one call each on the reference
        # delta's windowed curve
        data = {d: gappy_rv_series(470, seed=d, delta=d) for d in (5, 15, 30)}
        with mock.patch.object(pipeline, "delta_h", wraps=pipeline.delta_h) as widths, \
                mock.patch.object(pipeline, "taylor_b1", wraps=pipeline.taylor_b1) as slopes:
            got = run_rolling(data, RollingSpec(window_days=365, step_days=20))
        assert widths.call_count == slopes.call_count == 1
        assert len(got) > 1 and all(r.delta_h3 is not None for r in got)
        want = [reference_window_report(
            r.window_start, r.window_end,
            [(d, direct_cell(data[d], r.window_start, r.window_end)) for d in sorted(data)],
            5, 1, []) for r in got]
        assert_reports_match(got, want)

    def test_memory_peak_of_a_paper_scale_window(self):
        # one 2922-day window of all 36 deltas: one delta's table over its
        # span and one pass of windows at a time (the stacked deltas peaked
        # here at 2.9 MB, and at 11.6 MB when taken in a single pass)
        inputs = rolling_inputs(3, 2922)
        tracemalloc.start()
        try:
            reports = run_rolling(inputs.rv_by_delta, RollingSpec(window_days=2922, step_days=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 1 and len(reports[0].h2_by_delta) == 36
        assert peak <= 4 * 2 ** 20


def window_curve(rv, report, detrend_order, q_values=None):
    """h(q) of the report's window of `rv`, from that window's own increments."""
    window = window_rv(rv, report.window_start, report.window_end)
    series = log_increments(window, zero_policy="drop").values
    config = MfdfaConfig.for_series(len(series), detrend_order, q_values)
    return generalized_hurst(fluctuation_function(series, config))


class TestEmitReport:
    def make_reports(self):
        data = {d: fgn_rv_series(400, seed=d, delta=d) for d in (5, 60)}
        return run_rolling(data, RollingSpec(window_days=365, step_days=35))

    def test_h2_csv_row_count(self, tmp_path):
        reports = self.make_reports()
        json_path = tmp_path / "report.json"
        h2_path = tmp_path / "h2.csv"
        emit_report(reports, str(json_path), str(h2_path))
        rows = h2_path.read_text().strip().splitlines()
        expected = sum(len(r.h2_by_delta) for r in reports)
        assert len(rows) == expected + 1  # header

    def test_json_round_trip_bit_exact(self, tmp_path):
        reports = self.make_reports()
        json_path = tmp_path / "report.json"
        doc = emit_report(reports, str(json_path), config_echo={"deltas": [5, 60]})
        parsed = json.loads(json_path.read_text())
        assert parsed == json.loads(json.dumps(doc))
        for win, orig in zip(parsed["windows"], doc["windows"]):
            for key in ("h2_by_delta", "curve_h", "delta_h3", "b1"):
                assert win[key] == orig[key]

    def test_to_dict_is_an_independent_asdict_with_iso_dates_and_string_keys(self):
        spec = RollingSpec(window_days=365, step_days=35)
        fitted = run_rolling(rolling_inputs(5, 400).rv_by_delta, spec, exclude_deltas=[60])
        short = run_rolling({5: fgn_rv_series(400)}, RollingSpec(window_days=30, step_days=25))
        reports = fitted[:2] + short[:2]
        assert reports[0].ansatz.excluded_deltas and reports[2].diagnostics["short_deltas"]
        for report in reports:
            want = dataclasses.asdict(report)
            want["window_start"] = report.window_start.isoformat()
            want["window_end"] = report.window_end.isoformat()
            for key in ("h2_by_delta", "h2_stderr_by_delta"):
                want[key] = {str(k): want[key][k] for k in sorted(want[key])}
            want = json.dumps(want)
            got = report.to_dict()
            assert json.dumps(got) == want

            def clear(value):
                for inner in value.values() if isinstance(value, dict) else value:
                    if isinstance(inner, (dict, list)):
                        clear(inner)
                value.clear()

            clear(got)
            assert json.dumps(report.to_dict()) == want

    def test_empty_q_grid_gives_header_only_hq_csv(self, tmp_path):
        data = {5: fgn_rv_series(400)}
        # 30-day windows hold too few increments for MFDFA: no curve anywhere
        reports = run_rolling(data, RollingSpec(window_days=30, step_days=25))
        hq_path = tmp_path / "hq.csv"
        emit_report(reports, str(tmp_path / "r.json"), hq_csv_path=str(hq_path))
        assert all(r.curve_q == [] for r in reports)
        assert hq_path.read_text().splitlines() == ["window_start,q,h"]

    def test_no_reports_is_an_error(self, tmp_path):
        with pytest.raises(DataError):
            emit_report([], str(tmp_path / "r.json"))


def long_ticks():
    """Ticks over 200 days, 199 of them with trades: the data starts mid-day,
    day 57 has no trade, and the day's trade count runs from 20 to 3000, so
    the 1-minute coverage runs from ~0.01 to ~0.9."""
    rng = np.random.default_rng(11)
    t0 = date_to_epoch_seconds(DAY0)
    per_day = rng.integers(20, 3000, 200)
    per_day[57] = 0
    timestamps = np.concatenate([t0 + 86400 * day + np.sort(rng.integers(0, 86400, count))
                                 for day, count in enumerate(per_day.tolist())])
    timestamps = timestamps[timestamps >= t0 + 13 * 3600]
    return TickSeries(timestamps=timestamps, prices=100 * np.exp(
        np.cumsum(rng.normal(0, 1e-3, len(timestamps)))))


class TestBuildRvByDelta:
    def test_from_ticks(self):
        rng = np.random.default_rng(7)
        t0 = date_to_epoch_seconds(DAY0)
        minutes = 5 * 1440
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 1e-3, minutes)))
        ticks = TickSeries(timestamps=t0 + 60 * np.arange(minutes, dtype=np.int64),
                           prices=prices)
        rv = build_rv_by_delta(ticks, [60, 120])
        assert set(rv) == {60, 120}
        assert len(rv[60]) == 5
        # RV at coarser sampling comes from pairwise-summed returns of the same grid
        assert np.all(rv[60].rv > 0)

    def test_ticks_passed_as_a_temporary_die_before_the_grids(self):
        # as `roughscale rolling` passes them: the job's memory peak is then
        # the larger of the parse and the trade index, not their sum
        ref = None

        def make_ticks():
            nonlocal ref
            t0 = date_to_epoch_seconds(DAY0)
            ticks = TickSeries(timestamps=t0 + 60 * np.arange(3 * 1440, dtype=np.int64),
                               prices=np.full(3 * 1440, 100.0))
            ref = weakref.ref(ticks)
            return ticks

        seen = []
        real = pipeline.resample_prices

        def resample(*args, **kwargs):
            seen.append(ref() is None)
            return real(*args, **kwargs)

        with mock.patch.object(pipeline, "resample_prices", resample):
            rv = build_rv_by_delta(make_ticks(), [60, 120])
        assert seen == [True, True]
        assert len(rv[60]) == len(rv[120]) == 3

    def test_one_resample_call_per_delta(self):
        # what the benchmark's tick workload counts: one resample_prices call,
        # one leading-edge backfill warning and every trading day, per delta
        rng = np.random.default_rng(3)
        t0 = date_to_epoch_seconds(DAY0) + 13 * 3600  # data starts mid-day
        timestamps = t0 + np.sort(rng.integers(0, 60 * 86400, 20_000))
        days = timestamps // 86400
        timestamps = timestamps[days != days[0] + 17]  # a zero-trade day
        ticks = TickSeries(timestamps=timestamps, prices=100 * np.exp(
            np.cumsum(rng.normal(0, 1e-3, len(timestamps)))))
        trading_days = len(np.unique(timestamps // 86400))
        assert trading_days == days[-1] - days[0]
        deltas = [5, 15, 30, 60, 120]
        grids = []
        real = pipeline.resample_prices

        def resample(*args, **kwargs):
            grids.append(real(*args, **kwargs))
            return grids[-1]

        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(pipeline, "resample_prices", side_effect=resample) as spy:
            warnings.simplefilter("always")
            build_rv_by_delta(ticks, deltas)
        backfills = [w for w in caught
                     if re.match(r"backfilled the day-open of 1 leading day", str(w.message))]
        assert spy.call_count == len(backfills) == len(deltas)
        assert [g.delta_minutes for g in grids] == deltas
        assert sum(len(g.days) for g in grids) == len(deltas) * trading_days

    # a run of 30 index rows at the 1-minute step, so 199 trading days end
    # in a run of 19; the default runs 90 rows, and ends in one of 19 too
    @pytest.mark.parametrize("run_points", [market_data._RUN_POINTS, 30 * 1441 + 5])
    @pytest.mark.parametrize("min_coverage", [0.0, 0.5])
    @pytest.mark.filterwarnings("ignore:backfilled the day-open")
    def test_runs_of_days_equal_the_per_grid_reference(self, run_points, min_coverage):
        ticks = long_ticks()
        deltas = divisors_of_1440()
        index = trade_index(ticks, deltas)
        assert len(index.days) == 199
        with mock.patch.object(market_data, "_RUN_POINTS", run_points):
            out = build_rv_by_delta(ticks, deltas, min_coverage=min_coverage)
        assert list(out) == deltas
        kept = [len(out[delta].dates) for delta in deltas]
        # the floor drops days at the finer deltas and none at a day
        assert (min(kept) < 199) == (min_coverage > 0) and kept[-1] == 199
        for delta in deltas:
            ref = compute_daily_rv(intraday_log_returns(
                resample_prices(index, delta, min_coverage)))
            assert out[delta].dates == ref.dates
            assert out[delta].rv.tobytes() == ref.rv.tobytes()
            assert out[delta].daily_return.tobytes() == ref.daily_return.tobytes()
            assert out[delta].samples_per_day == ref.samples_per_day

    @pytest.mark.filterwarnings("ignore:backfilled the day-open")
    def test_no_array_of_the_index_size_beside_it(self):
        # the returns and RV of the 1-minute grid are made a run of days at a
        # time: the peak is the index's prices, the per-day sums of every
        # delta and a few runs, where a whole-grid log, diff and square would
        # add two more arrays of the index's size
        deltas = divisors_of_1440()
        rng = np.random.default_rng(5)
        t0 = date_to_epoch_seconds(DAY0) + 13 * 3600
        timestamps = np.sort(t0 + rng.integers(0, 200 * 86400, 8000))
        held = [TickSeries(timestamps=timestamps,
                           prices=100 * np.exp(np.cumsum(rng.normal(0, 1e-3, 8000))))]
        index_bytes = trade_index(held[0], deltas).prices.nbytes
        run_points = 2 ** 14
        with mock.patch.object(market_data, "_RUN_POINTS", run_points):
            tracemalloc.start()
            try:
                build_rv_by_delta(held.pop(), deltas)  # as `roughscale rolling` passes them
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < index_bytes + 8 * 8 * run_points
