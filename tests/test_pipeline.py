import datetime as dt
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from perfbench.generators import rolling_inputs
from roughscale import pipeline
from roughscale.errors import DataError, NumericError
from roughscale.market_data import TickSeries, date_to_epoch_seconds, samples_per_day
from roughscale.mfdfa import MfdfaConfig, fluctuation_function, generalized_hurst
from roughscale.multifractal_metrics import delta_h, taylor_b1
from roughscale.pipeline import (MIN_WINDOW_SERIES, RollingSpec, WindowReport,
                                 _window_report, build_rv_by_delta, emit_report,
                                 report_document, resolve_deltas, run_rolling)
from roughscale.realized_volatility import RVSeries, log_increments
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
        assert alone[0].h2_by_delta[5] == full[1].h2_by_delta[5]

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
            direct.append(_window_report(start, end, cells, 5, 1, []))
        want = json.dumps(report_document(direct))
        assert any(r.diagnostics.get("short_deltas") == [60, 120] for r in direct)
        assert any(r.diagnostics.get("short_deltas") == [120] for r in direct)
        for workers in (1, 2):
            got = run_rolling(data, rolling, workers=workers)
            assert json.dumps(report_document(got)) == want

    def test_detrend_order_reaches_each_window_mfdfa(self):
        data = {d: gappy_rv_series(470, seed=d, delta=d) for d in (5, 15, 30)}
        report = run_rolling(data, RollingSpec(window_days=365, step_days=20),
                             detrend_order=2)[1]
        for delta, q_values in ((5, None), (15, [2.0])):
            curve = window_curve(data[delta], report, 2, q_values)
            i = curve.index(2.0)
            assert report.h2_by_delta[delta] == curve.h_values[i]
            assert report.h2_stderr_by_delta[delta] == curve.stderr[i]
        assert report.curve_h == window_curve(data[5], report, 2).h_values.tolist()
        assert report.curve_h != window_curve(data[5], report, 1).h_values.tolist()


def reference_window_report(start, end, cells, reference_delta, detrend_order,
                            exclude_deltas):
    """`_window_report` the per-delta way: one MFDFA call per delta."""
    report = WindowReport(window_start=start, window_end=end,
                          reference_delta=reference_delta,
                          reference_n=samples_per_day(reference_delta))
    dropped_days = 0
    short_deltas = []
    for delta, cut in cells:
        dropped, series = cut or (0, ())
        dropped_days += dropped
        if len(series) < MIN_WINDOW_SERIES:
            short_deltas.append(delta)
            continue
        reference = delta == reference_delta
        surface = fluctuation_function(series, MfdfaConfig.for_series(
            len(series), detrend_order, None if reference else [2.0]))
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
    return report


class TestStackedDeltas:
    """A window's deltas go through MFDFA as one stack per series length."""

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
        calls = 0
        want = []
        for i in range((400 - 365) // 35 + 1):
            start = DAY0 + dt.timedelta(days=35 * i)
            end = start + dt.timedelta(days=365)
            cells = [(d, direct_cell(data[d], start, end)) for d in sorted(data)]
            lengths = {len(cell[1]) for d, cell in cells if d != 5}
            assert len(lengths) == 3
            calls += 1 + len(lengths)
            want.append(reference_window_report(start, end, cells, 5, 1, []))
            assert _window_report(start, end, cells, 5, 1, []) == want[-1]
            # delta order whichever delta is the reference: 60 here comes
            # before the groups of 5, of 15 and 30, and of 120
            other = _window_report(start, end, cells, 60, 1, [])
            assert list(other.h2_by_delta) == list(other.h2_stderr_by_delta) == sorted(data)
        with mock.patch.object(pipeline, "fluctuation_function",
                               wraps=pipeline.fluctuation_function) as spy:
            got = run_rolling(data, RollingSpec(window_days=365, step_days=35))
        assert spy.call_count == calls == 8
        assert got == want
        assert json.dumps(report_document(got)) == json.dumps(report_document(want))

    def test_memory_peak_of_a_paper_scale_window(self):
        # one 2922-day window of all 36 deltas: the stack of 35 series plus
        # one pass of rows; the per-delta calls peaked at 1.3 MB, a stack
        # taken in a single pass at 11.6 MB
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
