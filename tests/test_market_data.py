import datetime as dt
import gc
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughscale.errors import DataError
from roughscale.market_data import (PriceGrid, TickSeries, date_to_epoch_seconds,
                                    intraday_log_returns, parse_ticks,
                                    resample_prices)
from roughscale.realized_volatility import compute_daily_rv
from roughscale.scaling import divisors_of_1440

DAY0 = dt.date(2014, 1, 2)
T0 = date_to_epoch_seconds(DAY0)


def ticks_from(pairs, **kw):
    ts, px = zip(*pairs)
    return TickSeries(timestamps=np.array(ts, dtype=np.int64),
                      prices=np.array(px, dtype=float), **kw)


class TestParseTicks:
    def test_two_records(self):
        ts = parse_ticks(io.StringIO("1388649600,770.44,0.5\n1388649660,771.00,1.2"))
        assert len(ts) == 2
        assert ts.timestamps.tolist() == [1388649600, 1388649660]
        assert ts.prices.tolist() == [770.44, 771.00]

    def test_sorting_is_idempotent(self):
        fwd = parse_ticks(io.StringIO("1388649600,770.44\n1388649660,771.00"))
        rev = parse_ticks(io.StringIO("1388649660,771.00\n1388649600,770.44"))
        assert fwd.timestamps.tolist() == rev.timestamps.tolist()
        assert fwd.prices.tolist() == rev.prices.tolist()

    def test_nonpositive_price_dropped_and_counted(self):
        ts = parse_ticks(io.StringIO("1388649600,-1.0,0.5\n1388649660,771.00"))
        assert len(ts) == 1
        assert ts.dropped_nonpositive == 1

    def test_tie_preserves_file_order(self):
        ts = parse_ticks(io.StringIO("100,1.0\n100,2.0\n100,3.0"))
        assert ts.prices.tolist() == [1.0, 2.0, 3.0]

    def test_malformed_beyond_tolerance_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_ticks(io.StringIO("100,1.0\nnot,a,tick\n101,2.0"))

    def test_malformed_within_tolerance(self):
        ts = parse_ticks(io.StringIO("100,1.0\ngarbage\n101,2.0"), max_malformed=1)
        assert len(ts) == 2
        assert ts.malformed_lines == 1

    def test_empty_stream(self):
        with pytest.raises(DataError):
            parse_ticks(io.StringIO(""))

    def test_header_skipped(self):
        ts = parse_ticks(io.StringIO("timestamp,price\n100,1.0"), header=True)
        assert len(ts) == 1

    def test_pathlike_source_matches_str_path(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text("101,2.0\n100,1.0\n102,-1.0\n")
        via_path = parse_ticks(path)
        via_str = parse_ticks(str(path))
        assert via_path.timestamps.tolist() == via_str.timestamps.tolist() == [100, 101]
        assert via_path.prices.tolist() == via_str.prices.tolist() == [1.0, 2.0]
        assert via_path.dropped_nonpositive == via_str.dropped_nonpositive == 1

    def test_binary_stream_left_open(self):
        buf = io.BytesIO(b"100,1.0\n101,2.0\n")
        ts = parse_ticks(buf)
        gc.collect()
        assert not buf.closed
        assert ts.prices.tolist() == [1.0, 2.0]


class TestResample:
    def test_previous_tick_rule(self):
        ticks = ticks_from([(T0, 100.0), (T0 + 4 * 60, 101.0), (T0 + 9 * 60, 102.0)])
        grid = resample_prices(ticks, 5)
        prices = grid.prices[0]
        assert prices[0] == 100.0   # minute 0
        assert prices[1] == 101.0   # minute 5 <- tick at minute 4
        assert prices[2] == 102.0   # minute 10 <- tick at minute 9
        assert np.all(prices[2:] == 102.0)

    def test_single_tick_day(self):
        ticks = ticks_from([(T0 + 30, 500.0)])
        with pytest.warns(UserWarning, match="backfilled"):
            grid = resample_prices(ticks, 5)
        n = 1440 // 5
        assert len(grid.prices[0]) == n + 1
        assert np.all(grid.prices[0] == 500.0)
        assert grid.coverage[0] == pytest.approx(1 / n)

    def test_delta_must_divide_1440(self):
        ticks = ticks_from([(T0, 100.0)])
        with pytest.raises(ValueError):
            resample_prices(ticks, 7)

    def test_day_open_forward_fills_from_prior_day(self):
        ticks = ticks_from([(T0, 80.0), (T0 + 86000, 90.0),
                            (T0 + 86400 + 3600, 95.0)])
        grid = resample_prices(ticks, 60)
        assert len(grid.days) == 2
        assert grid.prices[1, 0] == 90.0
        assert grid.prices[1, 1] == 95.0

    def test_zero_trade_day_omitted(self):
        ticks = ticks_from([(T0, 90.0), (T0 + 2 * 86400 + 10, 95.0)])
        grid = resample_prices(ticks, 1440)
        assert grid.days == [DAY0, DAY0 + dt.timedelta(days=2)]

    def test_span_outside_data(self):
        ticks = ticks_from([(T0, 100.0)])
        with pytest.raises(DataError):
            resample_prices(ticks, 5, DAY0 + dt.timedelta(days=10),
                            DAY0 + dt.timedelta(days=12))


class TestIntradayReturns:
    def test_constant_price(self):
        grid = PriceGrid(1440, [DAY0], np.array([[5.0, 5.0]]), np.array([1.0]))
        out = intraday_log_returns(grid)
        assert out.returns[0].tolist() == [0.0]

    def test_single_interval_log_identity(self):
        grid = PriceGrid(1440, [DAY0], np.array([[100.0, 100.0 * np.e ** 0.01]]),
                         np.array([1.0]))
        out = intraday_log_returns(grid)
        assert out.returns[0, 0] == pytest.approx(0.01)

    def test_definition(self):
        grid = PriceGrid(720, [DAY0], np.array([[100.0, 110.0, 99.0]]), np.array([1.0]))
        out = intraday_log_returns(grid)
        np.testing.assert_allclose(out.returns[0],
                                   [np.log(1.1), np.log(0.9)])


class TestProperties:
    def make_random_ticks(self, seed, days=4):
        rng = np.random.default_rng(seed)
        ts, px = [T0], [100.0]
        price = 100.0
        for minute in range(days * 1440):
            if rng.random() < 0.6:
                price *= np.exp(rng.normal(0, 1e-3))
                ts.append(T0 + minute * 60 + int(rng.integers(0, 60)))
                px.append(price)
        return ticks_from(sorted(zip(ts, px)))

    def test_time_shift_invariance(self):
        ticks = self.make_random_ticks(1)
        shift = 3 * 86400
        shifted = TickSeries(timestamps=ticks.timestamps + shift, prices=ticks.prices)
        base = intraday_log_returns(resample_prices(ticks, 30))
        moved = intraday_log_returns(resample_prices(shifted, 30))
        assert len(base.days) == len(moved.days)
        for a, b in zip(base.days, moved.days):
            assert (b - a).days == 3
        np.testing.assert_array_equal(base.returns, moved.returns)

    def test_daily_sum_telescopes_to_close_over_open(self):
        ticks = self.make_random_ticks(2)
        grid = resample_prices(ticks, 15)
        rets = intraday_log_returns(grid)
        for prices, returns in zip(grid.prices, rets.returns):
            assert returns.sum() == pytest.approx(
                np.log(prices[-1] / prices[0]), abs=1e-12)

    def test_downsampling_pairwise_sums(self):
        ticks = self.make_random_ticks(3)
        r5 = intraday_log_returns(resample_prices(ticks, 5))
        r10 = intraday_log_returns(resample_prices(ticks, 10))
        for d5, d10 in zip(r5.returns, r10.returns):
            np.testing.assert_allclose(d10,
                                       d5.reshape(-1, 2).sum(axis=1),
                                       atol=1e-12)


def reference_resample(ticks, delta_minutes, start_date=None, end_date=None,
                       min_coverage=0.0):
    """The per-day loop resample_prices replaced, kept as its oracle.

    Returns (dates, per-day price lists, per-day coverage, leading backfills).
    """
    n = 1440 // delta_minutes
    first_day = int(ticks.timestamps[0]) // 86400
    last_day = int(ticks.timestamps[-1]) // 86400
    if start_date is not None:
        first_day = max(first_day, date_to_epoch_seconds(start_date) // 86400)
    if end_date is not None:
        last_day = min(last_day, date_to_epoch_seconds(end_date) // 86400)
    if first_day > last_day:
        raise DataError("requested day span does not overlap the tick data")
    dates, prices, coverage, skipped_leading = [], [], [], 0
    step = 60 * delta_minutes
    for epoch_day in range(first_day, last_day + 1):
        day_start = epoch_day * 86400
        lo = int(np.searchsorted(ticks.timestamps, day_start, side="left"))
        hi = int(np.searchsorted(ticks.timestamps, day_start + 86400, side="left"))
        if lo == hi:
            continue
        grid_times = day_start + step * np.arange(n + 1, dtype=np.int64)
        idx = np.searchsorted(ticks.timestamps, grid_times, side="right") - 1
        if idx[0] < 0:
            skipped_leading += 1
            idx = np.where(idx < 0, lo, idx)
        counts = np.searchsorted(ticks.timestamps, grid_times, side="left")
        cov = float(np.count_nonzero(np.diff(counts) > 0)) / n
        if cov < min_coverage:
            continue
        dates.append(dt.date(1970, 1, 1) + dt.timedelta(days=epoch_day))
        prices.append(ticks.prices[idx])
        coverage.append(cov)
    return dates, prices, coverage, skipped_leading


def backfill_count(caught) -> int:
    found = [re.search(r"backfilled the day-open of (\d+) leading day", str(w.message))
             for w in caught]
    return sum(int(m.group(1)) for m in found if m)


@st.composite
def tick_streams(draw):
    """Streams with zero-trade days, a mid-day leading edge, ticks on grid
    times and duplicate timestamps, plus a delta, a clipped span and a
    coverage floor."""
    delta = draw(st.sampled_from(divisors_of_1440()))
    num_days = draw(st.integers(1, 5))
    on_grid = st.integers(0, 1440 // delta - 1).map(lambda k: k * 60 * delta)
    offsets = st.lists(st.one_of(on_grid, st.integers(0, 86399)), max_size=10)
    ts = [T0 + day * 86400 + o for day in range(num_days) for o in draw(offsets)]
    if not ts:
        ts = [T0 + draw(st.integers(0, 86399))]
    ts = sorted(ts + draw(st.lists(st.sampled_from(ts), max_size=4)))
    prices = draw(st.lists(st.floats(0.5, 2e4), min_size=len(ts), max_size=len(ts)))
    day = st.integers(-1, num_days).map(lambda k: DAY0 + dt.timedelta(days=k))
    start, end = draw(st.none() | day), draw(st.none() | day)
    # floors of the form k/n land exactly on a day's coverage
    n = 1440 // delta
    min_coverage = draw(st.integers(0, 3).map(lambda k: k / n) | st.floats(0.0, 0.02))
    return ticks_from(list(zip(ts, prices))), delta, start, end, min_coverage


class TestArrayGridMatchesPerDayLoop:
    @settings(max_examples=300, deadline=None)
    @given(tick_streams())
    def test_equal_to_reference(self, case):
        ticks, delta, start, end, min_coverage = case
        try:
            ref = reference_resample(ticks, delta, start, end, min_coverage)
        except DataError:
            with pytest.raises(DataError):
                resample_prices(ticks, delta, start, end, min_coverage)
            return
        dates, prices, coverage, leading = ref
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = resample_prices(ticks, delta, start, end, min_coverage)
        assert backfill_count(caught) == leading
        assert grid.days == dates
        assert grid.prices.shape == (len(dates), 1440 // delta + 1)
        assert grid.prices.tolist() == [p.tolist() for p in prices]
        assert grid.coverage.tolist() == coverage
        returns = [np.diff(np.log(p)) for p in prices]
        out = intraday_log_returns(grid)
        assert out.days == dates
        assert out.returns.tolist() == [r.tolist() for r in returns]
        rv = compute_daily_rv(out)
        assert rv.dates == dates
        assert rv.rv.tolist() == [float(np.sum(r ** 2)) for r in returns]
        assert rv.daily_return.tolist() == [float(np.sum(r)) for r in returns]
