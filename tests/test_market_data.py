import datetime as dt
import io

import numpy as np
import pytest

from roughscale.errors import DataError
from roughscale.market_data import (DayPrices, PriceGrid, TickSeries,
                                    date_to_epoch_seconds, intraday_log_returns,
                                    parse_ticks, resample_prices)

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


class TestResample:
    def test_previous_tick_rule(self):
        ticks = ticks_from([(T0, 100.0), (T0 + 4 * 60, 101.0), (T0 + 9 * 60, 102.0)])
        grid = resample_prices(ticks, 5)
        day = grid.days[0]
        assert day.prices[0] == 100.0   # minute 0
        assert day.prices[1] == 101.0   # minute 5 <- tick at minute 4
        assert day.prices[2] == 102.0   # minute 10 <- tick at minute 9
        assert np.all(day.prices[2:] == 102.0)

    def test_single_tick_day(self):
        ticks = ticks_from([(T0 + 30, 500.0)])
        with pytest.warns(UserWarning, match="backfilled"):
            grid = resample_prices(ticks, 5)
        day = grid.days[0]
        n = 1440 // 5
        assert len(day.prices) == n + 1
        assert np.all(day.prices == 500.0)
        assert day.coverage == pytest.approx(1 / n)

    def test_delta_must_divide_1440(self):
        ticks = ticks_from([(T0, 100.0)])
        with pytest.raises(ValueError):
            resample_prices(ticks, 7)

    def test_day_open_forward_fills_from_prior_day(self):
        ticks = ticks_from([(T0, 80.0), (T0 + 86000, 90.0),
                            (T0 + 86400 + 3600, 95.0)])
        grid = resample_prices(ticks, 60)
        assert len(grid.days) == 2
        assert grid.days[1].prices[0] == 90.0
        assert grid.days[1].prices[1] == 95.0

    def test_zero_trade_day_omitted(self):
        ticks = ticks_from([(T0, 90.0), (T0 + 2 * 86400 + 10, 95.0)])
        grid = resample_prices(ticks, 1440)
        assert [d.date for d in grid.days] == [DAY0, DAY0 + dt.timedelta(days=2)]

    def test_span_outside_data(self):
        ticks = ticks_from([(T0, 100.0)])
        with pytest.raises(DataError):
            resample_prices(ticks, 5, DAY0 + dt.timedelta(days=10),
                            DAY0 + dt.timedelta(days=12))


class TestIntradayReturns:
    def test_constant_price(self):
        grid = PriceGrid(1440, [DayPrices(DAY0, np.array([5.0, 5.0]), 1.0)])
        out = intraday_log_returns(grid)
        assert out.days[0].returns.tolist() == [0.0]

    def test_single_interval_log_identity(self):
        grid = PriceGrid(1440, [DayPrices(DAY0, np.array([100.0, 100.0 * np.e ** 0.01]), 1.0)])
        out = intraday_log_returns(grid)
        assert out.days[0].returns[0] == pytest.approx(0.01)

    def test_definition(self):
        grid = PriceGrid(720, [DayPrices(DAY0, np.array([100.0, 110.0, 99.0]), 1.0)])
        out = intraday_log_returns(grid)
        np.testing.assert_allclose(out.days[0].returns,
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
            assert (b.date - a.date).days == 3
            np.testing.assert_array_equal(a.returns, b.returns)

    def test_daily_sum_telescopes_to_close_over_open(self):
        ticks = self.make_random_ticks(2)
        grid = resample_prices(ticks, 15)
        rets = intraday_log_returns(grid)
        for gday, rday in zip(grid.days, rets.days):
            assert rday.returns.sum() == pytest.approx(
                np.log(gday.prices[-1] / gday.prices[0]), abs=1e-12)

    def test_downsampling_pairwise_sums(self):
        ticks = self.make_random_ticks(3)
        r5 = intraday_log_returns(resample_prices(ticks, 5))
        r10 = intraday_log_returns(resample_prices(ticks, 10))
        for d5, d10 in zip(r5.days, r10.days):
            np.testing.assert_allclose(d10.returns,
                                       d5.returns.reshape(-1, 2).sum(axis=1),
                                       atol=1e-12)
