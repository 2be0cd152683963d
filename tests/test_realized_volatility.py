import datetime as dt

import numpy as np
import pytest

from roughscale.errors import DataError
from roughscale.market_data import IntradayReturnGrid
from roughscale.realized_volatility import (RVSeries, StandardizedReturns, compute_daily_rv,
                                            log_increments, standardize_returns)

DAY0 = dt.date(2020, 1, 1)


def grid_from_days(rows, delta=720):
    returns = np.asarray(rows, dtype=float)
    days = [DAY0 + dt.timedelta(days=i) for i in range(len(returns))]
    return IntradayReturnGrid(delta_minutes=delta, days=days, returns=returns)


def rv_series(values, n=288, daily=None):
    values = np.asarray(values, dtype=float)
    daily = np.zeros_like(values) if daily is None else np.asarray(daily, dtype=float)
    dates = [DAY0 + dt.timedelta(days=i) for i in range(len(values))]
    return RVSeries(delta_minutes=1440 // n, dates=dates, rv=values,
                    daily_return=daily, samples_per_day=n)


class TestSeriesChecks:
    def test_negative_rv_rejected(self):
        with pytest.raises(ValueError, match="realized variance cannot be negative"):
            rv_series([1.0, -1e-300])

    def test_dates_must_increase(self):
        rv = rv_series([1.0, 2.0])
        with pytest.raises(ValueError, match="dates must be strictly increasing"):
            RVSeries(delta_minutes=rv.delta_minutes, dates=rv.dates[::-1], rv=rv.rv,
                     daily_return=rv.daily_return, samples_per_day=rv.samples_per_day)

    def test_standardized_return_bound(self):
        # sqrt(12) = 3.46...
        with pytest.raises(ValueError, match="exceeds the sqrt\\(n\\) support bound"):
            StandardizedReturns(values=np.array([0.5, 3.5]), samples_per_day=12)


class TestComputeDailyRV:
    def test_two_term_sum(self):
        rv = compute_daily_rv(grid_from_days([[0.01, -0.02]]))
        assert rv.rv[0] == pytest.approx(0.0005)
        assert rv.daily_return[0] == pytest.approx(-0.01)

    def test_zero_day(self):
        rv = compute_daily_rv(grid_from_days([[0.0, 0.0]]))
        assert rv.rv[0] == 0.0

    def test_single_sample_day(self):
        rv = compute_daily_rv(grid_from_days([[-0.03]], delta=1440))
        assert rv.rv[0] == pytest.approx(0.0009)
        rbar = standardize_returns(rv)
        assert rbar.values[0] == pytest.approx(-1.0)


class TestLogIncrements:
    def test_e_powers(self):
        out = log_increments(rv_series([np.e, np.e ** 2]))
        np.testing.assert_allclose(out.values, [1.0])

    def test_drop_policy_removes_adjacent_increments(self):
        out = log_increments(rv_series([1.0, 0.0, 1.0]), zero_policy="drop")
        assert len(out.values) == 0
        assert out.dropped_days == 1

    def test_constant_series(self):
        out = log_increments(rv_series([2.0, 2.0, 2.0, 2.0]))
        np.testing.assert_allclose(out.values, 0.0)

    def test_floor_policy(self):
        out = log_increments(rv_series([1.0, 0.0, 1.0]), zero_policy="floor")
        np.testing.assert_allclose(out.values, [np.log(1e-12), -np.log(1e-12)])

    def test_too_short(self):
        with pytest.raises(DataError):
            log_increments(rv_series([1.0]))

    def test_unknown_zero_policy(self):
        with pytest.raises(ValueError, match="unknown zero_policy 'skip'"):
            log_increments(rv_series([1.0, 2.0]), zero_policy="skip")

    def test_telescoping_sum(self):
        rng = np.random.default_rng(7)
        vals = np.exp(rng.normal(size=50))
        out = log_increments(rv_series(vals))
        assert out.values.sum() == pytest.approx(np.log(vals[-1]) - np.log(vals[0]))


class TestStandardize:
    def test_arithmetic_from_definition(self):
        rv = compute_daily_rv(grid_from_days([[0.03, 0.04]]))
        rbar = standardize_returns(rv)
        assert rbar.values[0] == pytest.approx(1.4)

    def test_zero_rv_rejected(self):
        with pytest.raises(DataError):
            standardize_returns(rv_series([0.0, 1.0]))

    def test_support_bound(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(200, 12))
        rv = compute_daily_rv(grid_from_days(rows, delta=120))
        rbar = standardize_returns(rv)
        assert np.all(np.abs(rbar.values) <= np.sqrt(12) + 1e-12)

    def test_monte_carlo_kurtosis_n288(self):
        # oracle: direct simulation of iid-normal days; kurtosis -> 3n/(n+2)
        rng = np.random.default_rng(123)
        rows = rng.normal(size=(20000, 288))
        rv = compute_daily_rv(grid_from_days(rows, delta=5))
        rbar = standardize_returns(rv).values
        kurt = np.mean(rbar ** 4) / np.mean(rbar ** 2) ** 2
        assert kurt == pytest.approx(3 * 288 / 290, abs=0.1)


class TestScaleInvariance:
    def test_scaling_returns_by_constant(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(10, 24))
        base = compute_daily_rv(grid_from_days(rows, delta=60))
        scaled = compute_daily_rv(grid_from_days(rows * 7.5, delta=60))
        np.testing.assert_allclose(scaled.rv, base.rv * 7.5 ** 2)
        np.testing.assert_allclose(standardize_returns(scaled).values,
                                   standardize_returns(base).values)
        np.testing.assert_allclose(log_increments(scaled).values,
                                   log_increments(base).values, atol=1e-12)
