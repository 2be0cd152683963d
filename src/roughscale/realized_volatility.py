"""Daily realized volatility, log-RV increments, and standardized daily returns."""
from __future__ import annotations

import datetime as dt
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .market_data import IntradayReturnGrid


@dataclass(frozen=True)
class RVSeries:
    """Per-day realized variance (sum of squared intraday returns) and daily return."""

    delta_minutes: int
    dates: list[dt.date]
    rv: np.ndarray            # >= 0
    daily_return: np.ndarray
    samples_per_day: int      # n = 1440 / delta

    def __post_init__(self):
        if np.any(self.rv < 0):
            raise ValueError("realized variance cannot be negative")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.rv)


@dataclass(frozen=True)
class LogIncrementSeries:
    """V_t = log RV_t - log RV_{t-1} over consecutive retained days."""

    values: np.ndarray
    dates: list[dt.date]   # date of the later day of each increment
    dropped_days: int = 0


@dataclass(frozen=True)
class StandardizedReturns:
    """Daily returns divided by sqrt(RV); bounded by sqrt(n) in magnitude."""

    values: np.ndarray
    samples_per_day: int

    def __post_init__(self):
        bound = np.sqrt(self.samples_per_day) * (1 + 1e-12)
        if np.any(np.abs(self.values) > bound):
            raise ValueError("standardized return exceeds the sqrt(n) support bound")


def compute_daily_rv(returns: IntradayReturnGrid) -> RVSeries:
    """RV_t = sum of squared intraday returns; daily return = their plain sum."""
    return RVSeries(delta_minutes=returns.delta_minutes, dates=returns.days,
                    rv=np.sum(returns.returns ** 2, axis=1),
                    daily_return=np.sum(returns.returns, axis=1),
                    samples_per_day=returns.returns.shape[1])


ZERO_RV_FLOOR = 1e-12  # what zero_policy "floor" puts in place of a zero RV


def log_increments(rv: RVSeries, zero_policy: str = "drop") -> LogIncrementSeries:
    """Log-RV increments between consecutive retained days.

    zero_policy "drop" removes zero-RV days and both increments touching them;
    "floor" raises every RV to ZERO_RV_FLOOR before the log.
    """
    if len(rv) < 2:
        raise DataError("need at least 2 days of realized variance")
    values = rv.rv
    if zero_policy == "floor":
        values = np.maximum(values, ZERO_RV_FLOOR)
        usable = np.ones(len(values), dtype=bool)
        dropped = 0
    elif zero_policy == "drop":
        usable = values > 0
        dropped = int(np.count_nonzero(~usable))
    else:
        raise ValueError(f"unknown zero_policy {zero_policy!r}")

    keep = usable[1:] & usable[:-1]  # drops increments bridging a dropped day
    logs = np.log(np.where(values > 0, values, 1.0))
    incr = (logs[1:] - logs[:-1])[keep]
    dates = list(itertools.compress(rv.dates[1:], keep))
    if len(incr) == 0 and len(values) - dropped < 2:
        raise DataError("fewer than 2 usable days after zero-RV drops")
    return LogIncrementSeries(values=incr, dates=dates, dropped_days=dropped)


def standardize_returns(rv: RVSeries) -> StandardizedReturns:
    """r_bar = daily return / sqrt(RV); requires strictly positive RV."""
    if np.any(rv.rv <= 0):
        raise DataError("zero-RV days present; filter them before standardizing")
    return StandardizedReturns(values=rv.daily_return / np.sqrt(rv.rv),
                               samples_per_day=rv.samples_per_day)
