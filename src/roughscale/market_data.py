"""Tick ingestion, previous-tick resampling onto a minute grid, and intraday log returns.

All times are integer Unix epoch seconds and days are UTC calendar days.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SECONDS_PER_DAY = 86400
MINUTES_PER_DAY = 1440


def _epoch_day_to_date(epoch_day: int) -> dt.date:
    return dt.date(1970, 1, 1) + dt.timedelta(days=int(epoch_day))


def date_to_epoch_seconds(d: dt.date) -> int:
    return (d - dt.date(1970, 1, 1)).days * SECONDS_PER_DAY


@dataclass(frozen=True)
class TickSeries:
    """Ordered (timestamp, price) trade events from one venue.

    Timestamps are non-decreasing, prices strictly positive, and at least one
    event is present. `dropped_nonpositive` / `malformed_lines` report rows the
    parser discarded.
    """

    timestamps: np.ndarray  # int64 epoch seconds, non-decreasing
    prices: np.ndarray      # float64, strictly positive
    venue_label: str = ""
    dropped_nonpositive: int = 0
    malformed_lines: int = 0

    def __post_init__(self):
        if len(self.timestamps) == 0:
            raise DataError("tick series must contain at least one event")
        if len(self.timestamps) != len(self.prices):
            raise DataError("timestamp/price arrays differ in length")
        if np.any(np.diff(self.timestamps) < 0):
            raise DataError("tick timestamps must be non-decreasing")
        if not np.all(self.prices > 0):
            raise DataError("tick prices must be strictly positive")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class PriceGrid:
    """Previous-tick prices on a delta-minute grid, one row per kept day."""

    delta_minutes: int
    days: list[dt.date]
    prices: np.ndarray    # (days, n+1): day-open plus one point per interval end
    coverage: np.ndarray  # (days,): fraction of the n intervals with >= 1 trade


@dataclass(frozen=True)
class IntradayReturnGrid:
    delta_minutes: int
    days: list[dt.date]
    returns: np.ndarray  # (days, n), n = 1440/delta

    @property
    def samples_per_day(self) -> int:
        return MINUTES_PER_DAY // self.delta_minutes


def parse_ticks(source, *, header: bool = False, max_malformed: int = 0,
                venue_label: str = "") -> TickSeries:
    """Parse a tick CSV stream of `timestamp,price[,amount]` rows.

    `source` may be a path (`str` or `os.PathLike`), bytes, or a text/binary
    file object. Out-of-order rows are stably sorted by timestamp; rows with
    non-positive price are dropped and counted. More than `max_malformed`
    unparsable rows aborts with a DataError naming the offending line.
    """
    release = None
    if isinstance(source, (str, os.PathLike)):
        stream = open(source, "r", encoding="utf-8")
        release = stream.close
    elif isinstance(source, bytes):
        stream = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, io.BufferedIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        stream = io.TextIOWrapper(source, encoding="utf-8")
        release = stream.detach  # a finalised wrapper would close the caller's stream
    else:
        stream = source

    timestamps: list[int] = []
    prices: list[float] = []
    malformed = 0
    dropped = 0
    try:
        reader = csv.reader(stream)
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                if len(row) < 2:
                    raise ValueError("fewer than 2 fields")
                ts = int(row[0])
                price = float(row[1])
                if not math.isfinite(price):
                    raise ValueError("non-finite price")
            except ValueError as exc:
                malformed += 1
                if malformed > max_malformed:
                    raise DataError(f"malformed tick record at line {lineno}: {exc}") from None
                continue
            if price <= 0:
                dropped += 1
                continue
            timestamps.append(ts)
            prices.append(price)
    finally:
        if release is not None:
            release()

    if not timestamps:
        raise DataError("empty tick stream (no usable records)")

    ts_arr = np.asarray(timestamps, dtype=np.int64)
    px_arr = np.asarray(prices, dtype=np.float64)
    order = np.argsort(ts_arr, kind="stable")  # stable: ties keep file order
    return TickSeries(timestamps=ts_arr[order], prices=px_arr[order],
                      venue_label=venue_label, dropped_nonpositive=dropped,
                      malformed_lines=malformed)


def resample_prices(ticks: TickSeries, delta_minutes: int,
                    start_date: dt.date | None = None,
                    end_date: dt.date | None = None,
                    min_coverage: float = 0.0) -> PriceGrid:
    """Previous-tick resampling onto a delta-minute UTC grid.

    Each grid point holds the last traded price at or before the grid time;
    the day-open forward-fills from the prior day's last trade. Days with no
    trades at all are omitted, as are days with coverage below `min_coverage`.
    """
    if delta_minutes <= 0 or MINUTES_PER_DAY % delta_minutes != 0:
        raise ValueError(f"delta_minutes={delta_minutes} must divide 1440")
    n = MINUTES_PER_DAY // delta_minutes

    first_day = int(ticks.timestamps[0]) // SECONDS_PER_DAY
    last_day = int(ticks.timestamps[-1]) // SECONDS_PER_DAY
    if start_date is not None:
        first_day = max(first_day, date_to_epoch_seconds(start_date) // SECONDS_PER_DAY)
    if end_date is not None:
        last_day = min(last_day, date_to_epoch_seconds(end_date) // SECONDS_PER_DAY)
    if first_day > last_day:
        raise DataError("requested day span does not overlap the tick data")

    ts = ticks.timestamps
    bounds = np.searchsorted(ts, np.arange(first_day, last_day + 2, dtype=np.int64)
                             * SECONDS_PER_DAY)
    traded = np.flatnonzero(bounds[1:] > bounds[:-1])  # zero-trade days are omitted
    epoch_days = first_day + traded
    grid_times = ((epoch_days * SECONDS_PER_DAY)[:, None]
                  + 60 * delta_minutes * np.arange(n + 1, dtype=np.int64))
    # interval k = [grid_times[k-1], grid_times[k]) so a day-open trade counts
    counts = np.searchsorted(ts, grid_times, side="left")
    coverage = np.count_nonzero(np.diff(counts, axis=1) > 0, axis=1) / n
    idx = np.searchsorted(ts, grid_times, side="right") - 1
    del counts, grid_times  # free two (days, n+1) arrays before the gather
    # a day-open with no trade anywhere before it is backfilled from the day's
    # first trade; only the data's leading edge can hit this, later day-opens
    # forward-fill from prior days
    leading = int(np.count_nonzero(idx[:, 0] < 0))
    keep = ~(coverage < min_coverage)
    idx, coverage, epoch_days = idx[keep], coverage[keep], epoch_days[keep]
    first_trade = bounds[traded[keep]]
    prices = ticks.prices[np.where(idx < 0, first_trade[:, None], idx)]
    if leading:
        warnings.warn(f"backfilled the day-open of {leading} leading day(s) "
                      "with no prior trade", stacklevel=2)
    return PriceGrid(delta_minutes=delta_minutes,
                     days=[_epoch_day_to_date(d) for d in epoch_days],
                     prices=prices, coverage=coverage)


def intraday_log_returns(grid: PriceGrid) -> IntradayReturnGrid:
    """Log returns between consecutive grid prices, n per day."""
    return IntradayReturnGrid(delta_minutes=grid.delta_minutes, days=grid.days,
                              returns=np.diff(np.log(grid.prices), axis=1))


def grid_records(grid: PriceGrid):
    """Long-form (date, index, price) rows for CSV/JSON export."""
    for day, row in zip(grid.days, grid.prices):
        for i, p in enumerate(row.tolist()):
            yield day.isoformat(), i, p


def return_records(grid: IntradayReturnGrid):
    """Long-form (date, index, return) rows for CSV/JSON export."""
    for day, row in zip(grid.days, grid.returns):
        for i, r in enumerate(row.tolist()):
            yield day.isoformat(), i, r
