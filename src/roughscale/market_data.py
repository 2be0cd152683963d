"""Tick ingestion, previous-tick resampling onto a minute grid, and intraday log returns.

All times are integer Unix epoch seconds and days are UTC calendar days.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

SECONDS_PER_DAY = 86400
MINUTES_PER_DAY = 1440


def samples_per_day(delta: int) -> int:
    """n = 1440/delta, the delta-minute intervals in a day.

    This is the one check of a sampling period: raises ValueError unless
    delta is a positive divisor of 1440.
    """
    if delta <= 0 or MINUTES_PER_DAY % delta != 0:
        raise ValueError(f"delta {delta} is not a positive divisor of 1440")
    return MINUTES_PER_DAY // delta


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
    dropped_nonpositive: int = 0
    malformed_lines: int = 0

    def __post_init__(self):
        if len(self.timestamps) == 0:
            raise DataError("tick series must contain at least one event")
        if len(self.timestamps) != len(self.prices):
            raise DataError("timestamp/price arrays differ in length")
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):  # np.diff can overflow
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


# Tick CSVs are read in chunks of _CHUNK lines, each parsed by np.loadtxt
# where that is exact; the lines loadtxt rejects, and every line it cannot be
# trusted on, go through the row rules (`_TickReader.row`) in file order.
_CHUNK = 8192
# A piece loadtxt rejects is split at the row its error names: the lines before
# that row go to loadtxt again and the failing line to the row rules. A failure
# within the first _ROW_RUN lines sends a run of lines through the row rules
# instead (~1-2 us a line), since a loadtxt call costs ~15 us however short its
# input; the run doubles while each run holds at least one bad line in _DENSE,
# so a stretch of dense bad lines takes a few loadtxt calls, not one per run.
_ROW_RUN = 64
_DENSE = 32
_FAILED_ROW = re.compile(r"at row (\d+)")
_RECORD = np.dtype([("t", "<i8"), ("p", "<f8")])
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
# loadtxt reads some characters that int()/float() reject (it takes "12,3\x1c"
# as price 3.0), so a chunk is loadtxt-parsed only when it holds nothing but
# printable ASCII, tab, CR and LF
_PLAIN_BYTES = bytes([9, 10, 13, *range(32, 127)])
# bytes that are not UTF-8, as the "surrogateescape" decoder hands them on
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _plain(text: str) -> bool:
    """True when loadtxt reads `text` exactly as the row rules do.

    Besides the character set, no line may be long enough to hold a field
    over csv's size limit, which the row rules reject: every aligned window of
    half the limit must hold a newline, which bounds each line below the limit.
    """
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_BYTES):
        return False
    half = csv.field_size_limit() // 2
    return all(text.find("\n", i, i + half) >= 0
               for i in range(0, len(text) - half + 1, half))


def _failed_line(lines: list[str], message: str) -> int:
    """The index in `lines` of the row a loadtxt error names, 0 when it names
    none. The row counts the lines loadtxt reads, which skips empty ones; the
    result only steers the split, as every line is parsed by one rule or the
    other whatever it is."""
    found = _FAILED_ROW.search(message)
    if found is None:
        return 0
    rows = (i for i, line in enumerate(lines) if line.strip("\r\n"))
    return next(itertools.islice(rows, int(found.group(1)), None), len(lines) - 1)


class _TickReader:
    """(timestamp, price) records of a tick CSV, in file order."""

    def __init__(self, header: bool, max_malformed: int):
        self.header = header  # skip record 1
        self.max_malformed = max_malformed
        self.malformed = 0
        self._parts: list[np.ndarray] = []  # record arrays in file order
        self._pending: list[tuple[int, float]] = []  # row-rule records after them

    def row(self, lineno: int, fields: list[str]) -> tuple[int, float] | None:
        """The row rules: None for a header or blank row and for a malformed
        one, which is counted; else the row's (timestamp, price)."""
        if (self.header and lineno == 1) or not fields or (
                len(fields) == 1 and not fields[0].strip()):
            return None
        line = ",".join(fields)
        if not line.isascii() and _UNDECODABLE.search(line):
            raise DataError(f"tick data is not valid UTF-8 at line {lineno}")
        try:
            if len(fields) < 2:
                raise ValueError("fewer than 2 fields")
            ts = int(fields[0])
            if not _INT64_MIN <= ts <= _INT64_MAX:
                raise ValueError("timestamp out of range")
            price = float(fields[1])
            if not math.isfinite(price):
                raise ValueError("non-finite price")
        except ValueError as exc:
            self.malformed += 1
            if self.malformed > self.max_malformed:
                raise DataError(f"malformed tick record at line {lineno}: {exc}") from None
            return None
        return ts, price

    def _rows(self, lines, first: int) -> None:
        """The row rules over the records csv.reader makes of `lines`,
        numbered from `first`."""
        for lineno, fields in enumerate(csv.reader(lines), start=first):
            record = self.row(lineno, fields)
            if record is not None:
                self._pending.append(record)

    def _append(self, records: np.ndarray) -> None:
        if self._pending:
            self._parts.append(np.array(self._pending, dtype=_RECORD))
            self._pending = []
        self._parts.append(records)

    def _loadtxt(self, lines: list[str], first: int) -> None:
        """Plain lines by np.loadtxt, with each line it rejects, and each row it
        reads with a non-finite price, through the row rules."""
        run = _ROW_RUN
        while lines:
            try:
                with warnings.catch_warnings():
                    # loadtxt warns when every line is blank
                    warnings.simplefilter("ignore", UserWarning)
                    records = np.loadtxt(lines, delimiter=",", usecols=(0, 1),
                                         dtype=_RECORD, comments=None, ndmin=1)
            except ValueError as exc:
                cut = _failed_line(lines, str(exc))
                if cut < _ROW_RUN:
                    cut, malformed = run, self.malformed
                    self._rows(lines[:cut], first)
                    dense = (self.malformed - malformed) * _DENSE >= cut
                    run = 2 * run if dense else _ROW_RUN
                else:
                    self._loadtxt(lines[:cut], first)
                    self._rows(lines[cut:cut + 1], first + cut)
                    cut += 1
                lines, first = lines[cut:], first + cut
                continue
            at = range(len(lines))  # the line each record was read from
            if len(records) < len(lines):
                # loadtxt skips blank lines, as the row rules do
                at = [i for i, line in enumerate(lines) if line.strip()]
            if len(records) != len(at):
                # a record that cannot be placed on its line is parsed again
                self._rows(lines, first)
                return
            finite = np.isfinite(records["p"])
            if not finite.all():
                bad = np.flatnonzero(~finite).tolist()
                for k, fields in zip(bad, csv.reader([lines[at[k]] for k in bad])):
                    record = self.row(first + at[k], fields)
                    if record is not None:
                        records[k], finite[k] = record, True
                records = records[finite]
            self._append(records)
            return

    def read(self, stream) -> np.ndarray:
        """All records of `stream`, as one record array."""
        lines = iter(stream)
        lineno = 0  # lines read so far, each one record while no quote is seen
        while chunk := list(itertools.islice(lines, _CHUNK)):
            text = "".join(chunk)
            if '"' in text:
                # a quoted field may span lines: the rest of the stream goes
                # through one csv.reader, records numbered on from here
                self._rows(itertools.chain(chunk, lines), lineno + 1)
                break
            first = lineno + 1
            lineno += len(chunk)
            if self.header and first == 1:
                # csv.reader still reads the header line, and may reject it
                self._rows(chunk[:1], 1)
                chunk, first = chunk[1:], 2
            if _plain(text):
                self._loadtxt(chunk, first)
            else:
                self._rows(chunk, first)
        return np.concatenate([*self._parts, np.array(self._pending, dtype=_RECORD)])


def parse_ticks(source, *, header: bool = False, max_malformed: int = 0) -> TickSeries:
    """Parse a tick CSV stream of `timestamp,price[,amount]` rows.

    `source` may be a path (`str` or `os.PathLike`), bytes, or a text/binary
    file object; paths, bytes and binary streams are UTF-8 read with universal
    newlines. Out-of-order rows are stably sorted by timestamp; rows with
    non-positive price are dropped and counted. More than `max_malformed`
    unparsable rows aborts with a DataError naming the offending line, and so
    does the first byte that is not UTF-8.
    """
    release = None
    if isinstance(source, (str, os.PathLike)):
        stream = open(source, "r", encoding="utf-8", errors="surrogateescape")
        release = stream.close
    elif isinstance(source, bytes):
        stream = io.StringIO(source.decode("utf-8", "surrogateescape"), newline=None)
    elif isinstance(source, io.BufferedIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        stream = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
        release = stream.detach  # a finalised wrapper would close the caller's stream
    else:
        stream = source

    reader = _TickReader(header, max_malformed)
    try:
        records = reader.read(stream)
    finally:
        if release is not None:
            release()

    positive = records["p"] > 0
    ts_arr, px_arr = records["t"][positive], records["p"][positive]
    if not len(ts_arr):
        raise DataError("empty tick stream (no usable records)")
    order = np.argsort(ts_arr, kind="stable")  # stable: ties keep file order
    return TickSeries(timestamps=ts_arr[order], prices=px_arr[order],
                      dropped_nonpositive=len(records) - len(ts_arr),
                      malformed_lines=reader.malformed)


@dataclass(frozen=True)
class TradeIndex:
    """Previous-tick prices of a tick stream for a set of deltas, on the grid
    of their greatest common divisor (the step).

    Row i is trading day `days[i]` of the span it was built for; column j is
    the grid time j*step minutes after that day's midnight, j = 0..1440/step.
    A delta that is a multiple k of the step reads its grid as the column
    stride [:, ::k] (`resample_prices`), so one index serves a whole delta
    sweep. Built by `trade_index`.
    """

    step_minutes: int
    days: list[dt.date]   # trading days only: zero-trade days are omitted
    prices: np.ndarray    # (days, 1440/step + 1): previous-tick price, leading edge backfilled
    coverage: dict[int, np.ndarray]  # per delta, (days,): share of intervals with a trade
    leading: int          # day-opens with no prior trade, backfilled from the day's first trade


def trade_index(ticks: TickSeries, deltas: list[int],
                start_date: dt.date | None = None,
                end_date: dt.date | None = None) -> TradeIndex:
    """The trading days of the span [start_date, end_date] (default: the
    data's), their previous-tick prices on the grid of the deltas' greatest
    common divisor, and each delta's coverage.

    Raises ValueError when there is no delta or one is not a positive divisor
    of 1440 (`samples_per_day`), and DataError when the span misses the data
    or a tick's day lies outside the calendar.
    """
    if not deltas:
        raise ValueError("a trade index needs at least one delta")
    for delta in deltas:
        samples_per_day(delta)
    step = math.gcd(*deltas)
    first_day = int(ticks.timestamps[0]) // SECONDS_PER_DAY
    last_day = int(ticks.timestamps[-1]) // SECONDS_PER_DAY
    if start_date is not None:
        first_day = max(first_day, date_to_epoch_seconds(start_date) // SECONDS_PER_DAY)
    if end_date is not None:
        last_day = min(last_day, date_to_epoch_seconds(end_date) // SECONDS_PER_DAY)
    if first_day > last_day:
        raise DataError("requested day span does not overlap the tick data")
    calendar = [date_to_epoch_seconds(d) // SECONDS_PER_DAY for d in (dt.date.min, dt.date.max)]
    for day, t in ((first_day, ticks.timestamps[0]), (last_day, ticks.timestamps[-1])):
        if not calendar[0] <= day <= calendar[1]:
            raise DataError(f"tick timestamp {int(t)} lies outside the calendar "
                            "(years 1-9999)")

    ts = ticks.timestamps
    n = MINUTES_PER_DAY // step
    width = 60 * step
    day0 = first_day * SECONDS_PER_DAY
    bounds = np.searchsorted(ts, day0 + SECONDS_PER_DAY * np.arange(
        last_day - first_day + 2, dtype=np.int64))
    traded = np.flatnonzero(bounds[1:] > bounds[:-1])  # zero-trade days are omitted
    # The span's grid times are day0 + width*m, m = 0..total; day d's row is
    # m = n*d .. n*(d+1). Binning the span's ticks against them and taking
    # running sums counts the ticks up to every grid time in one pass.
    total = (last_day - first_day + 1) * n
    lo = int(bounds[0])  # ticks before the span
    span = ts[lo:np.searchsorted(ts, day0 + total * width, side="right")]

    def rows(ticks_per_bin: np.ndarray, offset: int) -> np.ndarray:
        """`offset` plus the running sums of bins 0..total, as (traded days, n+1)."""
        sums = ticks_per_bin[:total + 1]
        np.cumsum(sums, out=sums)
        out = sliding_window_view(sums, n + 1)[::n][traded]
        out += offset
        return out

    # the ticks strictly before each grid time, so that interval k is
    # [time k-1, time k) and a day-open trade counts
    counts = rows(np.bincount((span - day0) // width + 1, minlength=total + 2), lo)
    coverage = {}
    for delta in deltas:
        k = delta // step
        coverage[delta] = np.count_nonzero(counts[:, k::k] > counts[:, :-k:k], axis=1) / (n // k)
    del counts  # free it before the previous-tick index is built
    # the previous tick: the last at or before the grid time, so in bin
    # ceil((t - day0) / width) or below
    idx = rows(np.bincount((span - day0 + width - 1) // width, minlength=total + 2), lo - 1)
    # a day-open with no trade anywhere before it is backfilled from the day's
    # first trade; only the data's leading edge can hit this, later day-opens
    # forward-fill from prior days. A row's negative entries come first.
    lead = np.flatnonzero(idx[:, 0] < 0)
    idx[lead] = np.where(idx[lead] < 0, bounds[traded[lead], None], idx[lead])
    return TradeIndex(step_minutes=step,
                      days=[_epoch_day_to_date(d) for d in first_day + traded],
                      prices=ticks.prices[idx], coverage=coverage, leading=len(lead))


def resample_prices(index: TradeIndex, delta_minutes: int,
                    min_coverage: float = 0.0) -> PriceGrid:
    """Previous-tick resampling onto a delta-minute UTC grid.

    Each grid point holds the last traded price at or before the grid time;
    the day-open forward-fills from the prior day's last trade. Days with no
    trades at all are omitted, as are days with coverage below `min_coverage`,
    which must be a number >= 0 (above 1 it drops every day).

    The grid is a column stride of `index` (see `trade_index`), which must
    have been built for this delta and fixes the day span. A backfilled
    leading day-open is reported by one warning per call.
    """
    if not min_coverage >= 0.0:  # NaN included
        raise ValueError(f"min_coverage must be >= 0, got {min_coverage!r}")
    if delta_minutes not in index.coverage:
        raise ValueError(f"delta_minutes={delta_minutes} is not among the index's "
                         f"deltas {sorted(index.coverage)}")
    coverage = index.coverage[delta_minutes]
    keep = ~(coverage < min_coverage)
    prices = index.prices[:, ::delta_minutes // index.step_minutes]
    if not keep.all():
        prices, coverage = prices[keep], coverage[keep]
    if index.leading:
        warnings.warn(f"backfilled the day-open of {index.leading} leading day(s) "
                      "with no prior trade", stacklevel=2)
    return PriceGrid(delta_minutes=delta_minutes,
                     days=list(itertools.compress(index.days, keep)),
                     prices=np.ascontiguousarray(prices), coverage=coverage)


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
