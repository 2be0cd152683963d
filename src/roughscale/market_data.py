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
import types
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

try:  # where np.loadtxt takes numpy's file reader from: numpy 2, then 1.24-1.26
    from numpy._core._multiarray_umath import _load_from_filelike
except ImportError:
    from numpy.core._multiarray_umath import _load_from_filelike

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
    """Previous-tick prices on a delta-minute grid, one row per kept day;
    `prices` may be a view of the `TradeIndex` it was resampled from."""

    delta_minutes: int
    days: list[dt.date]
    prices: np.ndarray    # (days, n+1): day-open plus one point per interval end
    coverage: np.ndarray  # (days,): fraction of the n intervals with >= 1 trade


@dataclass(frozen=True)
class IntradayReturnGrid:
    delta_minutes: int
    days: list[dt.date]
    returns: np.ndarray  # (days, n), n = 1440/delta


# Tick CSVs are read in blocks of _BLOCK characters and the rest of their last
# line, after the header record. A `_plain` block with no quote is read by
# numpy's file reader where that is exact (`_read_block`); any other block goes
# whole through the row rules (`_read_ticks`), ~5 times slower a line. So a
# quote or a bad line costs only its own block, ~3 k lines of ticks.
_BLOCK = 2 ** 16
_RECORD = np.dtype([("t", "<i8"), ("p", "<f8")])
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
# numpy reads some characters that int()/float() reject (it takes "12,3\x1c"
# as price 3.0), so a block is numpy-read only when it holds nothing but
# printable ASCII, tab and LF (a CR is left to the row rules' line splitting)
_PLAIN_BYTES = bytes([9, 10, *range(32, 127)])
# bytes that are not UTF-8, as the "surrogateescape" decoder hands them on
_UNDECODABLE = re.compile("[\udc80-\udcff]")
_BLANKS = re.compile("\n\n")  # a blank line: re finds one in half the time str.find takes


def _undecodable(fields: list[str]) -> bool:
    """True when a record's fields hold a byte that is not UTF-8."""
    line = ",".join(fields)
    return not line.isascii() and _UNDECODABLE.search(line) is not None


def _plain(text: str) -> bool:
    """True when numpy reads `text` exactly as the row rules do.

    Besides the character set, no line may be long enough to hold a field
    over csv's size limit, which the row rules reject: every aligned window of
    half the limit must hold a newline, which bounds each line below the limit.
    """
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_BYTES):
        return False
    half = csv.field_size_limit() // 2
    return all(text.find("\n", i, i + half) >= 0
               for i in range(0, len(text) - half + 1, half))


def _read_block(text: str) -> np.ndarray | None:
    """Plain `text`'s records by numpy's file reader, or None unless one finite record a line."""
    if text.startswith("\n") or _BLANKS.search(text):
        return None  # numpy would skip the blank line, and warn as it counts max_rows
    lines = text.count("\n") + (not text.endswith("\n"))  # max_rows: numpy allocates once
    reads = iter((text, ""))  # a file's reads, to the "" that ends it; any size will do
    try:
        records = _load_from_filelike(
            types.SimpleNamespace(read=lambda size: next(reads)), delimiter=",",
            comment=None, quote=None, imaginary_unit="j", usecols=[0, 1], skiplines=0,
            max_rows=lines, converters=None, dtype=_RECORD, encoding="latin1",
            filelike=True, byte_converters=False)
    except ValueError:
        return None
    return records if len(records) == lines and np.isfinite(records["p"]).all() else None


def _read_ticks(stream, header: bool, max_malformed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The timestamps and prices of all records of `stream`, as two arrays in
    file order, and the count of malformed records.

    With `header`, record 1 is read first and skipped, however many lines it
    spans. Then each block is read by `_read_block` or else by the row rules:
    a csv.reader of its own, which reads past the block only the lines that
    finish the block's last record. Blank records are skipped, a byte that is
    not UTF-8 raises, and a record without an int64 timestamp and a finite
    price is malformed, the one beyond `max_malformed` raising; these errors,
    and csv's own (a field over its size limit), name the physical line the
    record starts on. At the peak, the blocks' records and the two arrays are
    live, twice the arrays' bytes.
    """
    parts = [np.empty(0, dtype=_RECORD)]  # then one record array a block
    malformed = 0
    lines = iter(stream.readline, "")
    lineno = 0  # lines read so far
    if header:
        reader = csv.reader(lines)
        try:
            fields = next(reader, [])
        except csv.Error as exc:  # a field over csv's size limit
            raise DataError(f"{exc} at line 1") from None
        if _undecodable(fields):
            raise DataError("tick data is not valid UTF-8 at line 1")
        lineno = reader.line_num
    while block := stream.read(_BLOCK):
        block += stream.readline()  # the rest of its last line
        quoted = '"' in block
        records = _read_block(block) if not quoted and _plain(block) else None
        if records is None:
            ascii_text = not quoted and block.isascii()  # then no byte fails UTF-8
            stamps, prices = [], []
            # as the stream splits: one that reports the newlines it met splits at a lone "\r" too
            rows = io.StringIO(block, newline="" if getattr(stream, "newlines", None)
                               else "\n").readlines()
            reader = csv.reader(itertools.chain(rows, lines))
            # `read` is the lines read before the record, so it starts on
            # line lineno + read + 1
            while (read := reader.line_num) < len(rows):
                try:
                    fields = next(reader)
                except csv.Error as exc:
                    raise DataError(f"{exc} at line {lineno + read + 1}") from None
                if not ascii_text and _undecodable(fields):
                    raise DataError(f"tick data is not valid UTF-8 at line {lineno + read + 1}")
                # a good record pays for no check of blanks or field counts
                try:
                    ts = int(fields[0])
                    if not _INT64_MIN <= ts <= _INT64_MAX:
                        raise ValueError("timestamp out of range")
                    price = float(fields[1])
                    if not math.isfinite(price):
                        raise ValueError("non-finite price")
                except (ValueError, IndexError) as exc:
                    if not fields or (len(fields) == 1 and not fields[0].strip()):
                        continue  # a blank record
                    malformed += 1
                    if malformed > max_malformed:
                        reason = "fewer than 2 fields" if len(fields) < 2 else exc
                        raise DataError(f"malformed tick record at line "
                                        f"{lineno + read + 1}: {reason}") from None
                    continue
                stamps.append(ts)
                prices.append(price)
            lineno += read
            records = np.empty(len(stamps), dtype=_RECORD)
            records["t"], records["p"] = stamps, prices
        else:
            lineno += len(records)
        parts.append(records)
    return (np.concatenate([part["t"] for part in parts]),
            np.concatenate([part["p"] for part in parts]), malformed)


def parse_ticks(source, *, header: bool = False, max_malformed: int = 0) -> TickSeries:
    """Parse a tick CSV stream of `timestamp,price[,amount]` rows.

    `source` may be a path (`str` or `os.PathLike`), bytes, or a text/binary
    file object; paths, bytes and binary streams are UTF-8 read with universal
    newlines, and a byte-order mark that opens them is dropped. Out-of-order
    rows are stably sorted by timestamp; rows with non-positive price are
    dropped and counted. More than `max_malformed` unparsable rows aborts with
    a DataError naming the offending line, and so does the first byte that is
    not UTF-8. A negative `max_malformed` raises ValueError before `source` is
    read.
    """
    if max_malformed < 0:
        raise ValueError(f"max_malformed must be >= 0, got {max_malformed}")
    release = None
    if isinstance(source, bytes):
        source = io.BytesIO(source)  # one decode path for bytes and binary streams
    if isinstance(source, (str, os.PathLike)):
        stream = open(source, "r", encoding="utf-8-sig", errors="surrogateescape")
        release = stream.close
    elif isinstance(source, io.BufferedIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        stream = io.TextIOWrapper(source, encoding="utf-8-sig", errors="surrogateescape")
        release = stream.detach  # a finalised wrapper would close the caller's stream
    else:
        stream = source

    try:
        timestamps, prices, malformed = _read_ticks(stream, header, max_malformed)
    finally:
        if release is not None:
            release()

    # Each array is rebound to its successor, so the old one dies as the new
    # one is made: the parse never holds more than twice the output's bytes.
    parsed = len(prices)
    positive = prices > 0
    if not positive.all():
        timestamps = timestamps[positive]
        prices = prices[positive]
    del positive
    if not len(timestamps):
        raise DataError("empty tick stream (no usable records)")
    order = np.argsort(timestamps, kind="stable")  # stable: ties keep file order
    timestamps = timestamps[order]
    prices = prices[order]
    return TickSeries(timestamps=timestamps, prices=prices,
                      dropped_nonpositive=parsed - len(timestamps),
                      malformed_lines=malformed)


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


# grid times a run of `trade_index` bins at once: ~1 MB of int64 per array,
# next to the ~12 MB a whole 1000-day span at a 1-minute step would take
_RUN_POINTS = 2 ** 17


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
    prices = np.empty((len(traded), n + 1))
    coverage = {delta: np.empty(len(traded)) for delta in deltas}
    leading = 0
    # The index is built a run of at most `run` days at a time, so that its
    # transients stay a few times _RUN_POINTS int64s however long the span.
    # A run starts on a trading day, so a gap in the data is never binned.
    run = max(1, _RUN_POINTS // n)
    r0 = 0
    while r0 < len(traded):
        r1 = int(np.searchsorted(traded, traded[r0] + run))
        # The run's grid times are start + width*m, m = 0..total; its day d's
        # row is m = n*d .. n*(d+1). Binning the run's ticks against them and
        # taking running sums counts the ticks up to every grid time in one pass.
        days = traded[r0:r1] - traded[r0]
        start = day0 + int(traded[r0]) * SECONDS_PER_DAY
        total = (int(days[-1]) + 1) * n
        lo = int(bounds[traded[r0]])  # ticks before the run
        span = ts[lo:np.searchsorted(ts, start + total * width, side="right")]

        def rows(ticks_per_bin: np.ndarray, offset: int) -> np.ndarray:
            """`offset` plus the running sums of bins 0..total, as (days, n+1)."""
            sums = ticks_per_bin[:total + 1]
            np.cumsum(sums, out=sums)
            out = sliding_window_view(sums, n + 1)[::n][days]
            out += offset
            return out

        # the ticks strictly before each grid time, so that interval k is
        # [time k-1, time k) and a day-open trade counts
        counts = rows(np.bincount((span - start) // width + 1, minlength=total + 2), lo)
        for delta in deltas:
            k = delta // step
            coverage[delta][r0:r1] = np.count_nonzero(
                counts[:, k::k] > counts[:, :-k:k], axis=1) / (n // k)
        # the previous tick: the last at or before the grid time, so in bin
        # ceil((t - start) / width) or below
        idx = rows(np.bincount((span - start + width - 1) // width, minlength=total + 2), lo - 1)
        # a day-open with no trade anywhere before it is backfilled from the
        # day's first trade; only the data's leading edge can hit this, later
        # day-opens forward-fill from prior days. A row's negative entries
        # come first.
        lead = np.flatnonzero(idx[:, 0] < 0)
        idx[lead] = np.where(idx[lead] < 0, bounds[traded[r0 + lead], None], idx[lead])
        leading += len(lead)
        prices[r0:r1] = ticks.prices[idx]
        r0 = r1
    return TradeIndex(step_minutes=step,
                      days=[_epoch_day_to_date(d) for d in first_day + traded],
                      prices=prices, coverage=coverage, leading=leading)


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
    days = index.days  # shared by every delta's grid that keeps all days
    if not keep.all():
        prices, coverage = prices[keep], coverage[keep]
        days = list(itertools.compress(days, keep))
    if index.leading:
        warnings.warn(f"backfilled the day-open of {index.leading} leading day(s) "
                      "with no prior trade", stacklevel=2)
    return PriceGrid(delta_minutes=delta_minutes, days=days, prices=prices,
                     coverage=coverage)


def intraday_log_returns(grid: PriceGrid) -> IntradayReturnGrid:
    """Log returns between consecutive grid prices, n per day."""
    return IntradayReturnGrid(delta_minutes=grid.delta_minutes, days=grid.days,
                              returns=np.diff(np.log(grid.prices), axis=1))
