import csv
import datetime as dt
import gc
import io
import math
import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughscale import market_data, pipeline
from roughscale.errors import DataError
from roughscale.market_data import (PriceGrid, TickSeries, date_to_epoch_seconds,
                                    intraday_log_returns, parse_ticks,
                                    resample_prices, trade_index)
from roughscale.realized_volatility import compute_daily_rv
from roughscale.scaling import divisors_of_1440

DAY0 = dt.date(2014, 1, 2)
T0 = date_to_epoch_seconds(DAY0)


def ticks_from(pairs, **kw):
    ts, px = zip(*pairs)
    return TickSeries(timestamps=np.array(ts, dtype=np.int64),
                      prices=np.array(px, dtype=float), **kw)


def resample(ticks, delta, start=None, end=None, min_coverage=0.0):
    return resample_prices(trade_index(ticks, [delta], start, end), delta, min_coverage)


class TestTickSeriesChecks:
    @pytest.mark.parametrize("timestamps,prices,message", [
        ([], [], "tick series must contain at least one event"),
        ([1, 2], [1.0], "timestamp/price arrays differ in length"),
        ([2, 1], [1.0, 1.0], "tick timestamps must be non-decreasing"),
        ([1, 2], [1.0, 0.0], "tick prices must be strictly positive"),
    ], ids=["empty", "lengths_differ", "decreasing", "nonpositive_price"])
    def test_rejected(self, timestamps, prices, message):
        with pytest.raises(DataError, match=message):
            TickSeries(np.array(timestamps, dtype=np.int64), np.array(prices, dtype=float))


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

    def test_negative_tolerance_raises_before_reading(self, tmp_path):
        stream = io.StringIO("100,1.0\n")
        for source in (stream, tmp_path / "missing.csv"):
            with pytest.raises(ValueError, match="max_malformed must be >= 0, got -1"):
                parse_ticks(source, max_malformed=-1)
        assert stream.tell() == 0

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

    @pytest.mark.parametrize("line", ["99999999999999999999,2.0",
                                      "9223372036854775808,2.0",
                                      "-9223372036854775809,2.0"])
    def test_timestamp_outside_int64_is_malformed(self, line):
        text = f"100,1.0\n{line}\n101,3.0\n"
        ticks = parse_ticks(io.StringIO(text), max_malformed=1)
        assert ticks.timestamps.tolist() == [100, 101]
        assert ticks.malformed_lines == 1
        with pytest.raises(DataError, match="line 2: timestamp out of range"):
            parse_ticks(io.StringIO(text))

    def test_int64_bounds_are_timestamps(self):
        ticks = parse_ticks(io.StringIO("9223372036854775807,1.0\n"
                                        "-9223372036854775808,2.0\n"))
        assert ticks.timestamps.tolist() == [-2 ** 63, 2 ** 63 - 1]

    def test_source_kinds_agree_on_carriage_returns(self, tmp_path):
        data = b"101,2.0\r100,1.0\r\n102,-1.0\n\r103,3.0"
        path = tmp_path / "ticks.csv"
        path.write_bytes(data)
        parsed = [parse_ticks(data), parse_ticks(io.BytesIO(data)), parse_ticks(path)]
        for ticks in parsed:
            assert ticks.timestamps.tolist() == [100, 101, 103]
            assert ticks.prices.tolist() == [1.0, 2.0, 3.0]
            assert ticks.dropped_nonpositive == 1

    @pytest.mark.parametrize("data,lineno", [
        (b"100,1.0\n\xff\xfe,2.0\n101,3.0\n", 2),
        (b"100,1.0,caf\xe9\n101,3.0\n", 1),   # even in the ignored amount field
        (b"100,1.0\r\n101,2.0\r\nbad\n\x80", 4),
    ])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, data, lineno):
        path = tmp_path / "ticks.csv"
        path.write_bytes(data)
        for source in (data, io.BytesIO(data), path):
            with pytest.raises(DataError, match=f"not valid UTF-8 at line {lineno}$"):
                parse_ticks(source, max_malformed=5)

    @pytest.mark.parametrize("data", [
        b"\xff\xfeheader,x\n100,1.0\n200,2.0\n",
        b'"time\nst\xe9mp",price\n100,1.0\n200,2.0\n',  # named where its record starts
    ])
    def test_a_header_not_utf8_names_line_1(self, tmp_path, data):
        path = tmp_path / "ticks.csv"
        path.write_bytes(data)
        for source in (data, io.BytesIO(data), path):
            with pytest.raises(DataError, match="not valid UTF-8 at line 1$"):
                parse_ticks(source, header=True)


    @staticmethod
    def block_reads(text, header):
        """What a parse of `text` in blocks of 31 characters hands numpy's
        file reader, call by call, and the lines each csv.reader takes from
        its input, with its ticks. A block is `_BLOCK` characters and the rest
        of the line they end in: four lines of the 8- and 9-character lines
        below, as 31 characters end inside the fourth."""
        read_by = []
        real_reader = csv.reader

        def reader(source, *args, **kw):
            read = []
            read_by.append(read)

            def recorded():
                for line in source:
                    read.append(line)
                    yield line
            return real_reader(recorded(), *args, **kw)

        with mock.patch.object(market_data, "_BLOCK", 31), \
                mock.patch.object(market_data, "_read_block",
                                  wraps=market_data._read_block) as read_block, \
                mock.patch.object(market_data, "_load_from_filelike",
                                  wraps=market_data._load_from_filelike) as load, \
                mock.patch.object(csv, "reader", reader):
            ticks = parse_ticks(io.StringIO(text), header=header, max_malformed=1)
        # one numpy call a block it is handed
        assert load.call_count == read_block.call_count
        return [call.args[0] for call in read_block.call_args_list], read_by, ticks

    # the names and ids stay from when the reader read 4-line chunks with
    # np.loadtxt: a chunk is now a block, and np.loadtxt numpy's file reader
    @pytest.mark.parametrize("header,bad,loadtxt_calls,row_rule_chunks", [
        (False, None, 3, []),  # a clean file: one numpy read a block
        (True, None, 3, []),   # the header is one record, read first
        (False, 5, 3, [1]),    # only the bad line's block goes to the row rules
    ])
    def test_loadtxt_reads_every_chunk_it_can(self, header, bad, loadtxt_calls,
                                              row_rule_chunks):
        # one timestamp for all: the stable sort keeps file order, so the
        # prices show it
        lines = [f"100,{i + 1}.0\n" for i in range(12)]
        if bad is not None:
            lines[bad] = "garbage\n"
        first = int(header)
        blocks = [(a, min(a + 4, 12)) for a in range(first, 12, 4)]
        numpy_reads, read_by, ticks = self.block_reads("".join(lines), header)
        assert len(numpy_reads) == loadtxt_calls
        assert numpy_reads == ["".join(lines[a:b]) for a, b in blocks]
        assert read_by == ([lines[:1]] if header else []) + [lines[slice(*blocks[c])]
                                                             for c in row_rule_chunks]
        assert ticks.prices.tolist() == [i + 1.0 for i in range(12)
                                         if i != bad and not (header and i == 0)]
        assert ticks.malformed_lines == (bad is not None)

    @pytest.mark.parametrize("header,edits,numpy_reads,reader_reads,missing", [
        pytest.param(True, {0: '"timestamp","price"\n'}, [(1, 5), (5, 9), (9, 12)],
                     [(0, 1)], [0], id="quoted header"),
        pytest.param(True, {0: '"time\n', 1: 'stamp",price\n'}, [(2, 6), (6, 10), (10, 12)],
                     [(0, 2)], [0, 1], id="header over two lines"),
        # a quoted field opened on a block's last line: its reader reads on
        # only to the line that closes it, and the next block starts after that
        pytest.param(False, {3: '100,4.0,"a\n', 4: 'note"\n'}, [(5, 9), (9, 12)],
                     [(0, 5)], [4], id="field over a chunk edge"),
    ])
    def test_a_quote_costs_only_its_own_chunk(self, header, edits, numpy_reads,
                                              reader_reads, missing):
        lines = [f"100,{i + 1}.0\n" for i in range(12)]
        for i, line in edits.items():
            lines[i] = line
        blocks, read_by, ticks = self.block_reads("".join(lines), header)
        assert blocks == ["".join(lines[a:b]) for a, b in numpy_reads]
        assert read_by == [lines[a:b] for a, b in reader_reads]
        assert ticks.prices.tolist() == [i + 1.0 for i in range(12) if i not in missing]

    def test_a_blank_line_is_skipped_without_a_warning(self):
        # numpy's reader skips it, so its block goes to the row rules
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticks = parse_ticks(io.StringIO("100,1.0\n\n101,2.0\n"))
        assert ticks.prices.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"])
    def test_a_callers_text_stream_keeps_its_own_line_splitting(self, tmp_path, newline):
        # a file opened with newline="" ends lines at a lone "\r" and keeps
        # it; an io.StringIO ends them only at "\n", so that csv rejects its
        # "\r" in an unquoted field. The file is over 100 KiB, so that a bad
        # line and a quoted field over two lines sit past a 64 KiB block edge.
        rows = [f"{1_000_000 + i},1.0" for i in range(8000)]
        rows[6000:6000] = ["bad", '1006000,"3.0', '",x']
        text = newline.join(rows) + newline
        path = tmp_path / "ticks.csv"
        path.write_text(text, newline="")
        for max_malformed in (0, 1):
            with open(path, newline="") as got, open(path, newline="") as want:
                assert (outcome(parse_ticks, got, max_malformed=max_malformed)
                        == outcome(reference_parse, want, max_malformed=max_malformed))
            if newline == "\r":
                assert (outcome(parse_ticks, io.StringIO(text), max_malformed=max_malformed)
                        == outcome(reference_parse, io.StringIO(text), max_malformed=max_malformed))

    def test_a_blank_line_after_every_row_sends_every_block_to_the_row_rules(self, tmp_path):
        # "\r\r\n" ends a row and then a blank line once newlines are
        # translated; the file is over 64 KiB, so it is read in several blocks
        rows = [f"{1_000_000 + i},{1 + i % 7}.5" for i in range(8000)]
        rows[6000] = "bad"
        data = ("\r\r\n".join(rows) + "\r\r\n").encode()
        path = tmp_path / "ticks.csv"
        path.write_bytes(data)
        for max_malformed in (0, 1):
            for source in (lambda: path, lambda: data, lambda: io.BytesIO(data)):
                with mock.patch.object(market_data, "_read_block",
                                       wraps=market_data._read_block) as read_block, \
                        mock.patch.object(market_data, "_load_from_filelike") as load:
                    got = outcome(parse_ticks, source(), max_malformed=max_malformed)
                assert read_block.call_count > 1 and load.call_count == 0
                assert got == outcome(reference_parse, source(), max_malformed=max_malformed)

    def test_numpy_load_from_filelike_reads_a_block_as_loadtxt_reads_its_lines(self):
        # numpy's private file reader, imported where np.loadtxt takes it
        # from; a numpy that moves or changes it fails here by name
        try:
            from numpy._core._multiarray_umath import _load_from_filelike
        except ImportError:
            from numpy.core._multiarray_umath import _load_from_filelike
        assert market_data._load_from_filelike is _load_from_filelike
        rng = np.random.default_rng(3)
        rows = [f"{t},{p!r},0.5" for t, p in zip(
            (T0 + np.arange(5000)).tolist(), np.round(100 + rng.random(5000), 2).tolist())]
        # more than one of numpy's reads, and a last line with no line break
        for text in ("\n".join(rows) + "\n", "\n".join(rows[:3]), "-5,1e3\n"):
            records = market_data._read_block(text)
            want = np.loadtxt(text.splitlines(keepends=True), delimiter=",", usecols=(0, 1),
                              dtype=market_data._RECORD, comments=None, ndmin=1)
            assert records.dtype == want.dtype
            assert records.tolist() == want.tolist()

    @staticmethod
    def memory_peak_case(tmp_path, row, header):
        # each copy dies as the next is made: at the peak, the records and
        # their field arrays, or the fields, the sort order and one sorted
        # field, twice the output's bytes (4.6 times while every copy lived)
        rng = np.random.default_rng(5)
        n = 200_000
        ts = T0 + 3 * np.arange(n, dtype=np.int64)
        swap = np.arange(1, n - 1, 97)
        ts[swap], ts[swap + 1] = ts[swap + 1], ts[swap]
        px = np.round(100 + rng.random(n), 2)
        px[n // 2] = -1.0
        path = tmp_path / "ticks.csv"
        path.write_text(header + "".join(row.format(t, p)
                                         for t, p in zip(ts.tolist(), px.tolist())))
        tracemalloc.start()
        try:
            ticks = parse_ticks(path, header=bool(header))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ticks) == n - 1 and ticks.dropped_nonpositive == 1
        assert np.array_equal(ticks.timestamps, np.sort(ts[px > 0]))
        assert peak <= 3 * (ticks.timestamps.nbytes + ticks.prices.nbytes)

    def test_memory_peak_is_at_most_three_times_the_output(self, tmp_path):
        self.memory_peak_case(tmp_path, "{},{!r}\n", "")

    # a quote costs only its own chunk, so quoted files hold no more
    @pytest.mark.parametrize("row", ["{},{!r}\n", '"{}","{!r}"\n'],
                             ids=["quoted header", "all quoted"])
    def test_memory_peak_of_quoted_files_is_at_most_three_times_the_output(self, tmp_path,
                                                                           row):
        self.memory_peak_case(tmp_path, row, '"timestamp","price"\n')

    def test_byte_order_mark_is_not_data(self, tmp_path):
        data = b"\xef\xbb\xbf1400000000,1.0\n1400000060,2.0\n"
        path = tmp_path / "ticks.csv"
        path.write_bytes(data)
        for source in (data, io.BytesIO(data), path):
            ticks = parse_ticks(source)
            assert ticks.timestamps.tolist() == [1400000000, 1400000060]
            assert ticks.prices.tolist() == [1.0, 2.0]
        # a text stream from the caller is not decoded again, and a mark in
        # mid-file is a malformed record
        for text in (data.decode("utf-8"), "1,1.0\n" + data.decode("utf-8")):
            with pytest.raises(DataError, match=r"record at line \d: invalid literal"):
                parse_ticks(io.StringIO(text))

    def test_errors_name_the_physical_line_a_record_starts_on(self):
        data = b'1,10.0\n2,11.0,"note\nspanning\nthree lines"\n3,12.0\nbad,row\n'
        for source in (data, io.StringIO(data.decode()), io.BytesIO(data)):
            with pytest.raises(DataError, match="malformed tick record at line 6: "):
                parse_ticks(source)
        data = b'1,10.0\n2,11.0,"note\nspanning"\n3,12.0,caf\xe9\n'
        with pytest.raises(DataError, match="not valid UTF-8 at line 4$"):
            parse_ticks(data)


def reference_parse(source, *, header=False, max_malformed=0):
    """The csv.reader loop parse_ticks replaced, kept as its oracle.

    A byte-order mark that opens a path, bytes or a binary stream is dropped,
    and an error names the physical line its record starts on.
    """
    release = None
    if isinstance(source, bytes):  # read as a binary stream, with universal newlines
        source = io.BytesIO(source)
    if isinstance(source, (str, os.PathLike)):
        stream = open(source, "r", encoding="utf-8-sig")
        release = stream.close
    elif isinstance(source, io.BufferedIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        stream = io.TextIOWrapper(source, encoding="utf-8-sig")
        release = stream.detach
    else:
        stream = source

    timestamps: list[int] = []
    prices: list[float] = []
    malformed = 0
    dropped = 0
    try:
        reader = csv.reader(stream)
        start = 1  # the physical line the next record starts on
        for row in reader:
            lineno, start = start, reader.line_num + 1
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
    except csv.Error as exc:  # a field over csv's size limit
        raise DataError(f"{exc} at line {start}") from None
    finally:
        if release is not None:
            release()

    if not timestamps:
        raise DataError("empty tick stream (no usable records)")

    ts_arr = np.asarray(timestamps, dtype=np.int64)
    px_arr = np.asarray(prices, dtype=np.float64)
    order = np.argsort(ts_arr, kind="stable")
    return TickSeries(timestamps=ts_arr[order], prices=px_arr[order],
                      dropped_nonpositive=dropped, malformed_lines=malformed)


# whole records; every quote in them is balanced
RECORDS = (
    # the benchmark CSV's malformed and non-positive lines
    "oops", "1420070400", "1420070400,abc", "1420070400,nan", ",,",
    "1420070400;20000.00", "1420070400,0.00", "1420070401,-3.50", "1420070402,0",
    "100,1.0", "101,2.5", "99,3.0", "100,4.25,0.5", " 102 , 5 ", "+103,6e0", "-0,7",
    "104,inf", "104,-inf", "104,Infinity", "104,+nan", "104,1e400", "104,1e-400",
    "1_2,3", "12,1_0", "12.0,3", "1e3,3", "12,", "12,3,", "12,0x1p3",
    '"12",3', '"12\n13",3', '105,"2.5\n",x',
    "\u0661\u0662,3", "12,\uff13", "12,3\x1c", "12,3\x0b", "\ufeff106,1",
    "9223372036854775807,1", "-9223372036854775808,1", "9223372036854775808,1",
    "", "  ", "\t", "timestamp,price,amount",
)
# reference_parse lets a timestamp outside int64 through int() and then dies
# in np.asarray with OverflowError; parse_ticks counts such a row as malformed.
# The outcome expected of it is reference_parse's on a stand-in row, malformed
# at the same place, with the stand-in's reason swapped for its own.
OUT_OF_RANGE, STAND_IN = "9223372036854775808,1", "oor,1"
STAND_IN_REASON = "invalid literal for int() with base 10: 'oor'"
# characters for records made up on the spot: digits, signs, exponents,
# separators, blanks and the non-ASCII digits loadtxt and int()/float() part on
FUZZ = "0123456789+-.eE_ ,;\tnaifxINF\x1c\x00\u0661\uff13"


def outcome(parse, source, **kw):
    try:
        ticks = parse(source, **kw)
    except (DataError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return (ticks.timestamps.tolist(), ticks.prices.tolist(),
            ticks.dropped_nonpositive, ticks.malformed_lines)


def expected_outcome(records, join, **kw):
    text = join(STAND_IN if r == OUT_OF_RANGE else r for r in records)
    out = outcome(reference_parse, io.StringIO(text), **kw)
    if out[0] == "DataError":
        return out[0], out[1].replace(STAND_IN_REASON, "timestamp out of range")
    return out


class TestChunkedParseMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(records=st.lists(st.sampled_from(RECORDS) | st.text(FUZZ, max_size=8),
                            max_size=40),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           final_newline=st.booleans(), block=st.integers(1, 48),
           header=st.booleans(),
           max_malformed=st.integers(0, 8))
    # a quoted field opens in block 0's last line and closes in block 1; the
    # bad line after it is on physical line 5, the record's fourth
    @example(records=["100,1.0", '105,"2.5\n",x', "102,3.0", "oops"], newline="\n",
             final_newline=True, block=10, header=False, max_malformed=0)
    def test_equal_to_reference(self, records, newline, final_newline, block,
                                header, max_malformed):
        def join(records):
            return newline.join(records) + (newline if final_newline else "")
        kw = dict(header=header, max_malformed=max_malformed)
        expected = expected_outcome(records, join, **kw)
        # blocks of a few characters to a few lines put bad lines, quotes,
        # "\r\n" pairs and the rest of a block's last line on block edges
        with mock.patch.multiple(market_data, _BLOCK=block):
            assert outcome(parse_ticks, io.StringIO(join(records)), **kw) == expected
            # bytes are read with universal newlines, as binary streams always were
            data = join(r for r in records if r != OUT_OF_RANGE).encode()
            from_stream = outcome(parse_ticks, io.BytesIO(data), **kw)
            assert from_stream == outcome(reference_parse, io.BytesIO(data), **kw)
            assert outcome(parse_ticks, data, **kw) == from_stream

    def test_every_record_alone(self):
        for record in RECORDS:
            for max_malformed in (0, 1):
                assert (outcome(parse_ticks, io.StringIO(record), max_malformed=max_malformed)
                        == expected_outcome([record], "".join,
                                            max_malformed=max_malformed)), record

    @pytest.mark.parametrize("width", [100, 70_000, 140_000])
    def test_long_lines(self, width):
        # csv rejects a field over its size limit (128 Ki characters); loadtxt
        # would not
        assert csv.field_size_limit() // 2 < 70_000 < csv.field_size_limit() < 140_000
        text = f"100,1.0\n101,2.0,{'9' * width}\n102,3.0\n" * 3
        assert (outcome(parse_ticks, io.StringIO(text))
                == outcome(reference_parse, io.StringIO(text)))

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("text,line", [(f"t,p,{'9' * 140_000}\n100,1.0\n", 1),
                                           (f"100,1.0\n\n\"1\n{'9' * 140_000}\",2\n", 3)],
                             ids=["first_line", "quoted_record"])
    def test_a_field_over_the_limit_names_its_line(self, header, text, line):
        # the header's too, though the header is skipped
        want = ("DataError", f"field larger than field limit (131072) at line {line}")
        assert outcome(parse_ticks, io.StringIO(text), header=header) == want
        assert outcome(reference_parse, io.StringIO(text), header=header) == want


class TestResample:
    def test_previous_tick_rule(self):
        ticks = ticks_from([(T0, 100.0), (T0 + 4 * 60, 101.0), (T0 + 9 * 60, 102.0)])
        grid = resample(ticks, 5)
        prices = grid.prices[0]
        assert prices[0] == 100.0   # minute 0
        assert prices[1] == 101.0   # minute 5 <- tick at minute 4
        assert prices[2] == 102.0   # minute 10 <- tick at minute 9
        assert np.all(prices[2:] == 102.0)

    def test_single_tick_day(self):
        ticks = ticks_from([(T0 + 30, 500.0)])
        with pytest.warns(UserWarning, match="backfilled"):
            grid = resample(ticks, 5)
        n = 1440 // 5
        assert len(grid.prices[0]) == n + 1
        assert np.all(grid.prices[0] == 500.0)
        assert grid.coverage[0] == pytest.approx(1 / n)

    def test_delta_must_divide_1440(self):
        ticks = ticks_from([(T0, 100.0)])
        with pytest.raises(ValueError):
            resample(ticks, 7)

    def test_day_open_forward_fills_from_prior_day(self):
        ticks = ticks_from([(T0, 80.0), (T0 + 86000, 90.0),
                            (T0 + 86400 + 3600, 95.0)])
        grid = resample(ticks, 60)
        assert len(grid.days) == 2
        assert grid.prices[1, 0] == 90.0
        assert grid.prices[1, 1] == 95.0

    def test_zero_trade_day_omitted(self):
        ticks = ticks_from([(T0, 90.0), (T0 + 2 * 86400 + 10, 95.0)])
        grid = resample(ticks, 1440)
        assert grid.days == [DAY0, DAY0 + dt.timedelta(days=2)]

    def test_span_outside_data(self):
        ticks = ticks_from([(T0, 100.0)])
        with pytest.raises(DataError):
            resample(ticks, 5, DAY0 + dt.timedelta(days=10),
                     DAY0 + dt.timedelta(days=12))

    def test_timestamp_after_the_calendar(self):
        # int64 holds it, but its day is past 9999-12-31: the span used to wrap
        # to a grid of 0 days with no error
        ticks = ticks_from([(T0, 100.0), (9223372036854775000, 101.0)])
        with pytest.raises(DataError, match="9223372036854775000 lies outside the calendar"):
            resample(ticks, 60)

    def test_timestamp_before_the_calendar(self):
        # its day is before 0001-01-01: used to raise OverflowError from datetime
        ticks = ticks_from([(-9000000000000000000, 99.0), (T0, 100.0)])
        with pytest.raises(DataError, match="-9000000000000000000 lies outside the calendar"):
            resample(ticks, 60)

    def test_clipped_span_ignores_ticks_outside_the_calendar(self):
        ticks = ticks_from([(T0, 100.0), (T0 + 3600, 101.0), (9223372036854775000, 102.0)])
        grid = resample(ticks, 60, end=DAY0)
        assert grid.days == [DAY0]

    @pytest.mark.parametrize("floor", [float("nan"), -1.0, -1e-300])
    def test_coverage_floor_must_be_a_number_at_least_zero(self, floor):
        # such a floor used to keep every day with no error
        ticks = ticks_from([(T0, 100.0), (T0 + 3600, 101.0)])
        with pytest.raises(ValueError, match="min_coverage must be >= 0"):
            resample(ticks, 60, min_coverage=floor)

    def test_coverage_floor_above_one_drops_every_day(self):
        ticks = ticks_from([(T0, 100.0), (T0 + 3600, 101.0)])
        assert resample(ticks, 60, min_coverage=1.5).days == []


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
        base = intraday_log_returns(resample(ticks, 30))
        moved = intraday_log_returns(resample(shifted, 30))
        assert len(base.days) == len(moved.days)
        for a, b in zip(base.days, moved.days):
            assert (b - a).days == 3
        np.testing.assert_array_equal(base.returns, moved.returns)

    def test_daily_sum_telescopes_to_close_over_open(self):
        ticks = self.make_random_ticks(2)
        grid = resample(ticks, 15)
        rets = intraday_log_returns(grid)
        for prices, returns in zip(grid.prices, rets.returns):
            assert returns.sum() == pytest.approx(
                np.log(prices[-1] / prices[0]), abs=1e-12)

    def test_downsampling_pairwise_sums(self):
        ticks = self.make_random_ticks(3)
        r5 = intraday_log_returns(resample(ticks, 5))
        r10 = intraday_log_returns(resample(ticks, 10))
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
                resample(ticks, delta, start, end, min_coverage)
            return
        dates, prices, coverage, leading = ref
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = resample(ticks, delta, start, end, min_coverage)
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


DIVISORS = divisors_of_1440()
# singletons, any divisors, and sets sharing a step above 1 (criterion 8's)
delta_sets = (st.sampled_from(DIVISORS).map(lambda d: [d])
              | st.lists(st.sampled_from(DIVISORS), min_size=1, max_size=8, unique=True)
              | st.sampled_from(DIVISORS[1:-1]).flatmap(lambda g: st.lists(
                  st.sampled_from([d for d in DIVISORS if d % g == 0]),
                  min_size=2, max_size=6, unique=True))
              | st.just([30, 60, 120, 288, 720]))


class TestSharedIndexMatchesPerDeltaLoop:
    @settings(max_examples=300, deadline=None)
    # grid times a run of the trade index bins: from one day a run up to the
    # whole span in one
    @given(tick_streams(), delta_sets, st.sampled_from([1, 1440, 3000, 2 ** 17]))
    def test_build_rv_by_delta_equal_to_reference(self, case, deltas, run_points):
        ticks, _, start, end, min_coverage = case
        try:
            refs = {d: reference_resample(ticks, d, start, end, min_coverage)
                    for d in deltas}
        except DataError:
            with pytest.raises(DataError):
                pipeline.build_rv_by_delta(ticks, deltas, start, end, min_coverage)
            return
        backfills = {}
        real = pipeline.resample_prices

        def resample(index, delta, *args, **kw):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                grid = real(index, delta, *args, **kw)
            backfills[delta] = backfill_count(caught)
            return grid

        with mock.patch.object(pipeline, "resample_prices", resample), \
                mock.patch.object(market_data, "_RUN_POINTS", run_points):
            out = pipeline.build_rv_by_delta(ticks, deltas, start, end, min_coverage)
        assert list(out) == deltas
        for delta, (dates, prices, _, leading) in refs.items():
            returns = [np.diff(np.log(p)) for p in prices]
            rv = out[delta]
            assert backfills[delta] == leading
            assert rv.dates == dates
            assert rv.rv.tolist() == [float(np.sum(r ** 2)) for r in returns]
            assert rv.daily_return.tolist() == [float(np.sum(r)) for r in returns]

    def test_a_grid_that_keeps_every_day_is_a_view_of_the_index(self):
        ticks = ticks_from([(T0 + 60 * m, 100.0 + m) for m in range(0, 3 * 1440, 7)])
        index = trade_index(ticks, [5, 10, 60])
        for delta in (10, 60):
            grid = resample_prices(index, delta)
            assert np.shares_memory(grid.prices, index.prices)
            np.testing.assert_array_equal(grid.prices, index.prices[:, ::delta // 5])
            np.testing.assert_array_equal(intraday_log_returns(grid).returns,
                                          np.diff(np.log(grid.prices.copy()), axis=1))

    def test_an_index_needs_a_delta(self):
        with pytest.raises(ValueError, match="a trade index needs at least one delta"):
            trade_index(ticks_from([(T0, 100.0)]), [])

    # not a multiple of the step 5, a multiple it was not built for, no divisor
    @pytest.mark.parametrize("delta", [1, 8, 15, 7])
    def test_delta_must_be_one_the_index_was_built_for(self, delta):
        index = trade_index(ticks_from([(T0, 100.0)]), [10, 5])
        assert index.step_minutes == 5
        with pytest.raises(ValueError, match=f"delta_minutes={delta} "):
            resample_prices(index, delta)
