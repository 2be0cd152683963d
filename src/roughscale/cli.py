"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (including a file that
cannot be opened), 3 numeric failure.
"""
from __future__ import annotations

import argparse
import collections
import csv
import datetime as dt
import math
import sys

import numpy as np

from . import pipeline
from .errors import DataError, NumericError
from .finite_sample import FiniteSampleLaw, density, kurtosis, moment_2k
from .market_data import (_undecodable, intraday_log_returns, parse_ticks, resample_prices,
                          samples_per_day, trade_index)
from .mfdfa import MfdfaConfig, default_q_values, default_scales, fluctuation_function, \
    generalized_hurst
from .pipeline import (RollingSpec, emit_report, resolve_deltas, run_rolling, write_csv,
                       write_json)
from .realized_volatility import log_increments
from .scaling import FrequencySweep, fit_ansatz
from .synthetic import generate_cascade, generate_fgn, generate_sv_days


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def date(text: str) -> dt.date:
    """An ISO date; argparse names the type by this function, "invalid date value"."""
    return dt.date.fromisoformat(text)


def _lines(path: str):
    """A text file's lines, decoded as `parse_ticks` decodes a path (an opening
    byte-order mark is not data, and a byte that is not UTF-8 is passed on as
    a surrogate for the caller to reject)."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        yield from fh


def _read_rows(path: str, parse, what: str) -> list:
    """`parse(fields)` of each record of a CSV file that is not blank. `parse`
    raises ValueError when the leading number does not convert, which makes
    the first record a header and a later one the error `what`, and DataError
    for any other fault; these errors, a byte that is not UTF-8, and csv's
    own, name the line the record starts on. A file without a record that
    `parse` takes raises DataError too."""
    rows, first, start = [], True, 1  # start: the line the next record starts on
    reader = csv.reader(_lines(path))
    try:
        for fields in reader:
            if fields and (len(fields) > 1 or fields[0].strip()):
                if _undecodable(fields):
                    raise DataError(f"not valid UTF-8 at line {start} of {path}")
                try:
                    rows.append(parse(fields))
                except ValueError:
                    if not first:
                        raise DataError(f"{what} at line {start} of {path}") from None
                except DataError as exc:
                    raise DataError(f"{exc} at line {start} of {path}") from None
                first = False
            start = reader.line_num + 1
    except csv.Error as exc:  # a field over csv's size limit
        raise DataError(f"{exc} at line {start} of {path}") from None
    if not rows:
        raise DataError(f"no numeric data in {path}")
    return rows


def _load_config_file(path: str) -> dict[str, str]:
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    for number, raw in enumerate(_lines(path), 1):
        if _undecodable([raw]):
            raise DataError(f"not valid UTF-8 at line {number} of {path}")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"bad config line (expected key=value): {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _add_tick_args(p):
    p.add_argument("--ticks", required=True, help="tick CSV: timestamp,price[,amount]")
    p.add_argument("--header", action="store_true", help="skip the first row")
    p.add_argument("--max-malformed", type=int, default=0)
    p.add_argument("--delta", type=int, default=5, help="sampling period in minutes")
    p.add_argument("--start", type=date, default=None)
    p.add_argument("--end", type=date, default=None)
    p.add_argument("--min-coverage", type=float, default=0.0)


def _exclude_from_args(args) -> list[int]:
    """The --exclude deltas; each must be a positive divisor of 1440."""
    exclude = [int(t) for t in args.exclude.split(",")] if args.exclude else []
    for delta in exclude:
        samples_per_day(delta)
    return exclude


def _check_grid_args(args) -> None:
    """ingest's and rv's usage errors, raised before the ticks are read."""
    samples_per_day(args.delta)
    if not 0.0 <= args.min_coverage <= 1.0:  # NaN included
        raise ValueError(f"min_coverage must lie in [0, 1], got {args.min_coverage!r}")


def _ticks_from_args(args):
    return parse_ticks(args.ticks, header=args.header, max_malformed=args.max_malformed)


def cmd_ingest(args) -> int:
    _check_grid_args(args)
    index = trade_index(_ticks_from_args(args), [args.delta], args.start, args.end)
    grid = resample_prices(index, args.delta, args.min_coverage)
    column, table = (("price", grid.prices) if args.what == "prices"
                     else ("return", intraday_log_returns(grid).returns))
    write_csv(args.out, ["date", "index", column],
              ((day.isoformat(), i, value) for day, row in zip(grid.days, table)
               for i, value in enumerate(row.tolist())))
    return 0


def cmd_rv(args) -> int:
    _check_grid_args(args)
    rv = pipeline.build_rv_by_delta(_ticks_from_args(args), [args.delta], args.start,
                                    args.end, args.min_coverage)[args.delta]
    write_csv(args.out, ["date", "rv", "daily_return"],
              ((d.isoformat(), repr(float(v)), repr(float(r)))
               for d, v, r in zip(rv.dates, rv.rv, rv.daily_return)))
    if args.increments_out:
        incr = log_increments(rv, zero_policy=args.zero_policy)
        write_csv(args.increments_out, ["date", "V"],
                  ((d.isoformat(), repr(float(v)))
                   for d, v in zip(incr.dates, incr.values)))
    return 0


def _series_value(fields: list[str]) -> float:
    value = float(fields[-1])
    if not math.isfinite(value):
        raise DataError("non-finite value")
    return value


def _read_series_csv(path: str) -> np.ndarray:
    """One finite value per record, last column taken; a non-numeric first record is a header."""
    return np.asarray(_read_rows(path, _series_value, "non-numeric value"))


def cmd_mfdfa(args) -> int:
    series = _read_series_csv(args.series)
    qs = np.asarray([float(t) for t in args.q_list.split(",")]) \
        if args.q_list else default_q_values()
    scales = np.asarray(sorted(int(t) for t in args.scales.split(","))) \
        if args.scales else default_scales(len(series))
    fit_range = None
    if args.fit_min is not None or args.fit_max is not None:
        lo = args.fit_min if args.fit_min is not None else int(scales[0])
        hi = args.fit_max if args.fit_max is not None else int(scales[-1])
        fit_range = (lo, hi)
    config = MfdfaConfig(q_values=qs, scales=scales,
                         detrend_order=args.detrend_order, fit_range=fit_range)
    surface = fluctuation_function(series, config)
    curve = generalized_hurst(surface)
    if args.surface_out:
        write_csv(args.surface_out, ["q", "s", "Fq"],
                  ((repr(float(q)), int(s), repr(float(surface.values[i, j])))
                   for i, q in enumerate(config.q_values)
                   for j, s in enumerate(surface.scales)))
    columns = np.column_stack([curve.q_values, curve.h_values, curve.stderr, curve.r2])
    write_csv(args.out, ["q", "h", "stderr", "r2"],
              (map(repr, row) for row in columns.tolist()))
    return 0


def _sweep_row(fields: list[str]) -> tuple:
    """(delta, h2, stderr or None); a delta that is not an integer raises
    ValueError, and an h2 that is not finite or a stderr that is not finite
    and positive DataError."""
    delta = int(fields[0])
    try:
        h2 = float(fields[1])
        stderr = float(fields[2]) if len(fields) > 2 and fields[2] != "" else None
    except (ValueError, IndexError):
        raise DataError("bad sweep row") from None
    if not math.isfinite(h2) or not (stderr is None or 0 < stderr < math.inf):
        raise DataError("bad sweep row")
    return delta, h2, stderr


def cmd_fit_ansatz(args) -> int:
    exclude = _exclude_from_args(args)
    rows = _read_rows(args.sweep, _sweep_row, "bad sweep row")
    stderr = [row[2] for row in rows if row[2] is not None]
    if stderr and len(stderr) != len(rows):
        raise DataError("stderr column must be present for all rows or none")
    deltas = [row[0] for row in rows]
    delta, count = collections.Counter(deltas).most_common(1)[0]
    if count > 1:
        raise DataError(f"delta {delta} is listed more than once in {args.sweep}")
    sweep = FrequencySweep(deltas=deltas, h2=[row[1] for row in rows],
                           h2_stderr=stderr or None)
    fit = fit_ansatz(sweep, exclude=exclude)
    write_json(args.out, {"h0": fit.h0, "a": fit.a, "h0_stderr": fit.h0_stderr,
                          "a_stderr": fit.a_stderr, "residual_rms": fit.residual_rms,
                          "excluded": fit.excluded_deltas,
                          "boundary_warning": fit.boundary_warning})
    return 0


def cmd_finite_sample(args) -> int:
    law = FiniteSampleLaw(args.n)
    xs = np.linspace(-np.sqrt(args.n), np.sqrt(args.n), args.points)
    pdf = density(law, xs)
    rows = [(repr(float(x)), repr(float(p))) for x, p in zip(xs, pdf)]
    write_csv(args.out, ["x", "pdf"], rows)
    print(f"n={args.n} kurtosis={kurtosis(law)!r}", file=sys.stderr)
    for k in (1, 2, 3):
        print(f"E[r^{2 * k}]={moment_2k(law, k)!r}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    def need(*names):
        missing = [f"--{name}" for name in names if getattr(args, name) is None]
        if missing:
            raise ValueError(f"{args.kind} needs {' and '.join(missing)}")

    if args.kind == "fgn":
        need("hurst")
        series = generate_fgn(args.hurst, args.len, args.seed)
    elif args.kind == "cascade":
        need("p", "levels")
        series = generate_cascade(args.p, args.levels)
    else:
        need("n", "sigma")
        series = generate_sv_days(1, args.n, args.sigma, args.seed)[0]
    write_csv(args.out, ["value"], ((repr(float(v)),) for v in series))
    return 0


def cmd_rolling(args) -> int:
    # every usage error is raised before a tick is read
    rolling = RollingSpec(window_days=args.window_days, step_days=args.step_days)
    deltas = resolve_deltas(None if args.deltas == "auto"
                            else [int(t) for t in args.deltas.split(",")],
                            args.reference_delta)
    exclude = _exclude_from_args(args)
    MfdfaConfig(default_q_values(), None, args.detrend_order)  # the order fits the default grid
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    rv_by_delta = pipeline.build_rv_by_delta(_ticks_from_args(args), deltas)
    reports = run_rolling(rv_by_delta, rolling, reference_delta=args.reference_delta,
                          detrend_order=args.detrend_order,
                          exclude_deltas=exclude, workers=args.workers)
    config_echo = {
        "window_days": args.window_days, "step_days": args.step_days,
        "deltas": deltas, "reference_delta": args.reference_delta,
        "detrend_order": args.detrend_order, "exclude": exclude,
    }
    emit_report(reports, args.out, args.h2_csv, args.hq_csv, config_echo)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="roughscale",
                     description="Realized-volatility roughness and multifractality toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[], help="resample ticks and export grids")
    _add_tick_args(p)
    p.add_argument("--what", choices=["prices", "returns"], default="returns")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rv", help="daily realized volatility from ticks")
    _add_tick_args(p)
    p.add_argument("--out", default="-")
    p.add_argument("--increments-out", default=None, help="also write date,V CSV")
    p.add_argument("--zero-policy", choices=["drop", "floor"], default="drop")
    p.set_defaults(func=cmd_rv)

    p = sub.add_parser("mfdfa", help="MFDFA of a one-column series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--q-list", default=None, help="comma-separated q values")
    p.add_argument("--scales", default=None, help="comma-separated segment lengths")
    p.add_argument("--detrend-order", type=int, default=1)
    p.add_argument("--fit-min", type=int, default=None)
    p.add_argument("--fit-max", type=int, default=None)
    p.add_argument("--surface-out", default=None, help="write q,s,Fq CSV")
    p.add_argument("--out", default="-", help="write q,h,stderr,r2 CSV")
    p.set_defaults(func=cmd_mfdfa)

    p = sub.add_parser("fit-ansatz", help="fit H(delta) = H0*n/(n+a) to a sweep CSV")
    p.add_argument("--sweep", required=True, help="CSV: delta,h2[,stderr]")
    p.add_argument("--exclude", default=None, help="comma-separated deltas to drop")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit_ansatz)

    p = sub.add_parser("finite-sample", help="density table and moments for given n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_finite_sample)

    p = sub.add_parser("synth", help="seeded synthetic series")
    p.add_argument("--kind", choices=["fgn", "cascade", "sv_day"], required=True)
    p.add_argument("--hurst", "--h", dest="hurst", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--len", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rolling", help="full rolling-window analysis")
    p.add_argument("--config", default=None, help="key=value config file; flags override")
    p.add_argument("--ticks", required=False)
    p.add_argument("--header", action="store_true")
    p.add_argument("--max-malformed", type=int, default=0)
    p.add_argument("--window-days", type=int, default=2922)
    p.add_argument("--step-days", type=int, default=5)
    p.add_argument("--deltas", default="auto")
    p.add_argument("--reference-delta", type=int, default=5)
    p.add_argument("--detrend-order", type=int, default=1)
    p.add_argument("--exclude", default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="at least 1; accepted for compatibility, has no effect")
    p.add_argument("--out", required=False)
    p.add_argument("--h2-csv", default=None)
    p.add_argument("--hq-csv", default=None)
    p.set_defaults(func=cmd_rolling)
    parser.rolling = p  # main() types a config file's values by its options
    return parser


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_defaults(rolling: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values, each typed by the `rolling` option its key
    names; a key that names none, or a value its option rejects, is a usage
    error."""
    options = {a.dest: a for a in rolling._actions
               if a.option_strings and a.dest not in ("help", "config")}
    out = {}
    for key, value in _load_config_file(path).items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"config key {key!r} is not a rolling option")
        try:
            if action.nargs == 0:  # a flag such as --header
                out[key] = _FLAG_VALUES[value.lower()]
            else:
                out[key] = value if action.type is None else action.type(value)
        except (KeyError, ValueError):
            raise ValueError(f"config key {key!r} has a bad value {value!r}") from None
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become the subcommand's defaults, so argparse
            # itself lets every flag given on the command line win
            parser.rolling.set_defaults(**_config_defaults(parser.rolling, args.config))
            args = parser.parse_args(argv)
        if args.func is cmd_rolling:
            for name in ("ticks", "out"):
                if not getattr(args, name):
                    raise ValueError(f"rolling: --{name} is required (flag or config file)")
        return args.func(args)
    except (DataError, OSError, csv.Error) as exc:
        print(f"roughscale: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"roughscale: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"roughscale: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
