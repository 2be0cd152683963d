"""Rolling-window orchestration: per-window MFDFA across a delta sweep, ansatz
fits, and multifractality metrics, with JSON/CSV reporting."""
from __future__ import annotations

import contextlib
import csv
import datetime as dt
import itertools
import json
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DataError, NumericError
from .finite_sample import relative_error
from .market_data import (TickSeries, intraday_log_returns, resample_prices,
                          samples_per_day, trade_index)
from .mfdfa import (MIN_FIT_LENGTH, MfdfaConfig, default_q_values, fluctuation_function,
                    generalized_hurst)
from .multifractal_metrics import delta_h, taylor_b1
from .realized_volatility import RVSeries, compute_daily_rv, log_increments
from .scaling import AnsatzFit, FrequencySweep, divisors_of_1440, fit_ansatz


@dataclass(frozen=True)
class RollingSpec:
    window_days: int = 2922  # eight years including two leap days
    step_days: int = 5

    def __post_init__(self):
        if not (self.window_days > self.step_days > 0):
            raise ValueError("need window_days > step_days > 0")


@dataclass
class WindowReport:
    window_start: dt.date
    window_end: dt.date  # exclusive
    h2_by_delta: dict[int, float] = field(default_factory=dict)
    h2_stderr_by_delta: dict[int, float] = field(default_factory=dict)
    ansatz: AnsatzFit | None = None
    curve_q: list[float] = field(default_factory=list)
    curve_h: list[float] = field(default_factory=list)
    delta_h3: float | None = None
    b0: float | None = None
    b1: float | None = None
    reference_delta: int = 5
    reference_n: int = 288
    reference_relative_error: float | None = None  # a/(n+a) at reference_n, with a fit
    diagnostics: dict = field(default_factory=dict)
    reason: str | None = None

    def to_dict(self) -> dict:
        """The report as plain data, keys in field order: ISO dates, delta keys
        as sorted strings, the fit as a dict, and copies of its lists and dicts."""
        fit = self.ansatz
        return {
            "window_start": self.window_start.isoformat(),
            "window_end": self.window_end.isoformat(),
            "h2_by_delta": {str(k): self.h2_by_delta[k] for k in sorted(self.h2_by_delta)},
            "h2_stderr_by_delta": {str(k): self.h2_stderr_by_delta[k]
                                   for k in sorted(self.h2_stderr_by_delta)},
            "ansatz": None if fit is None else dict(vars(fit),
                                                    excluded_deltas=list(fit.excluded_deltas)),
            "curve_q": list(self.curve_q), "curve_h": list(self.curve_h),
            "delta_h3": self.delta_h3, "b0": self.b0, "b1": self.b1,
            "reference_delta": self.reference_delta, "reference_n": self.reference_n,
            "reference_relative_error": self.reference_relative_error,
            "diagnostics": {k: list(v) if isinstance(v, list) else v
                            for k, v in self.diagnostics.items()},
            "reason": self.reason,
        }


def build_rv_by_delta(ticks: TickSeries, deltas: list[int],
                      start_date: dt.date | None = None,
                      end_date: dt.date | None = None,
                      min_coverage: float = 0.0) -> dict[int, RVSeries]:
    """Daily RV series for each delta, from one trade index of the tick stream.

    The index is built once, on the grid of the deltas' greatest common
    divisor, and each delta's grid is a column stride of it: one
    `resample_prices` call per delta, with no further pass over the ticks.
    The ticks are let go once the index is built, so ticks that the caller
    passes as a temporary are freed before the grids are made.
    """
    index = trade_index(ticks, deltas, start_date, end_date)
    del ticks
    out = {}
    for delta in deltas:
        grid = resample_prices(index, delta, min_coverage=min_coverage)
        out[delta] = compute_daily_rv(intraday_log_returns(grid))
    return out


def _delta_column(rv: RVSeries, ordinals: np.ndarray, starts: np.ndarray, window_days: int,
                  reference: bool, detrend_order: int) -> tuple[np.ndarray, list]:
    """One delta's share of every window: its zero-RV days, and the MFDFA of
    its series as (h(2), its stderr, zero-variance segments, metrics), or None
    when the series is shorter than MIN_FIT_LENGTH. Only the reference delta has
    metrics: (q, h(q), delta_h(3), b0, b1) over the default q grid.

    `ordinals` are the proleptic ordinals of `rv.dates`, as are `starts`. A
    window's series is the run of full-span log-increments between its days:
    exactly those its own `log_increments` would keep, since one that
    bridges a zero-RV day is dropped either way and none crosses the
    window's edges. All windows take one `fluctuation_function` call, each on
    its own series' default scale grid; a failed MFDFA gives a NaN h(2).
    """
    try:
        incr = log_increments(rv, zero_policy="drop").values
    except DataError:  # fewer than 2 positive-RV days in the whole span
        incr = np.empty(0)
    usable = rv.rv > 0
    kept = np.concatenate([[0], np.cumsum(usable[1:] & usable[:-1])])
    zeros = np.concatenate([[0], np.cumsum(~usable)])
    lo = np.searchsorted(ordinals, starts)
    hi = np.searchsorted(ordinals, starts + window_days)
    days = (hi - lo) >= 2
    first = kept.take(lo, mode="clip")
    length = np.where(days, kept.take(hi - 1, mode="clip") - first, 0)
    config = MfdfaConfig(default_q_values() if reference else [2.0], None, detrend_order)
    rows = np.flatnonzero(length >= MIN_FIT_LENGTH)
    results: list[tuple | None] = [None] * len(starts)
    if len(rows):
        surface = fluctuation_function(incr, config, first[rows], length[rows])
        curve = generalized_hurst(surface)
        i = curve.index(2.0)
        metrics = itertools.repeat(None) if not reference else zip(
            curve.h_values.tolist(), delta_h(curve, 3.0).tolist(),
            *(v.tolist() for v in taylor_b1(curve, 3.0)))
        for r, h, se, excluded, metric in zip(
                rows.tolist(), curve.h_values[:, i].tolist(), curve.stderr[:, i].tolist(),
                surface.excluded_segments.sum(axis=1).tolist(), metrics):
            results[r] = (h, se, excluded, metric and (curve.q_values.tolist(), *metric))
    return np.where(days, zeros[hi] - zeros[lo], 0), results


def _window_report(start: dt.date, end: dt.date, dropped_days: int, cells: Iterable[tuple],
                   reference_delta: int, exclude_deltas: list[int]) -> WindowReport:
    """One window's report from its deltas' MFDFA results, then the ansatz fit
    and, with a fit, the relative error a/(n+a) of H at the reference delta's
    n samples a day.

    `cells` pairs each delta, in order, with its `_delta_column` result for
    the window. A delta with no result is listed in `short_deltas`, and one
    whose MFDFA failed in `mfdfa_failed_deltas`.
    """
    report = WindowReport(window_start=start, window_end=end,
                          reference_delta=reference_delta,
                          reference_n=samples_per_day(reference_delta))
    short_deltas = []
    failed_deltas = []
    for delta, result in cells:
        if result is None or np.isnan(result[0]):
            (failed_deltas if result else short_deltas).append(delta)
            continue
        report.h2_by_delta[delta], report.h2_stderr_by_delta[delta], excluded, metrics = result
        if delta == reference_delta:
            report.diagnostics["zero_variance_segments"] = excluded
            report.curve_q, report.curve_h, report.delta_h3, report.b0, report.b1 = metrics
    report.diagnostics["dropped_days"] = dropped_days
    for key, listed in (("short_deltas", short_deltas), ("mfdfa_failed_deltas", failed_deltas)):
        if listed:
            report.diagnostics[key] = listed
    if not report.h2_by_delta:
        report.reason = "insufficient_data"
        return report
    if len(report.h2_by_delta) >= 3:
        sweep = FrequencySweep(deltas=np.array(list(report.h2_by_delta)),
                               h2=np.array(list(report.h2_by_delta.values())))
        try:
            report.ansatz = fit_ansatz(sweep, exclude=exclude_deltas)
        except NumericError as exc:
            report.reason = "ansatz_fit_failed"
            report.diagnostics["ansatz_error"] = str(exc)
        else:
            report.reference_relative_error = relative_error(report.reference_n,
                                                             report.ansatz.a)
    else:
        report.reason = "too_few_deltas_for_ansatz"
    return report


def resolve_deltas(deltas: list[int] | None, reference_delta: int) -> list[int]:
    """The deltas a run covers: sorted and distinct, with the reference added.

    None means all 36 divisors of 1440. Raises ValueError when a delta, the
    reference included, is not a positive divisor of 1440.
    """
    listed = divisors_of_1440() if deltas is None else [int(d) for d in deltas]
    resolved = sorted({*listed, reference_delta})
    for delta in resolved:
        samples_per_day(delta)
    return resolved


def run_rolling(data: Mapping[int, RVSeries], rolling: RollingSpec,
                reference_delta: int = 5, detrend_order: int = 1,
                exclude_deltas: list[int] | None = None,
                workers: int = 1) -> list[WindowReport]:
    """Run the rolling-window analysis over the sweep `sorted(data)`.

    `data` maps each delta to its daily RV series: `build_rv_by_delta` makes
    one from ticks, and synthetic oracles pass their own (perfbench's tracer
    reads the mapping by this parameter's name). Each key must be a positive
    divisor of 1440 equal to its series' `delta_minutes`, else ValueError
    before any MFDFA runs. Windows advance by `rolling.step_days`; each
    delta's MFDFA covers them all at once (`_delta_column`), and
    `_window_report` assembles each window. `workers` is accepted and has no
    effect: a thread pool over the deltas was slower than one thread on every
    input measured.
    """
    for delta, rv in data.items():
        samples_per_day(delta)
        if rv.delta_minutes != delta:
            raise ValueError(f"RV mapping key {delta} holds a series of delta "
                             f"{rv.delta_minutes}")
    if reference_delta not in data:
        raise DataError(f"RV mapping lacks the reference delta {reference_delta}")
    ref = data[reference_delta]
    if not ref.dates:
        raise DataError("no usable days in the data span")
    first, last = ref.dates[0], ref.dates[-1]
    total_days = (last - first).days + 1
    if total_days < rolling.window_days:
        raise DataError(f"data span of {total_days} days is shorter than the "
                        f"{rolling.window_days}-day window")
    count = (total_days - rolling.window_days) // rolling.step_days + 1
    starts = first.toordinal() + rolling.step_days * np.arange(count, dtype=np.int64)
    # the day ordinals of each distinct date list: the deltas of one trade
    # index, like those of a synthetic sweep, share one list
    ordinals = {}
    for rv in data.values():
        if id(rv.dates) not in ordinals:
            ordinals[id(rv.dates)] = np.array([d.toordinal() for d in rv.dates], dtype=np.int64)
    deltas = sorted(data)
    dropped = np.zeros(count, dtype=np.int64)
    columns = []
    for delta in deltas:
        lost, results = _delta_column(data[delta], ordinals[id(data[delta].dates)], starts,
                                      rolling.window_days, delta == reference_delta,
                                      detrend_order)
        dropped += lost
        columns.append(results)
    reports = []
    for i, (lost, window) in enumerate(zip(dropped.tolist(), zip(*columns))):
        start = first + dt.timedelta(days=i * rolling.step_days)
        reports.append(_window_report(start, start + dt.timedelta(days=rolling.window_days),
                                      lost, zip(deltas, window), reference_delta,
                                      exclude_deltas or []))
    return reports


def report_document(reports: list[WindowReport], config_echo: dict | None = None) -> dict:
    if not reports:
        raise DataError("no window reports to emit")
    return {
        "library_version": __version__,
        "config": config_echo or {},
        "windows": [r.to_dict() for r in reports],
    }


def _output(path: str):
    """The file `path`, UTF-8 with no newline translation, or stdout for "-"."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(
        path, "w", newline="", encoding="utf-8")


def write_csv(path: str, header: list[str], rows: Iterable) -> None:
    with _output(path) as out:
        csv.writer(out).writerows(itertools.chain([header], rows))


def write_json(path: str, doc: dict) -> None:
    with _output(path) as out:
        out.write(json.dumps(doc, indent=2) + "\n")


def emit_report(reports: list[WindowReport], json_path: str,
                h2_csv_path: str | None = None, hq_csv_path: str | None = None,
                config_echo: dict | None = None) -> dict:
    """Write the JSON document plus optional long-form CSV tables ("-" is stdout)."""
    doc = report_document(reports, config_echo)
    write_json(json_path, doc)
    if h2_csv_path is not None:
        write_csv(h2_csv_path, ["window_start", "delta", "h2"],
                  ((r.window_start.isoformat(), d, repr(r.h2_by_delta[d]))
                   for r in reports for d in sorted(r.h2_by_delta)))
    if hq_csv_path is not None:
        write_csv(hq_csv_path, ["window_start", "q", "h"],
                  ((r.window_start.isoformat(), repr(q), repr(h))
                   for r in reports for q, h in zip(r.curve_q, r.curve_h)))
    return doc
