"""Where roughscale is traced, and the per-layer metrics read off the spans.

Each `Target` wraps a public function at the binding its caller uses (the
pipeline calls ``roughscale.pipeline.fluctuation_function``, MFDFA calls
``roughscale.mfdfa.segment_variances``, the ansatz fit calls
``roughscale.scaling.least_squares``), so no file under ``src/`` changes.
Span names carry the module that owns the work; ``least_squares`` is scipy's
solver and is charged to scaling, its caller. finite_sample is not traced: it
is closed-form and no workload calls it.
"""
from __future__ import annotations

import functools
import re
import statistics
import warnings
from collections.abc import Mapping

from .generators import digest
from .tracing import Counters, Span, Target, totals_by_name, wall_attribution

_BACKFILL = re.compile(r"backfilled the day-open of (\d+) leading day")


def _parse(c: Counters, args, kwargs, ticks) -> None:
    c.add("market_data.rows_parsed", len(ticks))
    c.add("market_data.malformed_rows", ticks.malformed_lines)
    c.add("market_data.dropped_nonpositive", ticks.dropped_nonpositive)
    c.note("market_data.ticks_digest", digest(ticks.timestamps, ticks.prices))


def _capture_backfill(fn, c: Counters):
    """Count resample_prices' leading-edge backfill warning instead of printing it."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            m = _BACKFILL.search(str(w.message))
            if m:
                c.add("market_data.leading_backfills", int(m.group(1)))
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result
    return call


def _grid(c: Counters, args, kwargs, grid) -> None:
    c.add("market_data.grid_days", len(grid.days))


def _full_span(c: Counters, rv_by_delta: Mapping) -> None:
    c.add("mfdfa.full_span_points", sum(max(len(rv) - 1, 0) for rv in rv_by_delta.values()))


def _run_rolling(c: Counters, args, kwargs, reports) -> None:
    data = args[0] if args else kwargs["data"]
    rolling = args[1] if len(args) > 1 else kwargs["rolling"]
    c.add("pipeline.windows", len(reports))
    c.add("pipeline.windows_degraded", sum(r.reason is not None for r in reports))
    c.add("pipeline.run_rolling_calls")
    c.add("pipeline.window_overlap_sum", 1.0 - rolling.step_days / rolling.window_days)
    if isinstance(data, Mapping):
        _full_span(c, data)


def _increments(c: Counters, args, kwargs, incr) -> None:
    c.add("realized_volatility.zero_rv_days_dropped", incr.dropped_days)


def _segment_variances(c: Counters, args, kwargs, f2) -> None:
    n = len(args[0] if args else kwargs["Y"])
    s = int(args[1] if len(args) > 1 else kwargs["s"])
    points = 2 * (n // s) * s
    c.add("mfdfa.points_detrended", points)
    # float64 arrays the call materialises: the profile, then the segment,
    # fitted-trend and residual matrices of 2*N_s rows by s
    c.add("mfdfa.bytes_computed", 8 * (n + 3 * points))


def _surface(c: Counters, args, kwargs, surface) -> None:
    c.add("mfdfa.excluded_segments", int(surface.excluded_segments.sum()))


def _surface_full_span(c: Counters, args, kwargs, surface) -> None:
    _surface(c, args, kwargs, surface)
    c.add("mfdfa.full_span_points", surface.series_length)


def _fit(c: Counters, args, kwargs, fit) -> None:
    c.add("scaling.boundary_warnings", int(fit.boundary_warning))


def _least_squares(c: Counters, args, kwargs, sol) -> None:
    c.add("scaling.nfev", sol.nfev)


PIPE, MF, SC = "roughscale.pipeline", "roughscale.mfdfa", "roughscale.scaling"
SYN = "roughscale.synthetic"

TARGETS = (
    Target("roughscale.cli", "main", "cli.main"),
    Target("roughscale.cli", "parse_ticks", "market_data.parse_ticks", _parse),
    Target("roughscale.cli", "run_rolling", "pipeline.run_rolling", _run_rolling),
    Target("roughscale.cli", "emit_report", "pipeline.emit_report"),
    # the rolling_rv workload calls roughscale.pipeline.run_rolling itself
    Target(PIPE, "run_rolling", "pipeline.run_rolling", _run_rolling),
    Target(PIPE, "build_rv_by_delta", "pipeline.build_rv_by_delta",
           lambda c, a, k, out: _full_span(c, out)),
    Target(PIPE, "resample_prices", "market_data.resample_prices", _grid,
           adapt=_capture_backfill),
    Target(PIPE, "intraday_log_returns", "market_data.intraday_log_returns"),
    Target(PIPE, "compute_daily_rv", "realized_volatility.compute_daily_rv"),
    Target(PIPE, "log_increments", "realized_volatility.log_increments", _increments),
    Target(PIPE, "fluctuation_function", "mfdfa.fluctuation_function", _surface),
    Target(PIPE, "generalized_hurst", "mfdfa.generalized_hurst"),
    Target(PIPE, "taylor_b1", "multifractal_metrics.taylor_b1"),
    Target(PIPE, "fit_ansatz", "scaling.fit_ansatz", _fit),
    Target(MF, "segment_variances", "mfdfa.segment_variances", _segment_variances),
    Target(MF, "aggregate_fluctuation", "mfdfa.aggregate_fluctuation"),
    # oracle_study calls these through their defining modules on whole series
    Target(MF, "fluctuation_function", "mfdfa.fluctuation_function", _surface_full_span),
    Target(MF, "generalized_hurst", "mfdfa.generalized_hurst"),
    Target(SC, "fit_ansatz", "scaling.fit_ansatz", _fit),
    Target(SC, "least_squares", "scaling.least_squares", _least_squares),
)

SETUP_TARGETS = (
    Target(SYN, "generate_fgn", "synthetic.generate_fgn"),
    Target(SYN, "generate_sv_days", "synthetic.generate_sv_days"),
    Target(SYN, "generate_cascade", "synthetic.generate_cascade"),
)


def targets_named(*bindings: str) -> tuple[Target, ...]:
    """The targets at the given "module.attr" bindings, e.g. "roughscale.cli.parse_ticks"."""
    found = tuple(t for t in TARGETS if f"{t.module}.{t.attr}" in bindings)
    if len(found) != len(bindings):
        raise KeyError(f"unknown bindings among {bindings}")
    return found


# (metric, unit, source): "total:<span>" sums span durations, "self:<span>"
# sums self time, "calls:<span>" counts spans, "count:<key>" reads a counter,
# "setup:<span>" sums set-up spans; the rest are ratios of counters and walls
PER_LAYER = (
    ("market_data.parse_ticks_s", "s", "total:market_data.parse_ticks"),
    ("market_data.rows_parsed", "count", "count:market_data.rows_parsed"),
    ("market_data.malformed_rows", "count", "count:market_data.malformed_rows"),
    ("market_data.dropped_nonpositive", "count", "count:market_data.dropped_nonpositive"),
    ("market_data.resample_prices_s", "s", "total:market_data.resample_prices"),
    ("market_data.resample_calls", "count", "calls:market_data.resample_prices"),
    ("market_data.grid_days", "count", "count:market_data.grid_days"),
    ("market_data.intraday_log_returns_s", "s", "total:market_data.intraday_log_returns"),
    ("market_data.leading_backfills", "count", "count:market_data.leading_backfills"),
    ("realized_volatility.compute_daily_rv_s", "s", "total:realized_volatility.compute_daily_rv"),
    ("realized_volatility.log_increments_s", "s", "total:realized_volatility.log_increments"),
    ("realized_volatility.log_increments_calls", "count", "calls:realized_volatility.log_increments"),
    ("realized_volatility.zero_rv_days_dropped", "count", "count:realized_volatility.zero_rv_days_dropped"),
    ("pipeline.self_s", "s", "self:pipeline.run_rolling"),
    ("pipeline.windows", "count", "count:pipeline.windows"),
    ("pipeline.windows_degraded", "count", "count:pipeline.windows_degraded"),
    ("pipeline.window_overlap", "ratio", "overlap"),
    ("pipeline.build_rv_by_delta_s", "s", "total:pipeline.build_rv_by_delta"),
    ("pipeline.emit_report_s", "s", "total:pipeline.emit_report"),
    ("mfdfa.fluctuation_function_s", "s", "total:mfdfa.fluctuation_function"),
    ("mfdfa.fluctuation_function_calls", "count", "calls:mfdfa.fluctuation_function"),
    ("mfdfa.segment_variances_s", "s", "total:mfdfa.segment_variances"),
    ("mfdfa.segment_variances_calls", "count", "calls:mfdfa.segment_variances"),
    ("mfdfa.points_detrended", "count", "count:mfdfa.points_detrended"),
    ("mfdfa.recompute_ratio", "ratio", "recompute"),
    ("mfdfa.bytes_computed", "B", "count:mfdfa.bytes_computed"),
    ("mfdfa.aggregate_fluctuation_s", "s", "total:mfdfa.aggregate_fluctuation"),
    ("mfdfa.aggregate_fluctuation_calls", "count", "calls:mfdfa.aggregate_fluctuation"),
    ("mfdfa.generalized_hurst_s", "s", "total:mfdfa.generalized_hurst"),
    ("mfdfa.excluded_segments", "count", "count:mfdfa.excluded_segments"),
    ("scaling.fit_ansatz_s", "s", "total:scaling.fit_ansatz"),
    ("scaling.fit_ansatz_calls", "count", "calls:scaling.fit_ansatz"),
    ("scaling.least_squares_calls", "count", "calls:scaling.least_squares"),
    ("scaling.nfev", "count", "count:scaling.nfev"),
    ("scaling.boundary_warnings", "count", "count:scaling.boundary_warnings"),
    ("multifractal_metrics.taylor_b1_calls", "count", "calls:multifractal_metrics.taylor_b1"),
    ("synthetic.generate_fgn_s", "s", "setup:synthetic.generate_fgn"),
    ("synthetic.generate_sv_days_s", "s", "setup:synthetic.generate_sv_days"),
    ("synthetic.generate_cascade_s", "s", "setup:synthetic.generate_cascade"),
    ("cli.self_s", "s", "self:cli.main"),
    ("trace_overhead_frac", "ratio", "overhead"),
)


def job_values(spans: list[Span], counters: Counters) -> dict[str, float]:
    """Every job-derived per-layer value of one traced repetition."""
    by_name = totals_by_name(spans)
    out = {}
    for metric, _, source in PER_LAYER:
        kind, _, key = source.partition(":")
        row = by_name.get(key, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        if kind == "total":
            out[metric] = row["total_s"]
        elif kind == "self":
            out[metric] = row["self_s"]
        elif kind == "calls":
            out[metric] = row["calls"]
        elif kind == "count":
            out[metric] = counters.get(key)
        elif kind == "overlap":
            calls = counters.get("pipeline.run_rolling_calls")
            out[metric] = counters.get("pipeline.window_overlap_sum") / calls if calls else 0.0
        elif kind == "recompute":
            full = counters.get("mfdfa.full_span_points")
            out[metric] = counters.get("mfdfa.points_detrended") / full if full else 0.0
    return out


def per_layer_metrics(reps: list[dict[str, float]], setup_spans: list[Span],
                      overhead: float) -> dict[str, dict]:
    """Times are medians over the traced repetitions' `job_values`; counts,
    equal on every repetition, come from the last."""
    setup = totals_by_name(setup_spans)
    metrics = {}
    for metric, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "setup":
            value = setup.get(key, {"total_s": 0.0})["total_s"]
        elif kind == "overhead":
            value = overhead
        elif kind in ("total", "self"):
            value = statistics.median(r[metric] for r in reps)
        else:
            value = reps[-1][metric]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def shape_checks(workload: str, spans: list[Span]) -> list[dict]:
    """Predicted trace shape. Absent layers are properties of the workload and
    gate the run; the largest module is a prediction about seed-code costs that
    an optimisation may legitimately overturn, so it is only reported."""
    modules = {sp.module for sp in spans}
    absent = {"oracle_study": ("market_data", "pipeline"), "rolling_rv": ("market_data",)}
    largest = {"rolling_rv": "mfdfa", "ticks_cli": "market_data"}
    checks = [{"check": f"no {layer} spans", "gate": True, "ok": layer not in modules,
               "detail": f"{workload}: unexpected {layer} spans"}
              for layer in absent.get(workload, ())]
    if workload in largest:
        top = largest_module(spans)
        checks.append({"check": f"{largest[workload]} is the largest module", "gate": False,
                       "ok": top == largest[workload],
                       "detail": f"{workload}: largest module is {top}, "
                                 f"predicted {largest[workload]}"})
    return checks


def largest_module(spans: list[Span], exclude: tuple[str, ...] = ("bench",)) -> str | None:
    """Module with the most wall time attributed by `wall_attribution`."""
    walls = wall_attribution(spans)
    by_module: dict[str, float] = {}
    for sp in spans:
        if sp.module not in exclude:
            by_module[sp.module] = by_module.get(sp.module, 0.0) + walls.get(sp.id, 0.0)
    return max(by_module, key=by_module.get) if by_module else None
