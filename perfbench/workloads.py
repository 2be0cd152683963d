"""The three workloads: inputs, the timed job, and the checks on its outputs.

Every workload runs in this one process. rolling_rv and oracle_study use one
thread; ticks_cli runs the CLI with ``--workers 2``, the machine's two cores.
"""
from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from roughscale import cli, mfdfa, pipeline, scaling, synthetic
from roughscale.errors import RoughscaleError

from . import generators as gen
from .tracing import Counters

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "rolling_rv_h2.json"
REFERENCE_SEED = 20251105
REFERENCE_DAYS = 2922 + 3 * 5          # four windows at the paper's window and step
REFERENCE_RTOL = 1e-12                 # the fast-path gate of the project roadmap


@dataclass
class Outcome:
    attempted: int
    failed: int
    hurst_abs_err: float
    fingerprint: str                   # equal on every repetition of one input
    problems: list[str] = field(default_factory=list)


def _fingerprint(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _windows_outcome(windows: list[dict], expected: int, tolerance: float) -> Outcome:
    """Shared checks of a rolling result given as report dictionaries."""
    problems = []
    if len(windows) != expected:
        problems.append(f"{len(windows)} windows, expected {expected}")
    failed = sum(w["reason"] is not None for w in windows)
    h0 = [w["ansatz"]["h0"] for w in windows if w["ansatz"] is not None]
    err = abs(statistics.median(h0) - gen.H_TRUE) if h0 else float("inf")
    if not err <= tolerance:
        problems.append(f"median window H0 is {err:.4f} from H = {gen.H_TRUE}, "
                        f"tolerance {tolerance}")
    return Outcome(attempted=len(windows), failed=failed, hurst_abs_err=err,
                   fingerprint="", problems=problems)


class RollingRV:
    name = "rolling_rv"
    why = ("paper-scale rolling job on precomputed RV for all 36 deltas, one thread: "
           "MFDFA, window slicing and ansatz fits without ingestion")
    spec = pipeline.RollingSpec(window_days=2922, step_days=5)
    num_days = 3062                    # 29 windows
    # on |median window H0 - H|: over 20 seeds the error's rms was 0.022 here
    # and 0.028 on ticks_cli, so a miss means a broken estimator, not a bad seed
    tolerance = 0.12
    probe_bindings = ("roughscale.pipeline.log_increments",)

    def setup(self, seed: int, workdir: Path) -> gen.RollingInputs:
        return gen.rolling_inputs(seed, self.num_days)

    def input_digest(self, inputs: gen.RollingInputs) -> str:
        return inputs.digest()

    def expected_windows(self) -> int:
        return (self.num_days - self.spec.window_days) // self.spec.step_days + 1

    def sizes(self, inputs: gen.RollingInputs) -> dict:
        return {"days": inputs.num_days, "deltas": len(inputs.rv_by_delta),
                "windows": self.expected_windows(),
                "flat_days": len(inputs.flat_days)}

    def job(self, inputs: gen.RollingInputs):
        return pipeline.run_rolling(inputs.rv_by_delta, self.spec, workers=1)

    def outcome(self, reports, inputs: gen.RollingInputs) -> Outcome:
        out = _windows_outcome([r.to_dict() for r in reports],
                               self.expected_windows(), self.tolerance)
        out.fingerprint = _fingerprint([(r.window_start, sorted(r.h2_by_delta.items()))
                                        for r in reports])
        return out

    def probe_problems(self, counters: Counters, inputs) -> list[str]:
        if counters.get("realized_volatility.zero_rv_days_dropped") <= 0:
            return ["no zero-RV day reached the pipeline"]
        return []

    def extra_problems(self) -> list[str]:
        return reference_problems(REFERENCE_FILE)


def reference_windows() -> list[dict]:
    """Per-window h2_by_delta of the fixed reference input, as stored on disk."""
    inputs = gen.rolling_inputs(REFERENCE_SEED, REFERENCE_DAYS)
    reports = pipeline.run_rolling(inputs.rv_by_delta, RollingRV.spec, workers=1)
    return [{"window_start": r.window_start.isoformat(),
             "h2_by_delta": {str(d): r.h2_by_delta[d] for d in sorted(r.h2_by_delta)}}
            for r in reports]


def compare_windows(got: list[dict], want: list[dict], rtol: float) -> list[str]:
    if [w["window_start"] for w in got] != [w["window_start"] for w in want]:
        return ["reference windows differ in number or start date"]
    problems = []
    for g, w in zip(got, want):
        if g["h2_by_delta"].keys() != w["h2_by_delta"].keys():
            problems.append(f"{g['window_start']}: deltas differ from the reference")
            continue
        for d, ref in w["h2_by_delta"].items():
            value = g["h2_by_delta"][d]
            if not abs(value - ref) <= rtol * abs(ref):
                problems.append(f"{g['window_start']} delta {d}: h2 {value!r} vs "
                                f"reference {ref!r}")
    return problems


def reference_problems(path: Path) -> list[str]:
    """Gate: the rolling job on the reference input matches the stored h2."""
    stored = json.loads(path.read_text(encoding="utf-8"))
    return compare_windows(reference_windows(), stored["windows"], REFERENCE_RTOL)


class TicksCLI:
    name = "ticks_cli"
    why = ("only path through parsing, resampling, the CLI, emit_report and the "
           "thread pool, on a tick CSV with every awkward case")
    num_days, trades_per_day = 1000, 1000.0
    window_days, step_days, workers = 730, 30, 2
    tolerance = 0.12
    probe_bindings = ("roughscale.cli.parse_ticks", "roughscale.pipeline.resample_prices",
                      "roughscale.pipeline.log_increments")

    def setup(self, seed: int, workdir: Path) -> gen.TickInputs:
        self.report = workdir / "report.json"
        return gen.write_tick_csv(workdir / "ticks.csv", seed, self.num_days,
                                  self.trades_per_day)

    def input_digest(self, inputs: gen.TickInputs) -> str:
        return inputs.sha256

    def expected_windows(self) -> int:
        return (self.num_days - self.window_days) // self.step_days + 1

    def sizes(self, inputs: gen.TickInputs) -> dict:
        return {"rows": inputs.rows, "valid_rows": inputs.valid_rows,
                "days": inputs.num_days, "windows": self.expected_windows(),
                "csv_bytes": inputs.size_bytes}

    def argv(self, inputs: gen.TickInputs) -> list[str]:
        out = self.report.parent
        return ["rolling", "--ticks", str(inputs.path),
                "--max-malformed", str(inputs.malformed),
                "--window-days", str(self.window_days), "--step-days", str(self.step_days),
                "--deltas", "auto", "--reference-delta", "5",
                "--workers", str(self.workers), "--out", str(self.report),
                "--h2-csv", str(out / "h2.csv"), "--hq-csv", str(out / "hq.csv")]

    def job(self, inputs: gen.TickInputs):
        return cli.main(self.argv(inputs))

    def outcome(self, rc, inputs: gen.TickInputs) -> Outcome:
        if rc != 0:
            return Outcome(self.expected_windows(), self.expected_windows(),
                           float("inf"), "", [f"roughscale rolling exited {rc}"])
        raw = self.report.read_bytes()
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            return Outcome(self.expected_windows(), self.expected_windows(),
                           float("inf"), "", [f"report is not JSON: {exc}"])
        out = _windows_outcome(doc["windows"], self.expected_windows(), self.tolerance)
        out.fingerprint = hashlib.sha256(raw).hexdigest()
        return out

    def probe_problems(self, c: Counters, inputs: gen.TickInputs) -> list[str]:
        deltas = len(scaling.divisors_of_1440())
        checks = [
            ("rows parsed", c.get("market_data.rows_parsed"), inputs.valid_rows),
            ("malformed lines", c.get("market_data.malformed_rows"), inputs.malformed),
            ("non-positive rows", c.get("market_data.dropped_nonpositive"), inputs.nonpositive),
            # one leading-edge day backfilled per delta
            ("leading backfills", c.get("market_data.leading_backfills"), deltas),
            # zero-trade days leave the grid: each delta keeps only trading days
            ("grid days", c.get("market_data.grid_days"), deltas * inputs.days_with_trades),
            ("parsed ticks digest", c.notes.get("market_data.ticks_digest"),
             inputs.ticks_digest),
        ]
        problems = [f"{what}: got {got}, expected {want}"
                    for what, got, want in checks if got != want]
        if not inputs.zero_trade_days or inputs.days_with_trades >= inputs.num_days:
            problems.append("no zero-trade day in the input")
        if inputs.swapped_pairs <= 0:
            problems.append("no out-of-order rows in the input")
        if c.get("realized_volatility.zero_rv_days_dropped") <= 0:
            problems.append("no zero-RV day reached the pipeline")
        return problems

    def extra_problems(self) -> list[str]:
        return []


class OracleStudy:
    name = "oracle_study"
    why = ("single-series path: MFDFA on few long array-bound series with known h(q), "
           "then many ansatz fits; no pipeline or market_data work")
    probe_bindings = ()
    # per-estimate tolerances: one fGn series' h(2) against H (its error
    # reached 0.035 over 20 seeds), cascade h(q) against its closed form (as
    # acceptance criterion 4), sweep H0 against the truth (reached 0.0018)
    fgn_tolerance, cascade_tolerance, sweep_tolerance = 0.06, 0.05, 0.01
    cascade_q = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)

    def setup(self, seed: int, workdir: Path) -> gen.OracleInputs:
        return gen.oracle_inputs(seed)

    def input_digest(self, inputs: gen.OracleInputs) -> str:
        return inputs.digest()

    def sizes(self, inputs: gen.OracleInputs) -> dict:
        return {"fgn_lengths": [len(x) for _, x in inputs.fgn],
                "cascade_length": len(inputs.cascade), "sweeps": len(inputs.sweeps)}

    def job(self, inputs: gen.OracleInputs):
        """[(group, estimate, truth)] and the number of operations that raised."""
        estimates, failed = [], 0
        for h, x in inputs.fgn:
            try:
                config = mfdfa.MfdfaConfig.for_series(len(x))
                curve = mfdfa.generalized_hurst(mfdfa.fluctuation_function(x, config))
                estimates.append(("fgn", curve.h_at(2.0), h))
            except RoughscaleError:
                failed += 1
        n = len(inputs.cascade)
        # the largest scales hold too few segments for the partition sums
        scales = np.unique(np.round(np.exp(
            np.linspace(np.log(16), np.log(n // 16), 20))).astype(int))
        try:
            config = mfdfa.MfdfaConfig(q_values=mfdfa.default_q_values(), scales=scales)
            curve = mfdfa.generalized_hurst(mfdfa.fluctuation_function(inputs.cascade, config))
            estimates.extend(("cascade", curve.h_at(q), synthetic.cascade_hq(gen.CASCADE_P, q))
                             for q in self.cascade_q)
        except RoughscaleError:
            failed += 1
        for h2 in inputs.sweeps:
            try:
                fit = scaling.fit_ansatz(scaling.FrequencySweep(deltas=inputs.sweep_deltas, h2=h2))
                estimates.append(("sweep", fit.h0, gen.SWEEP_H0))
            except RoughscaleError:
                failed += 1
        return estimates, failed

    def outcome(self, result, inputs: gen.OracleInputs) -> Outcome:
        estimates, failed = result
        tolerance = {"fgn": self.fgn_tolerance, "cascade": self.cascade_tolerance,
                     "sweep": self.sweep_tolerance}
        problems = [f"{group} estimate {est:.4f} vs truth {truth:.4f}"
                    for group, est, truth in estimates
                    if not abs(est - truth) <= tolerance[group]]
        if failed:
            problems.append(f"{failed} oracle operations raised")
        group_means = [np.mean([abs(e - t) for g, e, t in estimates if g == group])
                       for group in tolerance if any(g == group for g, _, _ in estimates)]
        err = float(np.mean(group_means)) if group_means else float("inf")
        attempted = len(inputs.fgn) + 1 + len(inputs.sweeps)
        return Outcome(attempted=attempted, failed=failed, hurst_abs_err=err,
                       fingerprint=_fingerprint(estimates), problems=problems)

    def probe_problems(self, counters: Counters, inputs) -> list[str]:
        return []

    def extra_problems(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (RollingRV, TicksCLI, OracleStudy)}
