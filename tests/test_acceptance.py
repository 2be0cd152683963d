"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 needs externally supplied Bitstamp tick data and is skipped unless
ROUGHSCALE_TICKS points at the CSV.
"""
import csv
import datetime as dt
import json
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta, kstest

from roughscale.cli import main
from roughscale.finite_sample import (FiniteSampleLaw, density, moment_2k,
                                      relative_error)
from roughscale.market_data import date_to_epoch_seconds
from roughscale.mfdfa import MfdfaConfig, default_scales, fluctuation_function, \
    generalized_hurst
from roughscale.realized_volatility import RVSeries, standardize_returns
from roughscale.scaling import (AnsatzFit, FrequencySweep, divisors_of_1440,
                                fit_ansatz, predict_h)
from roughscale.synthetic import cascade_hq, generate_cascade, generate_fgn, \
    generate_sv_days

DAY0 = dt.date(2015, 1, 1)


class _gate:
    """Context manager printing the per-criterion verdict line."""

    def __init__(self, label, time_limit=None):
        self.label = label
        self.time_limit = time_limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.label}: {verdict} ({elapsed:.1f}s)")
        if exc_type is None and self.time_limit is not None:
            assert elapsed < self.time_limit, \
                f"{self.label} exceeded {self.time_limit}s time budget"
        return False


def rv_from_day_matrix(days_matrix, n):
    rv = (days_matrix ** 2).sum(axis=1)
    daily = days_matrix.sum(axis=1)
    dates = [DAY0 + dt.timedelta(days=i) for i in range(len(rv))]
    return RVSeries(delta_minutes=1440 // n, dates=dates, rv=rv,
                    daily_return=daily, samples_per_day=n)


def test_criterion_1_finite_sample_law():
    with _gate("1 finite-sample law", time_limit=10):
        n = 288
        days = generate_sv_days(10 ** 5, n, 0.01, seed=101)
        rbar = standardize_returns(rv_from_day_matrix(days, n)).values
        kurt = np.mean(rbar ** 4) / np.mean(rbar ** 2) ** 2
        assert abs(kurt - 3 * n / (n + 2)) < 0.03
        law = FiniteSampleLaw(n)
        fourth = rbar ** 4
        se = fourth.std() / np.sqrt(len(fourth))
        assert abs(fourth.mean() - moment_2k(law, 2)) < 3 * se


def test_criterion_2_density_normalization_and_gof():
    with _gate("2 density normalization + GoF", time_limit=5):
        for n in (3, 10, 288, 1440):
            law = FiniteSampleLaw(n)
            total, _ = quad(lambda x: density(law, x), -np.sqrt(n), np.sqrt(n),
                            limit=200)
            assert abs(total - 1.0) < 1e-8
        n = 12
        days = generate_sv_days(20000, n, 1.0, seed=202)
        rbar = standardize_returns(rv_from_day_matrix(days, n)).values
        # oracle: rbar/sqrt(n) is an affine map of a symmetric Beta((n-1)/2, (n-1)/2)
        cdf = lambda x: beta.cdf((x / np.sqrt(n) + 1) / 2, (n - 1) / 2, (n - 1) / 2)
        stat = kstest(rbar, cdf)
        assert stat.pvalue > 0.01


def test_criterion_3_mfdfa_monofractal_oracle():
    with _gate("3 MFDFA monofractal oracle", time_limit=60):
        N = 2 ** 16
        qs = np.array([-3.0, 2.0, 3.0])
        scales = default_scales(N)
        for H in (0.1, 0.3, 0.5, 0.7):
            h2s, dhs = [], []
            for seed in range(10):
                x = generate_fgn(H, N, seed=1000 + seed)
                config = MfdfaConfig(q_values=qs, scales=scales)
                curve = generalized_hurst(fluctuation_function(x, config))
                h2s.append(curve.h_at(2.0))
                dhs.append(curve.h_at(-3.0) - curve.h_at(3.0))
            assert abs(np.mean(h2s) - H) < 0.03, f"H={H}: mean h2 {np.mean(h2s)}"
            assert np.mean(dhs) <= 0.05, f"H={H}: delta_h(3) {np.mean(dhs)}"


def test_criterion_4_mfdfa_multifractal_oracle():
    with _gate("4 MFDFA multifractal oracle", time_limit=30):
        p = 0.6
        x = generate_cascade(p, 16)
        N = len(x)
        # largest scales carry too few segments for the partition sums; keep s <= N/16
        scales = np.unique(np.round(np.exp(
            np.linspace(np.log(16), np.log(N // 16), 20))).astype(int))
        config = MfdfaConfig(q_values=np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
                             scales=scales)
        curve = generalized_hurst(fluctuation_function(x, config))
        for q in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0):
            assert abs(curve.h_at(q) - cascade_hq(p, q)) < 0.05, \
                f"q={q}: {curve.h_at(q)} vs {cascade_hq(p, q)}"


def test_criterion_5_ansatz_fit():
    with _gate("5 ansatz fit", time_limit=10):
        deltas = np.array(divisors_of_1440())
        n = 1440.0 / deltas
        for h0, a in ((0.13, 3.0), (0.1262, 3.15), (0.4, 8.0)):
            sweep = FrequencySweep(deltas=deltas, h2=h0 * n / (n + a))
            fit = fit_ansatz(sweep)
            assert abs(fit.h0 - h0) < 1e-6
            assert abs(fit.a - a) < 1e-6
        truth = (0.13, 3.0)
        clean = truth[0] * n / (n + truth[1])
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = FrequencySweep(deltas=deltas,
                                   h2=clean + rng.normal(0, 0.002, len(deltas)))
            fit = fit_ansatz(noisy)
            hits += (abs(fit.h0 - truth[0]) <= 3 * fit.h0_stderr
                     and abs(fit.a - truth[1]) <= 3 * fit.a_stderr)
        assert hits >= 95, f"coverage {hits}/100"


def test_criterion_6_relative_error_consistency():
    with _gate("6 relative-error consistency"):
        assert abs(relative_error(288, 3.02) - 0.0104) < 1e-4
        fit = AnsatzFit(h0=0.1308, a=3.02, h0_stderr=4e-4, a_stderr=0.06,
                        residual_rms=0.0)
        values = [predict_h(fit, d) for d in divisors_of_1440()]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.skipif("ROUGHSCALE_TICKS" not in os.environ,
                    reason="criterion 7 needs user-supplied Bitstamp tick data "
                           "(set ROUGHSCALE_TICKS to the CSV path)")
def test_criterion_7_bitstamp_reproduction():
    with _gate("7 Bitstamp period II reproduction"):
        from roughscale.market_data import parse_ticks
        from roughscale.pipeline import RollingSpec, build_rv_by_delta, run_rolling
        ticks = parse_ticks(os.environ["ROUGHSCALE_TICKS"],
                            header=os.environ.get("ROUGHSCALE_TICKS_HEADER") == "1")
        rv = build_rv_by_delta(ticks, divisors_of_1440(),
                               dt.date(2015, 1, 1), dt.date(2022, 12, 31))
        reports = run_rolling(rv, RollingSpec(window_days=2922, step_days=5), workers=4)
        period2 = reports[0]
        assert period2.ansatz is not None
        assert 0.11 <= period2.ansatz.h0 <= 0.15
        assert 2.0 <= period2.ansatz.a <= 4.5
        rv5 = {5: rv[5]}
        metric_reports = run_rolling(rv5, RollingSpec(window_days=2922, step_days=30),
                                     workers=4)
        dh = [r.delta_h3 for r in metric_reports if r.delta_h3 is not None]
        b1 = [r.b1 for r in metric_reports if r.b1 is not None]
        assert 0.02 <= np.mean(dh) <= 0.05
        assert 0.003 <= -np.mean(b1) <= 0.009


def test_criterion_8_rolling_determinism(tmp_path):
    with _gate("8 rolling determinism"):
        rng = np.random.default_rng(808)
        t0 = date_to_epoch_seconds(dt.date(2014, 1, 2))
        minutes = 130 * 288  # 130 days of 5-minute ticks
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 1e-3, minutes)))
        ticks = tmp_path / "ticks.csv"
        with ticks.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for i, p in enumerate(prices):
                writer.writerow([t0 + i * 300, f"{p:.6f}"])
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"report_w{workers}.json"
            rc = main(["rolling", "--ticks", str(ticks), "--window-days", "60",
                       "--step-days", "10", "--deltas", "30,60,120,288,720",
                       "--reference-delta", "30", "--workers", str(workers),
                       "--out", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # emitted document is well-formed
