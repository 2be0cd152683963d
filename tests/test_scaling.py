import mpmath
import numpy as np
import pytest
from scipy.optimize import least_squares

from perfbench.generators import rolling_inputs
from roughscale import scaling
from roughscale.errors import NumericError
from roughscale.finite_sample import relative_error
from roughscale.market_data import samples_per_day
from roughscale.pipeline import RollingSpec, run_rolling
from roughscale.scaling import (AnsatzFit, FrequencySweep, divisors_of_1440,
                                fit_ansatz, predict_h)

DIVISORS = divisors_of_1440()


def exact_sweep(h0, a, deltas=None, stderr=None):
    deltas = np.array(DIVISORS if deltas is None else deltas)
    n = 1440.0 / deltas
    return FrequencySweep(deltas=deltas, h2=h0 * n / (n + a), h2_stderr=stderr)


def reference_fit(sweep, exclude=None):
    """The six-start 2-D least-squares fit that variable projection replaced.

    Returns (h0, a, h0_stderr, a_stderr), with the stderrs taken from the
    solver's finite-difference Jacobian as before.
    """
    mask = ~np.isin(sweep.deltas, exclude or [])
    h2 = sweep.h2[mask]
    n = (1440 // sweep.deltas[mask]).astype(float)
    w = 1.0 / sweep.h2_stderr[mask] if sweep.h2_stderr is not None else np.ones_like(h2)

    def residuals(theta):
        h0, alpha = theta
        return w * (h2 - h0 * n / (n + np.exp(alpha)))

    best = None
    n_max = n.max()
    for a0 in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        h0_0 = float(h2[np.argmax(n)] * (n_max + a0) / n_max)
        sol = least_squares(residuals, x0=[h0_0, np.log(a0)],
                            ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=200)
        if best is None or sol.cost < best.cost - 1e-15 or (
                abs(sol.cost - best.cost) <= 1e-15 and sol.x[1] < best.x[1]):
            best = sol
    h0, alpha = best.x
    s2 = float(best.fun @ best.fun) / max(len(h2) - 2, 1)
    cov = np.linalg.inv(best.jac.T @ best.jac) * s2
    a = float(np.exp(alpha))
    return float(h0), a, float(np.sqrt(cov[0, 0])), float(a * np.sqrt(cov[1, 1]))


def reference_polish(sweep):
    """The one-start Levenberg-Marquardt polish that the Newton polish replaced.

    Same log-a grid bracket and closed-form H0 as `fit_ansatz`; returns (h0, a).
    """
    n = sweep.n.astype(float)
    w = 1.0 / sweep.h2_stderr if sweep.h2_stderr is not None else np.ones_like(n)
    y = w * sweep.h2

    def reduced(alpha):
        g = w * n / (n + np.exp(alpha)[:, None])
        h0 = (g @ y) / np.einsum("ij,ij->i", g, g)
        return y - g * h0[:, None], h0

    grid_resid, _ = reduced(scaling._LOG_A_GRID)
    i = int(np.argmin(np.einsum("ij,ij->i", grid_resid, grid_resid)))
    sol = least_squares(lambda x: reduced(x)[0][0], x0=scaling._LOG_A_GRID[i:i + 1],
                        method="lm", ftol=1e-12, xtol=1e-12, gtol=1e-12,
                        max_nfev=200)
    return float(reduced(sol.x)[1][0]), float(np.exp(sol.x[0]))


def dpsi_dalpha(sweep, a):
    """d/dalpha of psi = 2 log(g.y) - log(g.g), g = w*n/(n + a), at alpha = log a."""
    n = sweep.n.astype(float)
    w = 1.0 / sweep.h2_stderr if sweep.h2_stderr is not None else np.ones_like(n)
    y = w * sweep.h2
    g = w * n / (n + a)
    dg = -g * a / (n + a)
    return 2 * (dg @ y) / (g @ y) - 2 * (dg @ g) / (g @ g)


def window_sweeps():
    """The h2 sweeps of five paper-length rolling windows over synthetic RV."""
    inputs = rolling_inputs(21, 2942)
    reports = run_rolling(inputs.rv_by_delta, RollingSpec(window_days=2922, step_days=5),
                          workers=1)
    return [FrequencySweep(deltas=np.array(list(r.h2_by_delta)),
                           h2=np.array(list(r.h2_by_delta.values()))) for r in reports]


def weighted_cost(sweep, residuals):
    w = 1.0 / sweep.h2_stderr if sweep.h2_stderr is not None else 1.0
    return float(np.sum((w * residuals) ** 2))


def gate_sweeps():
    """One pytest.param(sweep, compare stderrs) per gate sweep."""
    n = 1440.0 / np.array(DIVISORS)
    clean = 0.13 * n / (n + 3.0)
    cases = []
    for seed in range(100):  # the noisy sweeps of acceptance criterion 5
        rng = np.random.default_rng(seed)
        sweep = FrequencySweep(deltas=np.array(DIVISORS),
                               h2=clean + rng.normal(0, 0.002, len(n)))
        cases.append(pytest.param(sweep, True, id=f"noisy-{seed}"))
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        stderr = rng.uniform(0.001, 0.01, len(n))
        sweep = FrequencySweep(deltas=np.array(DIVISORS),
                               h2=clean + stderr * rng.normal(0, 1, len(n)),
                               h2_stderr=stderr)
        cases.append(pytest.param(sweep, True, id=f"weighted-{seed}"))
    for h0, a in ((0.13, 3.0), (0.5, 0.7), (0.12, 16.0), (0.9, 1.0)):
        cases.append(pytest.param(exact_sweep(h0, a), False, id=f"exact-{h0}-{a}"))
    cases.append(pytest.param(exact_sweep(0.13, 3.0, stderr=np.full(36, 0.001)),
                              False, id="exact-weighted"))
    return cases


class TestDivisors:
    def test_count_and_bounds(self):
        assert len(DIVISORS) == 36
        assert DIVISORS[0] == 1 and DIVISORS[-1] == 1440

    def test_samples_per_day_accepts_exactly_the_divisors(self):
        assert [samples_per_day(d) for d in DIVISORS] == [1440 // d for d in DIVISORS]
        for bad in (0, -5, 7, 2880):
            with pytest.raises(ValueError, match=f"delta {bad} is not a positive divisor"):
                samples_per_day(bad)


def mpmath_stderrs(sweep, h0, a):
    """The (H0, alpha) stderrs sqrt(diag((J^T J)^-1) s^2) at the given h0 and a,
    with J, the residuals and the inverse at 60 digits."""
    with mpmath.workdps(60):
        h0, a = mpmath.mpf(h0), mpmath.mpf(a)
        rows, resid = [], []
        for n, h, se in zip(sweep.n.tolist(), sweep.h2.tolist(), sweep.h2_stderr.tolist()):
            w = 1 / mpmath.mpf(se)
            rows.append([-w * n / (n + a), w * h0 * n * a / (n + a) ** 2])
            resid.append(w * (h - h0 * n / (n + a)))
        jac = mpmath.matrix(rows)
        cov = (jac.T * jac) ** -1 * (sum(r * r for r in resid) / max(len(resid) - 2, 1))
        return float(mpmath.sqrt(cov[0, 0])), float(mpmath.sqrt(cov[1, 1]))


class TestFitAnsatz:
    def test_a_dominant_weight_fits_with_exact_stderrs(self):
        # one point's weight 1e10 above the others leaves J^T J of rank 1 in
        # float64; J's R factor keeps both directions
        sweep = FrequencySweep(deltas=[1, 5, 60], h2=[0.1, 0.15, 0.2], h2_stderr=[1e-10, 1, 1])
        fit = fit_ansatz(sweep)
        assert fit.h0 == pytest.approx(0.1, rel=1e-12)
        assert fit.a == pytest.approx(3.21e-12, rel=1e-3) and fit.boundary_warning
        h0_stderr, alpha_stderr = mpmath_stderrs(sweep, fit.h0, fit.a)
        assert fit.h0_stderr == pytest.approx(h0_stderr, rel=1e-10)
        assert fit.a_stderr == pytest.approx(fit.a * alpha_stderr, rel=1e-10)

    def test_exact_model_recovery(self):
        fit = fit_ansatz(exact_sweep(0.13, 3.0))
        assert fit.h0 == pytest.approx(0.13, abs=1e-6)
        assert fit.a == pytest.approx(3.0, abs=1e-6)
        assert fit.residual_rms < 1e-10
        assert not fit.boundary_warning

    @pytest.mark.parametrize("h0,a", [(0.5, 0.7), (0.12, 16.0), (0.9, 1.0)])
    def test_recovery_across_parameter_range(self, h0, a):
        fit = fit_ansatz(exact_sweep(h0, a))
        assert fit.h0 == pytest.approx(h0, abs=1e-6)
        assert fit.a == pytest.approx(a, abs=1e-5)

    def test_exclusion_respected(self):
        sweep = exact_sweep(0.13, 3.0)
        h2 = sweep.h2.copy()
        h2[0] += 0.05  # corrupt the 1-minute point
        corrupted = FrequencySweep(deltas=sweep.deltas, h2=h2)
        fit = fit_ansatz(corrupted, exclude=[1])
        assert fit.excluded_deltas == [1]
        assert fit.h0 == pytest.approx(0.13, abs=1e-6)
        assert fit.a == pytest.approx(3.0, abs=1e-5)

    def test_excluded_deltas_lists_only_what_the_sweep_held(self):
        sweep = exact_sweep(0.13, 3.0, deltas=[1, 2, 5, 10, 60])
        assert fit_ansatz(sweep, exclude=[30]).excluded_deltas == []
        fit = fit_ansatz(sweep, exclude=[60, 30, 1, 60])
        assert fit.excluded_deltas == [1, 60]
        assert fit.h0 == fit_ansatz(exact_sweep(0.13, 3.0, deltas=[2, 5, 10])).h0

    def test_noisy_coverage(self):
        truth = (0.13, 3.0)
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            sweep = exact_sweep(*truth)
            noisy = FrequencySweep(deltas=sweep.deltas,
                                   h2=sweep.h2 + rng.normal(0, 0.002, len(sweep.h2)))
            fit = fit_ansatz(noisy)
            ok = (abs(fit.h0 - truth[0]) <= 3 * fit.h0_stderr
                  and abs(fit.a - truth[1]) <= 3 * fit.a_stderr)
            hits += ok
        assert hits >= 28

    def test_weighted_fit_uses_stderrs(self):
        sweep = exact_sweep(0.13, 3.0, stderr=np.full(36, 0.001))
        fit = fit_ansatz(sweep)  # stderrs present -> weighted by default
        assert fit.h0 == pytest.approx(0.13, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(NumericError):
            fit_ansatz(exact_sweep(0.13, 3.0, deltas=[5, 10]))

    def test_nonpositive_h2_rejected(self):
        sweep = FrequencySweep(deltas=np.array([1, 5, 10, 60]),
                               h2=np.array([0.1, -0.1, 0.1, 0.1]))
        with pytest.raises(NumericError):
            fit_ansatz(sweep)


class TestFrequencySweepValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(deltas=DIVISORS[:5], h2=np.full(4, 0.1)),
        dict(deltas=DIVISORS[:5], h2=np.full(6, 0.1)),
        dict(deltas=DIVISORS[:5], h2=np.full(5, 0.1), h2_stderr=np.full(4, 0.01)),
    ], ids=["h2_short", "h2_long", "stderr_short"])
    def test_lengths_must_match_deltas(self, kwargs):
        with pytest.raises(ValueError, match="one entry per delta"):
            FrequencySweep(**kwargs)

    def test_deltas_must_be_distinct(self):
        with pytest.raises(ValueError, match="delta values must be distinct"):
            FrequencySweep(deltas=[1, 5, 5], h2=np.full(3, 0.1))

    @pytest.mark.parametrize("bad", [0, -5, 7])
    def test_delta_must_be_a_positive_divisor(self, bad):
        with pytest.raises(ValueError, match=f"delta {bad} is not a positive divisor"):
            FrequencySweep(deltas=[1, bad, 60], h2=np.full(3, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_h2_must_be_finite(self, bad):
        h2 = np.full(5, 0.1)
        h2[2] = bad
        with pytest.raises(ValueError, match="finite"):
            FrequencySweep(deltas=DIVISORS[:5], h2=h2)

    @pytest.mark.parametrize("bad", [0.0, -0.01, np.nan, np.inf])
    def test_stderr_must_be_finite_and_positive(self, bad):
        stderr = np.full(5, 0.01)
        stderr[1] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            FrequencySweep(deltas=DIVISORS[:5], h2=np.full(5, 0.1), h2_stderr=stderr)


class TestMatchesReferenceFit:
    """Variable projection agrees with the six-start 2-D fit it replaced."""

    @pytest.mark.parametrize("sweep,check_stderr", gate_sweeps())
    def test_agrees_with_reference(self, sweep, check_stderr):
        fit = fit_ansatz(sweep)
        ref = reference_fit(sweep)
        assert fit.h0 == pytest.approx(ref[0], rel=1e-7)
        assert fit.a == pytest.approx(ref[1], rel=1e-7)
        if check_stderr:
            assert fit.h0_stderr == pytest.approx(ref[2], rel=1e-6)
            assert fit.a_stderr == pytest.approx(ref[3], rel=1e-6)
        n = 1440.0 / sweep.deltas
        cost = weighted_cost(sweep, sweep.h2 - fit.h0 * n / (n + fit.a))
        ref_cost = weighted_cost(sweep, sweep.h2 - ref[0] * n / (n + ref[1]))
        # exact sweeps end at the roundoff floor, where the ratio means nothing:
        # allow residuals of 1e-15 * h2, a few ulps of each point
        assert cost <= ref_cost * (1 + 1e-12) + weighted_cost(sweep, 1e-15 * sweep.h2)

    def test_exclusion_matches_reference(self):
        sweep = exact_sweep(0.13, 3.0)
        rng = np.random.default_rng(3)
        noisy = FrequencySweep(deltas=sweep.deltas,
                               h2=sweep.h2 + rng.normal(0, 0.002, 36))
        fit = fit_ansatz(noisy, exclude=[1, 2, 1440])
        ref = reference_fit(noisy, exclude=[1, 2, 1440])
        assert (fit.h0, fit.a) == pytest.approx(ref[:2], rel=1e-7)
        assert (fit.h0_stderr, fit.a_stderr) == pytest.approx(ref[2:], rel=1e-6)


class TestStationarity:
    """The Newton polish ends where d(psi)/d(alpha) is at roundoff, at a cost no
    higher than the Levenberg-Marquardt polish it replaced."""

    @staticmethod
    def check(sweep):
        fit = fit_ansatz(sweep)
        assert abs(dpsi_dalpha(sweep, fit.a)) <= 1e-12
        ref_h0, ref_a = reference_polish(sweep)
        n = 1440.0 / sweep.deltas
        cost = weighted_cost(sweep, sweep.h2 - fit.h0 * n / (n + fit.a))
        ref_cost = weighted_cost(sweep, sweep.h2 - ref_h0 * n / (n + ref_a))
        assert cost <= ref_cost * (1 + 1e-12) + weighted_cost(sweep, 1e-15 * sweep.h2)

    @pytest.mark.parametrize("sweep,check_stderr", gate_sweeps())
    def test_gate_sweeps(self, sweep, check_stderr):
        self.check(sweep)

    def test_rolling_windows(self):
        sweeps = window_sweeps()
        assert len(sweeps) == 5
        for sweep in sweeps:
            self.check(sweep)


class TestBoundaries:
    @pytest.mark.parametrize("a", [1e-11, 1e-9, 1e-7])
    def test_tiny_a_fits_with_warning(self, a):
        fit = fit_ansatz(exact_sweep(0.2, a))
        assert fit.boundary_warning
        assert fit.a < 1e-6
        assert fit.h0 == pytest.approx(0.2, rel=1e-9)

    @pytest.mark.parametrize("a", [1e-5, 1e-3, 1e3, 1e4, 1e5])
    def test_extreme_resolved_a_matches_reference(self, a):
        sweep = exact_sweep(0.2, a)
        fit = fit_ansatz(sweep)
        assert not fit.boundary_warning
        assert (fit.h0, fit.a) == pytest.approx(reference_fit(sweep)[:2], rel=1e-7)

    def test_large_a_recovered(self):
        fit = fit_ansatz(exact_sweep(0.2, 1e7))
        assert fit.h0 == pytest.approx(0.2, rel=1e-6)
        assert fit.a == pytest.approx(1e7, rel=1e-6)

    @pytest.mark.parametrize("h2", [
        exact_sweep(0.2, 0.0).h2,
        exact_sweep(0.2, 1e-13).h2,
        np.full(36, 0.2),                      # flat
        0.1 + 0.001 * np.arange(36),           # rising with delta
        exact_sweep(0.2, 1e9).h2,
    ], ids=["a_zero", "a_1e-13", "flat", "rising", "a_1e9"])
    def test_unresolvable_a_raises(self, h2):
        with pytest.raises(NumericError):
            fit_ansatz(FrequencySweep(deltas=np.array(DIVISORS), h2=h2))

    def test_one_solver_call_per_fit(self, monkeypatch):
        polish = scaling.least_squares
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return polish(*args, **kwargs)

        monkeypatch.setattr(scaling, "least_squares", counting)
        fit_ansatz(exact_sweep(0.13, 3.0))
        assert len(calls) == 1


class TestPredict:
    def test_reference_fit_at_five_minutes(self):
        fit = AnsatzFit(h0=0.1308, a=3.02, h0_stderr=0.0, a_stderr=0.0,
                        residual_rms=0.0)
        assert predict_h(fit, 5) == pytest.approx(0.12944, abs=1e-5)

    def test_degenerate_a_zero(self):
        fit = AnsatzFit(h0=0.2, a=0.0, h0_stderr=0.0, a_stderr=0.0,
                        residual_rms=0.0)
        for d in (1, 5, 1440):
            assert predict_h(fit, d) == pytest.approx(0.2)

    def test_daily_sampling(self):
        fit = AnsatzFit(h0=0.1308, a=3.02, h0_stderr=0.0, a_stderr=0.0,
                        residual_rms=0.0)
        assert predict_h(fit, 1440) == pytest.approx(0.1308 / 4.02)

    def test_strictly_decreasing_in_delta(self):
        fit = AnsatzFit(h0=0.1308, a=3.02, h0_stderr=0.0, a_stderr=0.0,
                        residual_rms=0.0)
        values = [predict_h(fit, d) for d in DIVISORS]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_relative_error_consistency(self):
        fit = AnsatzFit(h0=0.1308, a=3.02, h0_stderr=0.0, a_stderr=0.0,
                        residual_rms=0.0)
        for d in DIVISORS:
            n = 1440 // d
            rel = (predict_h(fit, d) - fit.h0) / fit.h0
            assert -rel == pytest.approx(relative_error(n, fit.a), abs=1e-12)

    def test_delta_must_divide(self):
        fit = AnsatzFit(h0=0.1, a=1.0, h0_stderr=0.0, a_stderr=0.0,
                        residual_rms=0.0)
        for bad in (7, 0, -5):
            with pytest.raises(ValueError, match=f"delta {bad} is not a positive divisor"):
                predict_h(fit, bad)
