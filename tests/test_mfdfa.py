from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughscale import mfdfa
from roughscale.errors import DataError, NumericError
from roughscale.mfdfa import (FluctuationSurface, MfdfaConfig,
                              aggregate_fluctuation, default_scales,
                              fluctuation_function, generalized_hurst, profile,
                              segment_variances)
from roughscale.synthetic import cascade_hq, generate_cascade, generate_fgn


class TestProfile:
    def test_cumulative_sum(self):
        np.testing.assert_allclose(profile([1.0, -1.0]), [1.0, 0.0])

    def test_constant_series(self):
        np.testing.assert_allclose(profile([3.0] * 5), 0.0, atol=1e-12)

    def test_arithmetic(self):
        np.testing.assert_allclose(profile([1.0, 2.0, 3.0]), [-1.0, -1.0, 0.0])

    def test_last_point_vanishes(self):
        rng = np.random.default_rng(0)
        assert profile(rng.normal(size=1000))[-1] == pytest.approx(0.0, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(DataError):
            profile([1.0])


class TestSegmentVariances:
    def test_linear_profile_absorbed_by_m1(self):
        Y = 2.0 * np.arange(50) + 3.0
        np.testing.assert_allclose(segment_variances(Y, 10, m=1), 0.0, atol=1e-18)

    def test_quadratic_profile_absorbed_by_m2(self):
        Y = np.arange(48, dtype=float) ** 2
        np.testing.assert_allclose(segment_variances(Y, 8, m=2), 0.0, atol=1e-12)

    def test_bidirectional_bookkeeping(self):
        # N=10, s=3: 3 forward segments on indices 0..8, 3 backward on 1..9
        Y = np.arange(10, dtype=float) ** 3
        out = segment_variances(Y, 3, m=1)
        assert out.shape == (6,)
        fwd = [np.var(np.polyval(np.polyfit(np.arange(3.0), Y[i:i + 3], 1),
                                 np.arange(3.0)) - Y[i:i + 3])
               for i in (0, 3, 6)]
        bwd = [np.var(np.polyval(np.polyfit(np.arange(3.0), Y[i:i + 3], 1),
                                 np.arange(3.0)) - Y[i:i + 3])
               for i in (1, 4, 7)]
        np.testing.assert_allclose(out, fwd + bwd, rtol=1e-8)

    def test_scale_larger_than_series(self):
        with pytest.raises(DataError):
            segment_variances(np.arange(10.0), 11)


class TestFluctuationFunction:
    def test_q2_collapses_to_rms(self):
        assert aggregate_fluctuation(np.array([4.0]), 2.0) == pytest.approx(2.0)
        f2 = np.array([1.0, 4.0, 9.0, 16.0])
        assert aggregate_fluctuation(f2, 2.0) == pytest.approx(np.sqrt(f2.mean()))

    def test_constant_segment_variances_give_sqrt_c(self):
        f2 = np.full(12, 6.25)
        for q in (-3.0, -1.0, 0.0, 0.5, 2.0, 4.0):
            assert aggregate_fluctuation(f2, q) == pytest.approx(2.5)

    def test_surface_monotone_in_q(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=256)
        config = MfdfaConfig(q_values=[-2.0, 0.0, 1.0, 2.0, 4.0], scales=[4, 8, 16])
        surface = fluctuation_function(x, config)
        assert np.all(np.diff(surface.values, axis=0) >= -1e-12)

    def test_white_noise_slope_half(self):
        rng = np.random.default_rng(2024)
        x = rng.normal(size=2 ** 16)
        config = MfdfaConfig(q_values=[2.0], scales=default_scales(len(x)))
        curve = generalized_hurst(fluctuation_function(x, config))
        assert curve.h_at(2.0) == pytest.approx(0.5, abs=0.02)

    def test_all_zero_segments_error(self):
        x = np.zeros(200)
        config = MfdfaConfig(q_values=[2.0], scales=[10, 20, 40])
        with pytest.raises(NumericError, match="s = 10"):
            fluctuation_function(x, config)

    def test_zero_segments_excluded_for_negative_q(self):
        f2 = np.array([0.0, 4.0, 0.0, 4.0])
        assert aggregate_fluctuation(f2, -2.0) == pytest.approx(2.0)
        assert aggregate_fluctuation(f2, 0.0) == pytest.approx(2.0)
        with pytest.raises(NumericError):
            aggregate_fluctuation(np.zeros(4), -2.0)

    def test_exclusion_counts_reported(self):
        # first 64 points sit exactly at the global mean (1 +- 0.25 is binary
        # exact), so their profile stretch is identically zero
        tail = np.tile([1.25, 0.75], 96)
        x = np.concatenate([np.ones(64), tail])
        config = MfdfaConfig(q_values=[-2.0, 2.0], scales=[8, 16, 32])
        surface = fluctuation_function(x, config)
        assert surface.excluded_segments.sum() > 0

    def test_roundoff_variances_count_as_zero(self):
        # the constant blocks leave every one of their 1600 segments at s = 10
        # with a variance of ~1e-25 (roundoff of a linear profile, never exactly
        # 0); kept in the q <= 0 means they drove h(0) to 1.72
        rng = np.random.default_rng(0)
        x = np.concatenate([np.full(4000, 0.3), np.full(4000, -0.2),
                            rng.standard_normal(2000)])
        f2 = segment_variances(profile(x), 10)
        assert np.count_nonzero(f2 < 1e-20) == 1600 and np.all(f2 > 0)
        config = MfdfaConfig.for_series(len(x))
        surface = fluctuation_function(x, config)
        assert config.scales[0] == 10 and surface.excluded_segments[0] == 1600
        curve = generalized_hurst(surface)
        assert abs(curve.h_at(0.0) - curve.h_at(-0.5)) < 0.05
        assert max(curve.h_at(q) for q in (-3.0, -2.0, -1.0, 0.0)) < 0.7
        # q > 0 keeps every segment
        assert surface.values[-1, 0] == aggregate_fluctuation(f2, 3.0)


class TestGeneralizedHurst:
    def test_exact_power_law(self):
        scales = np.array([10, 20, 40, 80, 160])
        config = MfdfaConfig(q_values=np.array([1.0, 2.0]), scales=scales)
        values = np.vstack([scales ** 0.3, scales ** 0.3]).astype(float)
        surface = FluctuationSurface(q_values=config.q_values, scales=scales,
                                     values=values, series_length=1000,
                                     config=config,
                                     excluded_segments=np.zeros(5, dtype=int))
        curve = generalized_hurst(surface)
        np.testing.assert_array_equal(curve.q_values, [1.0, 2.0])
        np.testing.assert_allclose(curve.h_values, 0.3, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.stderr, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.r2, 1.0, rtol=0, atol=1e-12)

    def test_h_at_matches_q_to_1e9(self):
        qs = np.arange(-6, 7) / 2.0  # neighbours 0.5 apart
        curve = mfdfa.GHECurve(q_values=qs, h_values=qs / 10, stderr=np.zeros(13),
                               r2=np.ones(13), fit_range=(10, 40))
        assert curve.h_at(2.0 + 1e-12) == 0.2
        with pytest.raises(ValueError, match="q = 2.25 is not on the estimated curve"):
            curve.h_at(2.25)

    def test_fgn_h03(self):
        x = generate_fgn(0.3, 2 ** 16, seed=11)
        config = MfdfaConfig(q_values=[2.0], scales=default_scales(len(x)))
        curve = generalized_hurst(fluctuation_function(x, config))
        assert curve.h_at(2.0) == pytest.approx(0.3, abs=0.03)

    def test_cascade_matches_closed_form_h2(self):
        x = generate_cascade(0.6, 16)
        scales = np.unique(np.round(np.exp(
            np.linspace(np.log(16), np.log(len(x) // 16), 20))).astype(int))
        config = MfdfaConfig(q_values=[2.0], scales=scales)
        curve = generalized_hurst(fluctuation_function(x, config))
        assert curve.h_at(2.0) == pytest.approx(cascade_hq(0.6, 2.0), abs=0.05)

    def test_too_few_scales(self):
        scales = np.array([10, 20, 40])
        config = MfdfaConfig(q_values=np.array([2.0]), scales=scales, fit_range=(10, 20))
        surface = FluctuationSurface(q_values=config.q_values, scales=scales,
                                     values=np.array([[1.0, 2.0, 4.0]]),
                                     series_length=1000, config=config,
                                     excluded_segments=np.zeros(3, dtype=int))
        with pytest.raises(NumericError):
            generalized_hurst(surface)


class TestInvariants:
    def test_affine_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=4096)
        config = MfdfaConfig(q_values=[-2.0, 0.0, 2.0], scales=default_scales(len(x)))
        base = generalized_hurst(fluctuation_function(x, config))
        moved = generalized_hurst(fluctuation_function(2.5 * x - 7.0, config))
        np.testing.assert_allclose(moved.h_values, base.h_values, atol=1e-10)

    def test_reversal_near_symmetry(self):
        # forward segmentation of the reversed profile sits one sample off the
        # backward segmentation, so agreement is approximate, not exact
        rng = np.random.default_rng(19)
        x = rng.normal(size=2 ** 13)
        config = MfdfaConfig(q_values=[2.0], scales=default_scales(len(x)))
        fwd = fluctuation_function(x, config)
        rev = fluctuation_function(x[::-1], config)
        np.testing.assert_allclose(rev.values, fwd.values, rtol=0.05)

    def test_monotonic_in_q(self):
        x = generate_fgn(0.4, 4096, seed=23)
        config = MfdfaConfig(q_values=np.arange(-6, 7) / 2.0,
                             scales=default_scales(len(x)))
        surface = fluctuation_function(x, config)
        assert np.all(np.diff(surface.values, axis=0) >= -1e-12)

    @pytest.mark.parametrize("H", [0.1, 0.5, 0.9])
    def test_monofractal_fgn_small_delta_h(self, H):
        x = generate_fgn(H, 2 ** 16, seed=31)
        config = MfdfaConfig(q_values=[-3.0, 3.0], scales=default_scales(len(x)))
        curve = generalized_hurst(fluctuation_function(x, config))
        assert curve.h_at(-3.0) - curve.h_at(3.0) <= 0.05

    def test_shuffled_fgn_loses_memory(self):
        x = generate_fgn(0.8, 2 ** 16, seed=37)
        np.random.default_rng(38).shuffle(x)
        config = MfdfaConfig(q_values=[2.0], scales=default_scales(len(x)))
        curve = generalized_hurst(fluctuation_function(x, config))
        assert curve.h_at(2.0) == pytest.approx(0.5, abs=0.03)


class TestConfigValidation:
    def test_scales_must_increase(self):
        with pytest.raises(ValueError):
            MfdfaConfig(q_values=[2.0], scales=[10, 10, 20])

    def test_scale_floor_from_detrend_order(self):
        with pytest.raises(ValueError):
            MfdfaConfig(q_values=[2.0], scales=[3, 10], detrend_order=2)

    def test_fit_range_membership(self):
        with pytest.raises(ValueError):
            MfdfaConfig(q_values=[2.0], scales=[10, 20, 40], fit_range=(10, 30))

    def test_largest_scale_versus_length(self):
        config = MfdfaConfig(q_values=[2.0], scales=[10, 20, 40])
        with pytest.raises(ValueError):
            config.validate_length(100)


def reference_surface(series, config):
    """F_q(s) and exclusion counts by the per-scale loop: one
    `segment_variances` call per scale and the power mean (F^2)^(q/2) per q."""
    Y = profile(series)
    roundoff = (config.scales * (np.finfo(float).eps * np.max(np.abs(Y)))) ** 2
    values = np.empty((len(config.q_values), len(config.scales)))
    excluded = np.zeros(len(config.scales), dtype=int)
    for j, s in enumerate(config.scales):
        f2 = segment_variances(Y, int(s), config.detrend_order)
        positive = f2[f2 > roundoff[j]]
        excluded[j] = len(f2) - len(positive)
        if len(positive) == 0:
            raise NumericError(f"all segments have zero variance at scale s = {s}")
        for i, q in enumerate(config.q_values):
            if q == 0:
                values[i, j] = np.exp(0.5 * np.mean(np.log(positive)))
            else:
                g = f2 if q > 0 else positive
                values[i, j] = np.mean(g ** (q / 2.0)) ** (1.0 / q)
    return values, excluded


@st.composite
def awkward_series(draw):
    """Noise with constant and two-level blocks, strong trends, large offsets
    and zero stretches; scales reach N/4 and q reaches +-3."""
    n = draw(st.integers(40, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(n) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    t = np.arange(n)
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a + 1, n))
        kind = draw(st.sampled_from(["constant", "two_level", "trend", "zero"]))
        if kind == "constant":
            x[a:b] = draw(st.sampled_from([0.3, -0.2, 1.25]))
        elif kind == "two_level":
            x[a:b] = np.where((t[a:b] // draw(st.integers(1, 40))) % 2 == 0, 0.75, 1.25)
        elif kind == "trend":
            x[a:b] += draw(st.sampled_from([0.01, 1.0, 100.0])) * t[a:b]
        else:
            x[a:b] = 0.0
    x += draw(st.sampled_from([0.0, 1e6, -3.5e6]))
    top = n // 4
    lo = draw(st.integers(3, max(3, top // 4)))
    scales = np.unique(np.r_[np.geomspace(lo, top, draw(st.integers(3, 8))).astype(int), top])
    q = draw(st.lists(st.sampled_from([-3.0, -2.0, -0.5, 0.0, 0.5, 2.0, 3.0]),
                      min_size=1, max_size=4, unique=True))
    return x, MfdfaConfig(q_values=np.sort(q), scales=scales)


class TestPrefixPathMatchesReference:
    """Order-1 detrending from running sums against the per-scale projection."""

    @settings(max_examples=200, deadline=None)
    @given(awkward_series())
    @example((np.full(200, 7.5), MfdfaConfig(q_values=[-3.0, 2.0], scales=[10, 20, 40])))
    def test_equal_to_reference(self, case):
        x, config = case
        Y = profile(x)
        f2, counts = mfdfa._order1_variances(Y, config.scales)
        ends = np.cumsum(counts)
        for s, stop, count in zip(config.scales, ends, counts):
            want = segment_variances(Y, int(s), 1)
            np.testing.assert_allclose(f2[stop - count:stop], want, rtol=1e-12, atol=0)
        try:
            want, excluded = reference_surface(x, config)
        except NumericError as exc:
            with pytest.raises(NumericError, match=str(exc)):
                fluctuation_function(x, config)
            return
        surface = fluctuation_function(x, config)
        np.testing.assert_array_equal(surface.excluded_segments, excluded)
        np.testing.assert_allclose(surface.values, want, rtol=1e-12, atol=0)


def _profiles_that_trip_the_guard():
    rng = np.random.default_rng(0)
    roundoff = profile(np.concatenate([np.full(4000, 0.3), np.full(4000, -0.2),
                                       rng.standard_normal(2000)]))
    linear = np.concatenate([2.0 + 0.5 * np.arange(400.0),
                             202.0 + np.cumsum(rng.standard_normal(400))])
    two_level = profile(np.repeat(np.tile([0.75, 1.25], 20), 50)
                        + np.r_[np.zeros(1000), rng.standard_normal(1000)])[:1600]
    return {"roundoff": roundoff, "linear": linear, "two_level": two_level}


class TestGuard:
    @pytest.mark.parametrize("name", ["roundoff", "linear", "two_level"])
    def test_tripped_scale_is_the_projection(self, name):
        Y = _profiles_that_trip_the_guard()[name]
        scales = default_scales(len(Y))
        with mock.patch.object(mfdfa, "segment_variances",
                               wraps=segment_variances) as fallback:
            f2, counts = mfdfa._order1_variances(Y, scales)
        tripped = [call.args[1] for call in fallback.call_args_list]
        assert scales[0] in tripped
        ends = np.cumsum(counts)
        for s, stop, count in zip(scales, ends, counts):
            if s in tripped:
                assert np.array_equal(f2[stop - count:stop], segment_variances(Y, int(s), 1))

    def test_stationary_profile_takes_no_fallback(self):
        # increments of a stationary series, like the daily log-RV increments
        # of one rolling window
        Y = profile(np.diff(np.random.default_rng(1).standard_normal(2901)))
        with mock.patch.object(mfdfa, "segment_variances") as fallback:
            mfdfa._order1_variances(Y, default_scales(len(Y)))
        fallback.assert_not_called()

    def test_order_2_never_takes_the_prefix_path(self):
        x = np.random.default_rng(2).standard_normal(1000)
        config = MfdfaConfig(q_values=[-2.0, 2.0], scales=default_scales(1000),
                             detrend_order=2)
        with mock.patch.object(mfdfa, "_order1_variances",
                               side_effect=AssertionError("prefix path")):
            surface = fluctuation_function(x, config)
        want, _ = reference_surface(x, config)
        np.testing.assert_allclose(surface.values, want, rtol=1e-12)

    def test_narrow_longdouble_projects_every_scale(self):
        # where longdouble is float64 the running sums cannot carry the
        # cancellation, so no scale takes them
        real = np.finfo

        def narrow(dtype):
            return real(float) if dtype is np.longdouble else real(dtype)

        x = np.random.default_rng(3).standard_normal(1000)
        config = MfdfaConfig(q_values=[-2.0, 2.0], scales=default_scales(1000))
        with mock.patch("numpy.finfo", narrow), \
                mock.patch.object(mfdfa, "_order1_variances",
                                  side_effect=AssertionError("prefix path")):
            surface = fluctuation_function(x, config)
        want, _ = reference_surface(x, config)
        np.testing.assert_allclose(surface.values, want, rtol=1e-12)


def _stack_rows(n):
    """Equal-length series: noise at three amplitudes, an offset, a trend, a
    constant stretch (its linear profile trips the prefix guard and leaves
    zero-variance segments), a two-level stretch, and stationary increments;
    more rows than one pass of `fluctuation_function` takes."""
    rng = np.random.default_rng(12)
    t = np.arange(n)
    flat = rng.standard_normal(n)
    flat[: n // 2] = 0.3
    two_level = np.where((t // 50) % 2 == 0, 0.75, 1.25)
    two_level[n // 2:] += rng.standard_normal(n - n // 2)
    rows = [rng.standard_normal(n) * 10.0 ** k for k in (-3, 0, 3)]
    rows += [rng.standard_normal(n) + 1e6, rng.standard_normal(n) + 1e-2 * t,
             flat, two_level, np.diff(rng.standard_normal(n + 1))]
    rows += [generate_fgn(0.1, 2048, seed)[:n] for seed in range(6)]
    return np.array(rows)


class TestStackedRows:
    """A (rows, N) stack gives every row the bits it gets as a series alone."""

    @pytest.mark.parametrize("order,q_values", [(1, None), (1, [2.0]), (2, None)])
    def test_each_row_as_alone(self, order, q_values):
        stack = _stack_rows(1600)
        assert len(stack) > mfdfa._PASS_POINTS // stack.shape[1]  # several passes
        config = MfdfaConfig.for_series(stack.shape[1], order, q_values)
        with mock.patch.object(mfdfa, "segment_variances",
                               wraps=segment_variances) as fallback:
            surface = fluctuation_function(stack, config)
        assert fallback.call_count > 0  # the guard tripped (every scale at order 2)
        curve = generalized_hurst(surface)
        assert surface.values.shape == (len(stack), len(config.q_values), len(config.scales))
        assert curve.h_values.shape == (len(stack), len(config.q_values))
        assert surface.excluded_segments[5].sum() > 0  # the constant stretch
        for r, x in enumerate(stack):
            alone = fluctuation_function(x, config)
            alone_curve = generalized_hurst(alone)
            assert np.array_equal(surface.values[r], alone.values)
            assert np.array_equal(surface.excluded_segments[r], alone.excluded_segments)
            assert np.array_equal(curve.h_values[r], alone_curve.h_values)
            assert np.array_equal(curve.stderr[r], alone_curve.stderr)
            assert np.array_equal(curve.r2[r], alone_curve.r2)

    def test_a_row_with_only_zero_variance_segments_raises(self):
        stack = _stack_rows(1600)
        stack[9] = 1.5  # constant: every segment of every scale has zero variance
        with pytest.raises(NumericError, match="all segments have zero variance at scale"):
            fluctuation_function(stack, MfdfaConfig.for_series(1600, q_values=[2.0]))


class TestSeriesLength:
    """The running sums' roundoff grows with N, so they serve short series."""

    @pytest.mark.parametrize("name", ["fgn_0.1", "fgn_0.3", "white", "offset", "trend"])
    def test_accurate_at_the_length_cap(self, name):
        n = mfdfa._PREFIX_MAX_LENGTH
        rng = np.random.default_rng(7)
        x = {"fgn_0.1": lambda: generate_fgn(0.1, n, 8),
             "fgn_0.3": lambda: generate_fgn(0.3, n, 9),
             "white": lambda: rng.standard_normal(n),
             "offset": lambda: rng.standard_normal(n) + 1e6,
             "trend": lambda: rng.standard_normal(n) + 1e-2 * np.arange(n)}[name]()
        Y = profile(x)
        scales = default_scales(n)
        f2, counts = mfdfa._order1_variances(Y, scales)
        ends = np.cumsum(counts)
        for s, stop, count in zip(scales, ends, counts):
            np.testing.assert_allclose(f2[stop - count:stop], segment_variances(Y, int(s), 1),
                                       rtol=1e-12, atol=0)

    def test_path_switches_above_the_cap(self):
        n = mfdfa._PREFIX_MAX_LENGTH
        x = np.random.default_rng(4).standard_normal(n + 1)
        for length, calls in [(n, 1), (n + 1, 0)]:
            config = MfdfaConfig(q_values=[2.0], scales=default_scales(length))
            with mock.patch.object(mfdfa, "_order1_variances",
                                   wraps=mfdfa._order1_variances) as prefix:
                fluctuation_function(x[:length], config)
            assert prefix.call_count == calls

    @pytest.mark.parametrize("name", ["fgn_0.1", "white"])
    def test_long_series_match_the_reference(self, name):
        # at the single-series lengths of an oracle study
        n = 2 ** 18
        x = (generate_fgn(0.1, n, 10) if name == "fgn_0.1"
             else np.random.default_rng(11).standard_normal(n))
        config = MfdfaConfig.for_series(n)
        surface = fluctuation_function(x, config)
        want, excluded = reference_surface(x, config)
        np.testing.assert_array_equal(surface.excluded_segments, excluded)
        np.testing.assert_allclose(surface.values, want, rtol=1e-12, atol=0)


class TestExtremeAmplitudes:
    # F_q scales with the amplitude, so h(q) must not move; (F^2)^(q/2) used
    # to overflow to inf at 1e120 for q = 3 and at 1e-120 for q = -3
    @pytest.mark.parametrize("amplitude", [1e-120, 1e120])
    def test_h_is_amplitude_free(self, amplitude):
        x = np.random.default_rng(5).standard_normal(4096)
        config = MfdfaConfig(q_values=[-3.0, -0.5, 0.0, 2.0, 3.0],
                             scales=default_scales(len(x)))
        base = generalized_hurst(fluctuation_function(x, config)).h_values
        scaled = generalized_hurst(fluctuation_function(amplitude * x, config)).h_values
        np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=0)


class TestDefaultScales:
    def test_memoised_and_read_only(self):
        a = default_scales(1000)
        assert a is default_scales(1000)
        assert not a.flags.writeable
        assert a[0] == 10 and a[-1] == 250
