import dataclasses
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench.generators import rolling_inputs
from roughscale import mfdfa, pipeline
from roughscale.errors import DataError, NumericError
from roughscale.mfdfa import (MIN_FIT_LENGTH, SCALE_MIN, FluctuationSurface, MfdfaConfig,
                              aggregate_fluctuation, default_q_values, default_scales,
                              fluctuation_function, generalized_hurst, profile,
                              segment_variances)
from roughscale.realized_volatility import log_increments
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

    def test_scale_too_small_for_the_order(self):
        with pytest.raises(ValueError, match="scale 3 too small for detrend order 2"):
            segment_variances(np.arange(10.0), 3, 2)


class TestFluctuationFunction:
    def test_series_must_be_one_dimensional(self):
        with pytest.raises(DataError, match="need a one-dimensional series"):
            fluctuation_function(np.ones((2, 200)), MfdfaConfig(default_q_values(), None))

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
        surface = FluctuationSurface(scales=scales, values=values, series_length=1000,
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
                               r2=np.ones(13))
        assert curve.h_at(2.0 + 1e-12) == 0.2
        with pytest.raises(ValueError, match="q = 2.25 is not on the estimated curve"):
            curve.h_at(2.25)

    @pytest.mark.parametrize("qs", [[2.0], [-3.0, 2.0, 3.0]])
    def test_h_at_reads_the_q_axis_of_a_windowed_curve(self, qs):
        # a single series gets a float, a windowed curve one value per window
        h = np.arange(4 * len(qs), dtype=float).reshape(4, len(qs)) / 10
        windowed = mfdfa.GHECurve(q_values=np.array(qs), h_values=h, stderr=0 * h,
                                  r2=1 + 0 * h)
        i = qs.index(2.0)
        np.testing.assert_array_equal(windowed.h_at(2.0), h[:, i])
        for w in range(4):
            single = mfdfa.GHECurve(q_values=np.array(qs), h_values=h[w], stderr=0 * h[w],
                                    r2=1 + 0 * h[w])
            assert type(single.h_at(2.0)) is float
            assert single.h_at(2.0) == windowed.h_at(2.0)[w]

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
        surface = FluctuationSurface(scales=scales, values=np.array([[1.0, 2.0, 4.0]]),
                                     series_length=1000, config=config,
                                     excluded_segments=np.zeros(3, dtype=int))
        with pytest.raises(NumericError):
            generalized_hurst(surface)

    def test_windows_fit_their_own_finite_scales(self):
        # a window fits the scales of its own grid, and one with fewer than 3
        # of them, or none (a failed window), gets NaN with no warning
        scales = np.array([10, 20, 40, 80])
        config = MfdfaConfig(q_values=[2.0], scales=scales)
        values = np.array([scales ** 0.3, scales ** 0.7, scales ** 0.5, scales ** 0.5,
                           np.full(4, np.nan)], dtype=float)[:, None, :]
        values[1, :, 3] = values[2, :, 1:3] = np.nan
        surface = FluctuationSurface(scales=scales, values=values,
                                     series_length=1000, config=config,
                                     excluded_segments=np.zeros((5, 4), dtype=int))
        curve = generalized_hurst(surface)
        np.testing.assert_allclose(curve.h_values[[0, 1, 3], 0], [0.3, 0.7, 0.5], atol=1e-12)
        np.testing.assert_allclose(curve.r2[[0, 1, 3], 0], 1.0, atol=1e-12)
        for out in (curve.h_values, curve.stderr, curve.r2):
            assert np.isnan(out[[2, 4]]).all()


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

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_q_values_must_be_finite(self, q):
        with pytest.raises(ValueError, match="q values must be finite"):
            MfdfaConfig(q_values=[q, 2.0], scales=[10, 20, 40])

    def test_fit_range_membership(self):
        with pytest.raises(ValueError):
            MfdfaConfig(q_values=[2.0], scales=[10, 20, 40], fit_range=(10, 30))

    def test_largest_scale_versus_length(self):
        config = MfdfaConfig(q_values=[2.0], scales=[10, 20, 40])
        with pytest.raises(ValueError, match="largest scale 40 exceeds N/4 = 25"):
            config.grid(100)
        np.testing.assert_array_equal(config.grid(160), [10, 20, 40])

    def test_no_scales_means_each_length_its_default_grid(self):
        config = MfdfaConfig(q_values=[2.0], scales=None)
        assert config.grid(1000) is default_scales(1000)
        with pytest.raises(DataError, match="too short"):
            config.grid(39)
        assert MfdfaConfig.for_series(1000).scales is default_scales(1000)

    def test_no_scales_checks_the_order_against_the_default_grid(self):
        MfdfaConfig(q_values=[2.0], scales=None, detrend_order=SCALE_MIN - 2)
        with pytest.raises(ValueError, match="smallest scale must be >= detrend_order"):
            MfdfaConfig(q_values=[2.0], scales=None, detrend_order=SCALE_MIN - 1)
        with pytest.raises(ValueError, match="detrend_order must be >= 1"):
            MfdfaConfig(q_values=[2.0], scales=None, detrend_order=0)

    def test_fit_range_needs_explicit_scales(self):
        with pytest.raises(ValueError, match="a fit_range needs explicit scales"):
            MfdfaConfig(q_values=[2.0], scales=None, fit_range=(10, 20))


def local_variances(x, s, m=1, starts=None):
    """segment_variances of profile(x) at scale s, each segment projected from
    its own profile: the running sum of its s-1 increments minus the first.

    A fit of order m >= 1 sees no line, so in exact arithmetic these are
    profile(x)'s segment variances; each is computed at the magnitude of its
    own increments, where profile(x) carries the roundoff of a running sum
    over the whole series (1e-11 relative and worse on trends and offsets).
    The segments start at `starts`, by default those of `segment_variances`;
    laid end to end, they are the forward segments of one
    `segment_variances` call.
    """
    N = len(x)
    n = N // s
    if starts is None:
        starts = np.r_[np.arange(n) * s, N - n * s + np.arange(n) * s]
    inc = x[np.asarray(starts)[:, None] + np.arange(1, s)]
    seg = np.zeros((len(inc), s))
    seg[:, 1:] = np.cumsum(inc - inc[:, :1], axis=1)
    return segment_variances(seg.ravel(), s, m)[:len(inc)]


def reference_surface(series, config, local=False):
    """F_q(s) and exclusion counts by the per-scale loop: one
    `segment_variances` call per scale, on profile(x) or, when `local`, on
    each segment's own profile (`local_variances`), and the power mean
    (F^2)^(q/2) per q. Segments are counted only where a q <= 0 excludes
    them."""
    x = np.asarray(series, dtype=float)
    Y = profile(x)
    roundoff = (config.scales * (np.finfo(float).eps * np.max(np.abs(Y)))) ** 2
    values = np.empty((len(config.q_values), len(config.scales)))
    excluded = np.zeros(len(config.scales), dtype=int)
    counted = (config.q_values <= 0).any()
    for j, s in enumerate(config.scales):
        f2 = (local_variances(x, int(s), config.detrend_order) if local
              else segment_variances(Y, int(s), config.detrend_order))
        positive = f2[f2 > roundoff[j]]
        excluded[j] = (len(f2) - len(positive)) * counted
        if len(positive) == 0:
            raise NumericError(f"all segments have zero variance at scale s = {s}")
        for i, q in enumerate(config.q_values):
            if q == 0:
                values[i, j] = np.exp(0.5 * np.mean(np.log(positive)))
            else:
                g = f2 if q > 0 else positive
                values[i, j] = np.mean(g ** (q / 2.0)) ** (1.0 / q)
    return values, excluded


def own_table(x, scales):
    """The order-1 table of the series x with its own segments' cells in use,
    and those cells in `segment_variances`' order."""
    (_, _, cells), = mfdfa._window_passes(np.zeros(1, dtype=np.intp), np.array([len(x)]),
                                          {len(x): np.arange(len(scales))}, scales, len(x))
    used = np.zeros(len(scales) * len(x), dtype=bool)
    used[cells] = True
    return mfdfa._order1_table(x, scales, used, mfdfa._running_sums(x)), cells


def assert_same_variances(got, want, x, s):
    """Equal to 1e-12 relative, or both at most the zero-variance roundoff
    (s * eps * max|Y|)^2 that `fluctuation_function` excludes; s holds each
    variance's scale."""
    roundoff = (s * (np.finfo(float).eps * np.abs(profile(x)).max())) ** 2
    real = (got > roundoff) | (want > roundoff)
    np.testing.assert_allclose(got[real], want[real], rtol=1e-12, atol=0)


def each_scale(N, scales):
    """The scale of each segment of a series of N points."""
    return np.repeat(scales, 2 * (N // scales))


def _awkward_values(draw, n):
    """n points of noise with constant and two-level blocks, strong trends,
    large offsets and zero stretches."""
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
    return x + draw(st.sampled_from([0.0, 1e6, -3.5e6]))


def _awkward_config(draw, n):
    """Scales reaching n/4 and q reaching +-3."""
    top = n // 4
    lo = draw(st.integers(3, max(3, top // 4)))
    scales = np.unique(np.r_[np.geomspace(lo, top, draw(st.integers(3, 8))).astype(int), top])
    q = draw(st.lists(st.sampled_from([-3.0, -2.0, -0.5, 0.0, 0.5, 2.0, 3.0]),
                      min_size=1, max_size=4, unique=True))
    return MfdfaConfig(q_values=np.sort(q), scales=scales)


@st.composite
def awkward_series(draw):
    """An awkward series of 40 to 600 points and a config for it."""
    n = draw(st.integers(40, 600))
    return _awkward_values(draw, n), _awkward_config(draw, n)


@st.composite
def awkward_windows(draw):
    """An awkward span, and windows of it: of one or two lengths with a config
    that serves both, or of up to six lengths, each on its own default grid."""
    n = draw(st.integers(40, 600))
    x = _awkward_values(draw, n)
    N = draw(st.integers(40, n))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(40, N), min_size=1, max_size=6))
        q = draw(st.lists(st.sampled_from([-3.0, 0.0, 2.0, 3.0]), min_size=1, max_size=3,
                          unique=True))
        config = MfdfaConfig(q_values=np.sort(q), scales=None)
    else:
        lengths = draw(st.lists(st.sampled_from([N, max(40, N - 3)]), min_size=1, max_size=6))
        config = _awkward_config(draw, min(lengths))
    starts = [draw(st.integers(0, n - length)) for length in lengths]
    return x, np.array(starts), np.array(lengths), config


class TestPrefixPathMatchesReference:
    """Order-1 variances from the table over a series' running sums against
    the per-segment projection."""

    @settings(max_examples=200, deadline=None)
    @given(awkward_series())
    @example((np.full(200, 7.5), MfdfaConfig(q_values=[-3.0, 2.0], scales=[10, 20, 40])))
    def test_equal_to_reference(self, case):
        x, config = case
        table, cells = own_table(x, config.scales)
        want = np.concatenate([local_variances(x, int(s)) for s in config.scales])
        assert_same_variances(table[cells], want, x, each_scale(len(x), config.scales))
        try:
            want, excluded = reference_surface(x, config, local=True)
        except NumericError as exc:
            with pytest.raises(NumericError, match=str(exc)):
                fluctuation_function(x, config)
            return
        surface = fluctuation_function(x, config)
        np.testing.assert_array_equal(surface.excluded_segments, excluded)
        np.testing.assert_allclose(surface.values, want, rtol=1e-12, atol=0)


class TestWindows:
    """A windowed call gives every window what it gets as a series alone."""

    @settings(max_examples=200, deadline=None)
    @given(awkward_windows())
    @example((np.diff(np.random.default_rng(6).standard_normal(601)), np.array([0, 100, 7, 3]),
              np.array([600, 400, 45, 47]), MfdfaConfig(q_values=[-2.0, 2.0], scales=None)))
    @example((np.random.default_rng(7).standard_normal(240) + np.linspace(0, 2, 240),
              np.array([177, 0]), np.array([55, 40]), MfdfaConfig(q_values=[2.0], scales=None)))
    def test_each_window_as_alone(self, case):
        # at the scales of its own grid; NaN, with nothing excluded, elsewhere.
        # The fit is compared on the window's own F_q: F_q within 1e-12 of the
        # series alone can move a slope over nearby scales by more than 1e-12
        # of it (scales 10-13 and h(2) near -0.1 turn 2e-14 into 1e-12)
        x, starts, lengths, config = case
        surface = fluctuation_function(x, config, starts, lengths)
        curve = generalized_hurst(surface)
        np.testing.assert_array_equal(
            surface.scales, np.unique(np.concatenate([config.grid(n) for n in lengths])))
        assert surface.values.shape == (len(starts), len(config.q_values), len(surface.scales))
        for w, (i0, n) in enumerate(zip(starts, lengths)):
            own = np.isin(surface.scales, config.grid(n))
            assert np.isnan(surface.values[w][:, ~own]).all()
            assert not surface.excluded_segments[w, ~own].any()
            try:
                alone = fluctuation_function(x[i0:i0 + n], config)
            except NumericError:
                assert np.isnan(surface.values[w]).all() and np.isnan(curve.h_values[w]).all()
                continue
            np.testing.assert_array_equal(surface.excluded_segments[w, own],
                                          alone.excluded_segments)
            np.testing.assert_allclose(surface.values[w][:, own], alone.values, rtol=1e-12,
                                       atol=0)
            try:
                want = generalized_hurst(dataclasses.replace(alone,
                                                             values=surface.values[w][:, own]))
            except NumericError:  # a default grid of 2 scales, below MIN_FIT_LENGTH
                assert n < MIN_FIT_LENGTH and np.isnan(curve.h_values[w]).all()
                continue
            for got, alone_fit in ((curve.h_values, want.h_values), (curve.stderr, want.stderr),
                                   (curve.r2, want.r2)):
                np.testing.assert_allclose(got[w], alone_fit, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("q_values", [[2.0], default_q_values()])
    def test_no_windows_give_empty_surfaces(self, q_values):
        # the series' own grid, and no window to fill it
        x = np.random.default_rng(14).standard_normal(1000)
        surface = fluctuation_function(x, MfdfaConfig(q_values, None), [], [])
        np.testing.assert_array_equal(surface.scales, default_scales(len(x)))
        assert surface.values.shape == (0, len(q_values), len(surface.scales))
        assert surface.excluded_segments.shape == (0, len(surface.scales))
        assert generalized_hurst(surface).h_values.shape == (0, len(q_values))

    def test_windows_must_lie_in_the_series(self):
        config = MfdfaConfig.for_series(100)
        with pytest.raises(DataError, match="a window leaves the series of 200 points"):
            fluctuation_function(np.ones(200), config, [0, 101], 100)


@st.composite
def spiked_windows(draw):
    """awkward_windows with up to three spikes, whose cells dwarf those after
    them in their residue class of the order-1 table."""
    x, starts, lengths, config = draw(awkward_windows())
    for i in draw(st.lists(st.integers(0, len(x) - 1), max_size=3)):
        x[i] += draw(st.sampled_from([1e3, -1e8]))
    return x, starts, lengths, config


def _constant_stretch(n, a, b):
    x = np.diff(np.random.default_rng(13).standard_normal(n + 1))
    x[a:b] = 0.25
    return x


def _exact_run_sums(x, scales, starts, n):
    """Each window's sum of its cells' residual sums of squares at each scale,
    (windows, scales), in rationals from the longdouble profile minus its
    line that `mfdfa._running_sums` takes."""
    L = len(x)
    t = np.arange(L, dtype=np.longdouble) - (L - 1) / 2
    y = np.cumsum(x - x.mean(), dtype=np.longdouble)
    y -= y.mean() + (t @ y) / (t @ t) * t
    P = [[Fraction(0)] for _ in range(3)]
    for i, v in enumerate(Fraction(*v.as_integer_ratio()) for v in y):
        for run, term in zip(P, (v, i * v, v * v)):
            run.append(run[-1] + term)
    out = []
    for a in starts:
        row = []
        for s in scales:
            m = n // s
            total = Fraction(0)
            for g in [a + i * s for i in range(m)] + [a + n - m * s + i * s for i in range(m)]:
                s1, t1, s2 = (run[g + s] - run[g] for run in P)
                d = t1 - (g + Fraction(s - 1, 2)) * s1
                total += s2 - s1 * s1 / s - 12 * d * d / (s * (s * s - 1))
            row.append(total)
        out.append(row)
    return out


def residue_rebuild(x, running, scales, at, lengths, columns):
    """`mfdfa._residue_means`' F_2^2, scale by scale: each run's line terms
    from the cells [g, g+s) of its residue class r, g = r + i s, formed as
    there in float64 from longdouble S1 and D, summed along the class by a
    longdouble cumsum from 0 and read at the run's ends; less that from the
    run's telescoped sum of y^2."""
    L, (sums, _) = len(x), running
    means = np.full((len(at), len(scales)), np.nan)
    for j, s in enumerate(scales.tolist()):
        w = np.flatnonzero([j in columns[n] for n in lengths.tolist()])
        m = lengths[w] // s
        heads = np.stack([at[w], at[w] + lengths[w] - m * s])  # forward, backward run
        lines = np.zeros(heads.shape, dtype=np.longdouble)
        for r in np.unique(heads % s).tolist():
            g = np.arange(r, L - s + 1, s)
            s1, d = mfdfa._segment_moments(sums, g, g + s, g - (L - s) / 2)
            line = s1.astype(float)
            line *= line
            line /= s
            d = d.astype(float)
            d *= d
            d *= 12 / (s * (s * s - 1.0))
            line += d
            run = np.zeros(len(g) + 1, dtype=np.longdouble)
            np.cumsum(line, dtype=np.longdouble, out=run[1:])
            here = heads % s == r
            t = (heads // s)[here]
            lines[here] = run[t + np.broadcast_to(m, heads.shape)[here]] - run[t]
        total = (sums[2][heads + m * s] - sums[2][heads]).sum(axis=0) - lines.sum(axis=0)
        means[w, j] = total.astype(float) / (2 * m * s)
    return means


def _one_sums_call(run):
    """run()'s result, and the arguments and result of the one
    `mfdfa._residue_means` call that it makes."""
    real, calls = mfdfa._residue_means, []

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with mock.patch.object(mfdfa, "_residue_means", side_effect=spy):
        result = run()
    (call,) = calls
    return result, call


def _sums_routing(x, starts, lengths):
    """The q = {2} surface of the windows on their default grids, and which of
    them `_residue_means` routed to the gather path."""
    surface, (_, (_, routed)) = _one_sums_call(
        lambda: fluctuation_function(x, MfdfaConfig([2.0], None), starts, lengths))
    return surface, routed


class TestResidueSums:
    """q = {2} takes each window's F_2 from the extent's running sums: its
    runs' telescoped sum of y^2 less their cells' line terms, summed along
    residue classes; unless the subtraction's roundoff could show, as it
    can where a scale holds only zero-variance cells, and the window is
    gathered. Any other q grid gathers the window's cells. No q = {2}
    window counts excluded segments."""

    @settings(max_examples=300, deadline=None)
    @given(spiked_windows())
    @example((_constant_stretch(600, 300, 420), np.array([0, 100, 250, 330]),
              np.array([300, 300, 300, 270]), MfdfaConfig(q_values=[2.0], scales=None)))
    @example((np.random.default_rng(14).standard_normal(600) * 1e-3 + np.eye(1, 600, 50)[0] * 1e8,
              np.array([0, 200, 300]), np.array([250, 250, 250]),
              MfdfaConfig(q_values=[2.0], scales=[10, 20, 40, 62])))
    def test_equal_to_the_gather_path(self, case):
        x, starts, lengths, config = case
        q2, gathered = (fluctuation_function(x, MfdfaConfig(q, config.scales), starts, lengths)
                        for q in ([2.0], [1.0, 2.0]))
        np.testing.assert_array_equal(q2.excluded_segments, gathered.excluded_segments)
        np.testing.assert_array_equal(np.isnan(q2.values[:, 0]), np.isnan(gathered.values[:, 1]))
        np.testing.assert_allclose(q2.values[:, 0], gathered.values[:, 1], rtol=1e-12, atol=0)

    def test_rv_increments_take_no_power_means(self):
        # the log-RV increments of a 1000-day span in ten windows 30 days apart
        rv = rolling_inputs(1, 1000).rv_by_delta[5]
        incr = log_increments(rv, zero_policy="drop").values
        starts = np.arange(0, 271, 30)
        with mock.patch.object(mfdfa, "_power_means", wraps=mfdfa._power_means) as means:
            surface = fluctuation_function(incr, MfdfaConfig([2.0], None), starts, 700)
        means.assert_not_called()
        assert np.isfinite(generalized_hurst(surface).h_values).all()

    def test_rv_increments_form_no_cell_and_route_no_window(self):
        # the rolling layout at one delta, 29 windows of 2922 days stepped by
        # 5; a routed window would tabulate its cells
        incr = log_increments(rolling_inputs(1, 3062).rv_by_delta[5], zero_policy="drop").values
        with mock.patch.object(mfdfa, "_order1_table",
                               side_effect=AssertionError("per-cell table")):
            surface = fluctuation_function(incr, MfdfaConfig([2.0], None), np.arange(0, 141, 5),
                                           len(incr) - 140)
        assert np.isfinite(surface.values).all() and not surface.excluded_segments.any()

    def test_a_window_after_a_spike_is_routed_by_the_roundoff_bound(self):
        # the spike's square dwarfs the later window's own terms; with the
        # profile's reach set to 0, only the subtraction's roundoff bound can
        # route it, and the window before, over the spike, too
        x = np.random.default_rng(15).standard_normal(600) * 1e-3
        x[50] += 1e8
        starts, lengths = np.array([0, 300]), np.array([250, 250])
        config = MfdfaConfig([2.0], [10, 20, 40, 62])
        with mock.patch.object(mfdfa, "_PROFILE_GUARD", 0.0):
            running = mfdfa._running_sums(x[:550])
            _, routed = mfdfa._residue_means(x[:550], running, config.scales, starts, lengths,
                                             {250: np.arange(4)})
        assert routed.all()
        with mock.patch.object(mfdfa, "_order1_table", wraps=mfdfa._order1_table) as table:
            q2 = fluctuation_function(x, config, starts, lengths)
        assert table.call_count == 1
        gathered = fluctuation_function(x, MfdfaConfig([1.0, 2.0], config.scales), starts,
                                        lengths)
        np.testing.assert_allclose(q2.values[:, 0], gathered.values[:, 1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("starts,n", [([0, 37, 200], 400), ([0, 100], 500)],
                             ids=["runs_coincide", "ends_at_the_extent"])
    def test_edge_windows_take_the_sums(self, starts, n):
        # n % s == 0 at every scale, so a window's backward run is its
        # forward one; and a window whose backward run ends at the extent's
        # last point
        x = np.diff(np.random.default_rng(16).standard_normal(601))
        starts = np.array(starts)
        config = MfdfaConfig([2.0], [10, 20, 40, 50, 100] if n == 400 else None)
        if n == 400:
            assert (n % config.grid(n) == 0).all()
        else:
            assert starts[-1] + n == len(x)
        with mock.patch.object(mfdfa, "_order1_table",
                               side_effect=AssertionError("per-cell table")):
            q2 = fluctuation_function(x, config, starts, n)
        gathered = fluctuation_function(x, MfdfaConfig([1.0, 2.0], config.scales), starts, n)
        np.testing.assert_allclose(q2.values[:, 0], gathered.values[:, 1], rtol=1e-12, atol=0)
        for w, i0 in enumerate(starts):
            alone = fluctuation_function(x[i0:i0 + n], config)
            np.testing.assert_allclose(q2.values[w], alone.values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["offset", "trend", "heavy_tails", "spike", "smoothed",
                                      "rv_like"])
    def test_served_sums_match_exact_arithmetic(self, kind):
        # every window that the sums serve, and some are, is within
        # _RESIDUE_GUARD of its exact sum over the same longdouble profile
        rng = np.random.default_rng(17)
        L, n = 180, 150
        t = np.arange(L)
        x = {"offset": lambda: rng.standard_normal(L) + 1e6,
             "trend": lambda: rng.standard_normal(L) + 1e-2 * t,
             "heavy_tails": lambda: rng.standard_t(1.5, L),
             "spike": lambda: rng.standard_normal(L) + 1e3 * (t == 20),
             "smoothed": lambda: np.convolve(rng.standard_normal(L + 9), np.ones(10), "valid"),
             "rv_like": lambda: np.diff(rng.standard_normal(L + 1))}[kind]()
        starts = np.array([0, 13, 30])
        scales = default_scales(n)
        means, routed = mfdfa._residue_means(x, mfdfa._running_sums(x), scales, starts,
                                             np.full(3, n), {n: np.arange(len(scales))})
        assert not routed.all()
        exact = _exact_run_sums(x, scales.tolist(), starts.tolist(), n)
        for w in np.flatnonzero(~routed):
            for j, s in enumerate(scales.tolist()):
                want = exact[w][j] / (2 * (n // s) * s)
                assert abs(Fraction(float(means[w, j])) - want) <= 1e-12 * want

    @pytest.mark.parametrize("case", ["rolling_delta_60", "mixed_lengths"])
    def test_slots_match_a_per_scale_rebuild_bit_for_bit(self, case):
        # a slot taken for a cell that it is not cancels in a run's two class
        # sums to roundoff, which only a byte comparison sees
        if case == "rolling_delta_60":  # the rolling layout at delta 60
            rv = rolling_inputs(3, 3062).rv_by_delta
            _, (args, _) = _one_sums_call(
                lambda: pipeline.run_rolling({5: rv[5], 60: rv[60]}, pipeline.RollingSpec()))
        else:
            x = np.diff(np.random.default_rng(16).standard_normal(601))
            at, lengths = np.array([0, 37, 150, 200]), np.array([400, 350, 450, 400])
            grids = {n: default_scales(n) for n in np.unique(lengths).tolist()}
            scales = np.unique(np.concatenate(list(grids.values())))
            args = (x, mfdfa._running_sums(x), scales, at, lengths,
                    {n: np.searchsorted(scales, grid) for n, grid in grids.items()})
        with np.errstate(over="ignore", invalid="ignore"):
            means, _ = mfdfa._residue_means(*args)
            want = residue_rebuild(*args)
        assert np.isfinite(means).any()
        assert means.tobytes() == want.tobytes()

    def test_a_calm_stretch_routes_only_its_windows(self):
        # the stretch's cells are at zero variance, which a q > 0 sum keeps:
        # the windows clear of it take the sums, and none counts an exclusion
        x = _constant_stretch(2000, 1500, 1700)
        starts = np.r_[np.arange(0, 800, 100), 1250]
        q2, routed = _sums_routing(x, starts, 700)
        np.testing.assert_array_equal(routed, starts == 1250)
        gathered = fluctuation_function(x, MfdfaConfig([1.0, 2.0], None), starts, 700)
        assert not np.isnan(q2.values).any() and not q2.excluded_segments.any()
        np.testing.assert_allclose(q2.values[:, 0], gathered.values[:, 1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_a_window_inside_a_constant_stretch_is_nan(self, offset):
        # its every cell has zero variance: the sums route it, the gather path
        # gives it NaN, and the series alone raises
        x = _constant_stretch(1200, 400, 800) + offset
        starts, lengths = np.array([0, 420, 700, 450]), np.array([400, 300, 400, 350])
        q2, routed = _sums_routing(x, starts, lengths)
        np.testing.assert_array_equal(routed, [False, True, False, True])
        gathered = fluctuation_function(x, MfdfaConfig([1.0, 2.0], None), starts, lengths)
        assert np.isnan(q2.values[[1, 3]]).all() and not q2.excluded_segments.any()
        np.testing.assert_array_equal(np.isnan(q2.values[:, 0]), np.isnan(gathered.values[:, 1]))
        np.testing.assert_allclose(q2.values[:, 0], gathered.values[:, 1], rtol=1e-12, atol=0)
        for i0, n in zip(starts[[1, 3]], lengths[[1, 3]]):
            with pytest.raises(NumericError,
                               match="all segments have zero variance at scale s = 10"):
                fluctuation_function(x[i0:i0 + n], MfdfaConfig([2.0], None))


def _mixed_length_args(explicit=False, at=(0, 37, 150, 200), lengths=(400, 350, 450, 400),
                       points=600):
    """`_residue_means` arguments for windows of mixed lengths in `points`
    points, on the union of their default grids: each window on its own grid,
    or with `explicit` every window on the union."""
    x = np.diff(np.random.default_rng(16).standard_normal(points + 1))
    at, lengths = np.array(at), np.array(lengths)
    grids = {n: default_scales(n) for n in np.unique(lengths).tolist()}
    scales = np.unique(np.concatenate(list(grids.values())))
    columns = {n: np.arange(len(scales)) if explicit else np.searchsorted(scales, grid)
               for n, grid in grids.items()}
    return x, mfdfa._running_sums(x), scales, at, lengths, columns


def _layout_of(args):
    """The layout that `mfdfa._residue_means(*args)` takes."""
    real, layouts = mfdfa._residue_layout, []

    def spy(*key):
        layouts.append(real(*key))
        return layouts[-1]

    with mock.patch.object(mfdfa, "_residue_layout", side_effect=spy):
        mfdfa._residue_means(*args)
    (layout,) = layouts
    return layout


class TestResidueLayoutCache:
    """The q = {2} layout is built once for the calls that share their
    windows, grids and extent, and held read-only; what it gives is what a
    fresh build gives, bit for bit."""

    def test_a_rolling_sweep_builds_the_layout_once(self):
        # 35 q = {2} calls, one per delta but the reference, on one list of dates
        mfdfa._residue_layout.cache_clear()
        pipeline.run_rolling(rolling_inputs(1, 3062).rv_by_delta, pipeline.RollingSpec())
        info = mfdfa._residue_layout.cache_info()
        assert (info.misses, info.hits) == (1, 34)

    # each layout shares all but one of L, scales, at, lengths and the grid
    # mask with one on explicit scales; the default grids share the union
    @pytest.mark.parametrize("other", [
        _mixed_length_args(explicit=False),
        _mixed_length_args(explicit=True, lengths=(401, 350, 450, 400)),
        _mixed_length_args(explicit=True, at=(0, 37, 149, 200)),
        _mixed_length_args(explicit=True, points=610),
    ], ids=["grid_mask", "lengths", "starts", "extent"])
    def test_layouts_that_differ_get_their_own_entries(self, other):
        calls = (_mixed_length_args(explicit=True), other, _mixed_length_args(explicit=True))
        mfdfa._residue_layout.cache_clear()
        cached = [mfdfa._residue_means(*args) for args in calls]
        info = mfdfa._residue_layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
        assert cached[0][0].tobytes() != cached[1][0].tobytes()
        for (means, routed), args in zip(cached, calls):
            mfdfa._residue_layout.cache_clear()
            fresh_means, fresh_routed = mfdfa._residue_means(*args)
            assert means.tobytes() == fresh_means.tobytes()
            assert routed.tobytes() == fresh_routed.tobytes()

    def test_a_cached_array_cannot_be_written(self):
        m, lead, before, _, _, passes = _layout_of(_mixed_length_args())
        for array in (m, lead, before, *(a for p in passes for a in p[1:])):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_a_delta_with_its_own_layout_matches_fresh_builds(self):
        # extra zero-RV days at delta 60 shorten its windows, so its call
        # comes between calls on the shared layout, in delta order
        data = dict(rolling_inputs(2, 3062).rv_by_delta)
        rv = data[60].rv.copy()
        rv[[700, 1500, 2400]] = 0.0
        data[60] = dataclasses.replace(data[60], rv=rv)
        spec = pipeline.RollingSpec()
        mfdfa._residue_layout.cache_clear()
        cached = pipeline.report_document(pipeline.run_rolling(data, spec))
        info = mfdfa._residue_layout.cache_info()
        assert (info.misses, info.hits) == (2, 33)
        real = mfdfa._residue_means

        def fresh(*args):
            mfdfa._residue_layout.cache_clear()
            return real(*args)

        with mock.patch.object(mfdfa, "_residue_means", side_effect=fresh):
            rebuilt = pipeline.report_document(pipeline.run_rolling(data, spec))
        assert mfdfa._residue_layout.cache_info().misses == 1
        assert json.dumps(cached, indent=2) == json.dumps(rebuilt, indent=2)


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
    """Series laid end to end: each, as a window of that span, gives what it
    gives alone."""

    @pytest.mark.parametrize("order,q_values", [(1, None), (1, [2.0]), (2, None)])
    def test_each_row_as_alone(self, order, q_values):
        # five rows to a span, within the order-1 table's length cap, and
        # windows every quarter row: more than one pass of windows
        stack = _stack_rows(1600)
        n = stack.shape[1]
        config = MfdfaConfig.for_series(n, order, q_values)
        starts = np.arange(0, 4 * n + 1, n // 4)
        assert len(starts) > mfdfa._PASS_POINTS // n
        fallback = "_local_variances" if order == 1 else "segment_variances"
        with mock.patch.object(mfdfa, fallback, wraps=getattr(mfdfa, fallback)) as spy:
            for k, rows in enumerate((stack[:5], stack[5:10], stack[9:])):
                span = rows.ravel()
                surface = fluctuation_function(span, config, starts, n)
                curve = generalized_hurst(surface)
                assert surface.values.shape == (len(starts), len(config.q_values),
                                                len(config.scales))
                assert curve.h_values.shape == (len(starts), len(config.q_values))
                for w, i0 in enumerate(starts):
                    alone = fluctuation_function(span[i0:i0 + n], config)
                    alone_curve = generalized_hurst(alone)
                    np.testing.assert_array_equal(surface.excluded_segments[w],
                                                  alone.excluded_segments)
                    np.testing.assert_allclose(surface.values[w], alone.values,
                                               rtol=1e-12, atol=0)
                    for got, want in ((curve.h_values, alone_curve.h_values),
                                      (curve.stderr, alone_curve.stderr),
                                      (curve.r2, alone_curve.r2)):
                        np.testing.assert_allclose(got[w], want, rtol=1e-12, atol=1e-15)
                if q_values == [2.0]:  # no sum excludes a segment, so none is counted
                    assert not surface.excluded_segments.any()
                elif k == 1:
                    assert surface.excluded_segments[0].sum() > 0  # the constant stretch
        assert spy.call_count > 0  # the guard tripped (every scale at order 2)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_segment_variances_of_a_stack_are_each_row_alone(self, order):
        # bit for bit, with a tail left over at every scale
        stack = profile(_stack_rows(1600)[:, :1597])
        for s in (10, 37, 399):
            got = segment_variances(stack, s, order)
            assert got.shape == (len(stack), 2 * (1597 // s))
            for row, want in zip(stack, got):
                assert segment_variances(row, s, order).tobytes() == want.tobytes()
            deep = segment_variances(stack[:12].reshape(3, 4, -1), s, order)
            assert deep.tobytes() == got[:12].tobytes()

    def test_a_row_with_only_zero_variance_segments_raises(self):
        # alone; as a window of a span it gets NaN, and the other windows do not
        stack = _stack_rows(1600)[:4]
        stack[1] = 1.5  # constant: every segment of every scale has zero variance
        for order in (1, 2):
            config = MfdfaConfig.for_series(1600, order, [-2.0, 2.0])
            with pytest.raises(NumericError,
                               match="all segments have zero variance at scale s = 10"):
                fluctuation_function(stack[1], config)
            surface = fluctuation_function(stack.ravel(), config, 1600 * np.arange(4), 1600)
            assert np.isnan(surface.values[1]).all()
            assert not np.isnan(surface.values[[0, 2, 3]]).any()
            assert (surface.excluded_segments[1] == 2 * (1600 // config.scales)).all()


def _series_that_trip_the_guard():
    rng = np.random.default_rng(0)
    roundoff = np.concatenate([np.full(4000, 0.3), np.full(4000, -0.2),
                               rng.standard_normal(2000)])
    linear = np.diff(np.concatenate([2.0 + 0.5 * np.arange(400.0),
                                     202.0 + np.cumsum(rng.standard_normal(400))]))
    two_level = (np.repeat(np.tile([0.75, 1.25], 20), 50)
                 + np.r_[np.zeros(1000), rng.standard_normal(1000)])[:1600]
    return {"roundoff": roundoff, "linear": linear, "two_level": two_level}


class TestGuard:
    @pytest.mark.parametrize("name", ["roundoff", "linear", "two_level"])
    def test_tripped_scale_is_the_projection(self, name):
        # each tripped segment of the scale, and every other segment
        x = _series_that_trip_the_guard()[name]
        scales = default_scales(len(x))
        with mock.patch.object(mfdfa, "_local_variances",
                               wraps=mfdfa._local_variances) as fallback:
            table, cells = own_table(x, scales)
        tripped = [call.args[2] for call in fallback.call_args_list]
        assert scales[0] in tripped
        for _, at, s in (call.args for call in fallback.call_args_list):
            got = table[list(scales).index(s) * len(x) + at]
            assert_same_variances(got, local_variances(x, s, 1, at), x, s)
        want = np.concatenate([local_variances(x, int(s)) for s in scales])
        assert_same_variances(table[cells], want, x, each_scale(len(x), scales))

    @pytest.mark.parametrize("name", ["roundoff", "linear", "two_level"])
    def test_fallback_projects_one_row_per_tripped_cell(self, name):
        x = _series_that_trip_the_guard()[name]
        with mock.patch.object(mfdfa, "_local_variances",
                               wraps=mfdfa._local_variances) as fallback, \
                mock.patch.object(mfdfa, "_projected_variances",
                                  wraps=mfdfa._projected_variances) as projection:
            own_table(x, default_scales(len(x)))
        assert fallback.call_count == projection.call_count > 0
        for tripped, projected in zip(fallback.call_args_list, projection.call_args_list):
            _, starts, s = tripped.args
            assert projected.args[0].shape == (len(starts), s)

    def test_stationary_profile_takes_no_fallback(self):
        # increments of a stationary series, like the daily log-RV increments
        # of one rolling window
        x = np.diff(np.random.default_rng(1).standard_normal(2901))
        with mock.patch.object(mfdfa, "_local_variances") as fallback:
            own_table(x, default_scales(len(x)))
        fallback.assert_not_called()

    def test_order_2_never_takes_the_prefix_path(self):
        x = np.random.default_rng(2).standard_normal(1000)
        config = MfdfaConfig(q_values=[-2.0, 2.0], scales=default_scales(1000),
                             detrend_order=2)
        with mock.patch.object(mfdfa, "_order1_table",
                               side_effect=AssertionError("table path")):
            surface = fluctuation_function(x, config)
        want, _ = reference_surface(x, config)
        np.testing.assert_allclose(surface.values, want, rtol=1e-12)

    def test_narrow_longdouble_projects_every_scale(self):
        # where longdouble is float64 the running sums cannot carry the
        # cancellation, so no segment takes them
        real = np.finfo

        def narrow(dtype):
            return real(float) if dtype is np.longdouble else real(dtype)

        x = np.random.default_rng(3).standard_normal(1000)
        config = MfdfaConfig(q_values=[-2.0, 2.0], scales=default_scales(1000))
        with mock.patch("numpy.finfo", narrow), \
                mock.patch.object(mfdfa, "_order1_table",
                                  side_effect=AssertionError("table path")):
            surface = fluctuation_function(x, config)
        want, _ = reference_surface(x, config)
        np.testing.assert_allclose(surface.values, want, rtol=1e-12)


class TestSeriesLength:
    """The running sums' roundoff grows with the series' length, so they serve
    series up to a cap."""

    @pytest.mark.parametrize("name", ["fgn_0.1", "fgn_0.3", "white", "offset", "trend"])
    def test_accurate_at_the_length_cap(self, name):
        n = mfdfa._PREFIX_MAX_LENGTH
        rng = np.random.default_rng(7)
        x = {"fgn_0.1": lambda: generate_fgn(0.1, n, 8),
             "fgn_0.3": lambda: generate_fgn(0.3, n, 9),
             "white": lambda: rng.standard_normal(n),
             "offset": lambda: rng.standard_normal(n) + 1e6,
             "trend": lambda: rng.standard_normal(n) + 1e-2 * np.arange(n)}[name]()
        scales = default_scales(n)
        table, cells = own_table(x, scales)
        want = np.concatenate([local_variances(x, int(s)) for s in scales])
        np.testing.assert_allclose(table[cells], want, rtol=1e-12, atol=0)

    def test_path_switches_above_the_cap(self):
        n = mfdfa._PREFIX_MAX_LENGTH
        x = np.random.default_rng(4).standard_normal(n + 1)
        for length, calls in [(n, 1), (n + 1, 0)]:
            config = MfdfaConfig(q_values=[2.0], scales=default_scales(length))
            with mock.patch.object(mfdfa, "_order1_table",
                                   wraps=mfdfa._order1_table) as table:
                fluctuation_function(x[:length], config)
            assert table.call_count == calls

    def test_windows_of_a_longer_span_take_tables(self):
        # one table while the windows' extent fits under the cap; past it,
        # every window is projected
        n = mfdfa._PREFIX_MAX_LENGTH
        x = np.diff(np.random.default_rng(12).standard_normal(n + 2))
        inside = np.arange(0, n - 2000, 500)
        config = MfdfaConfig.for_series(2000)
        for starts, tables in [(inside, 1), (np.r_[inside, n + 1 - 2000], 0)]:
            with mock.patch.object(mfdfa, "_order1_table",
                                   wraps=mfdfa._order1_table) as table:
                surface = fluctuation_function(x, config, starts, 2000)
            assert table.call_count == tables
            assert all(len(call.args[0]) <= n for call in table.call_args_list)
            for w, i0 in enumerate(starts):
                alone = fluctuation_function(x[i0:i0 + 2000], config)
                np.testing.assert_array_equal(surface.excluded_segments[w],
                                              alone.excluded_segments)
                np.testing.assert_allclose(surface.values[w], alone.values, rtol=1e-12, atol=0)

    def test_q2_windows_of_a_longer_span_are_routed_run_by_run(self):
        # a constant stretch in each half of an extent over the cap gives
        # some of the projected windows zero-variance segments, which a grid
        # with a q <= 0 excludes and counts
        n = mfdfa._PREFIX_MAX_LENGTH
        x = np.diff(np.random.default_rng(12).standard_normal(n + 2))
        x[1000:1400] = 0.25
        x[7000:7400] = -0.5
        starts = np.r_[np.arange(0, n - 2000, 500), n + 1 - 2000]
        for q_values in ([2.0], [-1.0, 2.0]):
            config = MfdfaConfig(q_values, None)
            with mock.patch.object(mfdfa, "_order1_table", wraps=mfdfa._order1_table) as table:
                surface = fluctuation_function(x, config, starts, 2000)
            assert table.call_count == 0
            assert surface.excluded_segments.any() == (q_values[0] < 0)
            for w, i0 in enumerate(starts):
                alone = fluctuation_function(x[i0:i0 + 2000], config)
                np.testing.assert_array_equal(surface.excluded_segments[w],
                                              alone.excluded_segments)
                np.testing.assert_allclose(surface.values[w], alone.values, rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("amplitude", [1e-160, 1e-120, 1e120, 1e150])
    def test_q2_sums_match_the_gather_path(self, amplitude):
        # line terms that underflow to subnormals, or garbage slots between
        # classes that overflow, must neither serve a window nor warn
        x = amplitude * np.diff(np.random.default_rng(5).standard_normal(2049))
        starts = np.array([0, 100, 300])
        q2, gathered = (fluctuation_function(x, MfdfaConfig(q, None), starts, 1700)
                        for q in ([2.0], [1.0, 2.0]))
        np.testing.assert_allclose(q2.values[:, 0], gathered.values[:, 1], rtol=1e-12, atol=0)


class TestDefaultScales:
    def test_memoised_and_read_only(self):
        a = default_scales(1000)
        assert a is default_scales(1000)
        assert not a.flags.writeable
        assert a[0] == 10 and a[-1] == 250

    def test_shortest_fittable_length(self):
        # the 3 scales a fit needs start at MIN_FIT_LENGTH points
        assert len(default_scales(MIN_FIT_LENGTH - 1)) == 2
        assert len(default_scales(MIN_FIT_LENGTH)) == 3
        x = np.random.default_rng(8).standard_normal(MIN_FIT_LENGTH)
        config = MfdfaConfig(q_values=[2.0], scales=None)
        assert np.isfinite(generalized_hurst(fluctuation_function(x, config)).h_values).all()
        with pytest.raises(NumericError, match="fewer than 3 scales"):
            generalized_hurst(fluctuation_function(x[:-1], config))
