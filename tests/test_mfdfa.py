from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughscale import mfdfa
from roughscale.errors import DataError, NumericError
from roughscale.mfdfa import (MIN_FIT_LENGTH, SCALE_MIN, FluctuationSurface, MfdfaConfig,
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

    def test_windows_fit_their_own_finite_scales(self):
        # a window fits the scales of its own grid, and one with fewer than 3
        # of them, or none (a failed window), gets NaN with no warning
        scales = np.array([10, 20, 40, 80])
        config = MfdfaConfig(q_values=[2.0], scales=scales)
        values = np.array([scales ** 0.3, scales ** 0.7, scales ** 0.5, scales ** 0.5,
                           np.full(4, np.nan)], dtype=float)[:, None, :]
        values[1, :, 3] = values[2, :, 1:3] = np.nan
        surface = FluctuationSurface(q_values=config.q_values, scales=scales, values=values,
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
    (F^2)^(q/2) per q."""
    x = np.asarray(series, dtype=float)
    Y = profile(x)
    roundoff = (config.scales * (np.finfo(float).eps * np.max(np.abs(Y)))) ** 2
    values = np.empty((len(config.q_values), len(config.scales)))
    excluded = np.zeros(len(config.scales), dtype=int)
    for j, s in enumerate(config.scales):
        f2 = (local_variances(x, int(s), config.detrend_order) if local
              else segment_variances(Y, int(s), config.detrend_order))
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


def own_table(x, scales):
    """The order-1 table of the series x with its own segments' cells in use,
    and those cells in `segment_variances`' order."""
    (_, _, cells), = mfdfa._window_passes(np.zeros(1, dtype=np.intp), np.array([len(x)]),
                                          {len(x): np.arange(len(scales))}, scales, len(x))
    used = np.zeros(len(scales) * len(x), dtype=bool)
    used[cells] = True
    return mfdfa._order1_table(x, scales, used), cells


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
    def test_each_window_as_alone(self, case):
        # at the scales of its own grid; NaN, with nothing excluded, elsewhere
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
                want = generalized_hurst(alone)
            except NumericError:  # a default grid of 2 scales, below MIN_FIT_LENGTH
                assert n < MIN_FIT_LENGTH and np.isnan(curve.h_values[w]).all()
                continue
            for got, alone_fit in ((curve.h_values, want.h_values), (curve.stderr, want.stderr),
                                   (curve.r2, want.r2)):
                np.testing.assert_allclose(got[w], alone_fit, rtol=1e-12, atol=1e-14)

    def test_windows_must_lie_in_the_series(self):
        config = MfdfaConfig.for_series(100)
        with pytest.raises(DataError, match="a window leaves the series of 200 points"):
            fluctuation_function(np.ones(200), config, [0, 101], 100)


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
                if k == 1:
                    assert surface.excluded_segments[0].sum() > 0  # the constant stretch
        assert spy.call_count > 0  # the guard tripped (every scale at order 2)

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
        # one table per run of windows whose extent fits under the cap; only
        # a window longer than the cap is projected
        n = mfdfa._PREFIX_MAX_LENGTH
        x = np.diff(np.random.default_rng(12).standard_normal(n + 2))
        inside = np.arange(0, n - 2000, 500)
        config = MfdfaConfig.for_series(2000)
        for starts, tables in [(inside, 1), (np.r_[inside, n + 1 - 2000], 2)]:
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

    def test_shortest_fittable_length(self):
        # the 3 scales a fit needs start at MIN_FIT_LENGTH points
        assert len(default_scales(MIN_FIT_LENGTH - 1)) == 2
        assert len(default_scales(MIN_FIT_LENGTH)) == 3
        x = np.random.default_rng(8).standard_normal(MIN_FIT_LENGTH)
        config = MfdfaConfig(q_values=[2.0], scales=None)
        assert np.isfinite(generalized_hurst(fluctuation_function(x, config)).h_values).all()
        with pytest.raises(NumericError, match="fewer than 3 scales"):
            generalized_hurst(fluctuation_function(x[:-1], config))
