"""Multifractal detrended fluctuation analysis.

Profile -> bidirectional segmentation -> polynomial detrending -> q-th order
fluctuation function F_q(s) -> generalized Hurst exponents h(q) by log-log
regression.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError


def default_q_values() -> np.ndarray:
    """q grid -3 .. 3 in steps of 0.5 (0 included, handled by its limit form)."""
    return np.arange(-6, 7) / 2.0


def default_scales(series_length: int, lo: int = 10, num: int = 20) -> np.ndarray:
    """About `num` integer scales log-spaced in [lo, N/4]."""
    hi = series_length // 4
    if hi < lo:
        raise DataError(f"series of length {series_length} too short for scales >= {lo}")
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), num))
    return np.unique(np.round(grid).astype(int))


@dataclass(frozen=True)
class MfdfaConfig:
    q_values: np.ndarray
    scales: np.ndarray
    detrend_order: int = 1
    fit_range: tuple[int, int] | None = None  # (s_min, s_max), members of scales

    def __post_init__(self):
        object.__setattr__(self, "q_values", np.asarray(self.q_values, dtype=float))
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=int))
        if self.detrend_order < 1:
            raise ValueError("detrend_order must be >= 1")
        s = self.scales
        if len(s) == 0 or np.any(np.diff(s) <= 0):
            raise ValueError("scales must be strictly increasing and non-empty")
        if s[0] < self.detrend_order + 2:
            raise ValueError("smallest scale must be >= detrend_order + 2")
        if self.fit_range is not None:
            lo, hi = self.fit_range
            if lo not in s or hi not in s:
                raise ValueError("fit_range bounds must be members of scales")

    def validate_length(self, series_length: int) -> None:
        if self.scales[-1] > series_length // 4:
            raise ValueError(
                f"largest scale {self.scales[-1]} exceeds N/4 = {series_length // 4}")

    @classmethod
    def for_series(cls, series_length: int, detrend_order: int = 1,
                   q_values=None, fit_range=None) -> "MfdfaConfig":
        q = default_q_values() if q_values is None else q_values
        return cls(q_values=q, scales=default_scales(series_length),
                   detrend_order=detrend_order, fit_range=fit_range)


@dataclass(frozen=True)
class FluctuationSurface:
    q_values: np.ndarray
    scales: np.ndarray
    values: np.ndarray            # shape (len(q), len(scales)), all > 0
    series_length: int
    config: MfdfaConfig
    excluded_segments: np.ndarray  # per scale: zero-variance segments excluded
                                   # from q<0 sums and the q=0 log-average


@dataclass(frozen=True)
class GHEPoint:
    q: float
    h: float
    stderr: float
    r2: float


@dataclass(frozen=True)
class GHECurve:
    points: list[GHEPoint]
    fit_range: tuple[int, int]

    def point_at(self, q: float) -> GHEPoint:
        for p in self.points:
            if abs(p.q - q) < 1e-9:
                return p
        raise ValueError(f"q = {q} is not on the estimated curve")

    def h_at(self, q: float) -> float:
        return self.point_at(q).h

    @property
    def q_values(self) -> np.ndarray:
        return np.array([p.q for p in self.points])

    @property
    def h_values(self) -> np.ndarray:
        return np.array([p.h for p in self.points])


def profile(series) -> np.ndarray:
    """Cumulative sum of the demeaned series; last entry is 0 up to roundoff."""
    x = np.asarray(series, dtype=float)
    if len(x) < 2:
        raise DataError("need at least 2 points to build a profile")
    return np.cumsum(x - x.mean())


# Largest scale whose projector is kept: above it, building one costs little
# next to the projection, and keeping it would hold O(s) memory per scale.
_PROJECTOR_CACHE_MAX_SCALE = 1024


def _detrend_projector(s: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (pinv(V).T, V.T) for the order-m Vandermonde design V on 0..s-1."""
    design = np.vander(np.arange(s, dtype=float), m + 1)
    pinv = np.linalg.pinv(design)
    design.flags.writeable = False
    pinv.flags.writeable = False
    return pinv.T, design.T


_cached_detrend_projector = functools.lru_cache(maxsize=256)(_detrend_projector)


def segment_variances(Y: np.ndarray, s: int, m: int = 1) -> np.ndarray:
    """Mean squared residual of an order-m polynomial fit per segment.

    2*N_s values: N_s segments from the front of the profile, then N_s from
    the back (covers the tail left over when N is not a multiple of s).
    """
    Y = np.asarray(Y, dtype=float)
    N = len(Y)
    if s > N:
        raise DataError(f"scale {s} exceeds series length {N}")
    if s < m + 2:
        raise ValueError(f"scale {s} too small for detrend order {m}")
    n_seg = N // s
    fwd = Y[: n_seg * s].reshape(n_seg, s)
    bwd = Y[N - n_seg * s:].reshape(n_seg, s)
    seg = np.concatenate([fwd, bwd], axis=0)
    # shared design matrix: one batched projection instead of 2*N_s polyfits
    projector = (_cached_detrend_projector if s <= _PROJECTOR_CACHE_MAX_SCALE
                 else _detrend_projector)
    pinv_t, design_t = projector(s, m)
    coef = seg @ pinv_t
    resid = seg - coef @ design_t
    return (resid ** 2).mean(axis=1)


def aggregate_fluctuation(f2: np.ndarray, q: float) -> float:
    """Collapse segment variances into F_q: the generalized mean of sqrt(F^2).

    q = 0 uses the log-average limit; zero-variance segments are excluded for
    q < 0 and for the log-average (negative moments diverge on them).
    """
    f2 = np.asarray(f2, dtype=float)
    if q == 0 or q < 0:
        f2 = f2[f2 > 0]
        if len(f2) == 0:
            raise NumericError("no positive-variance segments to aggregate")
    if q == 0:
        return float(np.exp(0.5 * np.mean(np.log(f2))))
    return float(np.mean(f2 ** (q / 2.0)) ** (1.0 / q))


def fluctuation_function(series, config: MfdfaConfig) -> FluctuationSurface:
    """F_q(s) over the configured (q, s) grid.

    q = 0 uses the log-average limit; zero-variance segments are excluded from
    q < 0 sums and the log-average, with counts reported per scale. A segment
    counts as zero-variance when F^2 <= (s * eps * max|Y|)^2, the roundoff
    that detrending the profile Y leaves where the series is constant; q > 0
    uses every segment.
    """
    x = np.asarray(series, dtype=float)
    config.validate_length(len(x))
    Y = profile(x)
    qs = config.q_values
    scales = config.scales
    values = np.empty((len(qs), len(scales)))
    excluded = np.zeros(len(scales), dtype=int)
    roundoff = (scales * (np.finfo(float).eps * np.max(np.abs(Y)))) ** 2
    for j, s in enumerate(scales):
        f2 = segment_variances(Y, int(s), config.detrend_order)
        positive = f2[f2 > roundoff[j]]
        excluded[j] = len(f2) - len(positive)
        if len(positive) == 0:
            raise NumericError(f"all segments have zero variance at scale s = {s}")
        for i, q in enumerate(qs):
            values[i, j] = aggregate_fluctuation(f2 if q > 0 else positive, float(q))
    return FluctuationSurface(q_values=qs, scales=scales, values=values,
                              series_length=len(x), config=config,
                              excluded_segments=excluded)


def _ols_loglog(log_s: np.ndarray, log_f: np.ndarray) -> tuple[float, float, float]:
    """Slope, slope standard error, and r^2 of log F on log s."""
    k = len(log_s)
    sx = log_s - log_s.mean()
    sy = log_f - log_f.mean()
    sxx = float(sx @ sx)
    slope = float(sx @ sy) / sxx
    intercept = log_f.mean() - slope * log_s.mean()
    resid = log_f - (intercept + slope * log_s)
    rss = float(resid @ resid)
    tss = float(sy @ sy)
    stderr = float(np.sqrt(rss / (k - 2) / sxx)) if k > 2 else 0.0
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return slope, stderr, r2


def generalized_hurst(surface: FluctuationSurface,
                      fit_range: tuple[int, int] | None = None) -> GHECurve:
    """h(q) as the OLS slope of log F_q(s) vs log s over the fit range."""
    if fit_range is None:
        fit_range = surface.config.fit_range
    if fit_range is None:
        fit_range = (int(surface.scales[0]), int(surface.scales[-1]))
    lo, hi = fit_range
    mask = (surface.scales >= lo) & (surface.scales <= hi)
    if np.count_nonzero(mask) < 3:
        raise NumericError(f"fewer than 3 scales inside fit range {fit_range}")
    log_s = np.log(surface.scales[mask].astype(float))
    points = []
    for i, q in enumerate(surface.q_values):
        slope, stderr, r2 = _ols_loglog(log_s, np.log(surface.values[i, mask]))
        points.append(GHEPoint(q=float(q), h=slope, stderr=stderr, r2=r2))
    return GHECurve(points=points, fit_range=(int(lo), int(hi)))


def mfdfa_h2(series, config: MfdfaConfig | None = None) -> GHEPoint:
    """Convenience: Hurst exponent h(2) with diagnostics for one series."""
    x = np.asarray(series, dtype=float)
    if config is None:
        config = MfdfaConfig(q_values=np.array([2.0]),
                             scales=default_scales(len(x)))
    return generalized_hurst(fluctuation_function(x, config)).point_at(2.0)
