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


SCALE_MIN = 10    # smallest default scale
SCALE_COUNT = 20  # log-spaced points in the default scale grid


@functools.lru_cache(maxsize=256)
def default_scales(series_length: int) -> np.ndarray:
    """About SCALE_COUNT integer scales log-spaced in [SCALE_MIN, N/4], read-only."""
    hi = series_length // 4
    if hi < SCALE_MIN:
        raise DataError(f"series of length {series_length} too short for scales "
                        f">= {SCALE_MIN}")
    grid = np.exp(np.linspace(np.log(SCALE_MIN), np.log(hi), SCALE_COUNT))
    scales = np.unique(np.round(grid).astype(int))
    scales.flags.writeable = False
    return scales


def check_detrend_order(order: int) -> None:
    """The one check of a detrending order: raises ValueError below 1."""
    if order < 1:
        raise ValueError("detrend_order must be >= 1")


@dataclass(frozen=True)
class MfdfaConfig:
    q_values: np.ndarray
    scales: np.ndarray
    detrend_order: int = 1
    fit_range: tuple[int, int] | None = None  # (s_min, s_max), members of scales

    def __post_init__(self):
        object.__setattr__(self, "q_values", np.asarray(self.q_values, dtype=float))
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=int))
        check_detrend_order(self.detrend_order)
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
                   q_values=None) -> "MfdfaConfig":
        q = default_q_values() if q_values is None else q_values
        return cls(q_values=q, scales=default_scales(series_length),
                   detrend_order=detrend_order)


@dataclass(frozen=True)
class FluctuationSurface:
    """F_q(s) of one series, or of each row of a stack of equal-length series.

    The leading axis of `values` and `excluded_segments`, present for a
    stack only, is the row.
    """
    q_values: np.ndarray
    scales: np.ndarray
    values: np.ndarray            # shape ([rows,] len(q), len(scales)), all > 0
    series_length: int
    config: MfdfaConfig
    excluded_segments: np.ndarray  # ([rows,] len(scales)): zero-variance segments
                                   # excluded from q<0 sums and the q=0 log-average


@dataclass(frozen=True)
class GHECurve:
    """h(q) over a q grid: per q, the slope, its standard error and r^2.

    For a stacked surface `h_values`, `stderr` and `r2` are (rows, len(q)).
    """
    q_values: np.ndarray
    h_values: np.ndarray
    stderr: np.ndarray
    r2: np.ndarray
    fit_range: tuple[int, int]

    def index(self, q: float) -> int:
        """Position of q on the grid, matched to 1e-9; ValueError when absent."""
        match = np.flatnonzero(np.abs(self.q_values - q) < 1e-9)
        if len(match) == 0:
            raise ValueError(f"q = {q} is not on the estimated curve")
        return int(match[0])

    def h_at(self, q: float) -> float:
        return float(self.h_values[self.index(q)])


def profile(series) -> np.ndarray:
    """Cumulative sum of the demeaned series; last entry is 0 up to roundoff.

    A (rows, N) stack gives each row's profile.
    """
    x = np.asarray(series, dtype=float)
    if x.shape[-1] < 2:
        raise DataError("need at least 2 points to build a profile")
    return np.cumsum(x - x.mean(axis=-1, keepdims=True), axis=-1)


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
    design = np.vander(np.arange(s, dtype=float), m + 1)
    fit = (seg @ np.linalg.pinv(design).T) @ design.T
    fit -= seg  # minus the residual; squared in place, with no further temporaries
    fit *= fit
    return fit.mean(axis=1)


def _power_means(log_f2: np.ndarray, starts: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """F_q of each run of log F^2 that begins at `starts`: shape (len(qs), len(starts)).

    F_q = exp((logsumexp((q/2) log F^2) - log n) / q), which stays finite where
    (F^2) ** (q/2) would overflow or underflow; q = 0 is exp(mean(log F^2) / 2).
    The logsumexp shifts by the run's largest log F^2 for q > 0 and its
    smallest for q < 0, so every exponent is <= 0. Every sum is one
    `reduceat`, whose value for a run does not depend on the other runs or
    rows, so a run alone gives the same bits as in a batch.
    """
    counts = np.diff(np.append(starts, len(log_f2)))
    out = np.empty((len(qs), len(starts)))
    zero = qs == 0
    if zero.any():
        out[zero] = np.exp(0.5 * (np.add.reduceat(log_f2, starts) / counts))
    for rows, extreme in ((qs > 0, np.maximum), (qs < 0, np.minimum)):
        if rows.any():
            q = qs[rows, None]
            ref = extreme.reduceat(log_f2, starts)
            ref[ref == -np.inf] = 0.0  # a run of zero variances: F_q = 0
            terms = (q / 2.0) * (log_f2 - np.repeat(ref, counts))
            total = np.add.reduceat(np.exp(terms, out=terms), starts, axis=1)
            with np.errstate(divide="ignore"):
                out[rows] = np.exp(ref / 2.0 + (np.log(total) - np.log(counts)) / q)
    return out


def aggregate_fluctuation(f2: np.ndarray, q: float) -> float:
    """Collapse segment variances into F_q: the generalized mean of sqrt(F^2).

    q = 0 uses the log-average limit; zero-variance segments are excluded for
    q < 0 and for the log-average (negative moments diverge on them).
    """
    f2 = np.asarray(f2, dtype=float)
    if q <= 0:
        f2 = f2[f2 > 0]
        if len(f2) == 0:
            raise NumericError("no positive-variance segments to aggregate")
    with np.errstate(divide="ignore"):  # log 0 = -inf adds nothing to a q > 0 sum
        log_f2 = np.log(f2)
    return float(_power_means(log_f2, np.zeros(1, dtype=np.intp), np.array([float(q)]))[0, 0])


# A prefix-sum residual sum of squares at or below this many longdouble
# epsilons of the window's sum of y^2 is recomputed by projection. Against
# exact rational arithmetic on adversarial series (steps, trends, heavy tails,
# N <= 800) the sums' roundoff stayed below 61 such epsilons, so a segment
# above the floor carries a relative error of a few 1e-13 at most.
_PREFIX_GUARD = 3e14

# Longest series whose order-1 variances come from the running sums. Their
# roundoff grows with N: against the projection, over fGn (H 0.05 to 0.85),
# white noise, offsets, trends and steps, the worst relative error per
# segment was 1.4e-13 at N = 4096 but 5.9e-13 at 8192 and 6e-12 at 2^20,
# where the guard also sends most scales to the projection anyway.
_PREFIX_MAX_LENGTH = 4096


@functools.lru_cache(maxsize=64)
def _prefix_layout(N: int, scales: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Where every segment of every scale lies, for one (N, scales) pair.

    Read-only arrays: per segment, scale by scale, starts, ends and shift
    (p - N//2 + (s-1)/2 as longdouble), then per scale counts (2 N_s), size
    (s as longdouble) and weight (12 / (s (s^2 - 1)), which is
    1 / sum (t - mean t)^2). Building them takes about a sixth of an
    `_order1_variances` call; at N = _PREFIX_MAX_LENGTH with the default
    scales they hold 120 kB.
    """
    sc = np.array(scales)
    n_seg = N // sc
    counts = 2 * n_seg
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    n = np.repeat(n_seg, counts)
    s = np.repeat(sc, counts)
    backward = k >= n
    starts = (k - n * backward) * s + backward * (N - n * s)
    size = sc.astype(np.longdouble)
    layout = (starts, starts + s,
              (starts - N // 2).astype(np.longdouble) + np.repeat((size - 1) / 2, counts),
              counts, size, 12 / (size * (size * size - 1)))
    for a in layout:
        a.flags.writeable = False
    return layout


def _segment_sums(run: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per row, the sum of run[:, 1:] over every segment [start, end).

    Turns run[:, 1:] into its running sum in place; run[:, 0] must be 0.
    """
    np.cumsum(run[:, 1:], axis=1, out=run[:, 1:])
    total = run.take(ends, axis=1)
    total -= run.take(starts, axis=1)
    return total


def _order1_variances(Y: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """segment_variances(Y, s, 1) for every scale at once, concatenated.

    A linear fit's residual sum of squares over [p, p+s) is
    S2 - S1^2/s - (T1 - (s-1)/2 S1)^2 / (s(s^2-1)/12), with S1, S2, T1 the
    sums of y, y^2 and (i-p) y over the segment: differences of three running
    sums, one pass over the profile whatever the number of scales. The sums
    are longdouble, which the cancellation needs, and run over the profile
    minus its mean line (invisible to a linear fit) on a centred index, which
    keeps them small. Returns the variances and the segment count per scale.
    A scale with a segment near the sums' roundoff (constant or linear
    stretches of Y) is recomputed by `segment_variances`. Y may be a
    (rows, N) stack of profiles; each row gives the bits it gives alone,
    with its own guard.
    """
    N = Y.shape[-1]
    rows = Y.reshape(-1, N)
    starts, ends, shift, counts, size, weight = _prefix_layout(N, tuple(scales.tolist()))
    i = np.arange(N) - (N - 1) / 2
    index = np.arange(-(N // 2), N - N // 2, dtype=np.longdouble)  # centred: small sums
    # each row minus its least-squares line, after the 0 that starts a running sum
    y = np.zeros((len(rows), N + 1), dtype=np.longdouble)
    # the one-row product per row: a matrix-vector product may sum in
    # another order and so change a row's bits
    slope = np.array([i @ row for row in rows]) / (i @ i)
    np.multiply(index, slope[:, None].astype(np.longdouble), out=y[:, 1:])
    y[:, 1:] += rows.mean(axis=1, keepdims=True).astype(np.longdouble)
    np.subtract(rows, y[:, 1:], out=y[:, 1:])
    # per segment s1 = sum y, d = sum (i - N//2) y, rss = sum y^2, one
    # running sum at a time; the last reuses y's own buffer
    run = y.copy()
    s1 = _segment_sums(run, starts, ends)
    np.multiply(y[:, 1:], index, out=run[:, 1:])
    d = _segment_sums(run, starts, ends)
    del run
    np.multiply(y, y, out=y)
    rss = _segment_sums(y, starts, ends)
    floor = _PREFIX_GUARD * np.finfo(np.longdouble).eps * y[:, -1:]
    del y  # free the running sums before the per-segment temporaries
    # in place, rss -= s1^2 / s + d^2 / sum (t - mean t)^2
    d -= shift * s1  # sum (t - (s-1)/2) y, t the time within the segment
    s1 *= s1
    s1 /= np.repeat(size, counts)
    rss -= s1
    d *= d
    d *= np.repeat(weight, counts)
    rss -= d
    f2 = rss.astype(float) / np.repeat(scales, counts)
    offsets = np.cumsum(counts) - counts
    for r, j in zip(*np.nonzero(np.minimum.reduceat(rss, offsets, axis=1) <= floor)):
        f2[r, offsets[j]:offsets[j] + counts[j]] = segment_variances(rows[r], int(scales[j]), 1)
    return f2.reshape(*Y.shape[:-1], -1), counts


# Points of a stack that `fluctuation_function` takes through one pass: it caps
# the working set (about 80 bytes a point, most of it longdouble) while the
# per-pass overhead stays small next to the longdouble arithmetic.
_PASS_POINTS = 16384


def fluctuation_function(series, config: MfdfaConfig) -> FluctuationSurface:
    """F_q(s) over the configured (q, s) grid, of one series or of each row of a
    (rows, N) stack of equal-length series.

    q = 0 uses the log-average limit; zero-variance segments are excluded from
    q < 0 sums and the log-average, with counts reported per scale. A segment
    counts as zero-variance when F^2 <= (s * eps * max|Y|)^2, the roundoff
    that detrending the profile Y leaves where the series is constant; q > 0
    uses every segment. Order-1 detrending of a series of at most
    _PREFIX_MAX_LENGTH points takes every scale from one set of longdouble
    running sums (`_order1_variances`); longer series, higher orders, and
    every order where longdouble is no wider than float64, project scale by
    scale. A series is the one-row stack: the rows go through in passes of
    about _PASS_POINTS points, and every row's values are the bits it gets
    alone. NumericError when any row has a scale whose every segment is
    zero-variance.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim not in (1, 2):
        raise DataError("need a series or a (rows, N) stack of series")
    N = x.shape[-1]
    config.validate_length(N)
    rows = x.reshape(-1, N)
    qs = config.q_values
    scales = config.scales
    values = np.empty((len(rows), len(qs), len(scales)))
    excluded = np.empty((len(rows), len(scales)), dtype=np.intp)
    step = max(1, _PASS_POINTS // N)
    for r0 in range(0, len(rows), step):
        _fluctuation_pass(rows[r0:r0 + step], config, values[r0:r0 + step],
                          excluded[r0:r0 + step])
    return FluctuationSurface(q_values=qs, scales=scales,
                              values=values.reshape(*x.shape[:-1], *values.shape[1:]),
                              series_length=N, config=config,
                              excluded_segments=excluded.reshape(*x.shape[:-1], -1))


def _fluctuation_pass(x: np.ndarray, config: MfdfaConfig, values: np.ndarray,
                      excluded: np.ndarray) -> None:
    """`fluctuation_function` of the rows of x, written to values and excluded."""
    Y = profile(x)
    N = x.shape[1]
    qs = config.q_values
    scales = config.scales
    if (config.detrend_order == 1 and N <= _PREFIX_MAX_LENGTH
            and np.finfo(np.longdouble).eps < np.finfo(float).eps):
        f2, counts = _order1_variances(Y, scales)
    else:
        counts = 2 * (N // scales)
        f2 = np.empty((len(Y), counts.sum()))
        for y, out in zip(Y, f2):
            np.concatenate([segment_variances(y, int(s), config.detrend_order)
                            for s in scales], out=out)
    offsets = np.cumsum(counts) - counts
    roundoff = (scales * (np.finfo(float).eps * np.max(np.abs(Y), axis=1, keepdims=True))) ** 2
    keep = f2 > np.repeat(roundoff, counts, axis=1)
    kept = np.add.reduceat(keep, offsets, axis=1, dtype=np.intp)
    empty = np.argwhere(kept == 0)
    if len(empty):
        raise NumericError(f"all segments have zero variance at scale s = {scales[empty[0, 1]]}")
    with np.errstate(divide="ignore"):  # log 0 = -inf adds nothing to a q > 0 sum
        log_f2 = np.log(f2, out=f2)
    # _power_means over the rows laid end to end: one run per (row, scale)
    positive = qs > 0
    if positive.any():
        runs = (offsets + log_f2.shape[1] * np.arange(len(Y))[:, None]).ravel()
        values[:, positive] = _power_means(log_f2.ravel(), runs, qs[positive]) \
            .reshape(-1, *kept.shape).swapaxes(0, 1)
    if not positive.all():
        runs = np.cumsum(kept) - kept.ravel()
        values[:, ~positive] = _power_means(log_f2[keep], runs, qs[~positive]) \
            .reshape(-1, *kept.shape).swapaxes(0, 1)
    np.subtract(counts, kept, out=excluded)


def generalized_hurst(surface: FluctuationSurface) -> GHECurve:
    """h(q) as the OLS slope of log F_q(s) vs log s over the fit range.

    The fit range is the config's, or every scale when it sets none. Slope,
    its standard error and r^2 for every q, and every row of a stacked
    surface, come from one array pass.
    """
    fit_range = surface.config.fit_range
    if fit_range is None:
        fit_range = (int(surface.scales[0]), int(surface.scales[-1]))
    lo, hi = fit_range
    mask = (surface.scales >= lo) & (surface.scales <= hi)
    k = np.count_nonzero(mask)
    if k < 3:
        raise NumericError(f"fewer than 3 scales inside fit range {fit_range}")
    log_s = np.log(surface.scales[mask].astype(float))
    # each (q, k) block column-major, the layout a 2-D values[:, mask] copy
    # has: the matrix-vector product's summation order, and so a row's
    # bits, depend on it
    v = surface.values
    log_f = np.empty((*v.shape[:-2], k, v.shape[-2])).swapaxes(-1, -2)
    np.compress(mask, v, axis=-1, out=log_f)
    np.log(log_f, out=log_f)
    sx = log_s - log_s.sum() / k
    sy = log_f - log_f.sum(axis=-1, keepdims=True) / k
    sxx = sx @ sx
    slope = (sy @ sx) / sxx
    resid = sy - slope[..., None] * sx
    rss = (resid * resid).sum(axis=-1)
    tss = (sy * sy).sum(axis=-1)
    stderr = np.sqrt(rss / (k - 2) / sxx)
    r2 = 1.0 - rss / np.where(tss > 0, tss, np.inf)  # r^2 = 1 for a flat log F
    return GHECurve(q_values=surface.q_values, h_values=slope, stderr=stderr, r2=r2,
                    fit_range=(int(lo), int(hi)))
