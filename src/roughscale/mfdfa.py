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
MIN_FIT_LENGTH = 4 * (SCALE_MIN + 2)  # shortest series whose default grid has 3 scales


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


@dataclass(frozen=True)
class MfdfaConfig:
    q_values: np.ndarray
    scales: np.ndarray | None  # None: each series' (or window's) own default_scales
    detrend_order: int = 1
    fit_range: tuple[int, int] | None = None  # (s_min, s_max), members of scales

    def __post_init__(self):
        object.__setattr__(self, "q_values", np.asarray(self.q_values, dtype=float))
        if self.scales is not None:
            object.__setattr__(self, "scales", np.asarray(self.scales, dtype=int))
        elif self.fit_range is not None:
            raise ValueError("a fit_range needs explicit scales")
        if not np.isfinite(self.q_values).all():
            raise ValueError(f"q values must be finite, got {self.q_values.tolist()}")
        if self.detrend_order < 1:
            raise ValueError("detrend_order must be >= 1")
        s = [SCALE_MIN] if self.scales is None else self.scales  # default grids start there
        if len(s) == 0 or np.any(np.diff(s) <= 0):
            raise ValueError("scales must be strictly increasing and non-empty")
        if s[0] < self.detrend_order + 2:
            raise ValueError("smallest scale must be >= detrend_order + 2")
        if self.fit_range is not None:
            lo, hi = self.fit_range
            if lo not in s or hi not in s:
                raise ValueError("fit_range bounds must be members of scales")

    def grid(self, series_length: int) -> np.ndarray:
        """The scales of a series of this length, by default its default_scales."""
        if self.scales is None:
            return default_scales(series_length)
        if self.scales[-1] > series_length // 4:
            raise ValueError(
                f"largest scale {self.scales[-1]} exceeds N/4 = {series_length // 4}")
        return self.scales

    @classmethod
    def for_series(cls, series_length: int, detrend_order: int = 1,
                   q_values=None) -> "MfdfaConfig":
        q = default_q_values() if q_values is None else q_values
        return cls(q_values=q, scales=default_scales(series_length),
                   detrend_order=detrend_order)


@dataclass(frozen=True)
class FluctuationSurface:
    """F_q(s) of one series, or of each window of a windowed call.

    The leading axis of `values` and `excluded_segments`, present for a
    windowed call only, is the window.
    """
    q_values: np.ndarray
    scales: np.ndarray
    values: np.ndarray            # shape ([windows,] len(q), len(scales)), > 0 or NaN
    series_length: int            # points in the series
    config: MfdfaConfig
    excluded_segments: np.ndarray  # ([windows,] len(scales)): zero-variance segments
                                   # excluded from q<0 sums and the q=0 log-average


@dataclass(frozen=True)
class GHECurve:
    """h(q) over a q grid: per q, the slope, its standard error and r^2.

    For a windowed surface `h_values`, `stderr` and `r2` are (windows, len(q)).
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

    A 2-D array gives each row's profile.
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
    `reduceat`, whose value for a run does not depend on the other runs, so
    a run alone gives the same bits as in a batch.
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


# A running-sum residual sum of squares over s points is recomputed by
# projection at or below _PREFIX_GUARD longdouble epsilons of the series' sum
# of y^2 (the sums' roundoff stayed below 61 of them against exact rational
# arithmetic on steps, trends and heavy tails) plus (_PROFILE_GUARD * s * eps
# * max|Y|)^2, the longdouble profile's own roundoff where it sits far from 0.
_PREFIX_GUARD = 3e14
_PROFILE_GUARD = 1e14

# Most points one table's running sums span (`_window_groups`): against
# the per-segment projection, over fGn (H 0.05 to 0.85), white noise, offsets,
# trends, steps and a sine, the worst relative error per segment was 4.0e-13
# at 5113 points (the paper's 14-year span), 5.8e-13 at 8192, 2.7e-12 at 16384.
_PREFIX_MAX_LENGTH = 8192

# Points of windows in one pass of `fluctuation_function`, and cells in one
# pass of `_order1_table`: bounded working sets at a small per-pass cost, the
# cells' 64 kB longdouble temporaries below the allocator's mmap threshold.
_PASS_POINTS = 16384
_TABLE_CHUNK = 4096


def _window_groups(first: np.ndarray, lengths: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """The windows x[i0:i0+n] in runs of rising i0 whose extent, from the
    run's first start to its last end, is at most _PREFIX_MAX_LENGTH points,
    as (lo, hi, window indices); a window longer than that is a run alone."""
    starts, ends = first.tolist(), (first + lengths).tolist()
    groups: list[list] = []
    for w in np.argsort(first, kind="stable").tolist():
        if groups and max(groups[-1][1], ends[w]) - groups[-1][0] <= _PREFIX_MAX_LENGTH:
            groups[-1][1] = max(groups[-1][1], ends[w])
            groups[-1][2].append(w)
        else:
            groups.append([starts[w], ends[w], [w]])
    return [(lo, hi, np.array(index)) for lo, hi, index in groups]


def _window_passes(index: np.ndarray, lengths: np.ndarray, columns: dict, scales: np.ndarray,
                   L: int) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """The windows `index`, of the given lengths, in a table over L points, in
    passes of one length n and about _PASS_POINTS points: (window indices, n,
    cells). Length n's grid is `scales[columns[n]]`; a window's segments over
    it, in `segment_variances`' order, are the flat indices j * L + g (column
    j, start g) of its cells plus its start in the table."""
    passes = []
    for n in np.unique(lengths).tolist():
        chosen = index[lengths == n]
        grid = scales[columns[n]]
        counts = 2 * (n // grid)
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        m, s = np.repeat(n // grid, counts), np.repeat(grid, counts)
        backward = k >= m  # the k-th segment of its scale starts at k s, or from the back
        cells = np.repeat(columns[n] * L, counts) + (k - m * backward) * s \
            + backward * (n - m * s)
        step = max(1, _PASS_POINTS // n)
        passes += [(chosen[w0:w0 + step], n, cells) for w0 in range(0, len(chosen), step)]
    return passes


def _local_variances(x: np.ndarray, starts: np.ndarray, s: int) -> np.ndarray:
    """Order-1 variance of the profile segments [g, g+s) of x, g in `starts`,
    each projected from the running sum of its own s-1 increments: a window's
    profile differs from that by a constant and a line, which a linear fit
    does not see. Laid end to end, the segments are the forward ones of one
    `segment_variances` call.
    """
    inc = x[starts[:, None] + np.arange(1, s)]
    seg = np.zeros((len(starts), s))
    np.cumsum(inc - inc[:, :1], axis=1, out=seg[:, 1:])  # a constant run gives exactly 0
    return segment_variances(seg.ravel(), s, 1)[:len(starts)]


def _order1_table(x: np.ndarray, scales: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Order-1 variance of each used cell j * L + g, the segment [g, g+s_j) of
    x's profile; NaN elsewhere.

    A linear fit sees no line, and a window's profile is x's profile minus a
    line, so every window's segments are cells of this one table. A fit's
    residual sum of squares over [g, g+s) is S2 - S1^2/s - 12 D^2/(s(s^2-1)),
    with S1, S2 and D the sums of y, y^2 and (i - g - (s-1)/2) y: differences
    of longdouble running sums, over the profile minus its least-squares line
    on a centred index, which keeps them small. A cell at or below the guard
    floor is recomputed by `_local_variances`.
    """
    L = len(x)
    t = np.arange(L, dtype=np.longdouble) - (L - 1) / 2
    y = np.cumsum(x - x.mean(), dtype=np.longdouble)
    eps = np.finfo(np.longdouble).eps
    reach = _PROFILE_GUARD * eps * np.max(np.abs(y))
    y -= y.mean() + (t @ y) / (t @ t) * t
    sums = np.zeros((3, L + 1), dtype=np.longdouble)
    np.cumsum(y, out=sums[0, 1:])
    np.cumsum(t * y, out=sums[1, 1:])
    np.cumsum(y * y, out=sums[2, 1:])
    size = scales.astype(np.longdouble)
    weight = 12 / (size * (size * size - 1))  # 1 / sum (t - mean t)^2 over a segment
    floor = _PREFIX_GUARD * eps * sums[2, -1] + (reach * size) ** 2
    table = np.full(len(used), np.nan)
    marked = np.flatnonzero(used)
    for c0 in range(0, len(marked), _TABLE_CHUNK):
        cells = marked[c0:c0 + _TABLE_CHUNK]
        j, g = np.divmod(cells, L)
        s = scales[j]
        # one row at a time: a gather from a 2-D longdouble array is ~6x slower
        s1, d, rss = (run[g + s] - run[g] for run in sums)
        d -= (g - (L - s) / 2) * s1  # sum (t - (s-1)/2) y, t the time within the segment
        rss -= s1 * s1 / size[j] + d * d * weight[j]
        table[cells] = rss.astype(float) / s
        tripped = rss <= floor[j]
        for s_t in np.unique(s[tripped]).tolist():
            at = tripped & (s == s_t)
            table[cells[at]] = _local_variances(x, g[at], s_t)
    return table


def _window_variances(x: np.ndarray, first: np.ndarray, lengths: np.ndarray, columns: dict,
                      scales: np.ndarray, order: int):
    """Each pass of the windows x[i0:i0+n]: (window indices, their profiles,
    their segment variances in `segment_variances`' order over the grid
    `scales[columns[n]]`). Order 1 takes the variances of every grid from
    one table per `_window_groups` run that fits the cap; the rest are
    projected window by window."""
    tabled = order == 1 and np.finfo(np.longdouble).eps < np.finfo(float).eps
    for lo, hi, group in _window_groups(first, lengths):
        at = first - lo  # each window's start in the run's span x[lo:hi]
        passes = _window_passes(group, lengths[group], columns, scales, hi - lo)
        table = None
        if tabled and hi - lo <= _PREFIX_MAX_LENGTH:
            used = np.zeros(len(scales) * (hi - lo), dtype=bool)
            for rows, _, cells in passes:
                used[cells + at[rows, None]] = True
            table = _order1_table(x[lo:hi], scales, used)
        for rows, n, cells in passes:
            Y = profile(x[first[rows, None] + np.arange(n)])
            grid = scales[columns[n]].tolist()
            yield rows, Y, (table[cells + at[rows, None]] if table is not None else np.array(
                [np.concatenate([segment_variances(y, s, order) for s in grid]) for y in Y]))


def fluctuation_function(series, config: MfdfaConfig, starts=None,
                         lengths=None) -> FluctuationSurface:
    """F_q(s) over the configured q and scales, of one series or, given
    `starts` and `lengths`, of each window series[i0:i0+n].

    A config without scales gives each window the `default_scales` of its
    length, and the surface the union of those grids: NaN, with no excluded
    segments, at a window's scales outside its own.

    q = 0 uses the log-average limit; zero-variance segments, with F^2 <=
    (s * eps * max|Y|)^2 for the window's own profile Y (the roundoff its
    detrending leaves where the series is constant), are excluded from q < 0
    sums and the log-average, with counts reported per scale. Order-1
    detrending takes the segments of windows whose extent spans at most
    _PREFIX_MAX_LENGTH points from one table over that extent
    (`_order1_table`); a longer window, higher orders, and every order where
    longdouble is no wider than float64, project each window scale by scale.
    A scale whose every segment is zero-variance raises NumericError for a
    series and gives a window NaN.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DataError("need a one-dimensional series")
    windowed = starts is not None
    first = np.atleast_1d(np.asarray(starts if windowed else 0, dtype=np.intp))
    lengths = np.broadcast_to(lengths if windowed else len(x), first.shape)
    grids = {n: config.grid(n) for n in np.unique(lengths).tolist() or [len(x)]}
    if np.any(first < 0) or np.any(first + lengths > len(x)):
        raise DataError(f"a window leaves the series of {len(x)} points")
    qs = config.q_values
    scales = np.unique(np.concatenate(list(grids.values())))
    columns = {n: np.searchsorted(scales, grid) for n, grid in grids.items()}
    values = np.full((len(first), len(qs), len(scales)), np.nan)
    excluded = np.zeros((len(first), len(scales)), dtype=np.intp)
    for rows, Y, f2 in _window_variances(x, first, lengths, columns, scales, config.detrend_order):
        grid = grids[Y.shape[1]]
        counts = 2 * (Y.shape[1] // grid)
        roundoff = (grid * (np.finfo(float).eps * np.max(np.abs(Y), axis=1, keepdims=True))) ** 2
        keep = f2 > np.repeat(roundoff, counts, axis=1)
        kept = np.add.reduceat(keep, np.cumsum(counts) - counts, axis=1, dtype=np.intp)
        excluded[np.ix_(rows, columns[Y.shape[1]])] = counts - kept
        ok = (kept > 0).all(axis=1)
        if not windowed and not ok[0]:
            raise NumericError(f"all segments have zero variance at scale s = "
                               f"{grid[np.argmin(kept[0])]}")
        if not ok.all():
            f2, keep, kept = f2[ok], keep[ok], kept[ok]
        with np.errstate(divide="ignore"):  # log 0 = -inf adds nothing to a q > 0 sum
            log_f2 = np.log(f2, out=f2)
        # _power_means over the windows laid end to end: one run per (window,
        # scale), of every segment for q > 0 and of the kept ones otherwise
        out = np.empty((len(qs), *kept.shape))
        for group, terms, n in ((qs > 0, log_f2, np.broadcast_to(counts, kept.shape)),
                                (qs <= 0, log_f2[keep], kept)):
            if group.any():
                out[group] = _power_means(terms.ravel(), np.cumsum(n) - n.ravel(), qs[group]) \
                    .reshape(np.count_nonzero(group), *kept.shape)
        values[np.ix_(rows[ok], np.arange(len(qs)), columns[Y.shape[1]])] = out.swapaxes(0, 1)
    if not windowed:
        values, excluded = values[0], excluded[0]
    return FluctuationSurface(q_values=qs, scales=scales, values=values, series_length=len(x),
                              config=config, excluded_segments=excluded)


def generalized_hurst(surface: FluctuationSurface) -> GHECurve:
    """h(q) as the OLS slope of log F_q(s) vs log s over the fit range.

    The fit range is the config's, or every scale when it sets none. Slope,
    its standard error and r^2 for every q and window come from one array
    pass over each window's scales with F_q(s) finite at every q; a window
    with fewer than 3 in range gets NaN, a single series raises.
    """
    fit_range = surface.config.fit_range
    if fit_range is None:
        fit_range = (int(surface.scales[0]), int(surface.scales[-1]))
    lo, hi = fit_range
    mask = (surface.scales >= lo) & (surface.scales <= hi)
    if surface.values.ndim == 2 and np.count_nonzero(mask) < 3:
        raise NumericError(f"fewer than 3 scales inside fit range {fit_range}")
    log_s = np.log(surface.scales[mask].astype(float))
    sy = np.log(surface.values[..., mask])
    fit = np.isfinite(sy).all(axis=-2, keepdims=True)  # a window's own grid, none if it failed
    k = np.count_nonzero(fit, axis=-1)
    np.copyto(sy, 0.0, where=~fit)
    sx = np.where(fit, log_s, 0.0)
    dot = functools.partial(np.einsum, "...i,...i->...")  # no (windows, q, scales) temporary
    with np.errstate(divide="ignore", invalid="ignore"):  # where k < 3, the slope is NaN
        sx -= fit * (sx.sum(axis=-1) / k)[..., None]
        sy -= fit * (sy.sum(axis=-1) / k)[..., None]
        sxx = dot(sx, sx)
        slope = np.where(k < 3, np.nan, dot(sy, sx) / sxx)
        tss = dot(sy, sy)
        sy -= slope[..., None] * sx  # the residuals
        rss = dot(sy, sy)
        stderr = np.sqrt(rss / (k - 2) / sxx)
    r2 = 1.0 - rss / np.where(tss > 0, tss, np.inf)  # r^2 = 1 for a flat log F
    return GHECurve(q_values=surface.q_values, h_values=slope, stderr=stderr, r2=r2,
                    fit_range=(int(lo), int(hi)))
