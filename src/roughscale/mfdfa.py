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
    scales: np.ndarray
    values: np.ndarray            # ([windows,] len(config.q_values), len(scales)), > 0 or NaN
    series_length: int            # points in the series
    config: MfdfaConfig
    excluded_segments: np.ndarray  # ([windows,] len(scales)): zero-variance segments
                                   # excluded from q<0 sums and the q=0 log-average;
                                   # 0 for a q grid without q <= 0


@dataclass(frozen=True)
class GHECurve:
    """h(q) over a q grid: per q, the slope, its standard error and r^2.

    For a windowed surface `h_values`, `stderr` and `r2` are (windows, len(q)).
    """
    q_values: np.ndarray
    h_values: np.ndarray
    stderr: np.ndarray
    r2: np.ndarray

    def index(self, q: float) -> int:
        """Position of q on the grid, matched to 1e-9; ValueError when absent."""
        match = np.flatnonzero(np.abs(self.q_values - q) < 1e-9)
        if len(match) == 0:
            raise ValueError(f"q = {q} is not on the estimated curve")
        return int(match[0])

    def h_at(self, q: float) -> float | np.ndarray:
        """h(q): a float for one series, one value per window for a windowed curve."""
        h = self.h_values[..., self.index(q)]
        return float(h) if h.ndim == 0 else h


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

    2*N_s values per profile, on the last axis of `Y` ((N,) or (..., N)): N_s segments from
    the front, then N_s from the back (covering the tail when s does not divide N).
    """
    Y = np.asarray(Y, dtype=float)
    N = Y.shape[-1]
    if s > N:
        raise DataError(f"scale {s} exceeds series length {N}")
    if s < m + 2:
        raise ValueError(f"scale {s} too small for detrend order {m}")
    n_seg = N // s
    fwd = Y[..., : n_seg * s].reshape(*Y.shape[:-1], n_seg, s)
    bwd = Y[..., N - n_seg * s:].reshape(*Y.shape[:-1], n_seg, s)
    return _projected_variances(np.concatenate([fwd, bwd], axis=-2), m)


def _projected_variances(seg: np.ndarray, m: int) -> np.ndarray:
    """Mean squared residual of an order-m polynomial fit along the last axis of `seg`."""
    # shared design matrix: one batched projection instead of a polyfit a row
    design = np.vander(np.arange(seg.shape[-1], dtype=float), m + 1)
    fit = (seg @ np.linalg.pinv(design).T) @ design.T
    fit -= seg  # minus the residual; squared in place, with no further temporaries
    fit *= fit
    return fit.mean(axis=-1)


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
# A cell's roundoff in those sums, in longdouble epsilons of the sum of y^2,
# as `_residue_means` bounds it: twice the 61 measured.
_CELL_ROUNDOFF = 128

# Most points one table's running sums span, the windows' extent: against
# the per-segment projection, over fGn (H 0.05 to 0.85), white noise, offsets,
# trends, steps and a sine, the worst relative error per segment was 4.0e-13
# at 5113 points (the paper's 14-year span), 5.8e-13 at 8192, 2.7e-12 at 16384.
_PREFIX_MAX_LENGTH = 8192

# Points of windows in one pass of `fluctuation_function`, and slots of
# residue classes in one pass of `_residue_means`: bounded working sets at a
# small per-pass cost.
_PASS_POINTS = 16384

# A q = {2} window's F_2^2 from the running sums (`_residue_means`), its
# telescoped sum of y^2 less its cells' float64 line terms, goes to the
# gather path where the subtraction's roundoff bound exceeds this share of
# it; so does one at most 2m (s reach)^2.
_RESIDUE_GUARD = 1e-12


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
    does not see.
    """
    inc = x[starts[:, None] + np.arange(1, s)]
    seg = np.zeros((len(starts), s))
    np.cumsum(inc - inc[:, :1], axis=1, out=seg[:, 1:])  # a constant run gives exactly 0
    return _projected_variances(seg, 1)


def _running_sums(x: np.ndarray) -> tuple[np.ndarray, np.longdouble]:
    """Longdouble running sums of y, t y and y^2, rows of (3, L+1) from 0,
    with y x's profile minus its least-squares line on the centred index t,
    which keeps them small; and the profile's roundoff reach, _PROFILE_GUARD
    longdouble epsilons of its largest magnitude."""
    L = len(x)
    t = np.arange(L, dtype=np.longdouble) - (L - 1) / 2
    y = np.cumsum(x - x.mean(), dtype=np.longdouble)
    reach = _PROFILE_GUARD * np.finfo(np.longdouble).eps * np.max(np.abs(y))
    y -= y.mean() + (t @ y) / (t @ t) * t
    sums = np.zeros((3, L + 1), dtype=np.longdouble)
    np.cumsum(y, out=sums[0, 1:])
    np.cumsum(t * y, out=sums[1, 1:])
    np.cumsum(y * y, out=sums[2, 1:])
    return sums, reach


def _segment_moments(sums, lower, upper, centre) -> tuple[np.ndarray, np.ndarray]:
    """S1 and D of the segments [g, g+s) whose running sums, in the rows
    sums[0] and sums[1] of `_running_sums` or a gather from them, are read at
    `lower` (g) and `upper` (g+s), index arrays or slices: the sums of y and
    of (i - g - (s-1)/2) y, the second from sums of t y by the shift `centre`
    = g - (L-s)/2 of t's origin to each segment's middle."""
    s1, d = (run[upper] - run[lower] for run in sums[:2])
    d -= centre * s1
    return s1, d


def _order1_table(x: np.ndarray, scales: np.ndarray, used: np.ndarray,
                  running: tuple[np.ndarray, np.longdouble]) -> np.ndarray:
    """Order-1 variance of each used cell j * L + g, the segment [g, g+s_j) of
    x's profile; NaN elsewhere. `running` is `_running_sums(x)`.

    A linear fit sees no line, and a window's profile is x's profile minus a
    line, so every window's segments are cells of this one table. A fit's
    residual sum of squares over [g, g+s) is S2 - S1^2/s - 12 D^2/(s(s^2-1)),
    with S1 and D from `_segment_moments` and S2 the sum of y^2, all
    longdouble, one scale's row at a time. A cell at or below the guard
    floor is recomputed by `_local_variances`.
    """
    sums, reach = running
    L = len(x)
    table = np.full(len(used), np.nan)
    for j, s in enumerate(scales.tolist()):
        g = np.flatnonzero(used[j * L:(j + 1) * L])
        size = np.longdouble(s)
        weight = 12 / (size * (size * size - 1))  # 1 / sum (t - mean t)^2 over a segment
        floor = _PREFIX_GUARD * np.finfo(np.longdouble).eps * sums[2, -1] + (reach * size) ** 2
        # one row of the sums at a time: a gather from a 2-D longdouble array is ~6x slower
        s1, d = _segment_moments(sums, g, g + s, g - (L - s) / 2)
        rss = sums[2][g + s] - sums[2][g]
        rss -= s1 * s1 / size + d * d * weight
        table[j * L + g] = rss.astype(float) / s
        tripped = rss <= floor
        if tripped.any():
            table[j * L + g[tripped]] = _local_variances(x, g[tripped], s)
    return table


@functools.lru_cache(maxsize=2)
def _residue_layout(L: int, step: int, *keys: tuple) -> tuple:
    """`_residue_means`' layout over L points, read-only: m, the runs' first
    points and the slots before them, the slot count, each scale's class
    blocks (first slot, end, slots a block) and passes of `step` slots (first
    slot, points, centre shifts, s, weights w, real). `keys` are the (bytes,
    dtype, shape) of scales, at, lengths and the grid mask: no value of x
    goes in."""
    scales, at, lengths, on = (np.frombuffer(b, dtype).reshape(shape) for b, dtype, shape in keys)
    m = np.where(on, lengths[:, None] // scales, 0)  # cells a run, 0 off a window's grid
    # a window at a of n points: m = n // s forward cells from a, m backward ones to a+n
    lead = np.stack([at[:, None] + 0 * m, (at + lengths)[:, None] - m * scales])
    lead[:, ~on] = 0
    offset = np.cumsum(scales) - scales  # class r of scale j is offset[j] + r
    cls = offset + lead % scales
    read = np.zeros(int(scales.sum()), dtype=bool)
    read[cls[:, on]] = True
    blocks = np.flatnonzero(read)
    j = np.searchsorted(offset, blocks, side="right") - 1
    k = L // scales[j] + 2
    first = np.cumsum(k) - k
    slot = np.zeros(len(read), dtype=np.intp)
    slot[blocks] = first
    before = slot[cls] + lead // scales  # slot before the forward and the backward run
    points = np.empty(int(k.sum()), dtype=np.intp)  # slot i of class r's block: r + i s
    rows = []
    r = blocks - offset[j]
    heads = np.flatnonzero(np.r_[True, j[1:] != j[:-1]]).tolist()  # each scale's first block
    for b, e, c0, kk, s in zip(heads, heads[1:] + [len(j)], first[heads].tolist(),
                               k[heads].tolist(), scales[j[heads]].tolist()):
        c1 = c0 + (e - b) * kk
        np.add(r[b:e, None], np.arange(0, kk * s, s), out=points[c0:c1].reshape(e - b, kk))
        rows.append((c0, c1, kk))
    passes = []
    for c0 in range(1, len(points), step):
        # a slot's point rises by s inside a block, and falls at a block's first
        # slot, from past L to r < s: a slot is a cell where it rises to at most L
        point = points[c0 - 1:c0 + step]
        s = np.diff(point)  # the scale of each slot that is a cell
        clipped = np.minimum(point, L)
        passes.append((c0, clipped, clipped[:-1] - (L - s) / 2, s, 12 / (s * (s * s - 1.0)),
                       (s > 0) & (point[1:] <= L)))
    for held in (m, lead, before, *(a for p in passes for a in p[1:])):
        held.flags.writeable = False
    return m, lead, before, len(points), tuple(rows), tuple(passes)


@np.errstate(over="ignore", invalid="ignore")  # what overflows routes its windows
def _residue_means(x: np.ndarray, running: tuple[np.ndarray, np.longdouble],
                   scales: np.ndarray, at: np.ndarray, lengths: np.ndarray,
                   columns: dict) -> tuple[np.ndarray, np.ndarray]:
    """F_2^2 of the windows at `at` in x at each scale of their grids (NaN off
    them), from `running` = `_running_sums(x)`, and which windows to route to
    the gather path instead.

    A window's F_2^2 2 m s is the sum of its runs' cells' residual sums of
    squares S2 - (S1^2/s + w D^2), w = 12/(s(s^2-1)). The S2 part telescopes
    along each run: y^2's longdouble running sum read where the run starts
    and m s later, at a and a+ms forward, a+n-ms and a+n backward. The line
    terms S1^2/s + w D^2 are formed in float64 from S1 and D
    (`_segment_moments`) cast, for the cells of the residue classes mod s
    that the runs lie in, and summed in longdouble along each class, so
    a run's sum is the difference of two of those running sums. Each class r
    read is a block of k = L // s + 2 slots, in order of (s, r): slot i stands
    for the point r + i s and the cell [r + (i-1) s, r + i s) ending there, a
    cell while i >= 1 and the point is at most L. A run of m cells after slot
    t takes slots t+1 .. t+m, and t+m <= k-1 as a run ends at most at L. The
    subtraction is longdouble, and its result cast. The slots, and each
    slot's centre shift and w, depend on the windows alone and are cached
    across calls (`_residue_layout`).

    A window is routed where its result is at most 2m (s reach)^2, the
    profile's roundoff that the table's floor holds each cell clear of, there
    for the cells' mean. It is routed too where the roundoff bound of the
    subtraction exceeds _RESIDUE_GUARD of the result: 4 eps of the line terms
    for their casts and float64 arithmetic; 2m _CELL_ROUNDOFF eps_ld of the
    sum of y^2 for the cells' S1 and D; L eps_ld of the S2 reads at the runs'
    ends for y^2's running sum; m eps_ld of the class sums at both run ends;
    eps of the result for its cast; and 2m float64 tinies for underflow. A
    spike before the window, whose square dwarfs the window's own terms,
    trips it. A line term or a sum that overflows leaves its windows' results
    non-finite, which routes them too. A scale of only zero-variance cells
    sums to roundoff, under the floor and within the bound, so its window is
    routed, and the gather path gives it NaN.
    """
    L, (sums, reach) = len(x), running
    on = np.zeros((len(at), len(scales)), dtype=bool)  # each window's grid
    for n in np.unique(lengths).tolist():
        on[np.ix_(lengths == n, columns[n])] = True
    key = ((a.tobytes(), a.dtype.str, a.shape) for a in (scales, at, lengths, on))
    m, lead, before, size, rows, passes = _residue_layout(L, _PASS_POINTS, *key)
    C = np.zeros(size, dtype=np.longdouble)  # the line terms, slot by slot
    for c0, point, centre, s, weight, real in passes:
        s1, d = _segment_moments([run[point] for run in sums[:2]], slice(None, -1),
                                 slice(1, None), centre)
        line = s1.astype(float)  # S1^2/s + w D^2 in float64
        line *= line
        line /= s
        d = d.astype(float)
        d *= d
        d *= weight
        line += d
        np.copyto(C[c0:c0 + len(s)], line, where=real)
    for c0, c1, kk in rows:  # running sums along each class's block, a scale's blocks at a time
        runs = C[c0:c1].reshape(-1, kk)
        np.cumsum(runs, axis=-1, out=runs)
    ms = m * scales
    last = C[before + m]
    lines = (last - C[before]).sum(axis=0)
    reads = sums[2][lead + ms]  # each run ends m s after it starts
    total = ((reads - sums[2][lead]).sum(axis=0) - lines).astype(float)
    eps, eps_ld = np.finfo(float).eps, np.finfo(np.longdouble).eps
    error = (eps * (4 * lines.astype(float) + total) + 2 * m * np.finfo(float).tiny
             + (eps_ld * ((L * reads + m * last).sum(axis=0)
                          + 2 * m * _CELL_ROUNDOFF * sums[2, -1])).astype(float))
    floor = (2 * m * (reach * scales) ** 2).astype(float)
    routed = on & ~((error <= _RESIDUE_GUARD * total) & (total > floor))
    return np.where(on, total / np.maximum(2 * ms, 1), np.nan), routed.any(axis=1)


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
    sums and the log-average, with counts reported per scale where the grid
    holds a q <= 0 (0 otherwise, where no sum excludes them). A scale whose
    every segment is zero-variance raises NumericError for a series and gives
    a window NaN, whatever the grid.

    Order-1 detrending gathers every grid's segments from one table over the
    windows' extent, from their first start to their last end
    (`_order1_table`), when that extent spans at most _PREFIX_MAX_LENGTH
    points; a longer extent, higher orders, and every order where longdouble
    is no wider than float64, project a pass of windows a scale at a time
    (`_window_passes`).

    With a q grid of exactly {2}, the extent's running sums serve the
    windows first, with no table, profile or power means (`_residue_means`):
    each F_2^2 is its runs' telescoped sum of y^2 less their cells' line
    terms, float64 from longdouble S1 and D and summed along residue
    classes, whose layout calls with the same windows and grids share. A
    window is gathered as above instead where a bound on that subtraction's
    roundoff could show, as it can where a scale holds only zero-variance
    segments.
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
    tabled = config.detrend_order == 1 and np.finfo(np.longdouble).eps < np.finfo(float).eps
    lo = int(first.min(initial=len(x)))  # the windows' extent x[lo:hi]; empty with no windows
    hi = int((first + lengths).max(initial=lo))
    at = first - lo  # each window's start in the extent
    index = np.arange(len(first))  # the windows left to gather or project
    running = None
    if tabled and 0 < hi - lo <= _PREFIX_MAX_LENGTH:
        running = _running_sums(x[lo:hi])
        if np.array_equal(qs, [2.0]):  # F_2 from the running sums
            means, routed = _residue_means(x[lo:hi], running, scales, at, lengths, columns)
            values[~routed, 0] = np.sqrt(means[~routed])
            index = np.flatnonzero(routed)
    passes = _window_passes(index, lengths[index], columns, scales, hi - lo)
    table = None
    if running is not None and len(index):
        used = np.zeros(len(scales) * (hi - lo), dtype=bool)
        for rows, _, cells in passes:
            used[cells + at[rows, None]] = True
        table = _order1_table(x[lo:hi], scales, used, running)
    for rows, n, cells in passes:
        Y = profile(x[first[rows, None] + np.arange(n)])
        grid = grids[n]
        f2 = table[cells + at[rows, None]] if table is not None else np.concatenate(
            [segment_variances(Y, s, config.detrend_order) for s in grid.tolist()], axis=1)
        counts = 2 * (n // grid)
        roundoff = (grid * (np.finfo(float).eps
                            * np.max(np.abs(Y), axis=1, keepdims=True))) ** 2
        keep = f2 > np.repeat(roundoff, counts, axis=1)
        kept = np.add.reduceat(keep, np.cumsum(counts) - counts, axis=1, dtype=np.intp)
        if (qs <= 0).any():  # counted only where a q <= 0 sum excludes them
            excluded[np.ix_(rows, columns[n])] = counts - kept
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
        for sign, terms, runs in ((qs > 0, log_f2, np.broadcast_to(counts, kept.shape)),
                                  (qs <= 0, log_f2[keep], kept)):
            if sign.any():
                out[sign] = _power_means(terms.ravel(), np.cumsum(runs) - runs.ravel(),
                                         qs[sign]).reshape(np.count_nonzero(sign), *kept.shape)
        values[np.ix_(rows[ok], np.arange(len(qs)), columns[n])] = out.swapaxes(0, 1)
    if not windowed:
        values, excluded = values[0], excluded[0]
    return FluctuationSurface(scales=scales, values=values, series_length=len(x),
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
    return GHECurve(q_values=surface.config.q_values, h_values=slope, stderr=stderr, r2=r2)
