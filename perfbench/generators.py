"""Seeded input generators, one per workload.

Every input is a pure function of the seed: sub-seeds come from
``numpy.random.SeedSequence([seed, tag])`` and all draws use numpy's PCG64.
Volatility is rough by construction: daily log-volatility is a fractional
Brownian path with Hurst exponent `H_TRUE` (Gatheral, Jaisson & Rosenbaum
2018), so every workload knows the roughness it should recover.
"""
from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from roughscale import synthetic
from roughscale.realized_volatility import RVSeries
from roughscale.scaling import divisors_of_1440

H_TRUE = 0.13        # roughness of daily log-volatility, the paper's regime
VOL_OF_VOL = 0.3     # std of one day's log-volatility increment
DAILY_VOL = 0.03     # typical daily return volatility
DAY0 = dt.date(2015, 1, 1)
EPOCH_DAY0 = (DAY0 - dt.date(1970, 1, 1)).days

_TAG_ROLLING, _TAG_TICKS, _TAG_ORACLE = 1, 2, 3


def sub_seeds(seed: int, tag: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def daily_volatility(num_days: int, seed: int) -> np.ndarray:
    """sigma_t = DAILY_VOL * exp(VOL_OF_VOL * fBm_t), fBm summed from seeded fGn."""
    length = max(1024, 1 << (num_days - 1).bit_length())
    fgn = synthetic.generate_fgn(H_TRUE, length, seed)[:num_days]
    path = VOL_OF_VOL * np.cumsum(fgn)
    return DAILY_VOL * np.exp(path - path.mean())


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# --- rolling_rv -------------------------------------------------------------

@dataclass(frozen=True)
class RollingInputs:
    rv_by_delta: dict[int, RVSeries]
    num_days: int
    flat_days: tuple[int, ...]   # day indices with zero RV at every delta

    def digest(self) -> str:
        return digest(*(np.concatenate([s.rv, s.daily_return])
                        for _, s in sorted(self.rv_by_delta.items())))


def rolling_inputs(seed: int, num_days: int = 3200,
                   flat_frac: float = 0.005) -> RollingInputs:
    """{delta: RVSeries} for all 36 divisors of 1440 over `num_days` days.

    1-minute returns are `synthetic.generate_sv_days` rows scaled by the
    day's volatility and summed to each delta; about `flat_frac` of the days
    (never the first or last) are flat, so their RV is zero at every delta.
    """
    vol_seed, ret_seed, flat_seed = sub_seeds(seed, _TAG_ROLLING, 3)
    sigma = daily_volatility(num_days, vol_seed)
    minute = synthetic.generate_sv_days(num_days, 1440, 1.0, ret_seed) * sigma[:, None]
    rng = np.random.default_rng(flat_seed)
    n_flat = max(1, round(flat_frac * num_days))
    flat = np.sort(rng.choice(np.arange(1, num_days - 1), n_flat, replace=False))
    minute[flat] = 0.0
    dates = [DAY0 + dt.timedelta(days=i) for i in range(num_days)]
    rv_by_delta = {}
    for delta in divisors_of_1440():
        r = minute.reshape(num_days, 1440 // delta, delta).sum(axis=2)
        rv_by_delta[delta] = RVSeries(delta_minutes=delta, dates=dates,
                                      rv=(r * r).sum(axis=1),
                                      daily_return=r.sum(axis=1),
                                      samples_per_day=1440 // delta)
    return RollingInputs(rv_by_delta=rv_by_delta, num_days=num_days,
                         flat_days=tuple(int(d) for d in flat))


# --- ticks_cli --------------------------------------------------------------

LEADING_EDGE_S = 12 * 3600 + 34 * 60   # the first trade is at 12:34 UTC of day 0
# each is one malformed record for parse_ticks (short row, bad number,
# non-finite price, empty fields, wrong separator)
MALFORMED_LINES = (b"oops", b"1420070400", b"1420070400,abc",
                   b"1420070400,nan", b",,", b"1420070400;20000.00")
NONPOSITIVE_LINES = (b"1420070400,0.00", b"1420070401,-3.50", b"1420070402,0")


@dataclass(frozen=True)
class TickInputs:
    path: Path
    sha256: str                # of the CSV file
    size_bytes: int
    num_days: int
    rows: int                  # lines in the file
    valid_rows: int            # rows parse_ticks should keep
    days_with_trades: int
    zero_trade_days: tuple[int, ...]
    flat_days: tuple[int, ...]
    swapped_pairs: int         # adjacent rows written out of order
    malformed: int
    nonpositive: int
    ticks_digest: str          # sha256 of the sorted timestamps and prices


def _format_rows(ts: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`ts,int.cc\\n` rows as one uint8 buffer plus each row's byte length.

    Built column by column with array arithmetic; timestamps must have 10 digits.
    """
    if len(ts) and not (10 ** 9 <= ts.min() and ts.max() < 10 ** 10):
        raise ValueError("timestamps must have exactly 10 digits")
    whole, frac = np.divmod(cents, 100)
    ndig = np.ones(len(whole), dtype=np.int64)
    k = 1
    while len(whole) and 10 ** k <= whole.max():
        ndig += whole >= 10 ** k
        k += 1
    w = k
    width = 10 + 1 + w + 1 + 2 + 1
    mat = np.empty((len(ts), width), dtype=np.uint8)
    keep = np.ones((len(ts), width), dtype=bool)
    for j in range(10):
        mat[:, j] = 48 + (ts // 10 ** (9 - j)) % 10
    mat[:, 10] = ord(",")
    for j in range(w):
        power = w - 1 - j
        mat[:, 11 + j] = 48 + (whole // 10 ** power) % 10
        keep[:, 11 + j] = power < ndig
    mat[:, 11 + w] = ord(".")
    mat[:, 12 + w] = 48 + frac // 10
    mat[:, 13 + w] = 48 + frac % 10
    mat[:, 14 + w] = ord("\n")
    return mat[keep], width - (w - ndig)


def write_tick_csv(path: Path, seed: int, num_days: int = 1000,
                   trades_per_day: float = 2500.0) -> TickInputs:
    """Poisson-timed `timestamp,price` rows with every awkward case parse and
    resample must handle: a mid-day leading edge (day-open backfill), three
    zero-trade days, three flat days (zero RV at every delta), adjacent rows
    swapped out of order, malformed lines and non-positive prices."""
    vol_seed, tick_seed = sub_seeds(seed, _TAG_TICKS, 2)
    rng = np.random.default_rng(tick_seed)
    sigma = daily_volatility(num_days, vol_seed)
    counts = rng.poisson(trades_per_day, num_days)
    inner = np.arange(2, num_days - 2)
    zero_trade = np.sort(rng.choice(inner, 3, replace=False))
    counts[zero_trade] = 0
    flat = np.sort(rng.choice(np.setdiff1d(inner, zero_trade), 3, replace=False))
    counts[[0, -1]] = np.maximum(counts[[0, -1]], 1)

    day = np.repeat(np.arange(num_days), counts)
    first = np.where(day == 0, LEADING_EDGE_S, 0)
    tod = first + (rng.random(len(day)) * (86400 - first)).astype(np.int64)
    ts = np.sort((EPOCH_DAY0 + day) * 86400 + tod)   # day order is kept
    step = rng.standard_normal(len(ts)) * (sigma / np.sqrt(np.maximum(counts, 1)))[day]
    step[np.isin(day, flat)] = 0.0
    cents = np.rint(np.exp(np.log(20000.0) + np.cumsum(step)) * 100).astype(np.int64)

    # swap adjacent rows with distinct timestamps: a stable sort restores them
    pos = rng.choice(np.arange(0, len(ts) - 1, 2), len(ts) // 2500, replace=False)
    pos = pos[ts[pos] < ts[pos + 1]]
    order = np.arange(len(ts))
    order[pos], order[pos + 1] = pos + 1, pos
    body, lengths = _format_rows(ts[order], cents[order])

    extra = MALFORMED_LINES + NONPOSITIVE_LINES
    at = np.sort(rng.choice(np.arange(1, len(ts)), len(extra), replace=False))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    chunks, prev = [], 0
    for row, line in zip(at, rng.permutation(len(extra))):
        chunks.append(body[offsets[prev]:offsets[row]].tobytes())
        chunks.append(extra[line] + b"\n")
        prev = row
    chunks.append(body[offsets[prev]:].tobytes())
    data = b"".join(chunks)
    path.write_bytes(data)
    return TickInputs(
        path=path, sha256=hashlib.sha256(data).hexdigest(), size_bytes=len(data),
        num_days=num_days, rows=len(ts) + len(extra), valid_rows=len(ts),
        days_with_trades=int(np.count_nonzero(counts)),
        zero_trade_days=tuple(int(d) for d in zero_trade),
        flat_days=tuple(int(d) for d in flat), swapped_pairs=len(pos),
        malformed=len(MALFORMED_LINES), nonpositive=len(NONPOSITIVE_LINES),
        ticks_digest=digest(ts, cents / 100.0))


# --- oracle_study -----------------------------------------------------------

FGN_CASES = ((0.1, 2 ** 20), (0.3, 2 ** 19), (0.5, 2 ** 18), (0.7, 2 ** 18))
CASCADE_P, CASCADE_LEVELS = 0.6, 16
SWEEP_COUNT, SWEEP_NOISE = 200, 0.002
SWEEP_H0, SWEEP_A = 0.13, 3.0


@dataclass(frozen=True)
class OracleInputs:
    fgn: tuple[tuple[float, np.ndarray], ...]   # (H, series)
    cascade: np.ndarray
    sweep_deltas: np.ndarray
    sweeps: tuple[np.ndarray, ...]               # noisy h2 across all 36 deltas

    def digest(self) -> str:
        return digest(*(x for _, x in self.fgn), self.cascade, *self.sweeps)


def oracle_inputs(seed: int) -> OracleInputs:
    """fGn at four H, the binomial cascade, and noisy ansatz sweeps."""
    seeds = sub_seeds(seed, _TAG_ORACLE, len(FGN_CASES) + 1)
    fgn = tuple((h, synthetic.generate_fgn(h, length, s))
                for (h, length), s in zip(FGN_CASES, seeds))
    cascade = synthetic.generate_cascade(CASCADE_P, CASCADE_LEVELS)
    deltas = np.array(divisors_of_1440())
    n = 1440.0 / deltas
    clean = SWEEP_H0 * n / (n + SWEEP_A)
    rng = np.random.default_rng(seeds[-1])
    sweeps = tuple(clean + rng.normal(0.0, SWEEP_NOISE, len(deltas))
                   for _ in range(SWEEP_COUNT))
    return OracleInputs(fgn=fgn, cascade=cascade, sweep_deltas=deltas, sweeps=sweeps)
