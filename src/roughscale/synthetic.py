"""Seeded synthetic generators used as independent estimator oracles.

All randomness comes from numpy's PCG64 generator seeded explicitly, so every
series is a pure function of its arguments; the batch day generator draws rows
sequentially from one seeded stream (documented so parallel callers can
reproduce it by splitting on day index with SeedSequence(seed).spawn).
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError


def fgn_autocovariance(H: float, k) -> np.ndarray:
    """Exact lag-k autocovariance of unit-variance fractional Gaussian noise."""
    k = np.abs(np.asarray(k, dtype=float))
    return 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))


def generate_fgn(H: float, length: int, seed: int) -> np.ndarray:
    """Fractional Gaussian noise by circulant embedding (exact covariance).

    Requires a power-of-two length >= 1024. The circulant's middle entry is
    0, not the lag-`length` autocovariance, so the embedding is positive
    semi-definite only up to H of about 0.90 (0.8999 at 1024 points, 0.922
    at 65536); above that it raises NumericError. Tiny negative eigenvalues
    from roundoff are clipped.
    """
    if not (0.0 < H < 1.0):
        raise ValueError("H must lie in (0, 1)")
    if length < 1024 or length & (length - 1):
        raise ValueError("length must be a power of two >= 1024")
    gamma = fgn_autocovariance(H, np.arange(length))
    row = np.concatenate([gamma, [0.0], gamma[:0:-1]])
    eigvals = np.fft.fft(row).real
    if eigvals.min() < -1e-8:
        raise NumericError(f"circulant embedding not positive semi-definite at H = {H}, "
                           f"length {length}")
    eigvals = np.clip(eigvals, 0.0, None)
    m = 2 * length
    rng = np.random.default_rng(seed)
    # real part of the complex draw carries half the power, hence eigvals/m
    z = rng.normal(size=m) + 1j * rng.normal(size=m)
    w = np.fft.fft(np.sqrt(eigvals / m) * z)
    return np.ascontiguousarray(w.real[:length])


def generate_cascade(p: float, levels: int) -> np.ndarray:
    """Deterministic binomial measure on 2^levels cells.

    Each dyadic split sends fraction p left and 1-p right, so the generalized
    Hurst exponents are known in closed form (see cascade_hq). It takes no
    seed: the cascade carries no randomness, which is what keeps its h(q)
    exact.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    mass = np.array([1.0])
    for _ in range(levels):
        mass = np.stack([mass * p, mass * (1 - p)], axis=1).ravel()
    return mass


def cascade_hq(p: float, q: float) -> float:
    """Closed-form h(q) = 1/q - ln(p^q + (1-p)^q)/(q ln 2) of the binomial measure."""
    if q == 0:
        raise ValueError("q = 0 requires the limit form; evaluate nearby q instead")
    return 1.0 / q - np.log(p ** q + (1 - p) ** q) / (q * np.log(2.0))


def generate_sv_days(num_days: int, n: int, sigma: float, seed: int) -> np.ndarray:
    """(num_days, n) matrix of independent days, rows drawn in order from one stream."""
    if num_days < 1:
        raise ValueError("num_days must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma / np.sqrt(n), size=(num_days, n))
