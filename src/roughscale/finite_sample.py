"""Closed-form finite-sample law of RV-standardized returns.

With n intraday samples per day, the standardized daily return r/sqrt(RV) has
compact support [-sqrt(n), sqrt(n)] and a polynomial density that approaches
the standard normal as n grows. Moments and kurtosis follow in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FiniteSampleLaw:
    """Distribution of the standardized daily return for n samples per day."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")


def density(law: FiniteSampleLaw, x) -> np.ndarray | float:
    """Density C_n * (1 - x^2/n)^((n-3)/2) on |x| < sqrt(n), 0 outside.

    C_n = Gamma(n/2) / (sqrt(pi*n) * Gamma((n-1)/2)); evaluated via log-gamma
    so large n does not overflow. For n = 2 the density diverges at the
    endpoints; the open-interval formula value is returned for |x| < sqrt(2).
    """
    n = law.n
    if n < 2:
        raise ValueError("density is degenerate for n < 2")
    x = np.asarray(x, dtype=float)
    log_pref = math.lgamma(n / 2.0) - 0.5 * np.log(np.pi * n) - math.lgamma((n - 1) / 2.0)
    inside = np.abs(x) < np.sqrt(n)
    base = np.where(inside, 1.0 - x ** 2 / n, 1.0)
    out = np.where(inside, np.exp(log_pref + ((n - 3) / 2.0) * np.log(base)), 0.0)
    return out if out.ndim else float(out)


def moment_2k(law: FiniteSampleLaw, k: int) -> float:
    """E[r_bar^(2k)] = n^k (2k-1)!! / ((n+2k-2)(n+2k-4)...n)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    n = law.n
    value = 1.0
    for j in range(1, k + 1):  # factor-by-factor ratio avoids overflow
        value *= n * (2 * j - 1) / (n + 2 * j - 2)
    return value


def kurtosis(law: FiniteSampleLaw) -> float:
    """E[r_bar^4]/E[r_bar^2]^2 = 3n/(n+2); tends to the Gaussian 3."""
    return 3.0 * law.n / (law.n + 2)


def relative_error(n: int, a: float) -> float:
    """Relative shortfall a/(n+a) of the measured Hurst exponent below its limit."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if a <= 0:
        raise ValueError("a must be positive")
    return a / (n + a)
