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


# log Gamma(x + 1/2) - log Gamma(x) - log(x)/2 ~ sum c_k / x^k for large x, with
# c_k = (B_{k+1}(1/2) - B_{k+1}) / (k (k+1)) from the Bernoulli polynomials;
# from x = 29.5 (n = 60) the first term left out is below 3e-19
_RATIO_SERIES = ((1, -1 / 8), (3, 1 / 192), (5, -1 / 640), (7, 17 / 14336), (9, -31 / 18432))
_SERIES_MIN_N = 60


def _log_normalizer(n: int) -> float:
    """log C_n = log Gamma(n/2) - log Gamma((n-1)/2) - log(pi n)/2, to an ulp or two.

    A difference of two log-gammas keeps only their absolute accuracy. Here
    the ratio's asymptotic series is taken at m = n + 2k >= _SERIES_MIN_N,
    and Gamma(x + 1/2) / Gamma(x) = (x - 1/2) / (x - 1) times its value at
    x - 1 takes it back to n in one exact integer ratio.
    """
    m = max(n, _SERIES_MIN_N + n % 2)
    x = (m - 1) / 2
    ratio = (math.prod(range(n - 1, m - 1, 2)) ** 2 * (m - 1)
             / (math.prod(range(n, m, 2)) ** 2 * 2 * n))
    return 0.5 * math.log(ratio / math.pi) + sum(c / x ** k for k, c in _RATIO_SERIES)


def density(law: FiniteSampleLaw, x) -> np.ndarray | float:
    """Density C_n * (1 - x^2/n)^((n-3)/2) on |x| < sqrt(n), 0 outside.

    C_n = Gamma(n/2) / (sqrt(pi*n) * Gamma((n-1)/2)); evaluated via its log
    so large n does not overflow. For n = 2 the density diverges at the
    endpoints; the open-interval formula value is returned for |x| < sqrt(2).
    """
    n = law.n
    if n < 2:
        raise ValueError("density is degenerate for n < 2")
    x = np.asarray(x, dtype=float)
    log_pref = _log_normalizer(n)
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
