"""Multifractality-strength measures read off a generalized Hurst curve."""
from __future__ import annotations

import numpy as np

from .mfdfa import GHECurve


def delta_h(curve: GHECurve, k: float) -> float | np.ndarray:
    """Width h(-k) - h(k), one per window of a windowed curve; requires both
    q = -k and q = +k on the grid.

    No interpolation: a missing q raises so configuration mismatches stay
    visible.
    """
    return curve.h_at(-k) - curve.h_at(k)


def taylor_b1(curve: GHECurve, k: float = 3.0) -> tuple:
    """(b0, b1) of the linear approximation h(q) = b0 + b1*q around q = 0,
    each one per window of a windowed curve.

    b1 = -delta_h(k)/(2k) (the symmetric finite difference over [-k, k]) and
    b0 = (h(-k) + h(k))/2, its matching intercept.
    """
    h_minus = curve.h_at(-k)
    h_plus = curve.h_at(k)
    b1 = -(h_minus - h_plus) / (2.0 * k)
    b0 = (h_minus + h_plus) / 2.0
    return b0, b1

