"""Finite-sample ansatz H(delta) = H0 * n / (n + a) fitted across a frequency sweep."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .market_data import MINUTES_PER_DAY, samples_per_day


def divisors_of_1440() -> list[int]:
    return [d for d in range(1, MINUTES_PER_DAY + 1) if MINUTES_PER_DAY % d == 0]


@dataclass(frozen=True)
class FrequencySweep:
    """Measured Hurst exponents h(2) across sampling periods delta."""

    deltas: np.ndarray                 # distinct positive divisors of 1440
    h2: np.ndarray
    h2_stderr: np.ndarray | None = None

    def __post_init__(self):
        # the given values are checked before the int conversion, which
        # overflows beyond int64
        deltas = list(self.deltas)
        if len(set(deltas)) != len(deltas):
            raise ValueError("delta values must be distinct")
        for delta in deltas:
            samples_per_day(delta)
        object.__setattr__(self, "deltas", np.asarray(deltas, dtype=int))
        object.__setattr__(self, "h2", np.asarray(self.h2, dtype=float))
        if self.h2_stderr is not None:
            object.__setattr__(self, "h2_stderr",
                               np.asarray(self.h2_stderr, dtype=float))
        stderr = self.h2_stderr
        if any(len(v) != len(self.deltas) for v in (self.h2, stderr) if v is not None):
            raise ValueError("h2 and h2_stderr need one entry per delta")
        if not np.all(np.isfinite(self.h2)):
            raise ValueError("h2 values must be finite")
        if stderr is not None and not np.all(np.isfinite(stderr) & (stderr > 0)):
            raise ValueError("h2 stderrs must be finite and positive")

    @property
    def n(self) -> np.ndarray:
        return MINUTES_PER_DAY // self.deltas


@dataclass(frozen=True)
class AnsatzFit:
    h0: float
    a: float
    h0_stderr: float
    a_stderr: float
    residual_rms: float
    excluded_deltas: list[int] = field(default_factory=list)
    boundary_warning: bool = False


# the a bracket: a grid minimum on either edge means a is not resolved
_LOG_A_GRID = np.linspace(np.log(1e-12), np.log(1e8), 80)
# bisection alone narrows a grid bracket (width 1.17) below _STEP_TOL in 34 steps
_MAX_STEPS = 64
_STEP_TOL = 1e-10


class Polish(NamedTuple):
    """Where the alpha polish stopped, and after how many evaluations."""

    x: float
    nfev: int


# named for the step it is, the reduced least-squares solve; perfbench traces
# this binding for its call count and `nfev`
def least_squares(n: np.ndarray, w: np.ndarray, y: np.ndarray,
                  x0: float, lo: float, hi: float) -> Polish:
    """Reduced least squares in alpha = log a by safeguarded Newton in (lo, hi).

    With g = w*n/(n + e^alpha), the reduced cost is |y|^2 - e^psi for
    psi = 2 log(g.y) - log(g.g), so the fit maximises psi. Writing
    u = e^alpha/(n + e^alpha), g' = -g*u and g'' = g*u*(2u - 1); with <.>_y and
    <.>_g the means weighted by g*y and by g*g,
        psi'  = 2 (<u>_g - <u>_y),
        psi'' = 2 (<2u^2 - u>_y - <u>_y^2 - <3u^2 - u>_g + 2 <u>_g^2).
    Each evaluation moves the bracket end on psi's downhill side to alpha. A
    Newton step that leaves the bracket, or one where psi'' >= 0, becomes a
    bisection. Stops after a step below _STEP_TOL, where Newton's quadratic
    convergence leaves psi' at roundoff, or after _MAX_STEPS evaluations.
    """
    alpha = x0
    for nfev in range(1, _MAX_STEPS + 1):
        ea = np.exp(alpha)
        u = ea / (n + ea)
        g = w * n / (n + ea)
        py, pg = g * y, g * g
        py, pg = py / py.sum(), pg / pg.sum()
        uy, ug = py @ u, pg @ u
        u2y, u2g = py @ (u * u), pg @ (u * u)
        d1 = 2.0 * (ug - uy)
        d2 = 2.0 * (2.0 * u2y - uy - uy * uy - 3.0 * u2g + ug + 2.0 * ug * ug)
        if d1 == 0.0:
            break
        if d1 > 0.0:
            lo = alpha
        else:
            hi = alpha
        newton = alpha - d1 / d2 if d2 < 0.0 else np.nan
        step = newton if lo < newton < hi else 0.5 * (lo + hi)
        alpha, moved = step, abs(step - alpha)
        if moved <= _STEP_TOL:
            break
    return Polish(x=float(alpha), nfev=nfev)


def fit_ansatz(sweep: FrequencySweep, exclude: list[int] | None = None) -> AnsatzFit:
    """Least squares for (H0, a = exp(alpha)) by variable projection.

    H0 is linear for fixed a, so only alpha is searched: a fixed log-a grid
    brackets the reduced cost's minimum (ties go to the smaller a) and one
    `least_squares` call polishes it between the grid neighbours. Weighted by
    1/stderr exactly when the sweep carries stderrs. Standard errors come from
    the analytic Jacobian in (H0, alpha) at the optimum, scaled by the reduced
    chi-square.
    """
    mask = ~np.isin(sweep.deltas, list(exclude or []))
    h2 = sweep.h2[mask]
    n = sweep.n[mask].astype(float)
    if len(h2) < 3:
        raise NumericError("need at least 3 sweep points after exclusion")
    if np.any(h2 <= 0):
        raise NumericError("h2 values must be positive to fit the ansatz")

    w = np.ones_like(h2) if sweep.h2_stderr is None else 1.0 / sweep.h2_stderr[mask]
    y = w * h2

    def reduced(alpha):
        """Weighted residuals and H0 = (g.y)/(g.g) for each alpha of a 1-D array."""
        g = w * n / (n + np.exp(alpha)[:, None])
        h0 = (g @ y) / np.einsum("ij,ij->i", g, g)
        return y - g * h0[:, None], h0

    grid_resid, _ = reduced(_LOG_A_GRID)
    i = int(np.argmin(np.einsum("ij,ij->i", grid_resid, grid_resid)))
    if i in (0, len(_LOG_A_GRID) - 1):
        raise NumericError("ansatz optimum on the edge of the a bracket [1e-12, 1e8]")
    sol = least_squares(n, w, y, x0=_LOG_A_GRID[i], lo=_LOG_A_GRID[i - 1],
                        hi=_LOG_A_GRID[i + 1])
    (resid,), (h0,) = reduced(np.array([sol.x]))
    a = float(np.exp(sol.x))

    s2 = float(resid @ resid) / max(len(h2) - 2, 1)
    jac = np.column_stack([-w * n / (n + a), w * h0 * n * a / (n + a) ** 2])
    # (J^T J)^-1 = R^-1 R^-T for J = QR: no product that squares J's condition
    try:
        r_inv = np.linalg.inv(np.linalg.qr(jac, mode="r"))
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular Jacobian at the ansatz optimum") from exc
    h0_stderr, alpha_stderr = np.sqrt(s2) * np.linalg.norm(r_inv, axis=1)
    if not np.isfinite([h0_stderr, alpha_stderr]).all():
        raise NumericError("ansatz stderrs are not finite")
    # delta method: var(a) = a^2 var(alpha)
    return AnsatzFit(h0=float(h0), a=a, h0_stderr=float(h0_stderr),
                     a_stderr=float(a * alpha_stderr),
                     residual_rms=float(np.sqrt(np.mean((h2 - h0 * n / (n + a)) ** 2))),
                     excluded_deltas=sorted(sweep.deltas[~mask].tolist()),
                     boundary_warning=a < 1e-6)


def predict_h(fit: AnsatzFit, delta_minutes: int) -> float:
    """Forward ansatz evaluation H0 * n / (n + a) at n = 1440/delta."""
    n = samples_per_day(delta_minutes)
    return fit.h0 * n / (n + fit.a)
