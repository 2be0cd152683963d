"""Finite-sample ansatz H(delta) = H0 * n / (n + a) fitted across a frequency sweep."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

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
        object.__setattr__(self, "deltas", np.asarray(self.deltas, dtype=int))
        object.__setattr__(self, "h2", np.asarray(self.h2, dtype=float))
        if self.h2_stderr is not None:
            object.__setattr__(self, "h2_stderr",
                               np.asarray(self.h2_stderr, dtype=float))
        if len(set(self.deltas.tolist())) != len(self.deltas):
            raise ValueError("delta values must be distinct")
        for delta in self.deltas.tolist():
            samples_per_day(delta)
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


def fit_ansatz(sweep: FrequencySweep, exclude: list[int] | None = None) -> AnsatzFit:
    """Least squares for (H0, a = exp(alpha)) by variable projection.

    H0 is linear for fixed a, so only alpha is searched: a fixed log-a grid
    brackets the reduced cost's minimum (ties go to the smaller a) and one
    `least_squares` call polishes it. Weighted by 1/stderr exactly when the
    sweep carries stderrs. Standard errors come from the analytic Jacobian in
    (H0, alpha) at the optimum, scaled by the reduced chi-square.
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
    # lm, not trf: trf's gtol is absolute and stops early where the cost is flat
    sol = least_squares(lambda x: reduced(x)[0][0], x0=_LOG_A_GRID[i:i + 1],
                        method="lm", ftol=1e-12, xtol=1e-12, gtol=1e-12,
                        max_nfev=200)
    (resid,), (h0,) = reduced(sol.x)
    a = float(np.exp(sol.x[0]))

    s2 = float(resid @ resid) / max(len(h2) - 2, 1)
    jac = np.column_stack([-w * n / (n + a), w * h0 * n * a / (n + a) ** 2])
    try:
        cov_theta = np.linalg.inv(jac.T @ jac) * s2
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular Jacobian at the ansatz optimum") from exc
    h0_stderr, alpha_stderr = np.sqrt(np.diag(cov_theta))
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
