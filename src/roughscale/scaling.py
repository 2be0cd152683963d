"""Finite-sample ansatz H(delta) = H0 * n / (n + a) fitted across a frequency sweep."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .errors import NumericError
from .market_data import MINUTES_PER_DAY


def divisors_of_1440() -> list[int]:
    return [d for d in range(1, MINUTES_PER_DAY + 1) if MINUTES_PER_DAY % d == 0]


@dataclass(frozen=True)
class FrequencySweep:
    """Measured Hurst exponents h(2) across sampling periods delta."""

    deltas: np.ndarray                 # distinct divisors of 1440
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
        if np.any(MINUTES_PER_DAY % self.deltas != 0):
            raise ValueError("every delta must divide 1440")

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


_A_STARTS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def fit_ansatz(sweep: FrequencySweep, exclude: list[int] | None = None,
               weighted: bool | None = None) -> AnsatzFit:
    """Nonlinear least squares for (H0, a), a kept positive via a = exp(alpha).

    Deterministic multi-start over a in {0.5, 1, 2, 4, 8, 16}; best residual
    wins, ties broken by smaller a. Unweighted unless stderrs are present (or
    `weighted` forces either mode). Parameter standard errors come from the
    Jacobian at the optimum, scaled by the reduced chi-square.
    """
    exclude = list(exclude or [])
    mask = ~np.isin(sweep.deltas, exclude)
    deltas = sweep.deltas[mask]
    h2 = sweep.h2[mask]
    n = (MINUTES_PER_DAY // deltas).astype(float)
    if len(deltas) < 3:
        raise NumericError("need at least 3 sweep points after exclusion")
    if np.any(h2 <= 0):
        raise NumericError("h2 values must be positive to fit the ansatz")

    if weighted is None:
        weighted = sweep.h2_stderr is not None
    if weighted:
        if sweep.h2_stderr is None:
            raise ValueError("weighted fit requested but sweep has no stderrs")
        w = 1.0 / sweep.h2_stderr[mask]
    else:
        w = np.ones_like(h2)

    def residuals(theta):
        h0, alpha = theta
        return w * (h2 - h0 * n / (n + np.exp(alpha)))

    best = None
    n_max = n.max()
    for a0 in _A_STARTS:
        h0_0 = float(h2[np.argmax(n)] * (n_max + a0) / n_max)
        sol = least_squares(residuals, x0=[h0_0, np.log(a0)],
                            ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=200)
        if best is None or sol.cost < best.cost - 1e-15 or (
                abs(sol.cost - best.cost) <= 1e-15 and sol.x[1] < best.x[1]):
            best = sol
    if best is None or not np.all(np.isfinite(best.x)):
        raise NumericError("ansatz fit failed to converge from every start")

    h0, alpha = best.x
    a = float(np.exp(alpha))
    m, p = len(h2), 2
    jac = best.jac
    resid = best.fun
    dof = max(m - p, 1)
    s2 = float(resid @ resid) / dof
    try:
        cov_theta = np.linalg.inv(jac.T @ jac) * s2
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular Jacobian at the ansatz optimum") from exc
    # delta method: var(a) = a^2 var(alpha)
    h0_stderr = float(np.sqrt(cov_theta[0, 0]))
    a_stderr = float(a * np.sqrt(cov_theta[1, 1]))
    model = h0 * n / (n + a)
    residual_rms = float(np.sqrt(np.mean((h2 - model) ** 2)))
    return AnsatzFit(h0=float(h0), a=a, h0_stderr=h0_stderr, a_stderr=a_stderr,
                     residual_rms=residual_rms, excluded_deltas=sorted(exclude),
                     boundary_warning=a < 1e-6)


def predict_h(fit: AnsatzFit, delta_minutes: int) -> float:
    """Forward ansatz evaluation H0 * n / (n + a) at n = 1440/delta."""
    if MINUTES_PER_DAY % delta_minutes != 0:
        raise ValueError(f"delta_minutes={delta_minutes} must divide 1440")
    n = MINUTES_PER_DAY // delta_minutes
    return fit.h0 * n / (n + fit.a)
