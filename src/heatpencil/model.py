"""Forward model for heat conduction in a unit bar with an insulated far end.

The bar is driven through a Neumann heat-flux actuator at the measured end.
The boundary temperature under zero flux is a sum of decaying exponentials
whose rates are ``alpha * n**2 * pi**2`` and whose weights are the cosine
expansion coefficients of the initial temperature profile.  A unit flux step
applied at ``t2`` adds a closed-form drift plus another exponential sum.
Because the ground truth is stored as a finite cosine-coefficient map, every
synthesized sample is exact up to floating rounding, which is what makes the
downstream estimator tests meaningful.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

PI_SQ = math.pi**2

# Relative term size at which the flux-step exponential tail is cut off, and
# the hard cap that guards t -> t2 where the series decays like 1/n^2 only.
_TAIL_RELATIVE_CUTOFF = 1e-16
_TAIL_MAX_TERMS = 10**6

_QUAD_MAX_PANELS = 2**20


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def eigenvalue(alpha: float, n: int) -> float:
    """Decay rate of cosine mode ``n``: ``alpha * n**2 * pi**2``."""
    if alpha <= 0:
        raise ValueError(f"diffusivity must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"mode index must be nonnegative, got {n}")
    return alpha * (n * n) * PI_SQ


@dataclass(frozen=True)
class HeatProblem:
    """Ground-truth problem instance.

    Parameters
    ----------
    alpha : float
        Thermal diffusivity (> 0), spatial domain normalized to unit length.
    u0_coeffs : mapping of int to float
        Cosine coefficients of the initial profile: entry 0 is the mean,
        entry n >= 1 multiplies cos(n*pi*x).  Finitely many nonzero entries.
    t1, t2, t3 : float
        Window boundaries, 0 < t1 < t2 < t3.  The flux is zero before t2 and
        equal to ``control_amplitude`` on [t2, t3].
    control_amplitude : float
        Value of the flux step, default 1.
    control_series_terms : int or None
        If set, the flux-step exponential tail is summed with exactly this
        many terms instead of to machine precision.  Used to regenerate
        published data that was produced with a fixed 200-term truncation.
    """

    alpha: float
    u0_coeffs: Mapping[int, float]
    t1: float
    t2: float
    t3: float
    control_amplitude: float = 1.0
    control_series_terms: int | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"diffusivity must be positive, got {self.alpha}")
        if not (0 < self.t1 < self.t2 < self.t3):
            raise ValueError(
                f"window times must satisfy 0 < t1 < t2 < t3, "
                f"got {self.t1}, {self.t2}, {self.t3}"
            )
        coeffs = {}
        for n, c in self.u0_coeffs.items():
            n = int(n)
            if n < 0:
                raise ValueError(f"mode index must be nonnegative, got {n}")
            c = float(c)
            if c != 0.0:
                coeffs[n] = c
        object.__setattr__(self, "u0_coeffs", MappingProxyType(dict(sorted(coeffs.items()))))
        if self.control_series_terms is not None and self.control_series_terms < 1:
            raise ValueError("control_series_terms must be positive when set")

    def u0_l2_norm(self) -> float:
        """L2 norm of the initial profile via the Parseval identity."""
        total = 0.0
        for n, c in self.u0_coeffs.items():
            total += c * c * (1.0 if n == 0 else 0.5)
        return math.sqrt(total)


@dataclass(frozen=True)
class SampleTrace:
    """Uniformly sampled boundary observation."""

    t_start: float
    period: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"sampling period must be positive, got {self.period}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("trace values must be a nonempty 1-D array")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.period * np.arange(self.values.size)


def evaluate_cosine_series(coeffs: Mapping[int, float], x) -> np.ndarray:
    """Evaluate sum of c_n * cos(n*pi*x) on scalar or array ``x``."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for n, c in sorted(coeffs.items()):
        total = total + c * np.cos(n * math.pi * x)
    return total if total.ndim else float(total)


def _adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float, budget: list[int]
) -> float:
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, s, tol):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if budget[0] <= 0:
            raise QuadratureError(
                f"quadrature did not converge within {_QUAD_MAX_PANELS} panels"
            )
        budget[0] -= 2
        if abs(left + right - s) <= 15.0 * tol:
            return left + right + (left + right - s) / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, 0.5 * tol) + recurse(
            m, fm, rm, frm, b, fb, right, 0.5 * tol
        )

    return recurse(a, fa, 0.5 * (a + b), fm, b, fb, whole, tol)


def cosine_coefficients(
    u0: Callable[[float], float], n_max: int, tol: float = 1e-10
) -> dict[int, float]:
    """Cosine expansion coefficients of a user-supplied profile on [0, 1].

    Entry 0 is the plain integral of ``u0``; entry n >= 1 is twice the
    integral of ``u0(x) * cos(n*pi*x)``.  Each coefficient is computed by
    adaptive composite Simpson quadrature to absolute error ``tol``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    out: dict[int, float] = {}
    for n in range(n_max + 1):
        if n == 0:
            integrand = u0
        else:
            integrand = lambda x, n=n: u0(x) * math.cos(n * math.pi * x)
        # Pre-split so the oscillation of cos(n*pi*x) cannot fool the
        # convergence estimate on a symmetric first pass.
        panels = max(8, 2 * n)
        budget = [_QUAD_MAX_PANELS]
        total = 0.0
        for j in range(panels):
            a, b = j / panels, (j + 1) / panels
            total += _adaptive_simpson(integrand, a, b, tol / panels, budget)
        out[n] = total if n == 0 else 2.0 * total
    return out


def problem_from_function(
    u0: Callable[[float], float],
    alpha: float,
    t1: float,
    t2: float,
    t3: float,
    n_max: int = 40,
    control_amplitude: float = 1.0,
    quad_tol: float = 1e-10,
) -> HeatProblem:
    """Build a problem whose initial profile is given as a function.

    Coefficients smaller in magnitude than the quadrature tolerance are
    indistinguishable from zero and are dropped.
    """
    coeffs = cosine_coefficients(u0, n_max, tol=quad_tol)
    coeffs = {n: c for n, c in coeffs.items() if abs(c) >= quad_tol}
    return HeatProblem(alpha, coeffs, t1, t2, t3, control_amplitude)


def free_response(problem: HeatProblem, t: float) -> float:
    """Boundary temperature at time ``t`` with the flux still off."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    # np.exp throughout the synthesis path: the spectral diagnostics consumed
    # by the error certificate are sensitive at the last-ulp level.
    total = 0.0
    for n, c in problem.u0_coeffs.items():
        total += c * np.exp(-eigenvalue(problem.alpha, n) * t)
    return float(total)


def _control_tail(alpha: float, dt: float, n_terms: int | None) -> float:
    # sum_{n>=1} (2 / lambda_n) exp(-lambda_n dt); equals 1/(3 alpha) at dt=0.
    if n_terms is not None:
        total = 0.0
        for n in range(1, n_terms + 1):
            lam = alpha * (n * n) * PI_SQ
            total += 2.0 / lam * np.exp(-lam * dt)
        return float(total)
    if dt == 0.0:
        return 1.0 / (3.0 * alpha)
    total = 0.0
    for n in range(1, _TAIL_MAX_TERMS + 1):
        lam = alpha * (n * n) * PI_SQ
        term = 2.0 / lam * np.exp(-lam * dt)
        total += term
        if term <= _TAIL_RELATIVE_CUTOFF * total:
            break
    return float(total)


def step_response(problem: HeatProblem, t: float) -> float:
    """Boundary temperature at time ``t >= t2`` under the flux step.

    The flux contribution is ``control_amplitude`` times
    ``-1/(3 alpha) - (t - t2) + sum_{n>=1} (2/lambda_n) exp(-lambda_n (t-t2))``;
    the bracket vanishes identically at ``t = t2``.
    """
    if t < problem.t2:
        raise ValueError(
            f"step response is defined for t >= t2 = {problem.t2}, got t = {t}"
        )
    dt = t - problem.t2
    alpha = problem.alpha
    bracket = -1.0 / (3.0 * alpha) - dt + _control_tail(
        alpha, dt, problem.control_series_terms
    )
    return free_response(problem, t) + problem.control_amplitude * bracket


def observe(problem: HeatProblem, t: float) -> float:
    """Boundary temperature under the full flux schedule (zero before t2)."""
    if t < problem.t2:
        return free_response(problem, t)
    return step_response(problem, t)


def sample(problem: HeatProblem, t_start: float, period: float, count: int) -> SampleTrace:
    """Sample the observation on the uniform grid t_start + i * period."""
    if t_start <= 0:
        raise ValueError(f"t_start must be positive, got {t_start}")
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    values = np.array([observe(problem, t_start + i * period) for i in range(count)])
    return SampleTrace(t_start=t_start, period=period, values=values)


# ---------------------------------------------------------------------------
# File formats: JSON problem description and CSV trace.
# ---------------------------------------------------------------------------

def problem_to_dict(problem: HeatProblem) -> dict:
    out = {
        "alpha": problem.alpha,
        "u0_cosine": {str(n): c for n, c in problem.u0_coeffs.items()},
        "t1": problem.t1,
        "t2": problem.t2,
        "t3": problem.t3,
        "control_amplitude": problem.control_amplitude,
    }
    if problem.control_series_terms is not None:
        out["control_series_terms"] = problem.control_series_terms
    return out


def problem_from_dict(data: Mapping) -> HeatProblem:
    try:
        return HeatProblem(
            alpha=float(data["alpha"]),
            u0_coeffs={int(n): float(c) for n, c in data["u0_cosine"].items()},
            t1=float(data["t1"]),
            t2=float(data["t2"]),
            t3=float(data["t3"]),
            control_amplitude=float(data.get("control_amplitude", 1.0)),
            control_series_terms=(
                int(data["control_series_terms"])
                if data.get("control_series_terms") is not None
                else None
            ),
        )
    except KeyError as exc:
        raise ValueError(f"problem file is missing required field {exc}") from exc


def load_problem(path: str | Path) -> HeatProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


def save_problem(path: str | Path, problem: HeatProblem) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


def write_trace_csv(path: str | Path, trace: SampleTrace) -> None:
    """Write a trace as ``t,y`` rows with full double precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in zip(trace.times, trace.values):
            writer.writerow([f"{t:.17g}", f"{y:.17g}"])


def read_trace_csv(path: str | Path) -> SampleTrace:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "y"]:
            raise ValueError(f"{path}: expected CSV header 't,y'")
        times, values = [], []
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            values.append(float(row[1]))
    if len(values) < 1:
        raise ValueError(f"{path}: trace is empty")
    t = np.asarray(times)
    if len(t) > 1:
        periods = np.diff(t)
        period = periods[0]
        if np.any(np.abs(periods - period) > 1e-9 * max(1.0, abs(period))):
            raise ValueError(f"{path}: sample times are not uniformly spaced")
    else:
        period = 1.0
    return SampleTrace(t_start=float(t[0]), period=float(period), values=np.asarray(values))
