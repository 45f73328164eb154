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
import functools
import json
import math
import sys
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

PI_SQ = math.pi**2

# Relative term size at which the flux-step exponential tail is cut off, and
# the term count past which (dt below about 4e-12 / alpha) the series gives
# way to its small-time closed form.
_TAIL_RELATIVE_CUTOFF = 1e-16
_TAIL_MAX_TERMS = 10**6

# Series temporaries hold at most _BLOCK doubles (1 MB); the tail is summed in
# chunks of _TAIL_FIRST_CHUNK terms, doubling up to _BLOCK.
_BLOCK = 2**17
_TAIL_FIRST_CHUNK = 16
# The package's one underflow policy (_exp_masked): exp's results below the
# smallest normal double, 2.2e-308, are written as +0.0, and their exponents
# are not passed to exp, whose path for subnormal and zero results runs many
# times slower than its normal one.  _EXP_ZERO, the log of the smallest
# normal (-708.3964185322641), is the least double whose exp is normal.
_EXP_ZERO = math.log(sys.float_info.min)

_QUAD_NODES = 16  # Gauss-Legendre nodes per panel
_QUAD_MAX_PANELS = 2**14
# Quadrature converges when successive panel doublings agree within this for
# every coefficient; coefficients below it are indistinguishable from zero.
_QUAD_TOL = 1e-10

_CSV_BLOCK_ROWS = 2**16  # trace rows formatted per write; bounds the text held

# Profiles are plotted and compared on one read-only uniform grid on [0, 1];
# the most recently used cos(n*pi*x) rows on it are kept, 8 KB each.
_PROFILE_GRID = np.linspace(0.0, 1.0, 1001)
_PROFILE_GRID.flags.writeable = False
_PROFILE_ROWS = 64

# The read-only sample times of the live traces, one array per clock
# (t_start, period, count): traces on equal clocks share it, so a pool of
# windows holds one copy per clock, and it goes with the last of them.
_SAMPLE_TIMES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


class TraceError(ValueError):
    """A trace is malformed: non-finite values or clock, a clock whose sample
    times overflow or stall, too few rows, uneven times."""


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
        a unit step from t2 on.
    control_series_terms : int or None
        If set, the flux-step exponential tail is summed with exactly this
        many terms (at most ``_TAIL_MAX_TERMS``) instead of to machine
        precision.  Used to regenerate published data that was produced with
        a fixed 200-term truncation.
    """

    alpha: float
    u0_coeffs: Mapping[int, float]
    t1: float
    t2: float
    t3: float
    control_series_terms: int | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "t1", "t2", "t3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"problem field '{name}' is {getattr(self, name)}, not finite")
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
            if not math.isfinite(c):
                raise ValueError(f"problem field 'u0_cosine' entry {n} is {c}, not finite")
            if c != 0.0:
                coeffs[n] = c
        object.__setattr__(self, "u0_coeffs", MappingProxyType(dict(sorted(coeffs.items()))))
        terms, cap = self.control_series_terms, _TAIL_MAX_TERMS
        if terms is not None and not 1 <= terms <= cap:
            raise ValueError(f"problem field 'control_series_terms' is {terms}, not in 1..{cap}")

    def u0_l2_norm(self) -> float:
        """L2 norm of the initial profile via the Parseval identity."""
        total = 0.0
        for n, c in self.u0_coeffs.items():
            total += c * c * (1.0 if n == 0 else 0.5)
        return math.sqrt(total)


@dataclass(frozen=True)
class SampleTrace:
    """Uniformly sampled boundary observation.

    ``values`` and the sample ``times`` are read-only arrays; ``times`` is
    computed once per clock and shared by the traces alive on that clock.
    """

    t_start: float
    period: float
    values: np.ndarray = field(repr=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("t_start", "period"):
            if not math.isfinite(getattr(self, name)):
                raise TraceError(f"trace {name} is {getattr(self, name)}, not finite")
        if self.period <= 0:
            raise ValueError(f"sampling period must be positive, got {self.period}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("trace values must be a nonempty 1-D array")
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))[0]
            raise TraceError(f"trace value at index {bad} is {values[bad]}, not finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        clock = (float(self.t_start), float(self.period), values.size)
        times = _SAMPLE_TIMES.get(clock)
        if times is None:
            # the last sample time, checked before the times are formed so
            # that an overflow raises no warning
            last = clock[0] + clock[1] * (values.size - 1)
            if math.isfinite(last):
                times = self.t_start + self.period * np.arange(values.size)
            if not math.isfinite(last) or not (times[1:] > times[:-1]).all():
                raise TraceError(
                    f"trace t_start {self.t_start!r} and period {self.period!r} do not "
                    f"give {values.size} finite, strictly increasing sample times"
                )
            times.flags.writeable = False
            _SAMPLE_TIMES[clock] = times
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.values.size


def evaluate_cosine_series(coeffs: Mapping[int, float], x) -> np.ndarray:
    """Evaluate sum of c_n * cos(n*pi*x) on scalar or array ``x``."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for n, c in sorted(coeffs.items()):
        total = total + c * np.cos(n * math.pi * x)
    return total if total.ndim else float(total)


@functools.lru_cache(maxsize=_PROFILE_ROWS)
def _cosine_row(n) -> np.ndarray:
    row = np.cos(n * math.pi * _PROFILE_GRID)
    row.flags.writeable = False
    return row


def _profile(coeffs: Mapping[int, float]) -> np.ndarray:
    """``evaluate_cosine_series(coeffs, _PROFILE_GRID)`` bit for bit: the
    same mode-ordered sum, over cached rows."""
    total = np.zeros(_PROFILE_GRID.size)
    for n, c in sorted(coeffs.items()):
        total = total + c * _cosine_row(n)
    return total


def cosine_coefficients(u0: Callable[[float], float], n_max: int) -> dict[int, float]:
    """Cosine expansion coefficients of a user-supplied profile on [0, 1].

    Entry 0 is the plain integral of ``u0``; entry n >= 1 is twice the
    integral of ``u0(x) * cos(n*pi*x)``.  One composite Gauss-Legendre rule
    serves every coefficient: ``u0`` is evaluated once per node (on the node
    array when it accepts one) and enters one cosine-matrix product.  The
    panel count doubles from one until two successive estimates agree within
    ``_QUAD_TOL`` for every coefficient, and the finer one is returned.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    freqs = math.pi * np.arange(n_max + 1)
    previous, panels = None, 1
    while panels <= _QUAD_MAX_PANELS:
        x = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels).ravel()
        try:
            fx = np.asarray(u0(x), dtype=float)
        except (TypeError, ValueError):
            fx = None
        if fx is None or fx.shape != x.shape:  # a callable for scalars only
            fx = np.array([float(u0(float(xi))) for xi in x])
        weighted = np.tile(weights, panels) / (2 * panels) * fx
        estimate = np.zeros(freqs.size)
        step = _BLOCK // freqs.size + 1
        for s in range(0, x.size, step):
            estimate += np.cos(np.outer(freqs, x[s:s + step])) @ weighted[s:s + step]
        estimate[1:] *= 2.0
        if previous is not None and np.all(np.abs(estimate - previous) <= _QUAD_TOL):
            return {n: float(c) for n, c in enumerate(estimate)}
        previous, panels = estimate, 2 * panels
    raise QuadratureError(f"quadrature did not converge within {_QUAD_MAX_PANELS} panels")


def problem_from_function(
    u0: Callable[[float], float],
    alpha: float,
    t1: float,
    t2: float,
    t3: float,
    n_max: int = 40,
) -> HeatProblem:
    """Build a unit-flux-step problem whose initial profile is given as a function.

    Coefficients smaller in magnitude than the quadrature tolerance are
    indistinguishable from zero and are dropped.
    """
    coeffs = cosine_coefficients(u0, n_max)
    coeffs = {n: c for n, c in coeffs.items() if abs(c) >= _QUAD_TOL}
    return HeatProblem(alpha, coeffs, t1, t2, t3)


def _exp_masked(exponent: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(exponent)`` with its subnormal results flushed to +0.0,
    without exp's slow underflow path.

    Entries whose exponent is below ``_EXP_ZERO``, where exp would give a
    subnormal or +0.0, are +0.0 without a call to exp, as are those where
    the mask ``live`` (broadcast against ``exponent``) is False; every other
    entry is exp's own bits, and a nan exponent still gives nan."""
    mask = np.less(exponent, _EXP_ZERO)
    np.logical_not(mask, out=mask)
    if live is not None:
        mask &= live
    return np.exp(exponent, out=np.zeros_like(exponent), where=mask)


def _exp_row_sums(
    t: np.ndarray, rates: np.ndarray, weights: np.ndarray, keep: np.ndarray | None = None
) -> np.ndarray:
    # Row i is sum_j weights[j] * exp(-rates[j] * t[i]), terms j >= keep[i]
    # being exact zeros.  Each row is reduced on its own ((E * w).sum(axis=1),
    # not a BLAS product), so its sum does not depend on the other rows: a
    # sampled window and a single observation agree bit for bit.
    out = np.empty(t.size)
    step = _BLOCK // (rates.size + 1) + 1
    for s in range(0, t.size, step):
        exponent = -np.outer(t[s:s + step], rates)
        live = None if keep is None else np.arange(rates.size) < keep[s:s + step, None]
        out[s:s + step] = (weights * _exp_masked(exponent, live)).sum(axis=1)
    return out


def control_bracket(alpha: float, dt, n_terms: int | None = None) -> np.ndarray:
    """Flux-step bracket ``-1/(3 alpha) - dt + sum_{n>=1} (2/lambda_n) exp(-lambda_n dt)``.

    Vectorized over the times since the step, ``dt >= 0``.  Each sample's
    series has its own term count: ``n_terms`` (at most ``_TAIL_MAX_TERMS``)
    if given, else the a-priori count past which terms are below
    ``_TAIL_RELATIVE_CUTOFF`` times the first.  Where that count exceeds
    ``_TAIL_MAX_TERMS`` (and at ``dt == 0``) the bracket is the small-time
    form ``-2 sqrt(dt / (pi alpha))``: by Poisson summation the rest is
    O(exp(-1 / (alpha dt))), exactly 0.0 there.  Chunked summation keeps
    temporaries near 1 MB.
    """
    if alpha <= 0:
        raise ValueError(f"diffusivity must be positive, got {alpha}")
    dt = np.asarray(dt, dtype=float)
    flat = dt.ravel()
    if np.any(flat < 0):
        raise ValueError("time since the flux step must be nonnegative")
    if n_terms is not None and not 1 <= n_terms <= _TAIL_MAX_TERMS:
        raise ValueError(f"n_terms must lie in 1..{_TAIL_MAX_TERMS} when set, got {n_terms}")
    if n_terms is None:
        cap = _TAIL_MAX_TERMS
        # the smallest n with exp(-alpha pi^2 (n^2 - 1) dt) <= cutoff; inf at dt = 0
        with np.errstate(divide="ignore"):
            need = np.ceil(np.sqrt(1.0 - math.log(_TAIL_RELATIVE_CUTOFF) / (alpha * PI_SQ * flat)))
        small = need > cap
        counts = np.where(small, 0, need).astype(int)
    else:
        cap = int(n_terms)
        small = np.zeros(flat.size, dtype=bool)
        counts = np.full(flat.size, cap)
    tail = np.zeros(flat.size)
    lo, width = 0, min(_TAIL_FIRST_CHUNK, cap)
    while True:
        rows = np.flatnonzero(counts > lo)
        if rows.size == 0:
            break
        n = np.arange(lo + 1, lo + width + 1, dtype=float)
        lam = alpha * (n * n) * PI_SQ
        tail[rows] += _exp_row_sums(flat[rows], lam, 2.0 / lam, counts[rows] - lo)
        lo += width
        width = min(2 * width, _BLOCK, cap - lo)
    out = -1.0 / (3.0 * alpha) - flat + tail
    out[small] = 0.0 - 2.0 * np.sqrt(flat[small] / (math.pi * alpha))
    return out.reshape(dt.shape)


def _observation(problem: HeatProblem, t: np.ndarray) -> np.ndarray:
    # the free series, plus the flux-step bracket from t2 on
    modes = np.fromiter(problem.u0_coeffs, dtype=float)
    coeffs = np.fromiter(problem.u0_coeffs.values(), dtype=float)
    values = _exp_row_sums(t, problem.alpha * (modes * modes) * PI_SQ, coeffs)
    after = t >= problem.t2
    if after.any():
        values[after] += control_bracket(
            problem.alpha, t[after] - problem.t2, problem.control_series_terms
        )
    return values


def sample(problem: HeatProblem, t_start: float, period: float, count: int) -> SampleTrace:
    """Sample the observation on the uniform grid t_start + i * period."""
    if t_start <= 0:
        raise ValueError(f"t_start must be positive, got {t_start}")
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    values = _observation(problem, t_start + period * np.arange(count))
    return SampleTrace(t_start=t_start, period=period, values=values)


def sample_windows(problem: HeatProblem, n1: int, n2: int, t0: float, n_rec: int):
    """The flux-free, flux-step and reconstruction windows: ``n1`` samples on
    [t1, t2), ``n2`` on [t2, t3) and ``n_rec`` on [t0, t2), 0 < t0 < t2."""
    for name, count in (("n1", n1), ("n2", n2), ("n_rec", n_rec)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if not 0 < t0 < problem.t2:
        raise ValueError(f"t0 must lie in (0, t2) = (0, {problem.t2}), got {t0}")
    return (
        sample(problem, problem.t1, (problem.t2 - problem.t1) / n1, n1),
        sample(problem, problem.t2, (problem.t3 - problem.t2) / n2, n2),
        sample(problem, t0, (problem.t2 - t0) / n_rec, n_rec),
    )


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
    }
    if problem.control_series_terms is not None:
        out["control_series_terms"] = problem.control_series_terms
    return out


def _number(data: dict, name: str, where: str, kind: type = float):
    """``data[name]`` converted by ``kind``, or a ValueError naming the field;
    a non-number (a string or a boolean), and fractions or counts above 2**53
    in an ``int`` field, are refused."""
    if name not in data:
        raise ValueError(f"{where} is missing field '{name}'")
    value = data[name]
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} field '{name}' is not a number: {value!r}") from None
    if kind is int and isinstance(value, float) and number != value:
        raise ValueError(f"{where} field '{name}' is not an integer: {value!r}")
    if kind is int and number > 2**53:
        raise ValueError(f"{where} field '{name}' is above 2**53, the largest exact count")
    return number


def problem_from_dict(data: Mapping) -> HeatProblem:
    """The problem a JSON object describes, its numbers read by
    :func:`_number`; ``ValueError`` names a missing or malformed field."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a problem must be a JSON object, got {type(data).__name__}")
    amplitude = data.get("control_amplitude", 1)  # files of earlier versions carry 1
    if type(amplitude) not in (int, float) or amplitude != 1:
        raise ValueError(
            f"problem field 'control_amplitude' is {amplitude!r}; the flux step is unit"
        )
    alpha = _number(data, "alpha", "problem")
    entries = data.get("u0_cosine")
    if not isinstance(entries, Mapping):
        raise ValueError(f"problem field 'u0_cosine' must map mode numbers to numbers: {entries!r}")
    for n in entries:  # one key per mode: "1", never "01" or a non-ASCII digit
        if not (str(n).isdecimal() and str(int(n)) == str(n)):
            raise ValueError(f"problem field 'u0_cosine' key {n!r} is not a mode number")
    u0_coeffs = {int(n): _number(entries, n, "problem 'u0_cosine'") for n in entries}
    times = (_number(data, name, "problem") for name in ("t1", "t2", "t3"))
    terms = data.get("control_series_terms")
    if terms is not None:
        terms = _number(data, "control_series_terms", "problem", int)
    return HeatProblem(alpha, u0_coeffs, *times, control_series_terms=terms)


def load_problem(path: str | Path) -> HeatProblem:
    """Read a problem file; a ``ValueError`` names the file."""
    with open(path) as fh:
        try:
            return problem_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def save_problem(path: str | Path, problem: HeatProblem) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


def write_trace_csv(path: str | Path, trace: SampleTrace) -> None:
    """Write a trace as ``t,y`` rows with full double precision, each ending
    in CRLF as in the ``csv`` module's default dialect."""
    times, values = trace.times, trace.values
    with open(path, "w", newline="") as fh:
        fh.write("t,y\r\n")
        for start in range(0, len(trace), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            flat = np.column_stack((times[rows], values[rows])).ravel().tolist()
            fh.write("%.17g,%.17g\r\n" * (len(flat) // 2) % tuple(flat))


def read_trace_csv(path: str | Path) -> SampleTrace:
    """Read a ``t,y`` trace.  ``TraceError`` names the line of a row that is
    not two finite numbers; fewer than two rows, times that do not increase
    and times spaced unevenly beyond 1e-9 of the period plus their float64
    rounding are refused, naming the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != ["t", "y"]:
            raise TraceError(f"{path}: expected CSV header 't,y'")
        rows = []
        for row in filter(None, reader):
            try:
                t, y = map(float, row)
            except ValueError:
                t = y = math.nan
            if not (math.isfinite(t) and math.isfinite(y)):
                raise TraceError(f"{path}, line {reader.line_num}: {row} is not two finite numbers")
            rows.append((t, y))
    if len(rows) < 2:
        raise TraceError(f"{path}: {len(rows)} row(s); a trace needs two to fix its period")
    times, values = np.array(rows).T
    periods = np.diff(times)
    if periods[0] <= 0:
        raise TraceError(f"{path}: sample times must increase, got period {periods[0]:g}")
    slack = 1e-9 * periods[0] + 4 * np.finfo(float).eps * np.abs(times).max()
    if np.any(np.abs(periods - periods[0]) > slack):
        raise TraceError(f"{path}: sample times are not uniformly spaced")
    return SampleTrace(t_start=float(times[0]), period=float(periods[0]), values=values)
