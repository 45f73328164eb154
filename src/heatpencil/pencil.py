"""Matrix-pencil estimator for uniformly sampled sums of decaying exponentials.

Given samples ``y_k = sum_i R_i z_i**k`` plus a small perturbation, the
estimator builds a pair of shifted Hankel matrices, detects the model order
from the singular spectrum, recovers the poles ``z_i`` as eigenvalues of a
rank-truncated pencil, and converts them to continuous-time decay rates.
Only real nonincreasing signals are supported: complex or growing poles are
treated as artifacts and dropped.  Amplitudes are a separate linear
least-squares fit, :func:`fit_amplitudes`, run by the callers that read them.
The pole solve keeps its truncated factors, from which
:func:`heatpencil.bounds.certificate_inputs` reads the error certificate's
spectral inputs; this module imports nothing of the package but ``model``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import SampleTrace

# Eigenvalues whose relative imaginary part exceeds this are discarded as
# conjugate-pair artifacts; below it the real part is taken.
_REALNESS_TOL = 1e-6
# Poles in (1, 1 + _UNIT_POLE_SLACK] are rounding images of the constant mode.
_UNIT_POLE_SLACK = 1e-9
# Rates below _ZERO_RATE_TOL / period are clamped to exactly zero.
_ZERO_RATE_TOL = 1e-12


class PencilError(Exception):
    """Estimation failed in a way the caller must handle."""


class RankDeficiencyError(PencilError):
    """The requested order exceeds the numerical rank of the data."""


class DegenerateRatesError(PencilError):
    """The amplitude design matrix is rank deficient."""


def resolve_pencil_parameter(n: int) -> int:
    """Hankel split L for a trace of length n: N/3, rounded up to
    floor(N/3) + 1 when N is not divisible by 3."""
    return n // 3 if n % 3 == 0 else n // 3 + 1


@dataclass(frozen=True)
class HankelSet:
    """The three Hankel views of one trace.

    ``y0[r, c] = y[(L-1-c) + r]``, ``y1[r, c] = y[(L-c) + r]`` (every sample
    index shifted by one), and ``y[r, c] = y[c + r]`` with shape
    (N-L) x (L+1).
    """

    y0: np.ndarray = field(repr=False)
    y1: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    pencil_parameter: int
    sample_count: int


def build_hankel(trace: SampleTrace) -> HankelSet:
    """Assemble the Hankel matrix set for a trace of at least 9 samples."""
    values = trace.values
    n = values.size
    if n < 9:
        raise ValueError(f"need at least 9 samples to form the pencil, got {n}")
    length = resolve_pencil_parameter(n)
    rows = np.arange(n - length)[:, None]
    y0 = values[(length - 1 - np.arange(length))[None, :] + rows]
    y1 = values[(length - np.arange(length))[None, :] + rows]
    y = values[np.arange(length + 1)[None, :] + rows]
    return HankelSet(y0=y0, y1=y1, y=y, pencil_parameter=length, sample_count=n)


def detect_order(sigma: np.ndarray, epsilon: float) -> int:
    """Count singular values at or above ``epsilon`` relative to the largest.

    ``sigma`` is a singular spectrum in descending order.  An all-zero
    spectrum reports order 0 (no signal), not an error.
    """
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma / sigma[0] >= epsilon))


@dataclass(frozen=True)
class TruncatedPencil:
    """Rank-M factors of Y0 from the pole solve, with the pencil they factor.

    ``y0`` is approximated by ``(um * sv) @ vm.T``; the poles are the
    eigenvalues of ``(um.T @ y1 @ vm) / sv[:, None]``.
    """

    y0: np.ndarray = field(repr=False)
    y1: np.ndarray = field(repr=False)
    um: np.ndarray = field(repr=False)
    sv: np.ndarray = field(repr=False)
    vm: np.ndarray = field(repr=False)


def estimate_poles(h: HankelSet, order: int) -> tuple[np.ndarray, TruncatedPencil]:
    """Eigenvalues of the rank-``order`` truncated pencil, sorted by real part.

    Returns the possibly complex eigenvalues together with the truncated
    factors, from which the error certificate's spectral inputs are read.
    """
    rows, length = h.y0.shape
    if not (1 <= order <= min(rows, length)):
        raise ValueError(f"order {order} invalid for a {rows}x{length} pencil")
    u, s, vt = np.linalg.svd(h.y0, full_matrices=False)
    if s[order - 1] == 0.0:
        raise RankDeficiencyError(
            f"order {order} exceeds the rank of the data (sigma_{order} = 0)"
        )
    um = u[:, :order]
    vm = vt[:order, :].T
    a = s[:order]
    z_e = (um.T @ h.y1 @ vm) / a[:, None]
    eigvals = np.linalg.eigvals(z_e)
    eigvals = eigvals[np.argsort(-eigvals.real)]
    return eigvals, TruncatedPencil(y0=h.y0, y1=h.y1, um=um, sv=a, vm=vm)


def poles_to_rates(poles: np.ndarray, period: float) -> np.ndarray:
    """Convert poles ``z = exp(-rate * period)`` to decay rates.

    Rates with magnitude below 1e-12 / period are clamped to exactly zero so
    the constant mode survives later index arithmetic.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    poles = np.asarray(poles, dtype=float)
    if np.any(poles <= 0):
        raise PencilError(
            f"nonpositive pole {poles[poles <= 0][0]} has no decay-rate reading"
        )
    rates = -np.log(poles) / period
    rates[np.abs(rates) < _ZERO_RATE_TOL / period] = 0.0
    return rates


def fit_amplitudes(trace: SampleTrace, rates: np.ndarray) -> np.ndarray:
    """Least-squares amplitudes of ``sum_i R_i exp(-rate_i * period * k)``.

    The fit runs on the trace's own clock (k = 0 at ``t_start``).  Solved
    through the SVD, never the normal equations.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0:
        return np.zeros(0)
    if trace.values.size < rates.size:
        raise ValueError(
            f"{rates.size} rates need at least as many samples, "
            f"got {trace.values.size}"
        )
    k = np.arange(trace.values.size, dtype=float)
    design = np.exp(-np.outer(k * trace.period, rates))
    amps, _, rank, _ = np.linalg.lstsq(design, trace.values, rcond=None)
    if rank < rates.size:
        order = np.argsort(rates)
        gaps = np.diff(rates[order])
        j = int(np.argmin(gaps)) if gaps.size else 0
        pair = (rates[order][j], rates[order][j + 1]) if gaps.size else (rates[0],) * 2
        raise DegenerateRatesError(
            f"amplitude design matrix is rank deficient; closest rate pair is "
            f"{pair[0]:.6g} and {pair[1]:.6g}"
        )
    return amps


@dataclass(frozen=True)
class PencilEstimate:
    """Pole-only estimator output for one trace.

    ``poles`` descend and ``rates`` ascend.  ``truncated_pencil`` holds the
    factors of the pole solve at the detected order (None when no signal was
    detected); ``order`` counts the poles kept after complex and growing ones
    are discarded.
    """

    order: int
    poles: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    truncated_pencil: TruncatedPencil | None = field(repr=False)
    pencil_parameter: int
    sample_count: int


def analyze(trace: SampleTrace, epsilon: float) -> PencilEstimate:
    """Run the estimator: order detection, poles, rates in ascending order.

    ``epsilon`` is the relative singular-value cutoff for order detection,
    in (0, 1).  One SVD of Y gives both the detected order and the reported
    spectrum; one SVD of Y0 gives the poles.  Complex eigenvalue pairs and
    poles outside (0, 1 + 1e-9] are discarded with a warning, reducing the
    reported order; poles within rounding of 1 are clamped to exactly 1 (the
    constant mode).  An order detected on Y beyond the L columns of Y0
    raises :class:`RankDeficiencyError`.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"singular threshold must lie in (0, 1), got {epsilon}")
    h = build_hankel(trace)
    sigma_y = np.linalg.svd(h.y, compute_uv=False)
    order = detect_order(sigma_y, epsilon)
    if order == 0:
        return PencilEstimate(
            order=0,
            poles=np.zeros(0),
            rates=np.zeros(0),
            singular_values=sigma_y,
            truncated_pencil=None,
            pencil_parameter=h.pencil_parameter,
            sample_count=h.sample_count,
        )
    if order > h.pencil_parameter:
        raise RankDeficiencyError(
            f"order {order} detected on Y exceeds the {h.pencil_parameter} "
            "columns of Y0"
        )
    eigvals, truncated = estimate_poles(h, order)

    imag_ok = np.abs(eigvals.imag) <= _REALNESS_TOL * np.abs(eigvals)
    if not np.all(imag_ok):
        warnings.warn(
            f"discarding {int(np.sum(~imag_ok))} complex pencil eigenvalue(s); "
            "the model class is real",
            stacklevel=2,
        )
    poles = eigvals.real[imag_ok]
    in_range = (poles > 0.0) & (poles <= 1.0 + _UNIT_POLE_SLACK)
    if not np.all(in_range):
        warnings.warn(
            f"discarding {int(np.sum(~in_range))} pole(s) outside (0, 1]; "
            "growth is not physical for a cooling trace",
            stacklevel=2,
        )
    poles = np.minimum(poles[in_range], 1.0)
    return PencilEstimate(
        order=poles.size,
        poles=poles,
        rates=poles_to_rates(poles, trace.period),
        singular_values=sigma_y,
        truncated_pencil=truncated,
        pencil_parameter=h.pencil_parameter,
        sample_count=h.sample_count,
    )
