"""Four-stage identification of diffusivity and initial state from one trace.

Stage 1 runs the pencil on the flux-free window and fits the mode
coefficients in absolute time.  Stage 2 subtracts that fitted free response
from the flux-step window and adds back the known drift, leaving a pure
exponential sum whose structure pins the diffusivity regardless of which
modes the initial state excites.  Stage 3 reads the diffusivity off the
credible mode pairs of that sum; both coefficient fits are
:func:`pencil.fit_amplitudes`.  Stage 4 assigns integer mode indices to the
free-window rates, sharpens the diffusivity, and reconstructs the initial
profile by a rank-truncated least-squares solve with the truncation rank
chosen by generalized cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, pencil
from .model import PI_SQ, SampleTrace


class IdentificationError(Exception):
    """The pipeline cannot proceed with the given traces."""


class NoModesError(IdentificationError):
    """The flux-free window contains no detectable exponential modes."""


class AlphaUnrecoverableError(IdentificationError):
    """No credible mode pair and no constant mode in the controlled window."""


class AmbiguousIndicesError(IdentificationError):
    """Two estimated rates map to the same integer mode index."""


class ModeIndexRangeError(IdentificationError):
    """A rate maps to a mode index whose square overflows a 64-bit integer."""


# The largest mode index n whose n * n fits in int64.
_MAX_MODE_INDEX = math.isqrt(np.iinfo(np.int64).max)
# Relative tolerance of the controlled-window credibility test: it accepts
# exactly the reference problem's two clean pairs and rejects the third pair,
# which is 0.7% off.
_CREDIBILITY_TOL = 0.005
# The drift added back and the credibility target are those of a unit flux
# step; the step stage's refusals say so, as a scaled trace is refused there.
_UNIT_FLUX = "identify assumes a unit flux step on [t2, t3] in the trace's temperature units"


@dataclass(frozen=True)
class PipelineConfig:
    """The estimator parameter of :func:`identify`: ``m_tilde``, the number
    of cosine modes of the reconstructed initial profile.  The pencil's
    singular-value cutoff and the credibility tolerance are module constants;
    the sampling schedule is whatever the traces carry.
    """

    m_tilde: int = 20

    def __post_init__(self) -> None:
        if self.m_tilde < 1:
            raise ValueError("reconstruction order must be at least 1")


@dataclass(frozen=True)
class FreeSpectrum:
    """Absolute-time modes of the flux-free window plus the pencil estimate."""

    rates: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    estimate: pencil.PencilEstimate

    def __len__(self) -> int:
        return self.rates.size


def free_window_spectrum(trace: SampleTrace) -> FreeSpectrum:
    """Estimate rates and absolute-time coefficients on the flux-free window.

    Rates come from the pencil poles; :func:`pencil.fit_amplitudes` fits the
    coefficients against exp(-rate * t) on the trace's absolute times, so a
    clamped zero rate keeps its constant coefficient.
    """
    est = pencil.analyze(trace)
    if est.order == 0:
        raise NoModesError("no detectable modes in the flux-free window")
    coeffs = pencil.fit_amplitudes(trace, est.rates)
    return FreeSpectrum(rates=est.rates, coefficients=coeffs, estimate=est)


def transform_step_window(trace: SampleTrace, free: FreeSpectrum | None) -> SampleTrace:
    """Remove the free response from the flux-step window and add the drift back.

    The trace's start time is the flux switch time.  The result is indexed
    by sample number (period 1): entry i equals
    ``y(t_i) - sum_k C_k exp(-rate_k t_i) + period * i`` and is approximately
    a pure exponential sum with a constant term ``-1/(3 alpha)`` and terms
    ``(2 / lambda_n) exp(-lambda_n period * i)``.
    """
    i = np.arange(trace.values.size, dtype=float)
    transformed = trace.values + trace.period * i
    if free is not None and len(free):
        with np.errstate(over="ignore"):  # a product past float64 decays to exp(-inf) = 0
            decay = np.exp(-np.outer(trace.times, free.rates))
        transformed = transformed - decay @ free.coefficients
    return SampleTrace(t_start=0.0, period=1.0, values=transformed)


@dataclass(frozen=True)
class StepWindowResult:
    """Controlled-window estimates and the diffusivity candidates they yield."""

    alpha: float
    coefficients: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    credibility: np.ndarray = field(repr=False)
    accepted: tuple[int, ...]
    alpha_by_index: dict[int, float]
    alpha_from_constant: float | None
    estimate: pencil.PencilEstimate


def _median(values: list[float]) -> float:
    """The median of a short list of finite floats, equal to ``np.median``'s
    bit for bit: the middle value, or for an even count the two middle
    values' sum halved."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def alpha_from_step_window(
    trace: SampleTrace, free: FreeSpectrum | None
) -> StepWindowResult:
    """Estimate the diffusivity from the transformed flux-step window.

    Every mode of the transformed sum is present regardless of the initial
    state, so in the pencil's ascending rate order the position j of a mode
    is its index.
    A pair (C'_j, rate'_j) is credible when C'_j * rate'_j is within
    ``_CREDIBILITY_TOL`` (relative) of twice the sampling period; each
    credible pair gives alpha = rate'_j / (j^2 pi^2 period).  The constant
    term gives an independent estimate -1/(3 C'_0).  The result is the median
    of all accepted estimates.
    """
    transformed = transform_step_window(trace, free)
    est = pencil.analyze(transformed)
    if est.order == 0:
        raise AlphaUnrecoverableError(
            "no detectable modes in the transformed flux-step window"
        )
    rates = est.rates
    try:
        coeffs = pencil.fit_amplitudes(transformed, rates)
    except pencil.DegenerateRatesError as exc:
        raise pencil.DegenerateRatesError(f"{exc}; {_UNIT_FLUX}") from None
    target = 2.0 * trace.period
    # Python floats: a product past float64 reads inf, not credible, and
    # raises no numpy warning.
    rate_list, coeff_list = rates.tolist(), coeffs.tolist()
    credibility = [math.inf] * rates.size
    alpha_by_index: dict[int, float] = {}
    candidates: list[float] = []
    accepted = []
    for j in range(1, rates.size):
        credibility[j] = abs(coeff_list[j] * rate_list[j] / target - 1.0)
        if credibility[j] <= _CREDIBILITY_TOL:
            estimate = rate_list[j] / (j * j * PI_SQ * trace.period)
            if estimate > 0:
                alpha_by_index[j] = estimate
                candidates.append(estimate)
                accepted.append(j)
    alpha_from_constant = None
    if rates.size and rate_list[0] == 0.0 and coeff_list[0] < 0:
        alpha_from_constant = -1.0 / (3.0 * coeff_list[0])
        candidates.append(alpha_from_constant)
    if not candidates:
        raise AlphaUnrecoverableError(
            "diffusivity unrecoverable from the controlled window: no credible "
            f"mode pair and no constant mode; {_UNIT_FLUX}"
        )
    return StepWindowResult(
        alpha=_median(candidates),
        coefficients=coeffs,
        rates=rates,
        credibility=np.array(credibility),
        accepted=tuple(accepted),
        alpha_by_index=alpha_by_index,
        alpha_from_constant=alpha_from_constant,
        estimate=est,
    )


def assign_mode_indices(
    free_rates: np.ndarray, alpha_step3: float
) -> tuple[np.ndarray, dict[int, float], float]:
    """Map free-window rates to integer mode indices and sharpen alpha.

    ``n_k = round(sqrt(rate_k / (alpha pi^2)))``; each nonzero index yields
    ``alpha_k = rate_k / (n_k^2 pi^2)``.  Returns the indices, those per-mode
    estimates, and the median of the per-mode estimates together with the
    controlled-window value.  An index beyond 64-bit arithmetic raises
    :class:`ModeIndexRangeError`.
    """
    if not 0 < alpha_step3 < math.inf:
        raise ValueError(f"alpha estimate must be positive and finite, got {alpha_step3}")
    free_rates = np.asarray(free_rates, dtype=float)
    ratios = np.sqrt(free_rates / (alpha_step3 * PI_SQ))
    out_of_range = ~(ratios <= _MAX_MODE_INDEX)
    if out_of_range.any():
        j = int(np.argmax(out_of_range))
        raise ModeIndexRangeError(
            f"rate {free_rates[j]:.6g} maps to mode index {ratios[j]:.3g} at "
            f"alpha = {alpha_step3:.6g}, beyond the largest usable index {_MAX_MODE_INDEX}"
        )
    indices = np.rint(ratios).astype(int)
    if len(set(indices.tolist())) != indices.size:
        raise AmbiguousIndicesError(
            f"two rates map to the same mode index {indices.tolist()}; "
            "change the window or threshold"
        )
    alpha_by_index = {
        n: rate / (n * n * PI_SQ)
        for n, rate in zip(indices.tolist(), free_rates.tolist())
        if n != 0
    }
    return indices, alpha_by_index, _median([*alpha_by_index.values(), alpha_step3])


def refine_alpha_from_trace(
    trace: SampleTrace, alpha_coarse: float
) -> tuple[float, dict[int, float]]:
    """Sharpen alpha with a pencil pass over the reconstruction window.

    The reconstruction window starts much earlier than the flux-free window,
    so its modes are far better conditioned; rates that map consistently
    (within 5%) onto integer-index eigenvalues of the coarse estimate refine
    alpha by orders of magnitude.  Among the consistent candidates the one
    with the largest ``z * |ln z|`` wins: the rate read off a pole z carries
    a relative error proportional to the pole perturbation over that factor,
    so it picks the best-measured mode.  Falls back to the coarse value when
    the window offers no usable mode.  This extra pass is what keeps the
    rank-truncated reconstruction stable: the cross-validated rank choice
    amplifies any design-matrix mismatch by the inverse of the smallest
    retained singular value.
    """
    try:
        est = pencil.analyze(trace)
    except (pencil.PencilError, ValueError):
        return alpha_coarse, {}
    candidates: dict[int, float] = {}
    best = None
    best_conditioning = 0.0
    for pole, rate in zip(est.poles.tolist(), est.rates.tolist()):
        if rate <= 0:
            continue
        n = int(round(math.sqrt(rate / (alpha_coarse * PI_SQ))))
        if n == 0:
            continue
        estimate = rate / (n * n * PI_SQ)
        if abs(estimate / alpha_coarse - 1.0) <= 0.05:
            candidates[n] = estimate
            conditioning = pole * abs(math.log(pole))
            if conditioning > best_conditioning:
                best_conditioning = conditioning
                best = estimate
    if best is None:
        return alpha_coarse, {}
    return best, candidates


def build_design_matrix(alpha: float, times: np.ndarray, m_tilde: int) -> np.ndarray:
    """N x m_tilde matrix with entries exp(-alpha * n^2 pi^2 * t_i)."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if (times <= 0).any() or (np.diff(times) <= 0).any():
        raise ValueError("times must be positive and strictly increasing")
    modes = np.arange(m_tilde)
    with np.errstate(over="ignore"):  # a product past float64 decays to exp(-inf) = 0
        return np.exp(-alpha * np.outer(times, modes * modes) * PI_SQ)


def _numerical_rank(sv: np.ndarray, shape: tuple[int, int]) -> int:
    """Singular values above max(shape) * eps relative to the largest."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > max(shape) * np.finfo(float).eps * sv[0]))


def _truncated_solution(u, s, vt, rhs: np.ndarray, k: int) -> np.ndarray:
    return vt[:k].T @ ((u[:, :k].T @ rhs) / s[:k])


def tsvd_solve(matrix: np.ndarray, rhs: np.ndarray, k: int) -> np.ndarray:
    """Rank-k truncated-SVD least-squares solution."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = _numerical_rank(s, matrix.shape)
    if not (1 <= k <= rank):
        raise ValueError(f"truncation rank {k} outside 1..rank = {rank}")
    return _truncated_solution(u, s, vt, rhs, k)


def gcv_select(
    matrix: np.ndarray, rhs: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """Truncation rank minimizing ``|residual|^2 / (N - k)^2``, and its solution.

    Returns the selected rank k, the full criterion curve for
    k = 1..min(rank, N-1) (the criterion is undefined at k = N), and the
    rank-k solution, equal to ``tsvd_solve(matrix, rhs, k)``; exact ties
    resolve to the smaller rank.  The matrix is factored once.  Fewer than 2
    samples, or a criterion that overflows float64, raise
    :class:`IdentificationError`.
    """
    n = matrix.shape[0]
    if n < 2:
        raise IdentificationError(
            f"cross-validation needs at least 2 reconstruction samples, got {n}"
        )
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = _numerical_rank(s, matrix.shape)
    if rank == 0:
        raise ValueError("cannot cross-validate an all-zero matrix")
    rank = min(rank, n - 1)
    curve = np.empty(rank)
    k = 1
    try:
        with np.errstate(over="raise"):
            # A projection or quotient past float64 overflows the rank-1
            # residual too, so the refusal names rank 1: a quotient at j >= 1
            # needs |projections[j]| > 1.8e308 s[j], which that residual
            # holds, past float64 for any s[j] > 1e-154.
            projections = u.T @ rhs
            coefficients = projections[:rank] / s[:rank]
            for k in range(1, rank + 1):
                solution = vt[:k].T @ coefficients[:k]
                residual = ((matrix @ solution - rhs) ** 2).sum()
                curve[k - 1] = residual / (n - k) ** 2
    except FloatingPointError:
        raise IdentificationError(
            f"cross-validation residual overflows float64 at rank {k} "
            f"(max |y| = {np.max(np.abs(rhs)):.3g}); rescale the reconstruction trace"
        ) from None
    k = int(np.argmin(curve)) + 1
    return k, curve, _truncated_solution(u, s, vt, rhs, k)


@dataclass(frozen=True)
class IdentificationResult:
    """Everything the pipeline identified, plus diagnostics."""

    alpha_hat: float
    alpha_candidates: dict
    free_modes: tuple[tuple[int, float, float], ...]
    u0_coeffs_hat: np.ndarray = field(repr=False)
    gcv_k: int
    gcv_curve: np.ndarray = field(repr=False)
    certificate: bounds.ErrorCertificate | None
    step_window: StepWindowResult = field(repr=False)
    free_spectrum: FreeSpectrum | None = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "alpha_candidates": self.alpha_candidates,
            "free_modes": [list(mode) for mode in self.free_modes],
            "u0_cosine_hat": self.u0_coeffs_hat.tolist(),
            "gcv_k": self.gcv_k,
            "gcv_curve": self.gcv_curve.tolist(),
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }


def identify(
    trace_free: SampleTrace,
    trace_step: SampleTrace,
    trace_rec: SampleTrace,
    config: PipelineConfig | None = None,
    priors: tuple[float, float] | None = None,
) -> IdentificationResult:
    """Run the full pipeline on the three observation windows.

    ``trace_free`` covers the flux-free window, ``trace_step`` the flux-step
    window (its start time is taken as the flux switch time), and
    ``trace_rec`` the early reconstruction window.  ``priors`` is the
    ``(m0, alpha0)`` pair needed for the error certificate; without it the
    certificate is omitted.  An initial state exciting no detectable free
    mode is tolerated: the diffusivity still comes from the controlled
    window and the reconstruction proceeds.
    """
    config = config or PipelineConfig()
    if not (0 < trace_rec.t_start < trace_step.t_start):
        raise IdentificationError(
            f"reconstruction window must start inside (0, t2), "
            f"got {trace_rec.t_start}"
        )
    try:
        free = free_window_spectrum(trace_free)
    except NoModesError:
        free = None

    step = alpha_from_step_window(trace_step, free)

    if free is not None:
        indices, alpha_by_index, alpha_step4 = assign_mode_indices(
            free.rates, step.alpha
        )
        free_modes = tuple(
            zip(indices.tolist(), free.rates.tolist(), free.coefficients.tolist())
        )
    else:
        alpha_by_index, alpha_step4 = {}, step.alpha
        free_modes = ()

    alpha_hat, alpha_rec = refine_alpha_from_trace(trace_rec, alpha_step4)

    design = build_design_matrix(alpha_hat, trace_rec.times, config.m_tilde)
    gcv_k, gcv_curve, u0_hat = gcv_select(design, trace_rec.values)

    certificate = None
    if priors is not None and free is not None:
        m0, alpha0 = priors
        certificate = _certificate_for(
            free, trace_free, free_modes, alpha_hat, m0, alpha0
        )

    candidates = {
        "free_window": {str(n): a for n, a in sorted(alpha_by_index.items())},
        "controlled_window": {str(n): a for n, a in sorted(step.alpha_by_index.items())},
        "constant_mode": step.alpha_from_constant,
        "reconstruction_window": {str(n): a for n, a in sorted(alpha_rec.items())},
        "controlled_window_median": step.alpha,
        "index_assignment_median": alpha_step4,
    }
    return IdentificationResult(
        alpha_hat=alpha_hat,
        alpha_candidates=candidates,
        free_modes=free_modes,
        u0_coeffs_hat=u0_hat,
        gcv_k=gcv_k,
        gcv_curve=gcv_curve,
        certificate=certificate,
        step_window=step,
        free_spectrum=free,
    )


def _certificate_for(
    free: FreeSpectrum,
    trace_free: SampleTrace,
    free_modes: tuple[tuple[int, float, float], ...],
    alpha_hat: float,
    m0: float,
    alpha0: float,
) -> bounds.ErrorCertificate | None:
    z_tilde = mode_index = None
    for n, rate, _ in free_modes:
        if n != 0:
            z_tilde = math.exp(-rate * trace_free.period)
            mode_index = n
            break
    try:
        inputs = bounds.certificate_inputs(free.estimate, trace_free, m0, alpha0)
        return bounds.build_certificate(
            inputs, alpha_hat=alpha_hat, z_tilde=z_tilde, mode_index=mode_index
        )
    except bounds.CertificateUnavailableError:
        return None
