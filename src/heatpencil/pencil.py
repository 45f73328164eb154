"""Matrix-pencil estimator for uniformly sampled sums of decaying exponentials.

Given samples ``y_k = sum_i R_i z_i**k`` plus a small perturbation, the
estimator views the trace as one Hankel matrix Y, detects the model order
from its singular spectrum, recovers the poles ``z_i`` as eigenvalues of the
rank-truncated pencil of Y's column-shifted blocks Y0 and Y1, and converts
them to continuous-time decay rates.  One thin SVD of Y0 serves both: Y is
Y0 plus one column, so Y's spectrum interlaces Y0's, and the secular
equation of that column decides the order on Y unless a singular value of
Y lies within ``_ORDER_BAND`` of the cutoff; only then is Y's spectrum
computed.  A window whose pencil parameter L is at least
``_COMPRESS_COLUMNS`` first replaces the tall (N-L) x (L+1) matrix Y by a
short one, ``B = Q.T @ Y`` for an orthonormal Q that nearly spans Y's
columns: B's column blocks give the same poles and certificate norms up to
the norm delta of ``Y - Q @ B``.  The trace is a sum of a few detectable
exponentials, so a Gaussian range sketch of ``_SKETCH_COLUMNS`` = 12
columns finds such a Q (Halko, Martinsson & Tropp, "Finding structure with
randomness", SIAM Rev. 53(2), 2011), and every later factorization runs on
B's 12 rows: on the ``long`` pools a window holds at most 8 directions above
a tenth of the order cutoff, and fewer rows would let delta, and the
certificate with it, grow.  delta travels with the estimate, and the
certificate widens by it.  A window whose delta exceeds a tenth of the
order cutoff, as noise or a slowly diffusing step window makes it, is
solved on the (L+1) x (L+1) triangular factor R of ``Y = QR`` instead, with
delta = 0.  A compressed window's two Y-sized arrays, the scaled copy of Y
and the sketch's residual, are the halves of one allocation per call:
glibc's malloc serves a block from its heap once one of that size has been
freed, and trims the heap's top only past twice that size.  Freed together,
two 400 KB buffers crossed that line on every call and were faulted in
again (165 minor faults per 474-sample window); one 800 KB block stays
mapped.  Nothing is kept between calls.
Only real nonincreasing signals are supported: complex or growing poles are
treated as artifacts and dropped.
The series coefficients are a separate linear least-squares fit of
``exp(-rate * t)`` on the trace's times, :func:`fit_amplitudes`, the
package's one exponential fit, run by the callers that read them.
The pole solve keeps its truncated factors, from which
:func:`heatpencil.bounds.certificate_inputs` reads the error certificate's
spectral inputs; this module imports nothing of the package but ``model``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import SampleTrace, _exp_masked

# Eigenvalues whose relative imaginary part exceeds this are discarded as
# conjugate-pair artifacts; below it the real part is taken.
_REALNESS_TOL = 1e-6
# Poles in (1, 1 + _UNIT_POLE_SLACK] are rounding images of the constant mode.
_UNIT_POLE_SLACK = 1e-9
# Rates below _ZERO_RATE_TOL / period are clamped to exactly zero.
_ZERO_RATE_TOL = 1e-12
# Windows with a pencil parameter L at least this large are solved on a
# sketch of Y.  The reference windows (L = 17 and 27) stay on the direct
# path bit for bit: the published certificate is rounding-dependent, and
# heatpencil.reference rebuilds it from the free window's direct blocks;
# compressing windows of their size also cost the Monte Carlo workload
# about 9% when it was measured with a QR.
_COMPRESS_COLUMNS = 48
# Singular values at or above this fraction of the largest count toward the
# model order: the paper's cutoff, used for every published value.
_EPSILON = 1e-10
# A singular value of Y within this factor of that cutoff is not decided from
# Y0's factors: analyze then computes Y's spectrum and counts it directly.
_ORDER_BAND = 1.01
# Columns of the Gaussian test matrix that sketches a compressed window's
# range, and the seed of its generator.  The numerical rank of a noiseless
# window is at most 2 on the free window and 8 on the reconstruction window.
# Below 12 columns delta itself grows: at 8 or 6 it reads a median 1.13x or
# 1.28x larger on the ``long`` free windows of seeds 1-3 (1.38x or 1.90x on
# the reconstruction windows), and the certificate widens with it.
_SKETCH_COLUMNS = 12
_SKETCH_SEED = 2011


class PencilError(Exception):
    """Estimation failed in a way the caller must handle."""


class RankDeficiencyError(PencilError):
    """The requested order exceeds the numerical rank of the data."""


class DegenerateRatesError(PencilError):
    """The amplitude design matrix is rank deficient."""


class ShortTraceError(PencilError, ValueError):
    """The trace has too few samples to form the pencil.

    Also a ``ValueError``, so callers that catch ``ValueError`` still catch
    it."""


def resolve_pencil_parameter(n: int) -> int:
    """Hankel split L for a trace of length n: N/3, rounded up to
    floor(N/3) + 1 when N is not divisible by 3."""
    return n // 3 if n % 3 == 0 else n // 3 + 1


def build_hankel(trace: SampleTrace) -> np.ndarray:
    """The (N-L) x (L+1) Hankel matrix ``Y[r, c] = y[r + c]`` of a trace of at
    least 9 samples, as a read-only view of ``trace.values``."""
    n = trace.values.size
    if n < 9:
        raise ShortTraceError(f"need at least 9 samples to form the pencil, got {n}")
    length = resolve_pencil_parameter(n)
    # as_strided skips sliding_window_view's argument checks, which cost more
    # than the view itself on reference-sized windows.
    step = trace.values.strides[0]
    return np.lib.stride_tricks.as_strided(
        trace.values, shape=(n - length, length + 1), strides=(step, step), writeable=False
    )


def detect_order(sigma: np.ndarray, epsilon: float) -> int:
    """Count singular values at or above ``epsilon`` relative to the largest.

    ``sigma`` is a singular spectrum in descending order.  An all-zero
    spectrum reports order 0 (no signal), not an error.
    """
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma / sigma[0] >= epsilon))


@dataclass(frozen=True)
class TruncatedPencil:
    """Rank-M factors of Y0, with the pencil they factor.

    ``y0`` and ``y1`` are the reversed column blocks ``[:, L-1::-1]`` and
    ``[:, L:0:-1]`` of the matrix the pencil was formed from, held as
    C-contiguous copies.  On the direct path that matrix is the Hankel
    matrix Y, so ``y0[r, c] = y[L-1-c + r]`` and ``y1[r, c] = y[L-c + r]``
    have N-L rows; on a compressed window (L >= ``_COMPRESS_COLUMNS``) it is
    the sketch ``B = Q.T @ Y`` of ``_SKETCH_COLUMNS`` rows, or Y's
    triangular factor R of L+1 rows where the sketch misses too much, so
    they are ``Q.T @ Y0`` and ``Q.T @ Y1``, which have the same singular
    values, 2-norms and pencil up to the norm of what Q misses.
    ``y0`` is approximated by ``(um * sv) @ vm.T``; the poles are the
    eigenvalues of ``(um.T @ y1 @ vm) / sv[:, None]``.  As
    :func:`factor_pencil` returns them, the factors are Y0's whole thin SVD;
    a wide Y0 (the sketch's) is factored through its transpose, so ``um``
    and ``vm`` are then the transposed SVD's right and left factors.
    """

    y0: np.ndarray = field(repr=False)
    y1: np.ndarray = field(repr=False)
    um: np.ndarray = field(repr=False)
    sv: np.ndarray = field(repr=False)
    vm: np.ndarray = field(repr=False)


def factor_pencil(y: np.ndarray) -> TruncatedPencil:
    """The pencil blocks of the Hankel matrix ``y`` with Y0's thin SVD.

    ``y`` may also be any ``Q.T @ Y`` with orthonormal Q spanning Y's
    columns, such as the triangular factor R of ``Y = QR``: only products
    with Y's column space enter the pencil.  The first column of ``y1`` is
    the column of ``y`` that Y0 lacks.  A Y0 with fewer rows than columns,
    the 12 x L block of a sketch, is factored as ``Y0.T = V S U.T``:
    LAPACK's tall path takes a quarter to a third less time on it.
    """
    length = y.shape[1] - 1
    # Contiguous copies: the BLAS products of the pole solve and the
    # certificate round differently on strided views.
    y0 = np.ascontiguousarray(y[:, length - 1 :: -1])
    y1 = np.ascontiguousarray(y[:, length:0:-1])
    if y0.shape[0] < y0.shape[1]:
        v, s, ut = np.linalg.svd(y0.T, full_matrices=False)
        return TruncatedPencil(y0=y0, y1=y1, um=ut.T, sv=s, vm=v)
    u, s, vt = np.linalg.svd(y0, full_matrices=False)
    return TruncatedPencil(y0=y0, y1=y1, um=u, sv=s, vm=vt.T)


def estimate_poles(
    factors: TruncatedPencil, order: int
) -> tuple[np.ndarray, TruncatedPencil]:
    """Eigenvalues of the rank-``order`` truncated pencil, sorted by real
    part, from the factorization :func:`factor_pencil` returns.

    Returns the possibly complex eigenvalues together with the factors
    truncated to ``order``, from which the error certificate's spectral
    inputs are read.
    """
    rows, length = factors.y0.shape
    if not (1 <= order <= min(rows, length)):
        raise ValueError(f"order {order} invalid for a {rows}x{length} pencil")
    if factors.sv[order - 1] == 0.0:
        raise RankDeficiencyError(
            f"order {order} exceeds the rank of the data (sigma_{order} = 0)"
        )
    um = factors.um[:, :order]
    vm = factors.vm[:, :order]
    a = factors.sv[:order]
    z_e = (um.T @ factors.y1 @ vm) / a[:, None]
    eigvals = np.linalg.eigvals(z_e)
    eigvals = eigvals[np.argsort(-eigvals.real)]
    return eigvals, TruncatedPencil(y0=factors.y0, y1=factors.y1, um=um, sv=a, vm=vm)


def poles_to_rates(poles: np.ndarray, period: float) -> np.ndarray:
    """Convert poles ``z = exp(-rate * period)`` to decay rates.

    Rates with magnitude below 1e-12 / period are clamped to exactly zero so
    the constant mode survives later index arithmetic.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    poles = np.asarray(poles, dtype=float)
    if (poles <= 0).any():
        raise PencilError(
            f"nonpositive pole {poles[poles <= 0][0]} has no decay-rate reading"
        )
    rates = -np.log(poles) / period
    rates[np.abs(rates) < _ZERO_RATE_TOL / period] = 0.0
    return rates


def fit_amplitudes(trace: SampleTrace, rates: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``sum_i R_i exp(-rate_i * t)`` on
    ``trace.times``, solved through the SVD, never the normal equations.

    A rank-deficient design raises :class:`DegenerateRatesError` naming the
    modes whose column decayed below rounding by ``t_start``, or otherwise
    the closest rate pair.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0:
        return np.zeros(0)
    if trace.values.size < rates.size:
        raise ValueError(
            f"{rates.size} rates need at least as many samples, "
            f"got {trace.values.size}"
        )
    design = _exp_masked(-np.outer(trace.times, rates))
    amps, _, rank, _ = np.linalg.lstsq(design, trace.values, rcond=None)
    if rank < rates.size:
        # lstsq cuts at eps * max(shape) * sigma_max, and sigma_max is at
        # least the largest column norm.
        norms = np.sqrt((design * design).sum(axis=0))
        faded = rates[norms <= np.finfo(float).eps * max(design.shape) * norms.max()]
        if faded.size:
            cause = (
                f": the mode(s) with rate {', '.join(f'{r:.6g}' for r in faded)} "
                f"decayed below rounding by t = {trace.t_start:g}"
            )
        else:
            # A lone rate is deficient only when its column is zero: faded.
            ordered = np.sort(rates)
            j = int(np.argmin(np.diff(ordered)))
            cause = f"; closest rate pair is {ordered[j]:.6g} and {ordered[j + 1]:.6g}"
        raise DegenerateRatesError(f"amplitude design matrix is rank deficient{cause}")
    return amps


@dataclass(frozen=True)
class PencilEstimate:
    """Pole-only estimator output for one trace.

    ``poles`` descend and ``rates`` ascend.  ``truncated_pencil`` holds the
    factors of the pole solve at the detected order (None when no signal was
    detected): blocks of the Hankel matrix Y below ``_COMPRESS_COLUMNS``
    columns, blocks of its sketch B (or of its triangular factor R) at or
    above it.  ``singular_values`` is the spectrum of the block Y0 the pole
    solve factored, from which the order on Y is read: Y0's L values on the
    direct path, B's 12 on a sketched window and L on one solved on R.
    ``dropped_norm`` is the Frobenius norm delta of ``Y - Q @ B``, formed
    explicitly, so it includes the sketch's own rounding; it is at most a
    tenth of the order cutoff, and 0.0 on the direct path and on R.
    ``order`` counts the poles kept after complex and growing ones are
    discarded.
    """

    order: int
    poles: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    truncated_pencil: TruncatedPencil | None = field(repr=False)
    pencil_parameter: int
    dropped_norm: float = 0.0


def _order_from_factors(factors: TruncatedPencil) -> int | None:
    """``detect_order(svdvals(Y), _EPSILON)`` read off Y0's thin SVD, or
    None where the factors leave it open.

    Y is Y0 plus the one column c that Y0 lacks, ``y1[:, 0]``.  With
    p = U.T c and r the norm of c's part outside U's columns, Y Y.T is
    ``diag(s**2, 0) + [p; r] [p; r].T`` in the basis of U and that part, so
    Y's singular values interlace Y0's: ``s_k <= sigma_k(Y) <= s_{k-1}``.
    sigma_1(Y) lies between ``max(|c|, hypot(s_1, p_1))`` and
    ``w = hypot(s_1, |c|)``, which puts the cutoff ``_EPSILON * sigma_1(Y)``
    within [low, high], that bracket widened by ``_ORDER_BAND`` each way.
    When m singular values of Y0 lie above high and none within a further
    band of [low, high], sigma_1..sigma_m(Y) count and those after
    sigma_{m+1}(Y) do not.  By the secular equation (Bunch & Nielsen,
    "Updating the singular value decomposition", Numer. Math. 31, 1978),
    ``sigma_{m+1}(Y) >= t`` exactly when
    ``1 + sum p_i**2 / (s_i**2 - t**2) - r**2 / t**2 <= 0``, for any t
    strictly between s_{m+1} and s_m.  Evaluated at low and at high, it
    decides the order unless sigma_{m+1}(Y) lies between them.  The band
    absorbs the rounding of both factorizations, a few millionths of the
    cutoff.
    Everything is taken in units of w, under which nothing overflows;
    factors with s_1 = 0, or with ``s_1 * w`` past float64, are left open.
    """
    s, um, c = factors.sv, factors.um, factors.y1[:, 0]
    s1 = float(s[0])
    # math.hypot scales its arguments: it overflows only where its result does
    norm_c = math.hypot(*c.tolist())
    w = math.hypot(s1, norm_c)
    if not (s1 > 0.0 and math.isfinite(s1 * w)):
        return None
    cw = c / w
    p = cw @ um
    rest = cw - um @ p
    r2 = float(rest @ rest)
    sw2, p2 = (s / w) ** 2, p * p
    low = _EPSILON * max(norm_c / w, math.hypot(s1 / w, p[0])) / _ORDER_BAND
    high = _EPSILON * _ORDER_BAND
    # Y0's singular values a further band above high
    m = detect_order(s, _ORDER_BAND * high * w / s1)
    if m < s.size and sw2[m] * _ORDER_BAND**2 >= low * low:
        return None

    def secular(t: float) -> float:
        return 1.0 + float((p2 / (sw2 - t * t)).sum()) - r2 / (t * t)

    if secular(low) > 0.0:
        return m
    if secular(high) <= 0.0:
        return m + 1
    return None


def _overflow_error(trace: SampleTrace) -> PencilError:
    """The refusal of a trace whose Hankel matrix's norm overflows float64."""
    return PencilError(
        f"the Hankel matrix's largest singular value overflows float64 "
        f"(max |y| = {np.max(np.abs(trace.values)):.2g}); rescale the trace"
    )


@functools.lru_cache(maxsize=8)
def _test_matrix(columns: int) -> np.ndarray:
    """The read-only ``columns x _SKETCH_COLUMNS`` Gaussian test matrix Omega.

    Its entries are the first ``columns * _SKETCH_COLUMNS`` draws, row by
    row, of ``np.random.default_rng(_SKETCH_SEED).standard_normal``, a
    generator of its own: numpy's global one is neither read nor advanced.
    The last 8 shapes are kept."""
    omega = np.random.default_rng(_SKETCH_SEED).standard_normal((columns, _SKETCH_COLUMNS))
    omega.flags.writeable = False
    return omega


def _compress(y: np.ndarray, e: np.ndarray) -> tuple[TruncatedPencil, float]:
    """The pencil factors of ``Q.T @ y`` for an orthonormal Q whose columns
    nearly span ``y``'s, with the norm delta of what Q misses.

    Q is the range sketch of Halko, Martinsson & Tropp ("Finding structure
    with randomness", SIAM Rev. 53(2), 2011): QR = y @ Omega, Omega the
    (L+1) x ``_SKETCH_COLUMNS`` test matrix.  B = Q.T @ y is re-projected
    once, B += Q.T @ E with E = y - Q @ B, which takes back what the first
    pass's rounding left in Q's range, and delta = ||y - Q @ B||_F is formed
    explicitly.  Where delta exceeds the limit, a tenth of the order cutoff
    ``_EPSILON * sigma_1`` with sigma_1 that of B's Y0 block, the sketch
    misses part of the spectrum the order counts, as on a noisy or slowly
    diffusing window, and the factors are those of y's triangular factor R
    instead, with delta = 0: the sketch's limit k = L + 1 with Omega = I.
    Both residuals are written into ``e``, a buffer of y's shape that
    :func:`analyze` allocates together with y, so that the window's large
    arrays are one block (module docstring).  ``y`` must be scaled so that
    no product overflows."""
    q = np.linalg.qr(y @ _test_matrix(y.shape[1]))[0]
    b = q.T @ y
    # E = y - Q @ B twice: once to re-project, once for delta
    np.matmul(q, b, out=e)
    np.subtract(y, e, out=e)
    b += q.T @ e
    np.matmul(q, b, out=e)
    np.subtract(y, e, out=e)
    dropped = math.sqrt(float(np.vdot(e, e)))
    factors = factor_pencil(b)
    if dropped <= 0.1 * _EPSILON * float(factors.sv[0]):
        return factors, dropped
    return factor_pencil(np.linalg.qr(y, mode="r")), 0.0


def analyze(trace: SampleTrace) -> PencilEstimate:
    """Run the estimator: order detection, poles, rates in ascending order.

    The order counts singular values of Y at or above ``_EPSILON`` relative
    to the largest.  One thin SVD of Y0 decides it, through interlacing and
    the secular equation of the one column Y0 lacks
    (:func:`_order_from_factors`), and the same factors give the poles.
    Only when a singular value of Y lies within ``_ORDER_BAND`` of the
    cutoff, or the factors are zero or too large to bound, is Y's spectrum
    computed and counted directly.  When L is at least ``_COMPRESS_COLUMNS``,
    Y is first scaled by the power of two that brings max |y| into
    [0.5, 1), so that no product overflows and a trace scaled by a power of
    two gives the same bits, and then reduced to its sketch B
    (:func:`_compress`); the scaled Y and the sketch's residual are the two
    halves of one array allocated per call, which keeps repeated calls free
    of page faults without a buffer kept between them, so ``analyze`` stays
    reentrant.  Every factorization, the order's included, runs on
    B, and the estimate's factors, spectrum and ``dropped_norm`` are scaled
    back.  B keeps the order: ``sigma_j(B) <= sigma_j(Y) <=
    hypot(sigma_j(B), delta)``, and with delta at most a tenth of the
    cutoff, an order decided outside ``_ORDER_BAND`` on B is the order on
    Y; within the band, Y's spectrum is counted.  Complex eigenvalue
    pairs and poles outside (0, 1 + 1e-9] are discarded with a warning,
    reducing the reported order; poles within rounding of 1 are clamped to
    exactly 1 (the constant mode).  An order detected on Y beyond the L
    columns of Y0 raises :class:`RankDeficiencyError`.  A trace whose Hankel
    matrix has a singular value past float64 raises :class:`PencilError`,
    as does a compressed window whose upper bound on that value,
    ``hypot(sigma_1(Y0), ||c||)`` with c the column Y0 lacks, is past it.
    """
    y = build_hankel(trace)
    length = y.shape[1] - 1
    exponent, dropped = 0, 0.0
    if length >= _COMPRESS_COLUMNS:
        # Y / 2**exponent has entries below 1: no product of the sketch
        # overflows, and a trace scaled by a power of two gives the same bits
        exponent = math.frexp(float(np.max(np.abs(trace.values))))[1]
        work = np.empty((2, *y.shape))
        y = np.ldexp(y, -exponent, out=work[0])
        factors, dropped = _compress(y, work[1])
        norm_bound = math.hypot(float(factors.sv[0]), *factors.y1[:, 0].tolist())
        try:
            math.ldexp(norm_bound, exponent)
        except OverflowError:
            raise _overflow_error(trace) from None
    else:
        factors = factor_pencil(y)
    order = _order_from_factors(factors)
    if order is None:
        sigma_y = np.linalg.svd(y, compute_uv=False)
        if not math.isfinite(sigma_y[0]):
            raise _overflow_error(trace)
        order = detect_order(sigma_y, _EPSILON)
    if order > length:
        raise RankDeficiencyError(
            f"order {order} detected on Y exceeds the {length} columns of Y0"
        )
    poles, truncated = np.zeros(0), None
    if order:
        eigvals, truncated = estimate_poles(factors, order)
        imag_ok = np.abs(eigvals.imag) <= _REALNESS_TOL * np.abs(eigvals)
        if not imag_ok.all():
            warnings.warn(
                f"discarding {int(np.sum(~imag_ok))} complex pencil eigenvalue(s); "
                "the model class is real",
                stacklevel=2,
            )
        poles = eigvals.real[imag_ok]
        in_range = (poles > 0.0) & (poles <= 1.0 + _UNIT_POLE_SLACK)
        if not in_range.all():
            warnings.warn(
                f"discarding {int(np.sum(~in_range))} pole(s) outside (0, 1]; "
                "growth is not physical for a cooling trace",
                stacklevel=2,
            )
        poles = np.minimum(poles[in_range], 1.0)
    sigma = factors.sv
    if exponent:
        dropped = math.ldexp(dropped, exponent)
        sigma = np.ldexp(sigma, exponent)
        if truncated is not None:
            truncated = replace(
                truncated,
                y0=np.ldexp(truncated.y0, exponent),
                y1=np.ldexp(truncated.y1, exponent),
                sv=np.ldexp(truncated.sv, exponent),
            )
    return PencilEstimate(
        order=poles.size,
        poles=poles,
        rates=poles_to_rates(poles, trace.period),
        singular_values=sigma,
        truncated_pencil=truncated,
        pencil_parameter=length,
        dropped_norm=dropped,
    )
