"""Computable error certificates for the spectral identification.

Everything here is plain arithmetic over a priori data (a norm bound on the
initial profile and a lower bound on the diffusivity) plus spectral
diagnostics that :func:`certificate_inputs` reads from the factors the pole
solve keeps.  The chain is: a truncation-tail bound for the discarded modes,
Frobenius bounds for the Hankel perturbations they induce, a normalized
perturbation level rho, a Bauer-Fike style pole perturbation bound (valid
only when rho < 1), and finally an interval for the identified diffusivity;
:func:`build_certificate` runs it.

The spectral inputs come from the pole solve's own numbers
(:func:`certificate_inputs`), on every window: the truncation gap is Y0's
computed sigma_{M+1} plus a rounding allowance eps * sigma_1, ||Y1||_2 is
bounded by hypot(sigma_1(Y0), ||c||), c the column Y0 lacks, and kappa is
that of the exact eigenbasis of the truncated pencil product, taken from a
matrix of at most 2M x 2M, so no factorization is L x L.  The allowance
covers the computed singular value's error: LAPACK's SVD is backward
stable, so sigma-hat_i is an exact singular value of Y0 + E with
||E||_2 <= p(m, n) eps ||Y0||_2, p a modestly growing function of the shape
(LAPACK Users' Guide, 3rd ed., section 4.9), and Weyl's inequality gives
|sigma-hat_i - sigma_i| <= ||E||_2.  That p is a worst case: taking it as
sqrt(rows * cols) widens the ``long`` pole bounds a median 58x, while
sigma-hat_{M+1} moves between the Haswell and Sandybridge OpenBLAS kernels
by less than 0.61 eps sigma_1 on the seed-1 ``long`` pool; so the
allowance takes p = 1.

On a compressed window the pole solve factored the 16-row sketch
B = Q.T @ Y of :func:`heatpencil.pencil.analyze`, and the gap and the norm
take the Frobenius norm delta of ``Y - Q @ B`` in quadrature.  Rotate Y's
rows by the orthogonal [Q, Q_perp]: with B = Q.T @ Y, the rotated Y is the
row stack [A; F] with A = B and F = Q_perp.T @ Y, whose Frobenius norm is
||Y - Q Q.T Y||_F = delta, and rotating rows changes no singular value,
2-norm or pencil.  For rows stacked as [A; F],
||[A; F]||_2^2 <= ||A||_2^2 + ||F||_2^2, and Weyl's inequality on
[A; F].T [A; F] = A.T A + F.T F gives
sigma_i([A; F])^2 <= sigma_i(A)^2 + ||F||_2^2.  With A's Y0 block, A_M its
rank-M truncation and F's Y0 block, whose 2-norm is at most delta,
sigma_{M+1}(Y0) and the distance from Y0 to the rank-M matrix Q A_M the
pole solve uses are both at most ||[A - A_M; F]||_2 <=
hypot(sigma_{M+1}(A), delta).  A's Y1 block is made of columns of A's Y0
block and of its column c, so ||Y1||_2 <= hypot(sigma_1(A), ||c||, delta).
A window whose sketch misses more than a tenth of the order cutoff is
solved on Y's triangular factor R, all of whose rows are kept: F is empty
and delta = 0.  delta is formed explicitly from the computed Q and B, so
unlike a norm of R's trailing rows it includes the sketch's own rounding;
what the proof takes as exact beyond it, Q.T @ (Y - Q @ B) = 0 and Q
orthonormal, departs from exactness by rounding, which is left to the
eps * sigma_1 allowance.  On the
seed-1 ``long`` pool the pole bounds are a median 1.00x (at most 1.50x)
those of a solve on R's rows above eps * ||R||_F with their norm in
quadrature.

The published reference values were computed with rounding-chosen inputs
instead; :mod:`heatpencil.reference` rebuilds that certificate itself to
compare them.

It also owns the file formats: the certificate block of ``result.json``, which
:meth:`ErrorCertificate.to_dict` writes and :func:`read_certificate` reads, and
the ``M0`` and ``alpha0`` of a priors file, which :func:`read_priors` reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import pencil
from .model import PI_SQ, SampleTrace, _number

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class CertificateUnavailableError(RuntimeError):
    """The bounds' premises fail: rho >= 1, 9 samples or fewer, or no signal."""


def _check_priors(m0: float, alpha0: float) -> None:
    """Refuse priors that no certificate can use: the norm bound m0 must be
    finite and nonnegative, the diffusivity bound alpha0 finite and positive."""
    for name, value in (("m0", m0), ("alpha0", alpha0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if m0 < 0:
        raise ValueError(f"norm prior must be nonnegative, got {m0}")
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")


@dataclass(frozen=True)
class BoundInputs:
    """A priori data plus pencil diagnostics feeding the certificate.

    m0 bounds the initial profile's L2 norm from above, alpha0 bounds the
    diffusivity from below; both are user-supplied priors.  The rest comes
    from one pole solve (see :func:`certificate_inputs`): retained order m,
    sample count n, pencil parameter l, window start t1, sampling period ts,
    and the spectral diagnostics sigma_m, y1_norm, y0_trunc_gap, kappa_xm.
    Every real input must be finite, except kappa_xm, which is +inf for a
    defective eigenbasis.
    """

    m0: float
    alpha0: float
    m: int
    n: int
    l: int
    t1: float
    ts: float
    sigma_m: float
    y1_norm: float
    y0_trunc_gap: float
    kappa_xm: float

    def __post_init__(self) -> None:
        _check_priors(self.m0, self.alpha0)
        for name in ("t1", "ts", "sigma_m", "y1_norm", "y0_trunc_gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.kappa_xm):
            raise ValueError("kappa_xm must not be NaN")
        for name in ("t1", "ts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.m < 1:
            raise ValueError(f"retained order must be at least 1, got {self.m}")
        if self.n <= 9:
            raise ValueError(f"the bounds require more than 9 samples, got {self.n}")
        if self.l < 2:
            raise ValueError(f"pencil parameter must be at least 2, got {self.l}")
        if self.sigma_m <= 0:
            raise ValueError(f"sigma_m must be positive, got {self.sigma_m}")
        for name in ("y1_norm", "y0_trunc_gap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def theta(self) -> float:
        return 2.0 * self.alpha0 * self.m**2 * PI_SQ * self.ts


def tail_bound(m0: float, alpha0: float, m: int, t: float) -> float:
    """Upper bound on the discarded-mode tail at time ``t``.

    ``(sqrt(2) + 1/(4 m pi^2 alpha0 t)) * m0 * exp(-alpha0 m^2 pi^2 t)``,
    valid for any profile with L2 norm at most m0 and diffusivity at least
    alpha0.
    """
    if m0 < 0:
        raise ValueError("norm prior must be nonnegative")
    if alpha0 <= 0 or t <= 0 or m < 1:
        raise ValueError("alpha0, t must be positive and m at least 1")
    prefactor = math.sqrt(2.0) + 1.0 / (4.0 * m * PI_SQ * alpha0 * t)
    return prefactor * m0 * math.exp(-alpha0 * m**2 * PI_SQ * t)


def decay_envelope(theta: float, l: int) -> float:
    """Piecewise envelope of the weighted geometric sums in the Hankel bounds.

    ``exp(-theta)`` for theta >= 1, ``(2/theta) e^{-1}`` for
    1/(l-1) < theta < 1, and ``(l-1) exp(-(l-1) theta)`` for
    0 < theta <= 1/(l-1).  The formula is implemented verbatim; it jumps at
    theta = 1/(l-1), so evaluations within 1% of that breakpoint trigger a
    warning rather than any smoothing.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if l < 2:
        raise ValueError(f"window length must be at least 2, got {l}")
    breakpoint_ = 1.0 / (l - 1)
    if theta < 1.0 and abs(theta - breakpoint_) <= 0.01 * breakpoint_:
        warnings.warn(
            f"theta = {theta:.6g} is within 1% of the envelope breakpoint "
            f"{breakpoint_:.6g}, where the formula is discontinuous",
            stacklevel=2,
        )
    if theta >= 1.0:
        return math.exp(-theta)
    if theta > breakpoint_:
        return 2.0 / theta * math.exp(-1.0)
    return (l - 1) * math.exp(-(l - 1) * theta)


def frobenius_bounds(inputs: BoundInputs) -> tuple[float, float]:
    """Frobenius-norm bounds for the tail-induced perturbation of Y0 and Y1.

    A diffusivity prior so weak that the bounds leave float64 (alpha0 below
    about 1e-155, where 1/theta squared overflows or theta underflows to 0)
    gives +inf for both, which withholds the certificate as rho >= 1.
    """
    return _frobenius_terms(inputs)[2:]


def _frobenius_terms(inputs: BoundInputs) -> tuple[float, float, float, float]:
    """The decay envelope at l and the tail bound at t1 (NaN where the bounds
    leave float64), then both bounds, each evaluated once per certificate."""
    theta = inputs.theta
    try:
        head = (1.0 + 1.0 / theta) ** 2
    except (OverflowError, ZeroDivisionError):
        return math.nan, math.nan, math.inf, math.inf
    prefactor = tail_bound(inputs.m0, inputs.alpha0, inputs.m, inputs.t1)
    envelope = decay_envelope(theta, inputs.l)
    frob_y0 = prefactor * math.sqrt(envelope + head)
    frob_y1 = prefactor * math.sqrt(
        decay_envelope(theta, inputs.l + 1)
        + (1.0 / theta) * (1.0 + 1.0 / theta) * math.exp(-theta)
    )
    return envelope, prefactor, frob_y0, frob_y1


def alpha_error_bound(
    pole_bound: float, z_tilde: float, ts: float, mode_index: int
) -> tuple[float, float]:
    """Convert a pole bound into a decay-rate bound and a diffusivity bound.

    Uses the mean-value substitution ``|rate error| <= pole_bound/(ts * z)``
    with the estimated pole standing in for the intermediate point, which is
    justified only when the bound is small next to the pole; a warning is
    issued when ``pole_bound > 0.1 * z_tilde``.  Mode 0 carries no
    diffusivity information.
    """
    if mode_index == 0:
        raise ValueError("the constant mode carries no diffusivity information")
    if mode_index < 0:
        raise ValueError(f"mode index must be positive, got {mode_index}")
    if z_tilde <= 0 or ts <= 0:
        raise ValueError("pole and period must be positive")
    if pole_bound < 0:
        raise ValueError("pole bound must be nonnegative")
    if pole_bound > 0.1 * z_tilde:
        warnings.warn(
            f"pole bound {pole_bound:.3g} is not small next to the pole "
            f"{z_tilde:.3g}; substituting the estimate for the intermediate "
            "point is unjustified",
            stacklevel=2,
        )
    eigenvalue_bound = pole_bound / (ts * z_tilde)
    return eigenvalue_bound, eigenvalue_bound / (mode_index**2 * PI_SQ)


def condition_number(x: np.ndarray) -> float:
    """Spectral condition number sigma_max / sigma_min of a square matrix,
    +inf when it is numerically singular (sigma_min <= 1e3 eps sigma_max)."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= 1e3 * np.finfo(float).eps * sv[0]:
        return math.inf
    return float(sv[0] / sv[-1])


def _exact_kappa(factors: pencil.TruncatedPencil) -> float:
    """kappa of the exact eigenbasis X of the truncated product ``P = V_M B``
    (see :func:`certificate_inputs`) from M-sized work, or +inf where X is
    numerically singular or the pole matrix Z is singular or so near it that
    the solve overflows: a zero pole leaves X undefined."""
    um, a, vm = factors.um, factors.sv, factors.vm
    uy1 = um.T @ factors.y1
    z = (uy1 @ vm) / a[:, None]  # as estimate_poles forms it
    _, s = np.linalg.eig(z)
    try:
        w = np.linalg.solve(z, uy1 / a[:, None]) - vm.T
    except np.linalg.LinAlgError:
        return math.inf
    if not np.isfinite(w).all():
        return math.inf
    p, sigma, _ = np.linalg.svd(w, full_matrices=False)
    k = min(a.size, vm.shape[0] - a.size)
    return condition_number(
        np.block([[s, -p[:, :k] * sigma[:k]], [np.zeros((k, a.size)), np.eye(k)]])
    )


def certificate_inputs(
    estimate: pencil.PencilEstimate, trace: SampleTrace, m0: float, alpha0: float
) -> BoundInputs:
    """The certificate's inputs for the pole solve ``estimate`` of ``trace``.

    One recipe serves every window.  Y0 and Y1 are the Hankel blocks, or on
    a compressed window the blocks ``Q.T @ Y0`` and ``Q.T @ Y1`` of Y's
    sketch B (or of its triangular factor R), with the same 2-norms, gap
    and pencil product up to delta = ``estimate.dropped_norm``, the norm of
    what Q misses (0 on the direct path and on R).  No factorization is
    L x L:
      1. the gap ||Y0 - Y0_M||_2 is bounded by
         ``hypot(singular_values[M], delta) + eps * singular_values[0]``
         (taken as 0 where M leaves no singular value out; see the module
         docstring for delta's quadrature and the allowance);
      2. ``y1_norm`` is ``hypot(sigma_1(Y0), ||c||, delta)``,
         c = ``y1[:, 0]``: the rows of Y1 the solve holds are columns of
         [Y0, c]'s, and ||[Y0, c]||^2 <= ||Y0||^2 + ||c||^2;
      3. ``kappa_xm`` is the condition number of an exact eigenbasis X of
         the truncated L x L product P = V_M B, with B = A^-1 U_M.T Y1 and
         Z = B V_M = S diag(lambda) S^-1 the M x M pole matrix:
         P X = X diag(lambda, 0) for X = [V_M S, V_perp - V_M C],
         C = Z^-1 B V_perp, and Bauer-Fike (Numer. Math. 2, 1960) holds for
         any X that diagonalizes P.  In the orthonormal basis [V_M, V_perp],
         X is [[S, -C], [0, I]]; with C = P' Sigma Q.T its thin SVD, X has
         the singular values of K = [[S, -P' Sigma], [0, I_k]],
         k = min(M, L - M), plus L - M - k ones, which lie between K's
         extremes.  V_perp is never formed: Z^-1 B V_M = I, so
         Z^-1 B - V_M.T = C V_perp.T, an M x L matrix with C's singular
         values and left vectors, of which the leading k are taken.
         Forming C C.T as Z^-1 B B.T Z^-T - I instead would lose half the
         digits to cancellation.  The value does not depend on the BLAS
         kernel; a singular or defective Z gives +inf.

    An estimate without signal, or a trace of 9 samples or fewer, raises
    :class:`CertificateUnavailableError`.
    """
    n = trace.values.size
    if n <= 9:
        raise CertificateUnavailableError(
            f"certificate unavailable (the bounds require more than 9 samples, got {n})"
        )
    factors = estimate.truncated_pencil
    if factors is None:
        raise CertificateUnavailableError("certificate unavailable (no signal detected)")
    a, sigma, delta = factors.sv, estimate.singular_values, estimate.dropped_norm
    s1 = float(sigma[0])
    tail = float(sigma[a.size]) if a.size < sigma.size else 0.0
    return BoundInputs(
        m0=m0, alpha0=alpha0, m=estimate.order, n=n, l=estimate.pencil_parameter,
        t1=trace.t_start, ts=trace.period, sigma_m=float(a[-1]),
        y1_norm=math.hypot(s1, *factors.y1[:, 0].tolist(), delta),
        y0_trunc_gap=math.hypot(tail, delta) + float(np.finfo(float).eps) * s1,
        kappa_xm=_exact_kappa(factors),
    )


@dataclass(frozen=True)
class ErrorCertificate:
    """Every analytic quantity of the error analysis, plus the alpha interval."""

    inputs: BoundInputs
    theta: float
    decay_envelope: float
    tail_bound_t1: float
    frob_y0: float
    frob_y1: float
    rho: float
    pole_bound: float
    pole_bound_special: float | None
    pole_bound_general: float
    branch: str
    mode_index: int | None
    z_tilde: float | None
    eigenvalue_bound: float | None
    alpha_bound: float | None
    alpha_hat: float | None
    alpha_interval: tuple[float, float] | None

    def to_dict(self) -> dict:
        return {
            "M0": self.inputs.m0,
            "alpha0": self.inputs.alpha0,
            "M": self.inputs.m,
            "N": self.inputs.n,
            "L": self.inputs.l,
            "T1": self.inputs.t1,
            "Ts": self.inputs.ts,
            "theta": self.theta,
            "M_theta_L": self.decay_envelope,
            "Y1_norm_2": self.inputs.y1_norm,
            "sigma_M": self.inputs.sigma_m,
            "Y0M_gap_2": self.inputs.y0_trunc_gap,
            "kappa_XM": self.inputs.kappa_xm,
            "rho": self.rho,
            "tail_bound_T1": self.tail_bound_t1,
            "frob_Y0": self.frob_y0,
            "frob_Y1": self.frob_y1,
            "pole_bound": self.pole_bound,
            "pole_bound_special": self.pole_bound_special,
            "pole_bound_general": self.pole_bound_general,
            "branch": self.branch,
            "mode_index": self.mode_index,
            "z_tilde": self.z_tilde,
            "eigenvalue_bound": self.eigenvalue_bound,
            "alpha_bound": self.alpha_bound,
            "alpha_hat": self.alpha_hat,
            "alpha_interval": list(self.alpha_interval) if self.alpha_interval else None,
        }


def build_certificate(
    inputs: BoundInputs,
    alpha_hat: float | None = None,
    z_tilde: float | None = None,
    mode_index: int | None = None,
) -> ErrorCertificate:
    """Assemble the full certificate.

    The pole bound takes its special form when theta > 1/(l-1); the general
    form is always computed.  Raises when rho >= 1, where the derivation has
    no force, and when rho is NaN (a zero norm prior times a tail prefactor
    that overflowed).  The diffusivity interval is populated only when an estimated
    pole with a nonzero mode index (and the estimate itself) are supplied,
    and only when that index is consistent with the prior alpha0: mode n
    decays at n^2 pi^2 alpha >= n^2 pi^2 alpha0, so the pole's certified
    rate, -ln(z_tilde)/ts plus the eigenvalue bound, must reach that.  A
    pole labelled with too high an index fails it and is withheld.
    """
    theta = inputs.theta
    envelope, tail_t1, frob_y0, frob_y1 = _frobenius_terms(inputs)
    rho = (inputs.y0_trunc_gap + frob_y0) / inputs.sigma_m
    if not rho < 1.0:
        raise CertificateUnavailableError(
            f"certificate unavailable (rho = {rho:.4g} >= 1)"
        )
    scale = inputs.kappa_xm / (inputs.sigma_m * (1.0 - rho))
    general = scale * (_GOLDEN * rho * inputs.y1_norm + frob_y1)
    special = None
    if theta > 1.0 / (inputs.l - 1):
        special = scale * rho * (_GOLDEN * inputs.y1_norm + inputs.sigma_m)
    pole_bound = general if special is None else special
    eig_bound = a_bound = interval = None
    if z_tilde is not None and mode_index:
        eig_bound, a_bound = alpha_error_bound(pole_bound, z_tilde, inputs.ts, mode_index)
        slowest = mode_index**2 * PI_SQ * inputs.alpha0
        if alpha_hat is not None and slowest <= -math.log(z_tilde) / inputs.ts + eig_bound:
            interval = (alpha_hat - a_bound, alpha_hat + a_bound)
    return ErrorCertificate(
        inputs=inputs,
        theta=theta,
        decay_envelope=envelope,
        tail_bound_t1=tail_t1,
        frob_y0=frob_y0,
        frob_y1=frob_y1,
        rho=rho,
        pole_bound=pole_bound,
        pole_bound_special=special,
        pole_bound_general=general,
        branch="general" if special is None else "special",
        mode_index=mode_index,
        z_tilde=z_tilde,
        eigenvalue_bound=eig_bound,
        alpha_bound=a_bound,
        alpha_hat=alpha_hat,
        alpha_interval=interval,
    )


def read_priors(data: dict, where: str) -> tuple[float, float]:
    """The ``M0`` and ``alpha0`` of a parsed priors object, checked as
    :class:`BoundInputs` checks them; ``where`` names its source in refusals."""
    priors = _number(data, "M0", where), _number(data, "alpha0", where)
    _check_priors(*priors)
    return priors


def read_certificate(data: dict, priors: tuple[float, float]) -> ErrorCertificate:
    """A parsed identification result's certificate, rebuilt under ``priors``
    by :func:`build_certificate` from what :meth:`ErrorCertificate.to_dict`
    wrote to its ``certificate`` block and from its top-level ``alpha_hat``.
    A null ``kappa_XM`` is the +inf that JSON cannot hold; a null
    ``z_tilde``, ``mode_index`` or ``alpha_hat`` is absent."""
    cert = data.get("certificate")
    if not cert:
        raise ValueError("input must be an identification result with a certificate block")
    if not isinstance(cert, dict):
        raise ValueError(f"certificate block must be a JSON object, got {type(cert).__name__}")
    if "kappa_XM" in cert and cert["kappa_XM"] is None:
        cert = {**cert, "kappa_XM": math.inf}

    def optional(block, name, kind=float):
        return None if block.get(name) is None else _number(block, name, "input", kind)

    inputs = BoundInputs(  # the block's keys in the order of BoundInputs' fields
        *priors,
        *(_number(cert, key, "certificate block", int) for key in ("M", "N", "L")),
        *(_number(cert, key, "certificate block")
          for key in ("T1", "Ts", "sigma_M", "Y1_norm_2", "Y0M_gap_2", "kappa_XM")),
    )
    return build_certificate(
        inputs,
        z_tilde=optional(cert, "z_tilde"),
        mode_index=optional(cert, "mode_index", int),
        alpha_hat=optional(data, "alpha_hat"),
    )
