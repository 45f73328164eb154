"""Computable error certificates for the spectral identification.

Everything here is plain arithmetic over a priori data (a norm bound on the
initial profile and a lower bound on the diffusivity) plus spectral
diagnostics recorded by the pencil solve.  The chain is: a truncation-tail
bound for the discarded modes, Frobenius bounds for the Hankel perturbations
they induce, a normalized perturbation level rho, a Bauer-Fike style pole
perturbation bound (valid only when rho < 1), and finally an interval for the
identified diffusivity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

PI_SQ = math.pi**2
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class CertificateUnavailableError(RuntimeError):
    """The perturbation level rho is not below one."""


class DefectiveEigenbasisError(RuntimeError):
    """The eigenvector matrix is numerically singular."""


@dataclass(frozen=True)
class BoundInputs:
    """A priori data plus pencil diagnostics feeding the certificate.

    m0 bounds the initial profile's L2 norm from above, alpha0 bounds the
    diffusivity from below; both are user-supplied priors.  The rest is
    recorded by the estimator: retained order m, sample count n, pencil
    parameter l, window start t1, sampling period ts, and the spectral
    diagnostics sigma_m, y1_norm, y0_trunc_gap, kappa_xm.  Every real input
    must be finite, except kappa_xm, which is +inf for a defective eigenbasis.
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
        for name in ("m0", "alpha0", "t1", "ts", "sigma_m", "y1_norm", "y0_trunc_gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.kappa_xm):
            raise ValueError("kappa_xm must not be NaN")
        if self.m0 < 0:
            raise ValueError(f"norm prior must be nonnegative, got {self.m0}")
        for name in ("alpha0", "t1", "ts"):
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
    """Frobenius-norm bounds for the tail-induced perturbation of Y0 and Y1."""
    theta = inputs.theta
    prefactor = tail_bound(inputs.m0, inputs.alpha0, inputs.m, inputs.t1)
    frob_y0 = prefactor * math.sqrt(
        decay_envelope(theta, inputs.l) + (1.0 + 1.0 / theta) ** 2
    )
    frob_y1 = prefactor * math.sqrt(
        decay_envelope(theta, inputs.l + 1)
        + (1.0 / theta) * (1.0 + 1.0 / theta) * math.exp(-theta)
    )
    return frob_y0, frob_y1


def rho(inputs: BoundInputs) -> float:
    """Normalized perturbation level; the certificate requires rho < 1."""
    frob_y0, _ = frobenius_bounds(inputs)
    return (inputs.y0_trunc_gap + frob_y0) / inputs.sigma_m


@dataclass(frozen=True)
class PolePerturbationBound:
    """Both forms of the pole bound plus which hypothesis applied."""

    applicable: float
    special: float | None
    general: float
    branch: str
    rho: float


def pole_error_bound(inputs: BoundInputs) -> PolePerturbationBound:
    """Bound on the pole perturbation caused by the discarded tail.

    The special form applies when theta > 1/(l-1); the general form is always
    computed.  Raises when rho >= 1, where the derivation has no force.
    """
    level = rho(inputs)
    if level >= 1.0:
        raise CertificateUnavailableError(
            f"certificate unavailable (rho = {level:.4g} >= 1)"
        )
    _, frob_y1 = frobenius_bounds(inputs)
    scale = inputs.kappa_xm / (inputs.sigma_m * (1.0 - level))
    general = scale * (_GOLDEN * level * inputs.y1_norm + frob_y1)
    theta = inputs.theta
    if theta > 1.0 / (inputs.l - 1):
        special = scale * level * (_GOLDEN * inputs.y1_norm + inputs.sigma_m)
        return PolePerturbationBound(
            applicable=special, special=special, general=general,
            branch="special", rho=level,
        )
    return PolePerturbationBound(
        applicable=general, special=None, general=general,
        branch="general", rho=level,
    )


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
    """Spectral condition number sigma_max / sigma_min of a square matrix."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= 1e3 * np.finfo(float).eps * sv[0]:
        raise DefectiveEigenbasisError(
            "eigenvector matrix is numerically singular (defective pencil)"
        )
    return float(sv[0] / sv[-1])


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

    The diffusivity interval is populated only when an estimated pole with a
    nonzero mode index (and the estimate itself) are supplied.
    """
    theta = inputs.theta
    frob_y0, frob_y1 = frobenius_bounds(inputs)
    bound = pole_error_bound(inputs)
    eig_bound = a_bound = interval = None
    if z_tilde is not None and mode_index:
        eig_bound, a_bound = alpha_error_bound(
            bound.applicable, z_tilde, inputs.ts, mode_index
        )
        if alpha_hat is not None:
            interval = (alpha_hat - a_bound, alpha_hat + a_bound)
    return ErrorCertificate(
        inputs=inputs,
        theta=theta,
        decay_envelope=decay_envelope(theta, inputs.l),
        tail_bound_t1=tail_bound(inputs.m0, inputs.alpha0, inputs.m, inputs.t1),
        frob_y0=frob_y0,
        frob_y1=frob_y1,
        rho=bound.rho,
        pole_bound=bound.applicable,
        pole_bound_special=bound.special,
        pole_bound_general=bound.general,
        branch=bound.branch,
        mode_index=mode_index,
        z_tilde=z_tilde,
        eigenvalue_bound=eig_bound,
        alpha_bound=a_bound,
        alpha_hat=alpha_hat,
        alpha_interval=interval,
    )
