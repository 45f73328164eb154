"""Built-in reference experiment and its published comparison values.

The reference problem takes diffusivity 4 and initial profile
``x - 9 cos(pi x) + 5 cos(3 pi x)`` (whose even cosine coefficients all
vanish, so the profile is deliberately blind to half the spectrum), windows
0.3 / 0.8 / 1.3, and 50 samples per window at period 0.01.  The published
run generated its flux-step data with the exponential drift series truncated
at 200 terms, so the reference problem pins ``control_series_terms=200``;
with the machine-precision tail instead, the two weakest controlled-window
modes land measurably elsewhere.

Two published values cannot be reproduced by any faithful double-precision
computation and are flagged ``known_unreproducible`` (the repro command and
the acceptance suite still compare against them and report the misses):

* the free-window coefficient -9.4077: the published sigma_M matches the
  exact-data value to all printed digits, which pins the underlying data to
  the true coefficient -9.40528; a clean least-squares fit on such data
  returns the true value, so the printed one reflects rounding inside the
  original solver (consistent with normal-equations conditioning of about
  1e12 on that fit);
* kappa = 17.9467: the eigenvector matrix of the truncated pencil product
  has a kernel of dimension L - M = 15 whose basis is rounding-determined;
  mathematically equivalent computation orders yield 14.8 to 21.6 on
  bit-identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PI_SQ, HeatProblem, evaluate_cosine_series
from .pipeline import PipelineConfig

REFERENCE_ALPHA = 4.0
REFERENCE_WINDOWS = (0.3, 0.8, 1.3)
REFERENCE_PRIORS = (15.0, 3.0)  # (m0, alpha0)
# (n1, n2, t0, n_rec) for model.sample_windows: 50 samples on each of the
# flux-free and flux-step windows and 79 on [0.01, t2), all at period 0.01.
REFERENCE_SCHEDULE = (50, 50, 0.01, 79)
REFERENCE_CONTROL_TERMS = 200


def reference_u0(x):
    """The reference initial profile."""
    x = np.asarray(x, dtype=float)
    return x - 9.0 * np.cos(np.pi * x) + 5.0 * np.cos(3.0 * np.pi * x)


def reference_u0_coefficients(n_max: int = 41) -> dict[int, float]:
    """Exact cosine coefficients of the reference profile.

    The linear part contributes -4 / (n pi)^2 at every odd n; the two cosine
    terms add -9 at n = 1 and +5 at n = 3; the mean is 1/2.
    """
    coeffs = {0: 0.5}
    for n in range(1, n_max + 1, 2):
        coeffs[n] = -4.0 / ((n * n) * PI_SQ)
    coeffs[1] += -9.0
    coeffs[3] += 5.0
    return coeffs


def reference_problem() -> HeatProblem:
    t1, t2, t3 = REFERENCE_WINDOWS
    return HeatProblem(
        alpha=REFERENCE_ALPHA,
        u0_coeffs=reference_u0_coefficients(),
        t1=t1,
        t2=t2,
        t3=t3,
        control_series_terms=REFERENCE_CONTROL_TERMS,
    )


def reference_config() -> PipelineConfig:
    return PipelineConfig()


@dataclass(frozen=True)
class FieldCheck:
    """One reference-value comparison."""

    name: str
    expected: float
    actual: float
    tolerance: float
    relative: bool
    known_unreproducible: bool = False
    note: str = ""

    @property
    def error(self) -> float:
        if self.relative:
            return abs(self.actual - self.expected) / abs(self.expected)
        return abs(self.actual - self.expected)

    @property
    def ok(self) -> bool:
        return self.error <= self.tolerance


# Published values, with the tolerances used by the acceptance gate.
STEP1_POLES = (1.0000, 0.6738)
STEP1_RATES = (0.0000, 39.4784)
STEP1_COEFFS = (0.5000, -9.4077)
STEP1_TOL = 5e-4

STEP3_ORDER = 5
STEP3_COEFFS_X100 = (-8.3333, 5.0661, 1.2665, 0.5664, 1.4090)
STEP3_RATES_X100 = (0.0000, 39.4784, 157.9137, 355.5370, 790.8813)
STEP3_TOL = 5e-3
STEP3_ACCEPTED = (1, 2)
STEP3_ALPHA = 4.0000
STEP3_ALPHA_TOL = 1e-3

CERT_THETA = 2.3687
CERT_ENVELOPE = 0.0936
CERT_Y1_NORM = 11.8427
CERT_SIGMA_M = 9.5089e-5
CERT_KAPPA = 17.9467
CERT_RHO = 1.4522e-10
CERT_POLE_BOUND = 5.2521e-4
CERT_ALPHA_INTERVAL = (3.9921, 4.0079)

GCV_K = 6
U0_REL_L2_TOL = 0.05
ALPHA_HAT = 4.0000
ALPHA_HAT_TOL = 5e-5

_COEFF_NOTE = (
    "published value reflects rounding inside the original fit; exact data "
    "pins the coefficient to -9.40528 (see package docs)"
)
_KAPPA_NOTE = (
    "published value is rounding-determined through the kernel basis of the "
    "truncated pencil product; equivalent computations span 14.8-21.6"
)


def compare_reference_run(result, u0_rel_l2_error: float) -> list[FieldCheck]:
    """Compare an identification run on the reference problem with the
    published values; returns one check per field."""
    checks: list[FieldCheck] = []
    free = result.free_spectrum
    period = 0.01
    poles = [math.exp(-rate * period) for rate in free.rates]
    for k, (z_ref, z_act) in enumerate(zip(STEP1_POLES, poles)):
        checks.append(FieldCheck(f"free pole z_{k}", z_ref, z_act, STEP1_TOL, False))
    for k, (r_ref, r_act) in enumerate(zip(STEP1_RATES, free.rates)):
        checks.append(FieldCheck(f"free rate lambda_{k}", r_ref, r_act, STEP1_TOL, False))
    for k, (c_ref, c_act) in enumerate(zip(STEP1_COEFFS, free.coefficients)):
        checks.append(
            FieldCheck(
                f"free coefficient C_{k}",
                c_ref,
                c_act,
                STEP1_TOL,
                False,
                known_unreproducible=(k == 1),
                note=_COEFF_NOTE if k == 1 else "",
            )
        )

    step = result.step_window
    checks.append(
        FieldCheck("controlled-window order", STEP3_ORDER, step.rates.size, 0.0, False)
    )
    for n, (c_ref, c_act) in enumerate(zip(STEP3_COEFFS_X100, 100.0 * step.coefficients)):
        checks.append(FieldCheck(f"controlled 100*C'_{n}", c_ref, c_act, STEP3_TOL, False))
    for n, (r_ref, r_act) in enumerate(zip(STEP3_RATES_X100, 100.0 * step.rates)):
        checks.append(FieldCheck(f"controlled 100*rate'_{n}", r_ref, r_act, STEP3_TOL, False))
    accepted_ok = tuple(step.accepted) == STEP3_ACCEPTED
    checks.append(
        FieldCheck(
            "credible index set == {1, 2}",
            1.0,
            1.0 if accepted_ok else 0.0,
            0.0,
            False,
            note="" if accepted_ok else f"accepted {step.accepted}",
        )
    )
    checks.append(
        FieldCheck(
            "controlled-window alpha", STEP3_ALPHA, step.alpha, STEP3_ALPHA_TOL, False
        )
    )

    cert = result.certificate
    checks.append(FieldCheck("theta", CERT_THETA, cert.theta, 1e-4, False))
    checks.append(
        FieldCheck("decay envelope", CERT_ENVELOPE, cert.decay_envelope, 1e-4, False)
    )
    checks.append(
        FieldCheck("Y1 spectral norm", CERT_Y1_NORM, cert.inputs.y1_norm, 1e-2, False)
    )
    checks.append(
        FieldCheck("sigma_M", CERT_SIGMA_M, cert.inputs.sigma_m, 0.01, True)
    )
    checks.append(
        FieldCheck(
            "kappa",
            CERT_KAPPA,
            cert.inputs.kappa_xm,
            0.01,
            True,
            known_unreproducible=True,
            note=_KAPPA_NOTE,
        )
    )
    checks.append(FieldCheck("rho", CERT_RHO, cert.rho, 0.05, True))
    checks.append(
        FieldCheck("pole bound", CERT_POLE_BOUND, cert.pole_bound, 0.05, True)
    )
    checks.append(
        FieldCheck(
            "alpha interval lower",
            CERT_ALPHA_INTERVAL[0],
            cert.alpha_interval[0],
            1e-3,
            False,
        )
    )
    checks.append(
        FieldCheck(
            "alpha interval upper",
            CERT_ALPHA_INTERVAL[1],
            cert.alpha_interval[1],
            1e-3,
            False,
        )
    )

    checks.append(FieldCheck("GCV rank", GCV_K, result.gcv_k, 0.0, False))
    checks.append(
        FieldCheck("alpha_hat", ALPHA_HAT, result.alpha_hat, ALPHA_HAT_TOL, False)
    )
    checks.append(
        FieldCheck(
            "u0 relative L2 error", 0.0, u0_rel_l2_error, U0_REL_L2_TOL, False
        )
    )
    return checks


def u0_reconstruction_error(u0_coeffs_hat: np.ndarray, grid_points: int = 1001) -> float:
    """Relative L2 error of the reconstructed profile on a uniform grid."""
    x = np.linspace(0.0, 1.0, grid_points)
    truth = reference_u0(x)
    estimate = evaluate_cosine_series(
        {n: c for n, c in enumerate(u0_coeffs_hat)}, x
    )
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
