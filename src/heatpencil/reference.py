"""Built-in reference experiment, its published values and the reproduction report.

The reference problem takes diffusivity 4 and initial profile
``x - 9 cos(pi x) + 5 cos(3 pi x)`` (whose even cosine coefficients all
vanish, so the profile is deliberately blind to half the spectrum), windows
0.3 / 0.8 / 1.3, and 50 samples per window at period 0.01.  The published
run generated its flux-step data with the exponential drift series truncated
at 200 terms, so the reference problem pins ``control_series_terms=200``;
with the machine-precision tail instead, the two weakest controlled-window
modes land measurably elsewhere.

:data:`PUBLISHED` holds each published value with its tolerance; one loop
compares a run with every row.  Two published values cannot be reproduced
by any faithful double-precision computation, and their rows carry a note
that flags them ``known_unreproducible`` (the repro command and the
acceptance suite still compare against them and report the misses):

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

The module owns the paper's certificate procedure (:func:`_paper_certificate`).
``identify`` certifies with inputs that no rounding choice moves
(:func:`heatpencil.bounds.certificate_inputs`), while the published kappa,
rho, pole bound and interval record three inputs that rounding chose; the
report rebuilds that certificate from the same pole solve to compare like
with like, and ``result.json`` keeps the sound one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import bounds, model, pencil
from .model import PI_SQ, HeatProblem
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
    """``PipelineConfig()``, what ``pipeline.identify`` uses when given none;
    its one caller outside the tests is the benchmark harness."""
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


@dataclass(frozen=True)
class Published:
    """One published value or table, the tolerance of the acceptance gate,
    and what of a run it is compared with.

    ``value`` is a number, checked as ``name``, or a table, whose entry k is
    checked as ``name_k``.  ``computed`` reads the run's number, or sequence
    for a table, from a namespace of ``free``, ``step``, ``cert`` (the
    paper's certificate), ``result`` and ``u0_error``.  ``notes`` maps the
    indices whose published value is known unreproducible (0 for a number)
    to why; ``missed``, if given, reads from the run the note of a miss.
    """

    name: str
    value: float | tuple[float, ...]
    tolerance: float
    computed: Callable[[SimpleNamespace], object]
    relative: bool = False
    notes: dict[int, str] = field(default_factory=dict)
    missed: Callable[[SimpleNamespace], str] | None = None


PUBLISHED = (
    Published("free pole z", (1.0000, 0.6738), 5e-4, lambda run: run.free.estimate.poles.tolist()),
    Published("free rate lambda", (0.0000, 39.4784), 5e-4, lambda run: run.free.rates),
    Published("free coefficient C", (0.5000, -9.4077), 5e-4, lambda run: run.free.coefficients,
              notes={1: "published value reflects rounding inside the original fit; exact "
                        "data pins the coefficient to -9.40528 (see package docs)"}),
    Published("controlled-window order", 5, 0.0, lambda run: run.step.rates.size),
    Published("controlled 100*C'", (-8.3333, 5.0661, 1.2665, 0.5664, 1.4090), 5e-3,
              lambda run: 100.0 * run.step.coefficients),
    Published("controlled 100*rate'", (0.0000, 39.4784, 157.9137, 355.5370, 790.8813), 5e-3,
              lambda run: 100.0 * run.step.rates),
    Published("credible index set == {1, 2}", 1.0, 0.0,
              lambda run: float(tuple(run.step.accepted) == (1, 2)),
              missed=lambda run: f"accepted {run.step.accepted}"),
    Published("controlled-window alpha", 4.0000, 1e-3, lambda run: run.step.alpha),
    Published("theta", 2.3687, 1e-4, lambda run: run.cert.theta),
    Published("decay envelope", 0.0936, 1e-4, lambda run: run.cert.decay_envelope),
    Published("Y1 spectral norm", 11.8427, 1e-2, lambda run: run.cert.inputs.y1_norm),
    Published("sigma_M", 9.5089e-5, 0.01, lambda run: run.cert.inputs.sigma_m, relative=True),
    Published("kappa", 17.9467, 0.01, lambda run: run.cert.inputs.kappa_xm, relative=True,
              notes={0: "published value is rounding-determined through the kernel basis of "
                        "the truncated pencil product; equivalent computations span 14.8-21.6"}),
    Published("rho", 1.4522e-10, 0.05, lambda run: run.cert.rho, relative=True),
    Published("pole bound", 5.2521e-4, 0.05, lambda run: run.cert.pole_bound, relative=True),
    Published("alpha interval lower", 3.9921, 1e-3, lambda run: run.cert.alpha_interval[0]),
    Published("alpha interval upper", 4.0079, 1e-3, lambda run: run.cert.alpha_interval[1]),
    Published("GCV rank", 6, 0.0, lambda run: run.result.gcv_k),
    Published("alpha_hat", 4.0000, 5e-5, lambda run: run.result.alpha_hat),
    Published("u0 relative L2 error", 0.0, 0.05, lambda run: run.u0_error),
)


def _paper_certificate(result) -> bounds.ErrorCertificate:
    """``result.certificate`` rebuilt with the paper's spectral inputs: the
    explicit gap ||Y0 - Y0_M||_2, LAPACK's 2-norm of Y1, and kappa of
    LAPACK's unit-column eigenvectors of the L x L product, whose basis of
    its kernel rounding picks.  Precondition: ``result`` identifies the
    reference traces, whose free window (L = 17 < 48) is solved on the
    Hankel matrix itself, so ``truncated_pencil`` holds the direct blocks.
    """
    factors = result.free_spectrum.estimate.truncated_pencil
    um, a, vm = factors.um, factors.sv, factors.vm
    # Both 2-norms in one call: the residual and Y1 share Y0's shape, and
    # each matrix reaches LAPACK as it would alone.
    gap, y1_norm = np.linalg.norm(
        np.stack(((um * a) @ vm.T - factors.y0, factors.y1)), 2, axis=(1, 2)
    ).tolist()
    _, eigvecs = np.linalg.eig(((vm / a) @ um.T) @ factors.y1)
    kappa = bounds.condition_number(eigvecs / np.linalg.norm(eigvecs, axis=0))
    cert = result.certificate
    inputs = replace(cert.inputs, y1_norm=y1_norm, y0_trunc_gap=gap, kappa_xm=kappa)
    return bounds.build_certificate(
        inputs, alpha_hat=result.alpha_hat, z_tilde=cert.z_tilde, mode_index=cert.mode_index
    )


def compare_reference_run(result, u0_rel_l2_error: float) -> list[FieldCheck]:
    """Compare an identification run on the reference problem with the
    published values; returns one check per field.  The certificate fields
    are those of the paper's procedure, :func:`_paper_certificate`."""
    return _checks(result, u0_rel_l2_error, _paper_certificate(result))


def _checks(result, u0_rel_l2_error: float, cert: bounds.ErrorCertificate) -> list[FieldCheck]:
    """:func:`compare_reference_run` with the paper's certificate ``cert``:
    one check per published value, in the order of :data:`PUBLISHED`."""
    run = SimpleNamespace(free=result.free_spectrum, step=result.step_window, cert=cert,
                          result=result, u0_error=u0_rel_l2_error)
    checks = []
    for row in PUBLISHED:
        table = isinstance(row.value, tuple)
        pairs = zip(row.value, row.computed(run)) if table else [(row.value, row.computed(run))]
        for k, (expected, actual) in enumerate(pairs):
            check = FieldCheck(f"{row.name}_{k}" if table else row.name, expected, actual,
                               row.tolerance, row.relative, k in row.notes, row.notes.get(k, ""))
            if row.missed and not check.ok:
                check = replace(check, note=row.missed(run))
            checks.append(check)
    return checks


def u0_reconstruction_error(u0_coeffs_hat: np.ndarray) -> float:
    """Relative L2 error of the reconstructed profile on a uniform grid of
    1001 points."""
    truth = reference_u0(model._PROFILE_GRID)
    estimate = model._profile(dict(enumerate(u0_coeffs_hat)))
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def reproduction_report(result) -> tuple[str, bool]:
    """The ``report.md`` text for an identification ``result`` of the
    reference traces, and whether every published value was matched."""
    cert = _paper_certificate(result)
    checks = _checks(result, u0_reconstruction_error(result.u0_coeffs_hat), cert)
    misses = [c for c in checks if not c.ok]
    known = sum(c.known_unreproducible for c in misses)
    n1, t1, t2 = REFERENCE_SCHEDULE[0], *REFERENCE_WINDOWS[:2]
    lines = [
        "# Reference reproduction report",
        "",
        f"Configuration: diffusivity {REFERENCE_ALPHA:g}, initial profile "
        "x - 9 cos(pi x) + 5 cos(3 pi x), windows "
        f"{' / '.join(f'{t:g}' for t in REFERENCE_WINDOWS)}, {n1} samples per "
        f"window at period {(t2 - t1) / n1:g}, singular threshold {pencil._EPSILON:g}, "
        "priors |u0| <= {:g}, alpha >= {:g}.".format(*REFERENCE_PRIORS),
        "",
        "| field | reference | computed | tolerance | status |",
        "|---|---|---|---|---|",
    ]
    for c in checks:
        status = "ok" if c.ok else ("MISS (known, see notes)" if c.known_unreproducible else "MISS")
        tol = f"{c.tolerance:g}" + (" rel" if c.relative else "")
        whole = c.expected == int(c.expected) and abs(c.expected) < 100
        published = f"{c.expected:.4f}" if whole else f"{c.expected:.6g}"
        lines.append(f"| {c.name} | {published} | {c.actual:.6g} | {tol} | {status} |")
    lo, hi = cert.alpha_interval
    paper = {row.name: row.value for row in PUBLISHED}
    lines += [
        "",
        f"Certificate inputs: M0={cert.inputs.m0:g}, alpha0={cert.inputs.alpha0:g}, "
        f"M={cert.inputs.m}, N={cert.inputs.n}, L={cert.inputs.l}, "
        f"T1={cert.inputs.t1:g}, Ts={cert.inputs.ts:g}.",
        "",
        f"The identified diffusivity lies between {lo:.4f} and {hi:.4f} "
        f"(reference interval: between {paper['alpha interval lower']:.4f} and "
        f"{paper['alpha interval upper']:.4f}).",
        "",
        f"{len(checks)} fields compared, {len(checks) - len(misses)} within "
        f"tolerance, {len(misses)} missed ({known} of them documented as not "
        "reproducible in double precision; see README, Reproducibility notes).",
        "",
    ]
    lines += [f"- {c.name}: {c.note}" for c in checks if c.note]
    return "\n".join(lines) + "\n", not misses
