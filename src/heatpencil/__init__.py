"""Simultaneous diffusivity and initial-state identification for the 1-D heat
equation from a single boundary temperature trace under a flux-step schedule.

The package is organized around five pieces: ``model`` synthesizes exact
observation traces from a cosine-coefficient ground truth, ``pencil`` is a
generic matrix-pencil estimator for sampled sums of decaying exponentials,
``pipeline`` composes the four-stage identification (free-window spectrum,
controlled-window transform, diffusivity recovery, rank-truncated
reconstruction of the initial profile), ``bounds`` turns a priori data and
spectral diagnostics into computable error certificates, and ``cli`` wraps
everything behind a command line with a built-in reference reproduction.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundInputs,
    CertificateUnavailableError,
    ErrorCertificate,
    alpha_error_bound,
    build_certificate,
    certificate_inputs,
    condition_number,
    decay_envelope,
    frobenius_bounds,
    tail_bound,
)
from .model import (
    HeatProblem,
    QuadratureError,
    SampleTrace,
    TraceError,
    control_bracket,
    cosine_coefficients,
    eigenvalue,
    evaluate_cosine_series,
    free_response,
    load_problem,
    observe,
    problem_from_function,
    read_trace_csv,
    sample,
    sample_windows,
    save_problem,
    step_response,
    write_trace_csv,
)
from .pencil import (
    PencilError,
    PencilEstimate,
    analyze,
    build_hankel,
    detect_order,
    estimate_poles,
    fit_amplitudes,
    poles_to_rates,
)
from .pipeline import (
    IdentificationError,
    IdentificationResult,
    NoModesError,
    PipelineConfig,
    alpha_from_step_window,
    assign_mode_indices,
    build_design_matrix,
    free_window_spectrum,
    gcv_select,
    identify,
    transform_step_window,
    tsvd_solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
