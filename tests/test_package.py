import inspect

import heatpencil
from heatpencil import model, pencil, pipeline


def test_public_surface():
    # any change to what the package exports shows up as a diff of this list
    assert sorted(heatpencil.__all__) == [
        "BoundInputs", "CertificateUnavailableError", "ErrorCertificate", "HeatProblem",
        "IdentificationError", "IdentificationResult", "PencilError",
        "PencilEstimate", "PipelineConfig", "QuadratureError", "SampleTrace", "TraceError",
        "alpha_error_bound", "alpha_from_step_window", "analyze", "assign_mode_indices",
        "build_certificate", "build_design_matrix", "build_hankel",
        "certificate_inputs", "condition_number", "control_bracket", "cosine_coefficients",
        "decay_envelope", "detect_order", "estimate_poles", "evaluate_cosine_series",
        "fit_amplitudes", "free_window_spectrum", "frobenius_bounds", "gcv_select",
        "identify", "load_problem", "poles_to_rates",
        "problem_from_function", "read_trace_csv", "sample", "sample_windows",
        "save_problem", "tail_bound", "transform_step_window", "tsvd_solve",
        "write_trace_csv",
    ]


def test_settings_are_not_parameters():
    # a setting with one value in use is a module constant: a knob added to
    # any of these shows up as a diff of this table
    functions = (
        pencil.analyze, pipeline.free_window_spectrum, pipeline.alpha_from_step_window,
        pipeline.refine_alpha_from_trace, model.cosine_coefficients,
        model.problem_from_function,
    )
    assert {fn.__name__: list(inspect.signature(fn).parameters) for fn in functions} == {
        "analyze": ["trace"],
        "free_window_spectrum": ["trace"],
        "alpha_from_step_window": ["trace", "free"],
        "refine_alpha_from_trace": ["trace", "alpha_coarse"],
        "cosine_coefficients": ["u0", "n_max"],
        "problem_from_function": ["u0", "alpha", "t1", "t2", "t3", "n_max"],
    }
