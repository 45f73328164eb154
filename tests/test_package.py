import heatpencil


def test_public_surface():
    # any change to what the package exports shows up as a diff of this list
    assert sorted(heatpencil.__all__) == [
        "BoundInputs", "CertificateUnavailableError", "ErrorCertificate", "HeatProblem",
        "IdentificationError", "IdentificationResult", "NoModesError", "PencilError",
        "PencilEstimate", "PipelineConfig", "QuadratureError", "SampleTrace", "TraceError",
        "alpha_error_bound", "alpha_from_step_window", "analyze", "assign_mode_indices",
        "bounds", "build_certificate", "build_design_matrix", "build_hankel",
        "certificate_inputs", "condition_number", "control_bracket", "cosine_coefficients",
        "decay_envelope", "detect_order", "estimate_poles", "evaluate_cosine_series",
        "fit_amplitudes", "free_window_spectrum", "frobenius_bounds", "gcv_select",
        "identify", "load_problem", "model", "pencil", "pipeline", "poles_to_rates",
        "problem_from_function", "read_trace_csv", "sample", "sample_windows",
        "save_problem", "tail_bound", "transform_step_window", "tsvd_solve",
        "write_trace_csv",
    ]
