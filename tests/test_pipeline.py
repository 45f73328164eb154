import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest

from heatpencil import pencil, pipeline, reference
from heatpencil.model import HeatProblem, SampleTrace, TraceError, control_bracket, sample_windows
from heatpencil.pipeline import (
    AlphaUnrecoverableError,
    AmbiguousIndicesError,
    IdentificationError,
    ModeIndexRangeError,
    PipelineConfig,
    _median,
    alpha_from_step_window,
    assign_mode_indices,
    build_design_matrix,
    free_window_spectrum,
    gcv_select,
    identify,
    transform_step_window,
    tsvd_solve,
)

PI_SQ = math.pi**2


def traces_for(problem):
    return sample_windows(problem, *reference.REFERENCE_SCHEDULE)


def zero_spectrum():
    """The free-window spectrum of a zero trace: no modes."""
    return free_window_spectrum(SampleTrace(t_start=0.3, period=0.01, values=np.zeros(50)))


class TestPipelineConfig:
    def test_only_the_estimator_parameters(self):
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
            "m_tilde",
        ]

    @pytest.mark.parametrize("kwargs", [{"m_tilde": 0}])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


class TestFreeWindowSpectrum:
    def test_single_cosine_mode(self):
        problem = HeatProblem(1.0, {1: 1.0}, 0.3, 0.8, 1.3)
        trace, _, _ = traces_for(problem)
        free = free_window_spectrum(trace)
        assert free.rates.size == 1
        assert free.rates[0] == pytest.approx(PI_SQ, rel=1e-6)
        assert free.coefficients[0] == pytest.approx(1.0, rel=1e-6)

    def test_zero_profile_has_no_modes(self):
        # the zero initial state is the zero-term sum: an empty spectrum
        problem = HeatProblem(1.0, {}, 0.3, 0.8, 1.3)
        trace, _, _ = traces_for(problem)
        free = free_window_spectrum(trace)
        assert free.rates.size == free.coefficients.size == free.estimate.order == 0

    def test_constant_mode_keeps_coefficient(self):
        problem = HeatProblem(4.0, {0: 0.5, 1: -2.0}, 0.3, 0.8, 1.3)
        trace, _, _ = traces_for(problem)
        free = free_window_spectrum(trace)
        assert free.rates[0] == 0.0
        assert free.coefficients[0] == pytest.approx(0.5, abs=1e-9)

    def test_faded_fast_mode_is_named(self):
        # rates 0 and 200 are far apart, but exp(-200 t) <= 1e-26 on [0.3, 0.8)
        # leaves the absolute-time fit column numerically zero
        k = np.arange(50)
        trace = SampleTrace(0.3, 0.01, 1.0 + np.exp(-2.0 * k))
        with pytest.raises(pencil.DegenerateRatesError) as info:
            free_window_spectrum(trace)
        message = str(info.value)
        assert "rate 200 decayed below rounding by t = 0.3" in message
        assert "too close" not in message


class TestTransformStepWindow:
    def test_matches_closed_form_sum(self):
        # oracle: the transformed series must equal the closed-form drift
        # spectrum: constant -1/(3 alpha), then 2/lambda_n at rate lambda_n * period
        alpha = 4.0
        problem = HeatProblem(alpha, {0: 0.5, 1: -9.4053}, 0.3, 0.8, 1.3)
        trace_free, trace_step, _ = traces_for(problem)
        free = free_window_spectrum(trace_free)
        transformed = transform_step_window(trace_step, free)
        i = np.arange(len(transformed), dtype=float)
        expected = np.full_like(i, -1.0 / (3 * alpha))
        for n in range(1, 400):
            lam = alpha * n * n * PI_SQ
            expected += 2.0 / lam * np.exp(-lam * trace_step.period * i)
        # at i = 0 every term counts; the n > 400 remainder follows from the
        # identity sum 2/lambda_n = 1/(3 alpha)
        expected[0] += 1.0 / (3 * alpha) - sum(
            2.0 / (alpha * n * n * PI_SQ) for n in range(1, 400)
        )
        np.testing.assert_allclose(transformed.values, expected, atol=1e-9)

    def test_zero_modes_zero_profile(self):
        problem = HeatProblem(4.0, {}, 0.3, 0.8, 1.3)
        _, trace_step, _ = traces_for(problem)
        transformed = transform_step_window(trace_step, zero_spectrum())
        i = np.arange(len(transformed))
        np.testing.assert_array_equal(
            transformed.values, trace_step.values + trace_step.period * i
        )


class TestAlphaFromStepWindow:
    def test_exact_synthetic_unit_alpha(self):
        problem = HeatProblem(1.0, {0: 1.0, 1: 0.5}, 0.3, 0.8, 1.3)
        trace_free, trace_step, _ = traces_for(problem)
        free = free_window_spectrum(trace_free)
        step = alpha_from_step_window(trace_step, free)
        assert step.alpha == pytest.approx(1.0, abs=1e-6)
        # slow decay at alpha=1 makes many modes detectable; the weakest that
        # still pass the credibility filter carry errors near 1e-4
        for estimate in step.alpha_by_index.values():
            assert estimate == pytest.approx(1.0, abs=2e-4)
        assert step.alpha_from_constant == pytest.approx(1.0, abs=1e-6)

    def test_no_credible_pair_no_constant(self):
        # after the drift correction this leaves a single fast mode whose
        # pair product is far from the target, and no constant term
        i = np.arange(50)
        values = 5.0 * 0.3**i - 0.01 * i
        trace = SampleTrace(t_start=0.8, period=0.01, values=values)
        with pytest.raises(AlphaUnrecoverableError):
            alpha_from_step_window(trace, zero_spectrum())


class TestMedian:
    @pytest.mark.parametrize("values", [
        [0.3],
        [0.1, 0.2],
        [4.0, 4.0],
        [3.0, 1.0, 2.0],
        [0.7, 0.1, 0.7, 0.2],
        [3.9, 4.1, 4.0, 4.0, 3.95, 4.05, 1e-3, 1e3],
        [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 5.0],
    ])
    def test_equals_numpy_bit_for_bit(self, values):
        expected = np.median(values)
        got = _median(values)
        assert type(got) is float
        assert np.float64(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8])
    def test_equals_numpy_on_random_lists(self, size):
        rng = np.random.default_rng(size)
        for _ in range(200):
            values = rng.choice(rng.lognormal(size=size), size).tolist()  # with repeats
            assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()


class TestAssignModeIndices:
    def test_reference_assignment(self):
        indices, by_index, alpha_hat = assign_mode_indices(
            np.array([0.0, 39.4784]), 4.0
        )
        np.testing.assert_array_equal(indices, [0, 1])
        assert by_index[1] == pytest.approx(39.4784 / PI_SQ, rel=1e-12)
        assert alpha_hat == pytest.approx(4.0, abs=1e-4)

    def test_exact_rate_maps_back(self):
        alpha = 2.7
        rate = alpha * 9 * PI_SQ
        indices, by_index, _ = assign_mode_indices(np.array([rate]), alpha)
        assert indices.tolist() == [3]
        assert by_index[3] == pytest.approx(alpha, rel=1e-15)

    def test_perturbed_rate(self):
        alpha, delta = 3.0, 1e-3
        rate = alpha * PI_SQ * (1 + delta)
        indices, by_index, _ = assign_mode_indices(np.array([rate]), alpha)
        assert indices.tolist() == [1]
        assert by_index[1] == pytest.approx(alpha * (1 + delta), rel=1e-14)

    def test_duplicate_indices_rejected(self):
        rates = np.array([3.0 * PI_SQ, 3.0 * PI_SQ * 1.001])
        with pytest.raises(AmbiguousIndicesError):
            assign_mode_indices(rates, 3.0)

    def test_robustness_radius_by_enumeration(self):
        # the index survives an alpha error delta as long as
        # n * |1/sqrt(1 + delta) - 1| < 1/2; the underestimate side is the
        # binding one, giving a safe radius of about min(0.15, 0.8/n)
        for n in range(1, 51):
            for sign in (-1.0, 1.0):
                delta = sign * min(0.15, 0.8 / n)
                rate = 5.0 * n * n * PI_SQ
                indices, _, _ = assign_mode_indices(
                    np.array([rate]), 5.0 * (1 + delta)
                )
                assert indices.tolist() == [n]

    def test_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            assign_mode_indices(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_requires_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            assign_mode_indices(np.array([1.0]), alpha)

    def test_index_beyond_int64_refused_before_the_cast(self):
        # sqrt(39.4784 / (6.7e-151 pi^2)) = 2.4e75 would wrap in int64
        with pytest.raises(ModeIndexRangeError, match=r"rate 39\.4784 .* index 2\.4"):
            assign_mode_indices(np.array([0.0, 39.4784]), 6.7e-151)


class TestDesignMatrix:
    def test_first_column_is_ones(self):
        times = np.linspace(0.01, 0.79, 40)
        matrix = build_design_matrix(4.0, times, 6)
        np.testing.assert_array_equal(matrix[:, 0], np.ones(40))

    def test_reference_entry(self):
        matrix = build_design_matrix(4.0, np.array([0.01]), 3)
        assert matrix[0, 1] == pytest.approx(0.6738, abs=5e-5)

    def test_against_elementwise_loop(self):
        times = np.array([0.01, 0.05, 0.2])
        matrix = build_design_matrix(2.5, times, 5)
        for i, t in enumerate(times):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    math.exp(-2.5 * j * j * PI_SQ * t), rel=1e-15
                )

    @pytest.mark.parametrize("n_rec", [79, 474])
    def test_is_the_plain_exponential_bit_for_bit(self, n_rec):
        # exponents at or below model._EXP_ZERO skip exp, whose result there
        # is +0.0 anyway: the reference and a long reconstruction window
        times = sample_windows(reference.reference_problem(), 300, 300, 0.01, n_rec)[2].times
        modes = np.arange(20)
        for alpha in (reference.reference_problem().alpha, 0.5, 40.0):
            expected = np.exp(-alpha * np.outer(times, modes * modes) * PI_SQ)
            matrix = build_design_matrix(alpha, times, 20)
            assert matrix.tobytes() == expected.tobytes()

    def test_times_validated(self):
        with pytest.raises(ValueError):
            build_design_matrix(1.0, np.array([0.2, 0.1]), 3)
        with pytest.raises(ValueError):
            build_design_matrix(1.0, np.array([0.0, 0.1]), 3)


class TestTsvdSolve:
    def test_orthogonal_full_rank_is_transpose(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        b = rng.standard_normal(6)
        solution = tsvd_solve(q, b, 6)
        np.testing.assert_allclose(solution, q.T @ b, atol=1e-12)

    def test_full_rank_matches_pseudoinverse(self):
        # oracle: independent pseudoinverse via numpy.linalg.pinv
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        solution = tsvd_solve(matrix, b, np.linalg.matrix_rank(matrix))
        np.testing.assert_allclose(solution, np.linalg.pinv(matrix) @ b, atol=1e-10)

    def test_truncation_zeroes_small_direction(self):
        matrix = np.diag([3.0, 1e-12])
        solution = tsvd_solve(matrix, np.array([6.0, 1.0]), 1)
        np.testing.assert_allclose(solution, [2.0, 0.0], atol=1e-15)

    def test_rank_bound_enforced(self):
        matrix = np.diag([3.0, 2.0])
        with pytest.raises(ValueError):
            tsvd_solve(matrix, np.ones(2), 3)
        with pytest.raises(ValueError):
            tsvd_solve(matrix, np.ones(2), 0)

    def test_linear_in_rhs(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((10, 4))
        b1, b2 = rng.standard_normal(10), rng.standard_normal(10)
        left = tsvd_solve(matrix, 2.0 * b1 - 3.0 * b2, 3)
        right = 2.0 * tsvd_solve(matrix, b1, 3) - 3.0 * tsvd_solve(matrix, b2, 3)
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestGcvSelect:
    def test_rhs_in_first_singular_direction(self):
        # a residual floor outside the range keeps the criterion flat in the
        # numerator, so the shrinking denominator makes rank 1 the minimum
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((10, 4))
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        noise = rng.standard_normal(10)
        noise -= u @ (u.T @ noise)
        k, curve, _ = gcv_select(matrix, u[:, 0] + 0.05 * noise)
        assert k == 1

    def test_consistent_system_selects_full_rank(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((10, 4))
        b = matrix @ rng.standard_normal(4)
        k, curve, _ = gcv_select(matrix, b)
        assert k == np.linalg.matrix_rank(matrix) == 4
        assert curve.size == 4

    def test_residual_nonincreasing_in_rank(self):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((15, 6))
        b = rng.standard_normal(15)
        rank = np.linalg.matrix_rank(matrix)
        residuals = [
            float(np.sum((matrix @ tsvd_solve(matrix, b, k) - b) ** 2))
            for k in range(1, rank + 1)
        ]
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(residuals, residuals[1:]))

    def test_tie_breaks_toward_smaller_rank(self):
        matrix = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((2, 3))])
        k, curve, _ = gcv_select(matrix, np.zeros(5))
        assert k == 1
        np.testing.assert_array_equal(curve, np.zeros(3))

    def test_solution_is_the_tsvd_solution(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((15, 6))
        b = rng.standard_normal(15)
        k, _, solution = gcv_select(matrix, b)
        assert solution.tobytes() == tsvd_solve(matrix, b, k).tobytes()

    def test_one_sample_refused(self):
        with pytest.raises(IdentificationError, match="got 1"):
            gcv_select(np.ones((1, 3)), np.ones(1))

    def test_overflowing_criterion_refused(self):
        matrix = np.vander(np.linspace(0.1, 1.0, 8), 3)
        with pytest.raises(IdentificationError, match=r"max \|y\| = 1e\+300"):
            gcv_select(matrix, np.full(8, 1e300))

    def test_overflowing_projection_refused_without_a_warning(self):
        # samples near float64's limit overflow the projections themselves
        matrix = np.vander(np.linspace(0.1, 1.0, 8), 3)
        with pytest.raises(IdentificationError, match=r"at rank 1 \(max \|y\| = 1e\+308\)"):
            gcv_select(matrix, np.full(8, 1e308))

    def test_curve_unchanged_near_the_overflow_edge(self):
        # scaling by a power of two is exact, so the criterion scales by its
        # square until it overflows
        matrix = np.vander(np.linspace(0.1, 1.0, 8), 3)
        rhs = np.random.default_rng(4).standard_normal(8)
        _, curve, _ = gcv_select(matrix, rhs)
        k, scaled, _ = gcv_select(matrix, rhs * 2.0**500)
        assert scaled.tobytes() == (curve * 2.0**1000).tobytes()
        assert k == int(np.argmin(curve)) + 1


class TestFactorizationCounts:
    """LAPACK entry points one ``identify`` calls on the reference traces."""

    KINDS = ("svd", "eig", "eigvals", "lstsq", "qr")

    @pytest.fixture()
    def shapes(self):
        """The shape of the matrix each counted call received, by kind."""
        return {kind: [] for kind in self.KINDS}

    @pytest.fixture()
    def counts(self, monkeypatch, shapes):
        # numpy.linalg.norm reaches svd through its own module's global, so
        # both the public namespace and the implementation module are wrapped
        calls = dict.fromkeys(self.KINDS, 0)
        impl = importlib.import_module("numpy.linalg._linalg")
        for kind in self.KINDS:
            original = getattr(np.linalg, kind)

            def counted(*args, _kind=kind, _original=original, **kwargs):
                calls[_kind] += 1
                shapes[_kind].append(np.shape(args[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, kind, counted)
            monkeypatch.setattr(impl, kind, counted)
        return calls

    @staticmethod
    def _reference_traces():
        return traces_for(reference.reference_problem()), reference.reference_config()

    def test_with_priors(self, counts, shapes):
        # the certificate factors nothing L-sized on the direct path either:
        # its one eig is of the M x M pole matrix, its SVDs of the M x L
        # matrix Z^-1 B - V_M.T and of K
        traces, cfg = self._reference_traces()
        result = identify(*traces, cfg, reference.REFERENCE_PRIORS)
        assert result.certificate is not None
        assert counts["svd"] == 6
        assert counts["eig"] == 1
        assert counts["eigvals"] <= 3
        assert counts["lstsq"] == 2
        assert counts["qr"] == 0
        order = result.free_spectrum.estimate.truncated_pencil.sv.size
        assert shapes["eig"] == [(order, order)]
        assert shapes["svd"][4:] == [(order, 17), (2 * order, 2 * order)]

    def test_without_priors(self, counts):
        traces, cfg = self._reference_traces()
        identify(*traces, cfg)
        assert counts["svd"] == 4
        assert counts["eig"] == 0
        assert counts["lstsq"] == 2
        assert counts["qr"] == 0

    def test_long_windows_factor_each_hankel_matrix_once(self, counts, shapes):
        # 300/300/474 samples: L = 100, 100 and 158, each window compressed
        # to its 16-row sketch by one QR of the (N - L) x 16 product Y Omega,
        # and otherwise the reference's factorizations; the row count is the
        # sketch's width, which no BLAS kernel's rounding moves.  The
        # certificate factors nothing L x L: its one eig is of the M x M
        # pole matrix, its SVDs of the M x L matrix Z^-1 B - V_M.T and of a
        # matrix of at most 2M x 2M
        traces = sample_windows(reference.reference_problem(), 300, 300, 0.01, 474)
        result = identify(*traces, None, reference.REFERENCE_PRIORS)
        assert result.certificate is not None
        assert counts == {"svd": 6, "eig": 1, "eigvals": 3, "lstsq": 2, "qr": 3}
        order = result.free_spectrum.estimate.truncated_pencil.sv.size
        assert order < result.certificate.inputs.l == 100
        assert shapes["eig"] == [(order, order)]
        assert shapes["qr"] == [(200, 16), (200, 16), (316, 16)]
        # Y0's block of each sketch, 16 x L, factored through its transpose
        pencils = [(100, 16), (100, 16), (158, 16)]
        design = (474, result.u0_coeffs_hat.size)  # the GCV design matrix
        assert shapes["svd"][:4] == [*pencils, design]
        assert shapes["svd"][4:] == [(order, 100), (2 * order, 2 * order)]


class TestIdentify:
    @pytest.mark.parametrize("window,name", [(0, "t_start"), (2, "period")])
    def test_non_finite_clock_refused(self, window, name):
        # the trace refuses the clock itself, so identify never sees it
        traces = traces_for(reference.reference_problem())
        with pytest.raises(TraceError, match=f"trace {name} is nan"):
            identify(
                *traces[:window],
                dataclasses.replace(traces[window], **{name: math.nan}),
                *traces[window + 1 :],
            )

    def test_scaled_free_trace_refused_before_an_infinite_alpha(self):
        # the controlled window then reads alpha = 6.7e-151, and the free
        # rate's mode index 2.4e75 is beyond 64-bit arithmetic
        free, step, rec = traces_for(reference.reference_problem())
        big = SampleTrace(free.t_start, free.period, free.values * 1e150)
        with pytest.raises(ModeIndexRangeError, match="alpha = 6.66667e-151"):
            identify(big, step, rec, priors=reference.REFERENCE_PRIORS)

    @pytest.mark.parametrize("q,error", [
        (0.5, pencil.DegenerateRatesError),
        (0.99, pencil.DegenerateRatesError),
        (1.001, AlphaUnrecoverableError),
        (2.0, AlphaUnrecoverableError),
        (-1.0, AlphaUnrecoverableError),
    ])
    @pytest.mark.filterwarnings("ignore:discarding:UserWarning")  # the leftover drift reads as growth
    def test_step_of_another_amplitude_refused_naming_the_unit_flux(self, q, error):
        # a flux step of amplitude q adds (q - 1) unit-step brackets
        problem = reference.reference_problem()
        free, step, rec = traces_for(problem)
        bracket = control_bracket(4.0, step.times - 0.8, problem.control_series_terms)
        scaled = SampleTrace(step.t_start, step.period, step.values + (q - 1) * bracket)
        with pytest.raises(error, match=r"identify assumes a unit flux step on \[t2, t3\]"):
            identify(free, scaled, rec, None, reference.REFERENCE_PRIORS)

    @pytest.mark.parametrize("scale", [1e305, 1e306, 1e307])
    @pytest.mark.filterwarnings("ignore:discarding:UserWarning")
    def test_huge_step_trace_refused_naming_the_unit_flux(self, scale):
        # the pair products C'_j * rate'_j leave float64: no pair is
        # credible, and the overflow raises no RuntimeWarning
        free, step, rec = traces_for(reference.reference_problem())
        scaled = SampleTrace(step.t_start, step.period, step.values * scale)
        with pytest.raises(
            AlphaUnrecoverableError, match=r"identify assumes a unit flux step on \[t2, t3\]"
        ):
            identify(free, scaled, rec, None, reference.REFERENCE_PRIORS)

    def test_non_generic_profile_single_even_mode(self):
        # only mode 2 is excited; the pipeline must label it correctly
        problem = HeatProblem(4.0, {2: 1.0}, 0.3, 0.8, 1.3)
        result = identify(*traces_for(problem))
        assert [m[0] for m in result.free_modes] == [2]
        assert result.alpha_hat == pytest.approx(4.0, rel=1e-6)
        assert result.u0_coeffs_hat[2] == pytest.approx(1.0, abs=1e-4)
        others = np.delete(result.u0_coeffs_hat, 2)
        assert np.max(np.abs(others)) < 1e-4

    def test_zero_profile_still_yields_alpha(self):
        problem = HeatProblem(4.0, {}, 0.3, 0.8, 1.3)
        for priors in (None, (5.0, 3.0)):
            result = identify(*traces_for(problem), priors=priors)
            assert result.free_modes == ()
            assert result.alpha_hat == pytest.approx(4.0, abs=1e-6)
            assert np.max(np.abs(result.u0_coeffs_hat)) < 1e-12
            candidates = result.alpha_candidates
            assert candidates["free_window"] == {}
            # the median of the controlled-window value alone is that value
            assert (
                candidates["index_assignment_median"] == candidates["controlled_window_median"]
            )
            # no free mode, no certificate, with or without priors
            assert result.certificate is None

    @pytest.mark.parametrize("priors,message", [
        ((math.nan, 3.0), "m0 must be finite, got nan"),
        ((-1.0, 3.0), "norm prior must be nonnegative, got -1.0"),
        ((15.0, 0.0), "alpha0 must be positive, got 0.0"),
    ])
    @pytest.mark.parametrize("problem", [
        HeatProblem(4.0, {}, 0.3, 0.8, 1.3), reference.reference_problem()
    ], ids=["no-mode", "reference"])
    def test_unusable_priors_refused_before_any_window(
        self, monkeypatch, problem, priors, message
    ):
        # the no-mode problem certifies nothing, so only the entry check sees them
        traces = traces_for(problem)

        def analyzed(trace):
            raise AssertionError("a window was analyzed")

        monkeypatch.setattr(pipeline, "free_window_spectrum", analyzed)
        with pytest.raises(ValueError) as exc:
            identify(*traces, None, priors)
        assert str(exc.value) == message

    def test_certificate_only_with_priors(self):
        problem = HeatProblem(4.0, {0: 0.5, 1: -2.0}, 0.3, 0.8, 1.3)
        traces = traces_for(problem)
        assert identify(*traces).certificate is None
        result = identify(*traces, priors=(15.0, 3.0))
        cert = result.certificate
        assert cert is not None
        lo, hi = cert.alpha_interval
        assert lo < problem.alpha < hi

    def test_nine_sample_free_window_withholds_the_certificate(self):
        # the bounds need more than 9 samples; the identification does not
        traces = sample_windows(reference.reference_problem(), 9, 50, 0.01, 79)
        bare = identify(*traces)
        result = identify(*traces, priors=(15.0, 3.0))
        assert result.certificate is None
        assert result.alpha_hat == bare.alpha_hat == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("window", [0, 1])
    def test_free_or_step_window_under_nine_samples_is_a_pencil_error(self, window):
        counts = [50, 50]
        counts[window] = 8
        traces = sample_windows(reference.reference_problem(), *counts, 0.01, 79)
        with pytest.raises(pencil.ShortTraceError, match="got 8") as caught:
            identify(*traces, None, reference.REFERENCE_PRIORS)
        assert isinstance(caught.value, ValueError)

    def test_short_reconstruction_window_falls_back_to_the_coarse_alpha(self):
        # the refinement's pencil refuses 8 samples; cross-validation does not
        traces = sample_windows(reference.reference_problem(), 50, 50, 0.01, 8)
        result = identify(*traces)
        assert result.alpha_candidates["reconstruction_window"] == {}
        assert result.alpha_hat == result.alpha_candidates["index_assignment_median"]

    def test_one_sample_reconstruction_window_refused(self):
        traces = sample_windows(reference.reference_problem(), 50, 50, 0.01, 1)
        with pytest.raises(IdentificationError, match="at least 2 reconstruction samples, got 1"):
            identify(*traces, None, reference.REFERENCE_PRIORS)

    def test_overflowing_reconstruction_trace_refused_without_a_warning(self):
        free, step, rec = traces_for(reference.reference_problem())
        big = SampleTrace(rec.t_start, rec.period, rec.values * 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IdentificationError, match="overflows float64 at rank 1"):
                identify(free, step, big, None, reference.REFERENCE_PRIORS)

    def test_rec_window_must_precede_switch(self):
        problem = HeatProblem(4.0, {0: 1.0}, 0.3, 0.8, 1.3)
        tf, ts, _ = traces_for(problem)
        bad_rec = SampleTrace(0.9, 0.01, np.ones(20))
        with pytest.raises(IdentificationError, match="reconstruction window"):
            identify(tf, ts, bad_rec)

    def test_result_serializes_with_declared_fields(self):
        problem = HeatProblem(4.0, {0: 0.5, 1: -2.0}, 0.3, 0.8, 1.3)
        result = identify(*traces_for(problem), priors=(15.0, 3.0))
        payload = result.to_dict()
        assert set(payload) == {
            "alpha_hat", "alpha_candidates", "free_modes", "u0_cosine_hat",
            "gcv_k", "gcv_curve", "certificate",
        }
        assert len(payload["u0_cosine_hat"]) == 20
        assert payload["certificate"]["alpha_interval"] is not None

    def test_round_trip_sample(self):
        # a focused version of the acceptance round-trip property
        rng = np.random.default_rng(23)
        for _ in range(3):
            alpha = rng.uniform(3.0, 8.0)
            coeffs = {
                n: rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
                for n in range(4)
            }
            problem = HeatProblem(alpha, coeffs, 0.3, 0.8, 1.3)
            result = identify(*traces_for(problem))
            assert abs(result.alpha_hat - alpha) / alpha <= 1e-3
            for n in range(20):
                assert abs(result.u0_coeffs_hat[n] - coeffs.get(n, 0.0)) <= 0.1
