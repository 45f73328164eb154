import ast
import hashlib
import math
import platform
import re
import resource
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from heatpencil import pencil, reference
from heatpencil.bounds import build_certificate, certificate_inputs
from heatpencil.model import HeatProblem, SampleTrace, sample, sample_windows
from heatpencil.pencil import (
    DegenerateRatesError,
    PencilError,
    RankDeficiencyError,
    ShortTraceError,
    analyze,
    build_hankel,
    detect_order,
    estimate_poles,
    factor_pencil,
    fit_amplitudes,
    poles_to_rates,
    resolve_pencil_parameter,
)


def exp_trace(amps, poles, n, period=1.0, t_start=0.0):
    k = np.arange(n)
    values = sum(a * z**k for a, z in zip(amps, poles))
    return SampleTrace(t_start=t_start, period=period, values=np.asarray(values, float))


def svdvals(matrix):
    return np.linalg.svd(matrix, compute_uv=False)


def rebuild(trace, rates, amps):
    """The exponential sum with these rates and amplitudes on the trace's times."""
    return np.exp(-np.outer(trace.times, rates)) @ amps


class TestPencilParameter:
    def test_third_of_n(self):
        assert resolve_pencil_parameter(50) == 17
        assert resolve_pencil_parameter(51) == 17
        assert resolve_pencil_parameter(30) == 10
        assert resolve_pencil_parameter(31) == 11


class TestBuildHankel:
    def test_index_bookkeeping(self):
        # oracle: direct index loops for Y[r,c] = y[c+r] and the solve's
        # blocks y0[r,c] = y[L-1-c+r], y1 shifted by 1
        y = np.arange(12.0)
        trace = SampleTrace(0.0, 1.0, y)
        hankel = build_hankel(trace)
        assert hankel.shape == (8, 5)
        _, truncated = estimate_poles(factor_pencil(hankel), 2)
        rows, length = truncated.y0.shape
        assert (rows, length) == (8, 4)
        for r in range(rows):
            for c in range(length):
                assert truncated.y0[r, c] == y[length - 1 - c + r]
                assert truncated.y1[r, c] == y[length - c + r]
            for c in range(length + 1):
                assert hankel[r, c] == y[c + r]

    def test_read_only_view_of_the_trace(self):
        trace = SampleTrace(0.0, 1.0, np.arange(12.0))
        hankel = build_hankel(trace)
        assert np.shares_memory(hankel, trace.values)
        assert not hankel.flags.writeable

    @pytest.mark.parametrize("n", [9, 12, 50, 79, 300])
    def test_equals_the_sliding_window_view(self, n):
        trace = SampleTrace(0.0, 1.0, np.arange(float(n)))
        hankel = build_hankel(trace)
        window = np.lib.stride_tricks.sliding_window_view(trace.values, hankel.shape[1])
        assert (hankel.shape, hankel.strides) == (window.shape, window.strides)
        assert np.shares_memory(hankel, trace.values) and not hankel.flags.writeable
        np.testing.assert_array_equal(hankel, window)

    def test_pencil_blocks_are_contiguous_copies(self):
        trace = SampleTrace(0.0, 1.0, np.arange(12.0))
        _, truncated = estimate_poles(factor_pencil(build_hankel(trace)), 2)
        for block in (truncated.y0, truncated.y1):
            assert block.flags.c_contiguous
            assert not np.shares_memory(block, trace.values)

    def test_shift_identity(self):
        rng = np.random.default_rng(0)
        trace = SampleTrace(0.0, 1.0, rng.standard_normal(30))
        _, truncated = estimate_poles(factor_pencil(build_hankel(trace)), 3)
        np.testing.assert_array_equal(truncated.y1[:, 1:], truncated.y0[:, :-1])

    def test_default_split_for_fifty_samples(self):
        trace = SampleTrace(0.0, 1.0, np.ones(50))
        assert build_hankel(trace).shape == (33, 18)

    def test_too_few_samples(self):
        trace = SampleTrace(0.0, 1.0, np.ones(8))
        with pytest.raises(ValueError, match="at least 9"):
            build_hankel(trace)

    def test_too_few_samples_is_a_typed_pencil_error(self):
        # a PencilError for the pipeline, still a ValueError for callers
        # that catch that
        with pytest.raises(ShortTraceError, match="got 8") as caught:
            analyze(SampleTrace(0.0, 1.0, np.ones(8)))
        assert isinstance(caught.value, PencilError)
        assert isinstance(caught.value, ValueError)


class TestDetectOrder:
    def test_exact_rank_two(self):
        trace = exp_trace([3.0, 2.0], [0.5, 0.25], 12)
        assert detect_order(svdvals(build_hankel(trace)), 1e-10) == 2

    def test_zero_matrix_reports_no_signal(self):
        assert detect_order(svdvals(np.zeros((5, 4))), 1e-10) == 0

    def test_threshold_tie_is_kept(self):
        matrix = np.diag([1.0, 1e-10, 1e-12])
        assert detect_order(svdvals(matrix), 1e-10) == 2

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        trace = exp_trace([1.0, -2.0, 0.5], [0.9, 0.6, 0.3], 24)
        sigma = svdvals(build_hankel(trace))
        orders = [detect_order(sigma, eps) for eps in (1e-14, 1e-10, 1e-6, 1e-2)]
        assert orders == sorted(orders, reverse=True)


class TestEstimatePoles:
    def test_two_exponentials_recovered_exactly(self):
        trace = exp_trace([3.0, 2.0], [0.5, 0.25], 12)
        poles, truncated = estimate_poles(factor_pencil(build_hankel(trace)), 2)
        np.testing.assert_allclose(poles.real, [0.5, 0.25], atol=1e-10)
        assert np.all(np.abs(poles.imag) < 1e-12)
        assert truncated.sv[-1] > 0
        # reconstruction closes the loop
        k = np.arange(12)
        rebuilt = 3.0 * poles.real[0] ** k + 2.0 * poles.real[1] ** k
        np.testing.assert_allclose(rebuilt, trace.values, rtol=1e-9)

    def test_constant_signal_gives_unit_pole(self):
        trace = SampleTrace(0.0, 1.0, np.full(12, 7.5))
        poles, _ = estimate_poles(factor_pencil(build_hankel(trace)), 1)
        assert poles[0].real == pytest.approx(1.0, abs=1e-12)

    def test_overstated_order_on_exact_zero_sigma(self):
        # one nonzero sample makes y0 exactly rank 1
        values = np.zeros(12)
        values[-1] = 1.0
        hankel = build_hankel(SampleTrace(0.0, 1.0, values))
        assert svdvals(hankel[:, -2::-1])[1] == 0.0
        with pytest.raises(RankDeficiencyError):
            estimate_poles(factor_pencil(hankel), 2)

    def test_order_bounds_validated(self):
        hankel = build_hankel(exp_trace([1.0], [0.5], 12))
        with pytest.raises(ValueError):
            estimate_poles(factor_pencil(hankel), 0)
        with pytest.raises(ValueError):
            estimate_poles(factor_pencil(hankel), 99)


class TestPolesToRates:
    def test_unit_pole_is_zero_rate(self):
        assert poles_to_rates(np.array([1.0]), 0.01)[0] == 0.0

    def test_published_pole_rate_pair(self):
        # exp(-39.4784 * 0.01) = 0.6738 at four decimals
        rate = poles_to_rates(np.array([0.6738]), 0.01)[0]
        assert rate == pytest.approx(39.48, abs=0.01)

    def test_exact_log(self):
        rate = poles_to_rates(np.array([math.exp(-2.0)]), 0.5)[0]
        assert rate == pytest.approx(4.0, rel=1e-14)

    def test_tiny_rate_clamped_to_zero(self):
        assert poles_to_rates(np.array([1.0 - 1e-15]), 0.01)[0] == 0.0

    def test_nonpositive_pole_rejected(self):
        with pytest.raises(PencilError):
            poles_to_rates(np.array([-0.5]), 0.01)
        with pytest.raises(ValueError):
            poles_to_rates(np.array([0.5]), 0.0)


class TestFitAmplitudes:
    def test_constant_mode(self):
        trace = SampleTrace(0.0, 1.0, np.full(10, 3.25))
        amps = fit_amplitudes(trace, np.array([0.0]))
        assert amps[0] == pytest.approx(3.25, rel=1e-14)

    def test_two_modes(self):
        period = 0.1
        rates = -np.log([0.5, 0.25]) / period
        trace = exp_trace([3.0, 2.0], [0.5, 0.25], 15, period=period)
        amps = fit_amplitudes(trace, rates)
        np.testing.assert_allclose(amps, [3.0, 2.0], rtol=1e-12)

    def test_fits_on_absolute_times(self):
        # oracle: the coefficients of 3 exp(-2 t) + 2 exp(-5 t) sampled from
        # t = 0.7, not those of the same sum on the window's own clock
        times = 0.7 + 0.1 * np.arange(15)
        trace = SampleTrace(0.7, 0.1, 3.0 * np.exp(-2.0 * times) + 2.0 * np.exp(-5.0 * times))
        np.testing.assert_allclose(fit_amplitudes(trace, [2.0, 5.0]), [3.0, 2.0], rtol=1e-12)

    def test_degenerate_rates_named(self):
        trace = SampleTrace(0.0, 1.0, np.ones(10))
        with pytest.raises(DegenerateRatesError, match="0.7"):
            fit_amplitudes(trace, np.array([0.7, 0.7]))

    def test_more_rates_than_samples(self):
        trace = SampleTrace(0.0, 1.0, np.ones(3))
        with pytest.raises(ValueError):
            fit_amplitudes(trace, np.array([0.1, 0.2, 0.3, 0.4]))


class TestAnalyze:
    def test_noiseless_two_term_signal(self):
        trace = exp_trace([3.0, 2.0], [0.5, 0.25], 30, period=0.05)
        est = analyze(trace)
        assert est.order == 2
        np.testing.assert_allclose(est.poles, [0.5, 0.25], atol=1e-10)
        np.testing.assert_allclose(fit_amplitudes(trace, est.rates), [3.0, 2.0], rtol=1e-9)
        np.testing.assert_allclose(
            est.rates, -np.log([0.5, 0.25]) / 0.05, rtol=1e-10
        )

    def test_zero_trace_gives_empty_model(self):
        trace = SampleTrace(0.0, 1.0, np.zeros(20))
        est = analyze(trace)
        assert est.order == 0
        assert est.poles.size == 0
        assert fit_amplitudes(trace, est.rates).size == 0

    @pytest.mark.parametrize("count", [9, 150])  # direct (L = 3), compressed (L = 50)
    def test_overflowing_spectrum_refused(self, count):
        # finite samples whose Hankel singular values exceed float64
        trace = SampleTrace(0.0, 1.0, 1e307 * np.linspace(1.0, 9.0, count))
        with pytest.raises(pencil.PencilError, match=r"overflows float64 \(max \|y\| = 9e\+307\)"):
            analyze(trace)

    def test_poles_sorted_descending(self):
        trace = exp_trace([1.0, 1.0, 1.0], [0.2, 0.8, 0.5], 30)
        est = analyze(trace)
        assert np.all(np.diff(est.poles) < 0)
        assert np.all(np.diff(est.rates) > 0)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(5)
        values = (
            1.3 * 0.71 ** np.arange(33)
            - 0.4 * 0.32 ** np.arange(33)
            + 1e-12 * rng.standard_normal(33)
        )
        trace = SampleTrace(1.0, 1.0, values)
        a, b = analyze(trace), analyze(trace)
        assert a.poles.tobytes() == b.poles.tobytes()
        assert (
            fit_amplitudes(trace, a.rates).tobytes()
            == fit_amplitudes(trace, b.rates).tobytes()
        )
        assert a.singular_values.tobytes() == b.singular_values.tobytes()
        assert certificate_inputs(a, trace, 1.0, 1.0) == certificate_inputs(
            b, trace, 1.0, 1.0
        )

    def test_oscillatory_pair_discarded_with_warning(self):
        k = np.arange(30)
        values = 0.9**k * np.cos(1.1 * k)
        with pytest.warns(UserWarning, match="complex"):
            est = analyze(SampleTrace(0.0, 1.0, values))
        assert est.order == 0

    def test_growing_signal_rejected_with_warning(self):
        values = 1.5 ** np.arange(20)
        with pytest.warns(UserWarning, match="outside"):
            est = analyze(SampleTrace(0.0, 1.0, values))
        assert est.order == 0

    def test_order_beyond_y0_columns_is_rank_deficiency(self):
        # noise at 1e-8 lifts all 18 singular values of Y (L + 1 columns)
        # above the threshold, one more than Y0's L = 17 columns can carry
        trace = sample(reference.reference_problem(), 0.3, 0.01, 50)
        noise = 1e-8 * np.random.default_rng(0).standard_normal(50)
        noisy = SampleTrace(trace.t_start, trace.period, trace.values + noise)
        with pytest.raises(RankDeficiencyError, match="order 18 .* 17 columns"):
            analyze(noisy)

    def test_reconstruct(self):
        trace = exp_trace([2.0, 1.0], [0.6, 0.3], 21)
        est = analyze(trace)
        np.testing.assert_allclose(
            rebuild(trace, est.rates, fit_amplitudes(trace, est.rates)),
            trace.values,
            rtol=1e-10,
        )


def free_window(rng, alpha_range, count):
    """Free-window traces of ``count`` samples on [0.3, 0.8) of seeded
    two-mode problems, with their ``(M0, alpha0)`` priors."""
    alpha = rng.uniform(*alpha_range)
    coeffs = {
        0: rng.uniform(0.05, 0.2) * rng.choice([-1.0, 1.0]),
        1: rng.uniform(5.0, 15.0) * rng.choice([-1.0, 1.0]),
    }
    trace = sample(HeatProblem(alpha, coeffs, 0.3, 0.8, 1.3), 0.3, 0.5 / count, count)
    return trace, (15.0, 0.75 * alpha)


class TestCompressedPath:
    """Windows with L >= ``_COMPRESS_COLUMNS`` are solved on the sketch
    ``B = Q.T @ Y``; the direct path solves on Y itself."""

    @staticmethod
    def both_paths(trace, priors, monkeypatch):
        """The estimate of ``trace`` and its certificate inputs, on the
        compressed path and then on the direct one; ``certificate_inputs``
        reads the constant through ``pencil``, so the patch reaches it."""
        compressed = analyze(trace)
        c_in = certificate_inputs(compressed, trace, *priors)
        with monkeypatch.context() as m:
            m.setattr(pencil, "_COMPRESS_COLUMNS", sys.maxsize)
            direct = analyze(trace)
            d_in = certificate_inputs(direct, trace, *priors)
        return compressed, direct, c_in, d_in

    @staticmethod
    def check_y1_norms(trace, paths):
        # each path bounds ||Y1||_2 by hypot(sigma_1(Y0), |c|, delta), c the
        # column Y0 lacks and delta the norm of what the sketch misses (0 on the
        # direct path), read off its own factors; a window led by the
        # constant mode keeps the bound within 3% of LAPACK's 2-norm of Y1
        y1_norm = svdvals(build_hankel(trace)[:, 1:])[0]
        for est, inputs in paths:
            bound = math.hypot(
                est.singular_values[0],
                np.linalg.norm(est.truncated_pencil.y1[:, 0]),
                est.dropped_norm,
            )
            assert y1_norm <= inputs.y1_norm == pytest.approx(bound, rel=1e-14)
            assert inputs.y1_norm <= 1.03 * y1_norm

    def test_matches_the_direct_hankel_svd(self, monkeypatch):
        # alpha in [1, 2] keeps both modes within 1e-2 of each other in
        # Y's spectrum, so the two paths' rounding differences stay near eps
        rng = np.random.default_rng(7)
        for _ in range(24):
            count = int(rng.integers(3 * pencil._COMPRESS_COLUMNS, 321))
            trace, priors = free_window(rng, (1.0, 2.0), count)
            compressed, direct, c_in, d_in = self.both_paths(trace, priors, monkeypatch)
            assert compressed.pencil_parameter >= pencil._COMPRESS_COLUMNS
            assert compressed.order == direct.order == 2
            np.testing.assert_allclose(compressed.poles, direct.poles, rtol=1e-12, atol=0)
            np.testing.assert_allclose(compressed.rates, direct.rates, rtol=1e-12, atol=0)
            # Y0's spectrum, of which the sketch's 16 rows carry the first 16
            sigma = svdvals(build_hankel(trace)[:, :-1])
            kept = compressed.singular_values.size
            assert kept < compressed.pencil_parameter
            np.testing.assert_allclose(
                compressed.singular_values, sigma[:kept], rtol=0, atol=1e-12 * sigma[0]
            )
            assert c_in.sigma_m == pytest.approx(d_in.sigma_m, rel=1e-10)
            self.check_y1_norms(trace, [(compressed, c_in), (direct, d_in)])
            # one recipe on both paths: the exact eigenbasis of one product
            assert c_in.kappa_xm == pytest.approx(d_in.kappa_xm, rel=1e-10)
            for inputs in (c_in, d_in):
                assert build_certificate(inputs).rho < 1.0
                assert math.isfinite(inputs.kappa_xm)

    def test_ill_conditioned_windows_differ_at_rounding_level(self, monkeypatch):
        # alpha in [3, 8] puts sigma_M near 1e-10 sigma_1, where each path
        # carries a rounding error of order eps * sigma_1 in sigma_M and
        # eps * sigma_1 / sigma_M in the poles
        rng = np.random.default_rng(8)
        eps = np.finfo(float).eps
        for _ in range(24):
            count = int(rng.integers(3 * pencil._COMPRESS_COLUMNS, 321))
            trace, priors = free_window(rng, (3.0, 8.0), count)
            compressed, direct, c_in, d_in = self.both_paths(trace, priors, monkeypatch)
            assert compressed.order == direct.order == 2
            sigma_1 = direct.singular_values[0]
            assert abs(c_in.sigma_m - d_in.sigma_m) <= 1e3 * eps * sigma_1
            assert abs(c_in.y0_trunc_gap - d_in.y0_trunc_gap) <= 1e3 * eps * sigma_1
            assert np.max(np.abs(compressed.poles - direct.poles)) <= (
                1e3 * eps * sigma_1 / d_in.sigma_m
            )
            self.check_y1_norms(trace, [(compressed, c_in), (direct, d_in)])
            for inputs in (c_in, d_in):
                assert build_certificate(inputs).rho < 1.0
                assert math.isfinite(inputs.kappa_xm)

    @pytest.mark.parametrize("seed,alpha_range,counts", [
        pytest.param(7, (1.0, 2.0), (3 * pencil._COMPRESS_COLUMNS, 321), id="alpha-1-to-2"),
        pytest.param(8, (3.0, 8.0), (3 * pencil._COMPRESS_COLUMNS, 321), id="alpha-3-to-8"),
        pytest.param(10, (1.0, 8.0), (30, 3 * pencil._COMPRESS_COLUMNS - 2), id="direct"),
    ])
    def test_kappa_from_the_exact_eigenbasis(self, seed, alpha_range, counts):
        # X = [V_M S, V_perp - V_M Z^-1 B V_perp] diagonalizes the L x L
        # product to rounding; the certificate's kappa, taken from 2M x 2M
        # work, is its condition number, and that of the M x M pole
        # matrix's unit eigenvectors S, on compressed and direct windows.
        # The pole solve keeps no V_perp; any orthonormal basis of V_M's
        # complement gives X the same singular values
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps
        for _ in range(24):
            count = int(rng.integers(*counts))
            trace, (m0, alpha0) = free_window(rng, alpha_range, count)
            est = analyze(trace)
            tp = est.truncated_pencil
            b = (tp.um.T @ tp.y1) / tp.sv[:, None]
            product = tp.vm @ b
            z = b @ tp.vm
            lam, s = np.linalg.eig(z)
            vperp = null_space(tp.vm.T)
            x = np.hstack((tp.vm @ s, vperp - tp.vm @ np.linalg.solve(z, b @ vperp)))
            assert x.shape == product.shape
            lam_x = np.concatenate((lam, np.zeros(est.pencil_parameter - lam.size)))
            residual = np.linalg.norm(product @ x - x * lam_x, 2)
            assert residual <= 1e3 * eps * np.linalg.norm(product, 2) * np.linalg.norm(x, 2)
            kappa = certificate_inputs(est, trace, m0, alpha0).kappa_xm
            assert kappa == pytest.approx(np.linalg.cond(x), rel=1e-12)
            assert kappa == pytest.approx(np.linalg.cond(s), rel=1e-6)

    def test_gap_is_the_next_singular_value_plus_rounding(self):
        # hypot(sigma_{M+1}(Y0), delta) plus eps * sigma_1 on a compressed
        # window, delta the norm of what the sketch misses, and the allowance
        # alone where M = L leaves no singular value out
        rng = np.random.default_rng(9)
        eps = np.finfo(float).eps
        for _ in range(8):
            count = int(rng.integers(3 * pencil._COMPRESS_COLUMNS, 321))
            trace, priors = free_window(rng, (1.0, 8.0), count)
            est = analyze(trace)
            sigma = est.singular_values
            order = est.truncated_pencil.sv.size
            assert order < est.pencil_parameter
            gap = certificate_inputs(est, trace, *priors).y0_trunc_gap
            assert gap == (
                math.hypot(float(sigma[order]), est.dropped_norm) + float(eps) * float(sigma[0])
            )
        # Y0's whole thin SVD with the pole matrix diag(poles)
        length = pencil._COMPRESS_COLUMNS
        sigma, poles = np.linspace(2.0, 1.0, length), np.linspace(0.9, 0.5, length)
        um, vm = np.eye(length + 1, length), np.eye(length)
        full = pencil.TruncatedPencil(
            y0=um * sigma, y1=um * (sigma * poles), um=um, sv=sigma, vm=vm
        )
        est = pencil.PencilEstimate(
            order=length, poles=poles, rates=np.zeros(length), singular_values=sigma,
            truncated_pencil=full, pencil_parameter=length,
        )
        inputs = certificate_inputs(est, SampleTrace(1.0, 1.0, np.ones(3 * length)), 1.0, 1.0)
        assert inputs.y0_trunc_gap == float(eps) * 2.0
        assert inputs.kappa_xm == 1.0

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_block_rows_switch_at_the_constant(self, offset):
        length = pencil._COMPRESS_COLUMNS + offset
        count = 3 * length
        trace = exp_trace([1.0, -0.5], [0.99, 0.9], count, t_start=1.0)
        est = analyze(trace)
        assert est.pencil_parameter == length
        # Y's N - L rows on the direct path; on the compressed one, the 16
        # rows of Y's sketch, whatever the BLAS kernel
        direct = length < pencil._COMPRESS_COLUMNS
        rows = count - length if direct else pencil._SKETCH_COLUMNS
        truncated = est.truncated_pencil
        assert est.singular_values.size == min(rows, length)
        assert truncated.y0.shape == (rows, length)
        assert truncated.y1.shape == (rows, length)
        assert truncated.um.shape == (rows, 2)
        if direct:
            assert est.dropped_norm == 0.0
        else:
            # delta is the rounding the sketch leaves, far inside the tenth
            # of the order cutoff past which R would be factored instead
            y = build_hankel(trace)
            assert 0.0 < est.dropped_norm <= 4 * np.finfo(float).eps * np.linalg.norm(y)
            assert est.dropped_norm <= 0.1 * pencil._EPSILON * est.singular_values[0]
            sigma = svdvals(y[:, :-1])
            np.testing.assert_allclose(
                est.singular_values[:2], sigma[:2], rtol=0, atol=1e-14 * sigma[0]
            )

    def test_reference_windows_stay_direct(self):
        # the published certificate depends on rounding, and reference
        # rebuilds it from the free window's direct Hankel blocks, so the
        # reference windows (L = 17 and 27) must keep the direct path
        assert resolve_pencil_parameter(79) < pencil._COMPRESS_COLUMNS


class TestSketch:
    """The compressed path's Gaussian test matrix and its R fallback."""

    # SHA-256 of the 101 x 16 test matrix's bytes: a numpy release that
    # moves default_rng's normal stream moves every compressed result
    OMEGA_101_SHA256 = "0505358d98af5116760aa2b7ee6da84b97bc76080d8354c9865c7794e64d02e6"

    def test_test_matrix_is_read_only(self):
        omega = pencil._test_matrix(101)
        assert omega.shape == (101, pencil._SKETCH_COLUMNS)
        with pytest.raises(ValueError, match="read-only"):
            omega[0, 0] = 0.0

    def test_test_matrix_is_pinned(self):
        omega = pencil._test_matrix(101)
        assert hashlib.sha256(omega.tobytes()).hexdigest() == self.OMEGA_101_SHA256
        draws = np.random.default_rng(pencil._SKETCH_SEED).standard_normal(101 * 16)
        assert omega.tobytes() == draws.tobytes()

    def test_global_generator_untouched(self):
        np.random.seed(3)
        before = np.random.get_state()
        pencil._test_matrix.cache_clear()
        length = pencil._COMPRESS_COLUMNS + 5
        analyze(exp_trace([1.0, -0.5], [0.99, 0.9], 3 * length))
        after = np.random.get_state()
        assert after[0] == before[0]
        assert np.array_equal(after[1], before[1])
        assert after[2:] == before[2:]

    @staticmethod
    def noisy_reconstruction_window(sigma):
        trace = sample_windows(reference.reference_problem(), 300, 300, 0.01, 474)[2]
        noise = sigma * np.random.default_rng(0).standard_normal(trace.values.size)
        return SampleTrace(trace.t_start, trace.period, trace.values + noise)

    def test_noise_below_the_cutoff_keeps_the_sketch(self):
        trace = self.noisy_reconstruction_window(1e-12)
        est = analyze(trace)
        assert est.pencil_parameter == 158
        assert est.truncated_pencil.y0.shape == (pencil._SKETCH_COLUMNS, 158)
        assert 0.0 < est.dropped_norm <= 0.1 * pencil._EPSILON * est.singular_values[0]
        assert est.order == detect_order(svdvals(build_hankel(trace)), pencil._EPSILON)

    def test_noise_above_the_cutoff_falls_back_to_r(self, monkeypatch):
        # 1e-8 noise lifts every singular value of Y above the cutoff: the
        # sketch misses most of them, the window is solved on R with
        # delta = 0, and Y's order is refused by name, never by LAPACK
        trace = self.noisy_reconstruction_window(1e-8)
        y = build_hankel(trace)
        scaled = np.ldexp(y, -math.frexp(float(np.max(np.abs(trace.values))))[1])
        factors, dropped = pencil._compress(scaled, np.empty_like(scaled))
        assert dropped == 0.0
        assert factors.y0.shape == (159, 158)
        shapes = []
        original = np.linalg.qr

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        message = "order 159 detected on Y exceeds the 158 columns of Y0"
        with pytest.raises(RankDeficiencyError, match=re.escape(message)):
            analyze(trace)
        assert shapes == [(316, pencil._SKETCH_COLUMNS), (316, 159)]

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page faults"
    )
    def test_repeated_calls_do_not_fault_their_buffers_in_again(self):
        # the scaled Y and the sketch's residual are one allocation per call,
        # which glibc keeps mapped from one call to the next; as two 400 KB
        # buffers they were returned to the system and faulted in again,
        # about 165 faults per call on this window
        trace = sample_windows(reference.reference_problem(), 300, 300, 0.01, 474)[2]
        for _ in range(5):
            analyze(trace)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            analyze(trace)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 50 < 10


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def order_cases(draw):
    """Exponential sums on the direct or the compressed path: a few modes at
    any poles, or many modes whose rates grow like n**2 with weights falling
    like 1/n**2, as in the flux-step window, whose spectra fall slowly
    through the cutoff; scaled, and optionally with absolute Gaussian noise."""
    count = draw(st.integers(9, 141) | st.integers(3 * pencil._COMPRESS_COLUMNS - 2, 330))
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        poles = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        amps = [draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in poles]
    else:
        rate = draw(log_uniform(1e-4, 1e-1))
        n = np.arange(draw(st.integers(8, 30)))
        poles = np.exp(-rate * n * n)
        amps = draw(st.sampled_from([-1.0, 1.0])) ** n / (n * n + 1.0)
    k = np.arange(count)
    clean = sum(a * z**k for a, z in zip(amps, poles))
    noise = draw(st.just(0.0) | log_uniform(1e-12, 1e-4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(log_uniform(1e-6, 1e6)) * clean + noise * rng.standard_normal(count)
    return SampleTrace(0.0, 1.0, values)


def count_svds(monkeypatch):
    """Record, per ``np.linalg.svd`` call, whether it computed vectors."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestOrderFromY0:
    """The order on Y is read off the pole solve's SVD of Y0; Y's own
    spectrum is computed only near the cutoff."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(order_cases())
    @pytest.mark.filterwarnings("ignore::UserWarning")  # discarded poles of noisy traces
    def test_order_is_the_count_on_y(self, trace):
        # counted on Y itself, whichever matrix analyze factors
        y = build_hankel(trace)
        length = y.shape[1] - 1
        expected = detect_order(svdvals(y), pencil._EPSILON)
        # decided or left to Y's spectrum, never decided otherwise
        assert pencil._order_from_factors(factor_pencil(y)) in (None, expected)
        if expected > length:
            message = f"order {expected} detected on Y exceeds the {length} columns of Y0"
            with pytest.raises(RankDeficiencyError, match=re.escape(message)):
                analyze(trace)
            return
        truncated = analyze(trace).truncated_pencil
        assert (0 if truncated is None else truncated.sv.size) == expected

    @pytest.mark.parametrize("ratio,svds", [(1.004e-10, [True, False]), (1.1e-10, [True])])
    def test_cutoff_band_costs_one_values_only_svd(self, ratio, svds, monkeypatch):
        # sigma_2(Y) / sigma_1(Y) placed at ``ratio``: inside the band Y's
        # spectrum decides the order, outside it Y0's factors do
        def trace(weight):
            return exp_trace([1.0, weight], [0.9, 0.5], 30)

        def sigma_ratio(weight):
            sigma = svdvals(build_hankel(trace(weight)))
            return sigma[1] / sigma[0]

        weight = 1e-10 * ratio / sigma_ratio(1e-10)
        assert sigma_ratio(weight) == pytest.approx(ratio, rel=1e-4)
        calls = count_svds(monkeypatch)
        est = analyze(trace(weight))
        assert calls == svds
        assert est.order == 2

    def test_lone_last_sample_refused_as_rank_deficient(self, monkeypatch):
        # Y0 is zero and Y holds one nonzero entry: Y's order is 1, which
        # Y0 cannot carry
        values = np.zeros(12)
        values[-1] = 1.0
        calls = count_svds(monkeypatch)
        with pytest.raises(
            RankDeficiencyError,
            match=re.escape("order 1 exceeds the rank of the data (sigma_1 = 0)"),
        ):
            analyze(SampleTrace(0.0, 1.0, values))
        assert calls == [True, False]

    @pytest.mark.parametrize("scale", [1e155, 1e305, 1e306, 1e307])
    @pytest.mark.filterwarnings("ignore:discarding:UserWarning")
    def test_traces_too_large_to_bound_count_on_y(self, scale, monkeypatch):
        # s_1 * |Y| past float64: the order is counted on Y's spectrum,
        # with no RuntimeWarning (an error in this suite)
        step = sample_windows(reference.reference_problem(), 50, 50, 0.01, 79)[1]
        trace = SampleTrace(step.t_start, step.period, step.values * scale)
        calls = count_svds(monkeypatch)
        est = analyze(trace)
        assert calls == [True, False]
        assert est.truncated_pencil.sv.size == 6


@st.composite
def near_overflow_traces(draw):
    """Exponential sums of a few modes on the direct or the compressed path,
    scaled so that max |y| lies in [1e300, 1.7e308]."""
    count = draw(st.integers(9, 141) | st.integers(3 * pencil._COMPRESS_COLUMNS - 2, 200))
    m = draw(st.integers(1, 4))
    poles = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    amps = [draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in poles]
    k = np.arange(count)
    values = sum(a * z**k for a, z in zip(amps, poles))
    assume(np.any(values))  # modes that cancel exactly
    # drawn down from the ceiling, so that many Hankel norms overflow
    peak = 1.7e308 / draw(log_uniform(1.0, 1.7e8))
    return SampleTrace(0.0, 1.0, values / np.max(np.abs(values)) * peak)


class TestNearOverflow:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(near_overflow_traces())
    @pytest.mark.filterwarnings("ignore:discarding:UserWarning")
    def test_analyze_returns_or_names_the_overflow(self, trace):
        # never a bare LinAlgError from LAPACK, on either path
        try:
            analyze(trace)
        except PencilError:
            pass

    def test_rows_kept_do_not_depend_on_the_scale(self):
        # the sketch runs on Y scaled by a power of two, so a trace scaled by
        # 2**1000 is sketched and solved on the same bits; unscaled, entries
        # near 1e300 would overflow its products
        length = pencil._COMPRESS_COLUMNS + 2
        trace = exp_trace([1.0, -0.5], [0.99, 0.9], 3 * length)
        scaled = SampleTrace(trace.t_start, trace.period, trace.values * 2.0**1000)
        plain, large = analyze(trace), analyze(scaled)
        assert large.pencil_parameter == length
        kept = plain.truncated_pencil.y0.shape[0]
        assert 2 < kept < length
        assert large.truncated_pencil.y0.shape[0] == kept
        assert large.order == plain.order == 2
        assert large.poles.tobytes() == plain.poles.tobytes()
        assert large.dropped_norm == plain.dropped_norm * 2.0**1000
        assert large.truncated_pencil.y1.tobytes() == (
            plain.truncated_pencil.y1 * 2.0**1000
        ).tobytes()


class TestShiftPencilIdentity:
    def test_nonzero_eigenvalues_of_pinv_product(self):
        # oracle: eigen-solve the explicitly formed pseudoinverse product
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = int(rng.integers(1, 4))
            poles = np.sort(rng.uniform(0.2, 0.95, m))[::-1]
            while m > 1 and np.min(np.abs(np.diff(poles))) < 0.08:
                poles = np.sort(rng.uniform(0.2, 0.95, m))[::-1]
            amps = rng.uniform(0.5, 2.0, m) * rng.choice([-1, 1], m)
            trace = exp_trace(amps, poles, 18)
            _, truncated = estimate_poles(factor_pencil(build_hankel(trace)), m)
            product = np.linalg.pinv(truncated.y0, rcond=1e-12) @ truncated.y1
            eigvals = np.linalg.eigvals(product)
            big = np.sort(eigvals.real[np.abs(eigvals) > 1e-6])[::-1]
            np.testing.assert_allclose(big, poles, atol=1e-7)


class TestExactRecovery:
    def test_randomized_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            while True:
                poles = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
                if m == 1 or np.min(np.abs(np.diff(poles))) >= 0.05:
                    break
            amps = rng.uniform(0.1, 10.0, m) * rng.choice([-1.0, 1.0], m)
            n = int(rng.integers(30, 61))
            trace = exp_trace(amps, poles, n)
            est = analyze(trace)
            assert est.order == m
            np.testing.assert_allclose(est.poles, poles, rtol=1e-8)
            rebuilt = rebuild(trace, est.rates, fit_amplitudes(trace, est.rates))
            scale = np.max(np.abs(trace.values))
            assert np.max(np.abs(rebuilt - trace.values)) <= 1e-8 * scale


def test_estimator_imports_only_the_model():
    # the estimator stands alone: of its own package it reads only traces
    tree = ast.parse(Path(pencil.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["heatpencil" if node.level else "", node.module]))
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        imported.update(m.split(".")[1] for m in modules if m.startswith("heatpencil."))
    assert imported == {"model"}
