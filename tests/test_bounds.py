import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heatpencil
from heatpencil.bounds import (
    BoundInputs,
    CertificateUnavailableError,
    alpha_error_bound,
    build_certificate,
    certificate_inputs,
    condition_number,
    decay_envelope,
    frobenius_bounds,
    read_certificate,
    read_priors,
    tail_bound,
)
from heatpencil.model import SampleTrace, sample_windows
from heatpencil.pencil import PencilEstimate, TruncatedPencil, analyze
from heatpencil.reference import reference_problem

PI_SQ = math.pi**2
GOLDEN = (1 + math.sqrt(5)) / 2


def has_avx2():
    cpuinfo = Path("/proc/cpuinfo")
    return cpuinfo.exists() and re.search(r"\bavx2\b", cpuinfo.read_text()) is not None


def reference_inputs(**overrides):
    # the published error-analysis row: priors (15, 3), order 2, 50 samples,
    # split 17, window start 0.3, period 0.01, plus its spectral diagnostics
    values = dict(
        m0=15.0, alpha0=3.0, m=2, n=50, l=17, t1=0.3, ts=0.01,
        sigma_m=9.5089e-5, y1_norm=11.8427, y0_trunc_gap=2.2494e-15,
        kappa_xm=17.9467,
    )
    values.update(overrides)
    return BoundInputs(**values)


class TestBoundInputs:
    @pytest.mark.parametrize(
        "name", ["m0", "alpha0", "t1", "ts", "sigma_m", "y1_norm", "y0_trunc_gap"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            reference_inputs(**{name: value})

    def test_nan_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa_xm"):
            reference_inputs(kappa_xm=math.nan)

    def test_infinite_kappa_of_a_defective_basis_accepted(self):
        assert reference_inputs(kappa_xm=math.inf).kappa_xm == math.inf


class TestTailBound:
    def test_reference_magnitude(self):
        # (sqrt(2) + 1/(4*2*pi^2*3*0.3)) * 15 * exp(-3*4*pi^2*0.3) ~ 7.9e-15
        value = tail_bound(15.0, 3.0, 2, 0.3)
        expected = (math.sqrt(2) + 1 / (4 * 2 * PI_SQ * 3 * 0.3)) * 15 * math.exp(
            -3 * 4 * PI_SQ * 0.3
        )
        assert value == expected
        assert value == pytest.approx(7.9e-15, rel=0.01)

    def test_dominates_actual_tail(self):
        # oracle: direct summation of the discarded modes
        rng = np.random.default_rng(8)
        for _ in range(30):
            alpha0 = rng.uniform(0.5, 4.0)
            alpha = alpha0 * rng.uniform(1.0, 2.0)
            coeffs = {n: rng.uniform(-1, 1) for n in range(0, 15)}
            m0 = math.sqrt(
                sum(c * c * (1.0 if n == 0 else 0.5) for n, c in coeffs.items())
            )
            m = int(rng.integers(1, 5))
            for _ in range(5):
                t = rng.uniform(0.05, 1.0)
                tail = sum(
                    c * math.exp(-alpha * n * n * PI_SQ * t)
                    for n, c in coeffs.items()
                    if n >= m
                )
                assert abs(tail) <= tail_bound(m0, alpha0, m, t)

    def test_strictly_decreasing_in_each_argument(self):
        base = tail_bound(10.0, 2.0, 3, 0.4)
        assert tail_bound(10.0, 2.0, 4, 0.4) < base
        assert tail_bound(10.0, 2.0, 3, 0.5) < base
        assert tail_bound(10.0, 2.5, 3, 0.4) < base

    def test_vanishes_as_order_grows(self):
        values = [tail_bound(10.0, 2.0, m, 0.3) for m in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-160

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_bound(-1.0, 2.0, 3, 0.4)
        with pytest.raises(ValueError):
            tail_bound(1.0, 2.0, 0, 0.4)
        with pytest.raises(ValueError):
            tail_bound(1.0, 2.0, 3, 0.0)


class TestDecayEnvelope:
    def test_reference_value(self):
        assert decay_envelope(2.3687, 17) == pytest.approx(0.0936, abs=5e-5)

    def test_branch_boundaries(self):
        assert decay_envelope(1.0, 17) == math.exp(-1.0)  # first branch at theta=1
        with pytest.warns(UserWarning, match="breakpoint"):
            assert decay_envelope(0.25, 5) == 4 * math.exp(-1.0)  # theta = 1/(l-1)

    def test_jump_at_breakpoint_is_a_formula_property(self):
        # just above 1/(l-1) the middle branch gives twice the third branch
        l = 5
        theta = 0.25
        with pytest.warns(UserWarning, match="breakpoint"):
            lower = decay_envelope(theta, l)
            upper = decay_envelope(theta * 1.001, l)
        assert upper == pytest.approx(2 * lower, rel=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_envelope(0.0, 5)
        with pytest.raises(ValueError):
            decay_envelope(1.0, 1)


class TestFrobeniusBounds:
    def test_reference_theta(self):
        inputs = reference_inputs()
        assert inputs.theta == pytest.approx(2.3687, abs=1e-4)

    def test_dominates_explicit_hankel_difference(self):
        # oracle: build both Hankels from a finite model plus explicit tail
        rng = np.random.default_rng(12)
        for _ in range(10):
            alpha0 = rng.uniform(1.0, 3.0)
            alpha = alpha0 * rng.uniform(1.0, 1.5)
            coeffs = {n: rng.uniform(-1.5, 1.5) for n in range(0, 12)}
            m0 = math.sqrt(
                sum(c * c * (1.0 if n == 0 else 0.5) for n, c in coeffs.items())
            )
            m, n_samples, t1, ts = 2, 50, 0.25, 0.01
            length = 17
            t = t1 + ts * np.arange(n_samples)
            full = sum(c * np.exp(-alpha * k * k * PI_SQ * t) for k, c in coeffs.items())
            kept_modes = sorted(coeffs)[:m]
            kept = sum(
                coeffs[k] * np.exp(-alpha * k * k * PI_SQ * t) for k in kept_modes
            )
            rows = np.arange(n_samples - length)[:, None]
            cols = (length - 1 - np.arange(length))[None, :]
            diff = (full - kept)[cols + rows]
            inputs = BoundInputs(
                m0=m0, alpha0=alpha0, m=m, n=n_samples, l=length, t1=t1, ts=ts,
                sigma_m=1.0, y1_norm=1.0, y0_trunc_gap=0.0, kappa_xm=1.0,
            )
            frob_y0, frob_y1 = frobenius_bounds(inputs)
            assert np.linalg.norm(diff, "fro") <= frob_y0
            cols1 = (length - np.arange(length))[None, :]
            diff1 = (full - kept)[cols1 + rows]
            assert np.linalg.norm(diff1, "fro") <= frob_y1

    def test_large_theta_asymptote(self):
        inputs = reference_inputs(ts=1.0)  # theta ~ 237
        frob_y0, _ = frobenius_bounds(inputs)
        prefactor = tail_bound(15.0, 3.0, 2, 0.3)
        assert frob_y0 == pytest.approx(prefactor, rel=1e-2)

    def test_sample_count_hypothesis(self):
        with pytest.raises(ValueError, match="9"):
            reference_inputs(n=9)


class TestRho:
    def test_reference_value_from_published_row(self):
        # with the published gap and sigma_M the level lands on 1.4522e-10
        rho = build_certificate(reference_inputs()).rho
        assert rho == pytest.approx(1.4522e-10, rel=5e-3)

    def test_zero_when_gap_and_prior_vanish(self):
        inputs = reference_inputs(m0=0.0, y0_trunc_gap=0.0)
        assert build_certificate(inputs).rho == 0.0

    def test_scales_inversely_with_sigma(self):
        a = build_certificate(reference_inputs(sigma_m=1e-4)).rho
        b = build_certificate(reference_inputs(sigma_m=2e-4)).rho
        assert a == pytest.approx(2 * b, rel=1e-12)


class TestPoleErrorBound:
    def test_reference_value(self):
        cert = build_certificate(reference_inputs())
        assert cert.branch == "special"
        assert cert.pole_bound == pytest.approx(5.2521e-4, rel=1e-3)
        assert cert.pole_bound_general > 0

    def test_vanishes_with_rho(self):
        small = build_certificate(reference_inputs(m0=1e-6, y0_trunc_gap=0.0))
        tiny = build_certificate(reference_inputs(m0=1e-9, y0_trunc_gap=0.0))
        assert tiny.pole_bound < small.pole_bound < 1e-10

    def test_unavailable_when_rho_reaches_one(self):
        with pytest.raises(CertificateUnavailableError, match="rho"):
            build_certificate(reference_inputs(sigma_m=1e-15))

    @pytest.mark.parametrize("m0,alpha0,m", [(15.0, 1e-200, 2), (15.0, 5e-324, 1), (0.0, 1e-320, 2)])
    def test_unavailable_under_a_weak_diffusivity_prior(self, m0, alpha0, m):
        # 1/theta squared overflows, theta underflows to 0, or a zero norm
        # prior meets an infinite tail prefactor (rho is NaN)
        with pytest.raises(CertificateUnavailableError, match="rho"):
            build_certificate(reference_inputs(m0=m0, alpha0=alpha0, m=m))

    def test_general_branch_when_theta_small(self):
        inputs = reference_inputs(ts=1e-4, sigma_m=1.0)  # theta ~ 0.024 < 1/16
        cert = build_certificate(inputs)
        assert cert.branch == "general"
        assert cert.pole_bound_special is None


def exp_trace(amps, poles, n):
    # starts at t = 1 so that the trace can carry a certificate
    k = np.arange(n)
    values = sum(a * z**k for a, z in zip(amps, poles))
    return SampleTrace(t_start=1.0, period=1.0, values=np.asarray(values, float))


def svdvals(matrix):
    return np.linalg.svd(matrix, compute_uv=False)


class TestCertificateInputs:
    def test_spectral_quantities_of_the_pole_solve(self):
        trace = exp_trace([2.0, 1.0], [0.6, 0.3], 21)
        est = analyze(trace)
        pencil = est.truncated_pencil
        inputs = certificate_inputs(est, trace, 15.0, 3.0)
        sigma_y0 = svdvals(pencil.y0)
        assert inputs.sigma_m == pytest.approx(sigma_y0[1], rel=1e-14)
        # the gap is the pole solve's sigma_{M+1} plus the rounding allowance
        sigma, eps = est.singular_values, float(np.finfo(float).eps)
        np.testing.assert_allclose(sigma, sigma_y0, rtol=0, atol=1e-14 * sigma_y0[0])
        assert inputs.y0_trunc_gap == float(sigma[2]) + eps * float(sigma[0])
        # ||Y1||_2 is bounded by hypot(sigma_1(Y0), |c|), c the column Y0
        # lacks.  This trace leads with the pole 0.6, so Y1, which lacks Y's
        # largest column, has about 0.6 of Y's norm, and the bound is loose
        # by the measured 1.898x; test_y1_bound_on_a_heat_window pins it on
        # a window led by the constant mode
        y1_norm = svdvals(pencil.y1)[0]
        bound = math.hypot(sigma[0], np.linalg.norm(pencil.y1[:, 0]))
        assert y1_norm <= inputs.y1_norm == pytest.approx(bound, rel=1e-14)
        assert inputs.y1_norm <= 1.9 * y1_norm
        assert 1.0 <= inputs.kappa_xm < math.inf
        assert (inputs.m0, inputs.alpha0, inputs.m, inputs.n, inputs.l) == (15.0, 3.0, 2, 21, 7)
        assert (inputs.t1, inputs.ts) == (trace.t_start, trace.period)

    def test_y1_bound_on_a_heat_window(self):
        # the reference free window (L = 17) leads with the constant mode at
        # z = 1, whose Y1 keeps Y0's norm: the bound is within 3% there
        free, _, _ = sample_windows(reference_problem(), 50, 50, 0.01, 79)
        est = analyze(free)
        inputs = certificate_inputs(est, free, 15.0, 3.0)
        y1_norm = svdvals(est.truncated_pencil.y1)[0]
        assert inputs.l == 17
        assert y1_norm <= inputs.y1_norm <= 1.03 * y1_norm

    def test_detected_order_kept_after_discards(self):
        # the constant-plus-oscillation signal keeps one of three poles; the
        # diagnostics stay at the detected order 3
        k = np.arange(30)
        trace = SampleTrace(1.0, 1.0, 1.0 + 0.9**k * np.cos(1.1 * k))
        with pytest.warns(UserWarning, match="complex"):
            est = analyze(trace)
        assert est.order == 1
        assert est.truncated_pencil.sv.size == 3
        inputs = certificate_inputs(est, trace, 1.0, 1.0)
        assert inputs.m == 1
        assert inputs.sigma_m == est.truncated_pencil.sv[2]

    def test_defective_eigenbasis_gives_infinite_kappa(self):
        # a Jordan block has one eigenvector: the eigenvector matrix is singular
        eye = np.eye(2)
        jordan = TruncatedPencil(
            y0=eye, y1=np.array([[1.0, 1.0], [0.0, 1.0]]), um=eye, sv=np.ones(2), vm=eye
        )
        est = PencilEstimate(
            order=2, poles=np.ones(2), rates=np.zeros(2), singular_values=np.ones(3),
            truncated_pencil=jordan, pencil_parameter=2,
        )
        trace = SampleTrace(1.0, 1.0, np.ones(10))
        assert certificate_inputs(est, trace, 1.0, 1.0).kappa_xm == math.inf

    @pytest.mark.parametrize("pole_matrix,finite", [
        pytest.param([[0.9, 0.0], [0.0, 0.0]], False, id="zero-pole"),
        pytest.param([[0.9, 0.0], [0.0, 1e-320]], False, id="subnormal-pole"),
        pytest.param([[0.9, 1.0], [0.0, 0.9]], False, id="jordan-block"),
        pytest.param([[0.9, -0.1], [0.1, 0.9]], True, id="complex-pair"),
    ])
    def test_compressed_window_pole_matrix_edges(self, pole_matrix, finite):
        # a compressed window's rank-2 factors whose pole matrix Z is the
        # top-left block of y1, with Y1 reaching past Y0's row space; a
        # subnormal pole overflows the solve rather than stopping it
        length = heatpencil.pencil._COMPRESS_COLUMNS
        um, vm = np.eye(length + 1, 2), np.eye(length)
        y1 = np.zeros((length + 1, length))
        y1[:2, :2] = pole_matrix
        y1[:2, 2] = (0.5, 0.25)
        factors = TruncatedPencil(y0=um @ vm[:, :2].T, y1=y1, um=um, sv=np.ones(2), vm=vm[:, :2])
        est = PencilEstimate(
            order=2, poles=np.ones(2), rates=np.zeros(2), singular_values=np.ones(length),
            truncated_pencil=factors, pencil_parameter=length,
        )
        trace = SampleTrace(1.0, 1.0, np.ones(3 * length))
        kappa = certificate_inputs(est, trace, 1.0, 1.0).kappa_xm
        assert math.isfinite(kappa) == finite
        assert kappa >= 1.0

    @staticmethod
    def inputs_under_blas_kernels(sizes):
        """``(kappa_xm, y1_norm, rows)`` of ``identify``'s certificate on
        the reference problem sampled at ``sizes`` (n1, n2, n_rec), rows
        the free window's pole solve factored, computed in a subprocess
        under the Haswell and then the Sandybridge kernel."""
        n1, n2, n_rec = sizes
        script = (
            "from heatpencil import reference, pipeline\n"
            "from heatpencil.model import sample_windows\n"
            f"traces = sample_windows(reference.reference_problem(), {n1}, {n2}, 0.01, {n_rec})\n"
            "result = pipeline.identify(*traces, None, reference.REFERENCE_PRIORS)\n"
            "inputs = result.certificate.inputs\n"
            "rows = result.free_spectrum.estimate.truncated_pencil.y0.shape[0]\n"
            "print(repr(inputs.kappa_xm), repr(inputs.y1_norm), rows)\n"
        )
        src = str(Path(heatpencil.__file__).parents[1])
        runs = []
        for kernel in ("Haswell", "Sandybridge"):
            env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True)
            runs.append([float(word) for word in run.stdout.split()])
        return runs

    @pytest.mark.skipif(
        platform.machine() != "x86_64" or not has_avx2(),
        reason="selects x86_64 OpenBLAS kernels that need AVX2",
    )
    def test_compressed_kappa_does_not_depend_on_the_blas_kernel(self):
        # LAPACK's basis of the product's kernel is chosen by rounding, and
        # its kappa moved by several percent between these kernels on this
        # window; the exact eigenbasis does not, nor does the bound on
        # ||Y1||.  The gap, sigma_{M+1} at rounding level, moves with the
        # kernel, and the pole bound with it, so neither is pinned.  The
        # free window's row count is the sketch's width, which no kernel's
        # rounding moves
        (kappa_h, y1_h, rows_h), (kappa_s, y1_s, rows_s) = self.inputs_under_blas_kernels(
            (300, 300, 474)
        )
        assert rows_h == rows_s == heatpencil.pencil._SKETCH_COLUMNS
        assert math.isfinite(kappa_h)
        assert kappa_s == pytest.approx(kappa_h, rel=1e-6)
        assert y1_s == pytest.approx(y1_h, rel=1e-12)

    @pytest.mark.skipif(
        platform.machine() != "x86_64" or not has_avx2(),
        reason="selects x86_64 OpenBLAS kernels that need AVX2",
    )
    def test_direct_kappa_does_not_depend_on_the_blas_kernel(self):
        # the reference-sized free window (L = 17) is solved on the Hankel
        # matrix itself; LAPACK's kappa of its L x L eigenvectors reads
        # 18.3 under one kernel and other values under others, the exact
        # eigenbasis 1.8526 under every one
        (kappa_h, y1_h, rows_h), (kappa_s, y1_s, rows_s) = self.inputs_under_blas_kernels(
            (50, 50, 79)
        )
        assert rows_h == rows_s == 50 - 17
        assert kappa_h == pytest.approx(1.8526, rel=1e-4)
        assert kappa_s == pytest.approx(kappa_h, rel=1e-6)
        assert y1_s == pytest.approx(y1_h, rel=1e-12)

    def test_nine_samples_withhold_the_certificate(self):
        trace = exp_trace([2.0, 1.0], [0.6, 0.3], 9)
        with pytest.raises(CertificateUnavailableError, match="more than 9 samples, got 9"):
            certificate_inputs(analyze(trace), trace, 1.0, 1.0)

    def test_no_signal_withholds_the_certificate(self):
        trace = SampleTrace(1.0, 1.0, np.zeros(12))
        est = analyze(trace)
        with pytest.raises(CertificateUnavailableError, match="no signal"):
            certificate_inputs(est, trace, 1.0, 1.0)


class TestAlphaErrorBound:
    def test_published_numbers(self):
        eig_bound, a_bound = alpha_error_bound(5.2521e-4, 0.6738, 0.01, 1)
        assert a_bound == pytest.approx(7.8974e-3, abs=5e-7)
        assert eig_bound == pytest.approx(a_bound * PI_SQ, rel=1e-12)

    def test_zero_bound_zero_width(self):
        eig_bound, a_bound = alpha_error_bound(0.0, 0.5, 0.01, 2)
        assert eig_bound == 0.0 and a_bound == 0.0

    def test_halves_when_period_doubles(self):
        _, a1 = alpha_error_bound(1e-4, 0.5, 0.01, 1)
        _, a2 = alpha_error_bound(1e-4, 0.5, 0.02, 1)
        assert a2 == pytest.approx(a1 / 2, rel=1e-12)

    def test_constant_mode_rejected(self):
        with pytest.raises(ValueError, match="constant mode"):
            alpha_error_bound(1e-4, 0.9, 0.01, 0)

    def test_large_bound_warns(self):
        with pytest.warns(UserWarning, match="unjustified"):
            alpha_error_bound(0.2, 0.5, 0.01, 1)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0, rel=1e-14)

    def test_unit_shear_by_hand(self):
        # singular values of [[1,1],[0,1]] are the golden ratio and its
        # inverse, so the condition number is the golden ratio squared
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert condition_number(shear) == pytest.approx(GOLDEN**2, rel=1e-12)

    def test_rotation_conjugation_keeps_orthogonality(self):
        angle = 0.7
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        assert condition_number(rot) == pytest.approx(1.0, rel=1e-12)

    def test_defective_matrix_rejected(self):
        assert condition_number(np.array([[1.0, 1.0], [1.0, 1.0]])) == math.inf

    def test_requires_square(self):
        with pytest.raises(ValueError):
            condition_number(np.ones((3, 2)))


class TestPerturbationLemmas:
    """Random-matrix sanity checks of the inequalities the certificate rests on."""

    @staticmethod
    def _well_conditioned(rng, rows, cols):
        a = rng.standard_normal((rows, cols))
        u, _, vt = np.linalg.svd(a, full_matrices=False)
        s = rng.uniform(0.5, 2.0, min(rows, cols))
        return u @ np.diag(s) @ vt

    def test_pseudoinverse_difference_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rows, cols = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            a = self._well_conditioned(rng, rows, cols)
            e = 0.05 * rng.standard_normal((rows, cols))
            b = a + e
            assert np.linalg.matrix_rank(b) == np.linalg.matrix_rank(a)
            lhs = np.linalg.norm(np.linalg.pinv(b) - np.linalg.pinv(a), 2)
            rhs = (
                GOLDEN
                * np.linalg.norm(np.linalg.pinv(a), 2)
                * np.linalg.norm(np.linalg.pinv(b), 2)
                * np.linalg.norm(e, 2)
            )
            assert lhs <= rhs

    def test_perturbed_pseudoinverse_norm_inequality(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            rows, cols = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            a = self._well_conditioned(rng, rows, cols)
            pinv_norm = np.linalg.norm(np.linalg.pinv(a), 2)
            e = rng.standard_normal((rows, cols))
            e *= 0.5 / (pinv_norm * np.linalg.norm(e, 2))
            assert np.linalg.norm(e, 2) < 1.0 / pinv_norm
            assert np.linalg.matrix_rank(a + e) == np.linalg.matrix_rank(a)
            lhs = np.linalg.norm(np.linalg.pinv(a + e), 2)
            rhs = pinv_norm / (1 - pinv_norm * np.linalg.norm(e, 2))
            assert lhs <= rhs + 1e-12

    def test_eigenvalue_perturbation_inequality(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            x = rng.standard_normal((n, n)) + n * np.eye(n)
            eigs = rng.uniform(-2, 2, n)
            a = x @ np.diag(eigs) @ np.linalg.inv(x)
            e = 0.01 * rng.standard_normal((n, n))
            kappa = condition_number(x)
            for mu in np.linalg.eigvals(a + e):
                dist = np.min(np.abs(mu - eigs))
                assert dist <= kappa * np.linalg.norm(e, 2) + 1e-10


class TestCertificate:
    def test_reference_interval(self):
        cert = build_certificate(
            reference_inputs(), alpha_hat=4.0, z_tilde=0.6738, mode_index=1
        )
        lo, hi = cert.alpha_interval
        assert lo == pytest.approx(3.9921, abs=2e-4)
        assert hi == pytest.approx(4.0079, abs=2e-4)
        assert cert.branch == "special"
        assert lo < 4.0 < hi

    def test_serialization_field_names(self):
        cert = build_certificate(
            reference_inputs(), alpha_hat=4.0, z_tilde=0.6738, mode_index=1
        )
        payload = cert.to_dict()
        for key in (
            "M0", "alpha0", "M", "N", "L", "T1", "Ts", "theta", "M_theta_L",
            "Y1_norm_2", "sigma_M", "Y0M_gap_2", "kappa_XM", "rho",
            "pole_bound", "alpha_bound", "alpha_interval",
        ):
            assert key in payload
        assert payload["alpha_interval"] == list(cert.alpha_interval)

    def test_without_mode_index_no_interval(self):
        cert = build_certificate(reference_inputs(), alpha_hat=4.0)
        assert cert.alpha_interval is None
        assert cert.pole_bound > 0

    def test_mode_index_above_the_prior_withholds_the_interval(self):
        # the reference pole 0.6738 decays at 39.5; mode 2 under alpha0 = 3
        # would decay at 118 or faster, which no certified rate reaches
        z_tilde, ts = 0.6738, 0.01
        first = build_certificate(reference_inputs(), 4.0, z_tilde, mode_index=1)
        second = build_certificate(reference_inputs(), 4.0, z_tilde, mode_index=2)
        assert first.alpha_interval is not None
        assert 4 * PI_SQ * 3.0 > -math.log(z_tilde) / ts + second.eigenvalue_bound
        assert second.alpha_interval is None
        assert second.pole_bound == first.pole_bound
        result = {"alpha_hat": 4.0, "certificate": second.to_dict()}
        assert read_certificate(result, (15.0, 3.0)) == second
        # a pole decaying four times as fast, at 158, is admitted as mode 2
        fast = build_certificate(reference_inputs(), 4.0, z_tilde**4, mode_index=2)
        assert fast.alpha_interval is not None

    def test_breakpoint_warning_issued_once(self):
        # theta = 1/16 sits on the envelope breakpoint 1/(l-1) of l = 17
        inputs = reference_inputs(
            m0=1e-9, alpha0=(1 / 16) / (2 * PI_SQ * 0.01), m=1, sigma_m=1.0,
            y1_norm=1.0, y0_trunc_gap=0.0, kappa_xm=2.0,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cert = build_certificate(inputs)
        assert [w.category for w in caught] == [UserWarning]
        assert "breakpoint" in str(caught[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cert.decay_envelope == decay_envelope(inputs.theta, 17)
            assert (cert.frob_y0, cert.frob_y1) == frobenius_bounds(inputs)
        assert cert.tail_bound_t1 == tail_bound(1e-9, inputs.alpha0, 1, 0.3)

    @pytest.mark.parametrize("mode", [{"z_tilde": 0.6738, "mode_index": 1}, {}])
    def test_read_back_from_its_block(self, mode):
        # the block to_dict writes, with the result's alpha_hat, rebuilds it
        cert = build_certificate(reference_inputs(), alpha_hat=4.0, **mode)
        result = {"alpha_hat": 4.0, "certificate": cert.to_dict()}
        assert read_certificate(result, (15.0, 3.0)) == cert

    def test_read_priors(self):
        assert read_priors({"M0": 15, "alpha0": 3.0}, "p.json") == (15.0, 3.0)
        with pytest.raises(ValueError, match="^p.json is missing field 'alpha0'$"):
            read_priors({"M0": 15}, "p.json")
        with pytest.raises(ValueError, match="^p.json field 'M0' is not a number: True$"):
            read_priors({"M0": True, "alpha0": 3}, "p.json")
        with pytest.raises(ValueError, match="^norm prior must be nonnegative, got -1.0$"):
            read_priors({"M0": -1, "alpha0": 3}, "p.json")

    def test_bitwise_reproducible(self):
        a = build_certificate(reference_inputs(), 4.0, 0.6738, 1)
        b = build_certificate(reference_inputs(), 4.0, 0.6738, 1)
        assert a.to_dict() == b.to_dict()
