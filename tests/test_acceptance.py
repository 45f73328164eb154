"""Acceptance gate: every criterion at its declared tolerance.

One line per criterion is printed (run with ``pytest -s`` to see them all).
Two published reference values are not reproducible in IEEE double precision
from the synthesized data; their checks are kept at the declared tolerance
and fail honestly.  The evidence is summarized in the README reproducibility
notes: the published sigma_M pins the free-window data to the true
coefficient -9.40528 (so the printed -9.4077 reflects rounding inside the
original fit), and the published kappa depends on the rounding-determined
kernel basis of the truncated pencil product (equivalent computation orders
span 14.8 to 21.6 on bit-identical data).
"""

import math
import time

import numpy as np
import pytest

from heatpencil import bounds, model, pencil, pipeline, reference
from heatpencil.model import HeatProblem, sample

PI_SQ = math.pi**2


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def reference_run():
    problem = reference.reference_problem()
    cfg = reference.reference_config()
    n1, n2, t0, n_rec = reference.REFERENCE_SCHEDULE
    t1, t2, t3 = reference.REFERENCE_WINDOWS
    start = time.perf_counter()
    trace_free = sample(problem, t1, (t2 - t1) / n1, n1)
    step1_start = time.perf_counter()
    free = pipeline.free_window_spectrum(trace_free)
    step1_seconds = time.perf_counter() - step1_start
    trace_step = sample(problem, t2, (t3 - t2) / n2, n2)
    trace_rec = sample(problem, t0, (t2 - t0) / n_rec, n_rec)
    result = pipeline.identify(
        trace_free, trace_step, trace_rec, cfg, reference.REFERENCE_PRIORS
    )
    total_seconds = time.perf_counter() - start
    u0_err = reference.u0_reconstruction_error(result.u0_coeffs_hat)
    checks = {c.name: c for c in reference.compare_reference_run(result, u0_err)}
    return dict(
        result=result,
        checks=checks,
        u0_err=u0_err,
        step1_seconds=step1_seconds,
        total_seconds=total_seconds,
    )


def _assert_fields(checks, names):
    bad = [
        f"{name}: expected {checks[name].expected}, got {checks[name].actual:.8g} "
        f"(error {checks[name].error:.3g} > tol {checks[name].tolerance:g})"
        for name in names
        if not checks[name].ok
    ]
    assert not bad, "; ".join(bad)


class TestPublishedTable:
    def test_one_check_per_published_value(self, reference_run):
        checks = reference.compare_reference_run(reference_run["result"], reference_run["u0_err"])
        names = [c.name for c in checks]
        assert len(checks) == 31 and len(set(names)) == 31
        notes = {c.name: c.note for c in checks if c.known_unreproducible}
        assert set(notes) == {"free coefficient C_1", "kappa"}
        assert "pins the coefficient to -9.40528" in notes["free coefficient C_1"]
        assert "equivalent computations span 14.8-21.6" in notes["kappa"]
        published = []
        for row in reference.PUBLISHED:
            if isinstance(row.value, tuple):
                published += [(f"{row.name}_{k}", v) for k, v in enumerate(row.value)]
            else:
                published.append((row.name, row.value))
        assert [(c.name, c.expected) for c in checks] == published


class TestCriterion1FreeWindowEstimates:
    FIELDS = [
        "free pole z_0", "free pole z_1",
        "free rate lambda_0", "free rate lambda_1",
        "free coefficient C_0",
    ]

    def test_poles_rates_and_mean_coefficient(self, reference_run):
        checks = reference_run["checks"]
        ok = all(checks[f].ok for f in self.FIELDS)
        runtime_ok = reference_run["step1_seconds"] < 1.0
        _report(
            "criterion 1 (free-window estimates, reproducible fields)",
            ok and runtime_ok,
            f"spectral step took {reference_run['step1_seconds']:.3f}s",
        )
        _assert_fields(checks, self.FIELDS)
        assert runtime_ok

    def test_published_decaying_coefficient(self, reference_run):
        # The published -9.4077 is inconsistent with the published sigma_M,
        # which pins the synthesized data to the true coefficient -9.40528;
        # no faithful double-precision fit can land within 5e-4 of it.
        # Kept at the declared tolerance; fails honestly.
        check = reference_run["checks"]["free coefficient C_1"]
        _report(
            "criterion 1 (free-window coefficient, published value)",
            check.ok,
            f"computed {check.actual:.5f} vs published {check.expected}",
        )
        assert check.ok, (
            f"published value {check.expected} not reproducible: computed "
            f"{check.actual:.6f} (the exact coefficient); see README"
        )


class TestCriterion2ControlledWindow:
    def test_transformed_spectrum_and_alpha(self, reference_run):
        checks = reference_run["checks"]
        names = ["controlled-window order"]
        names += [f"controlled 100*C'_{n}" for n in range(5)]
        names += [f"controlled 100*rate'_{n}" for n in range(5)]
        names += ["credible index set == {1, 2}", "controlled-window alpha"]
        ok = all(checks[n].ok for n in names)
        _report("criterion 2 (controlled-window table)", ok)
        _assert_fields(checks, names)


class TestCriterion3Certificate:
    FIELDS = [
        "theta", "decay envelope", "Y1 spectral norm", "sigma_M", "rho",
        "pole bound", "alpha interval lower", "alpha interval upper",
    ]

    def test_certificate_fields(self, reference_run):
        checks = reference_run["checks"]
        ok = all(checks[f].ok for f in self.FIELDS)
        _report("criterion 3 (error-certificate fields, reproducible)", ok)
        _assert_fields(checks, self.FIELDS)

    def test_published_eigenbasis_condition_number(self, reference_run):
        # The kernel basis of the truncated pencil product is
        # rounding-determined; equivalent computations span 14.8-21.6 on
        # bit-identical data, so the 1% band around 17.9467 is not a
        # reproducible target.  Kept at the declared tolerance; fails honestly.
        check = reference_run["checks"]["kappa"]
        _report(
            "criterion 3 (eigenbasis condition number, published value)",
            check.ok,
            f"computed {check.actual:.4f} vs published {check.expected}",
        )
        assert check.ok, (
            f"published value {check.expected} not reproducible to 1%: computed "
            f"{check.actual:.4f}; see README"
        )


class TestCriterion4Reconstruction:
    def test_gcv_rank_and_profile_error(self, reference_run):
        checks = reference_run["checks"]
        names = ["GCV rank", "alpha_hat", "u0 relative L2 error"]
        ok = all(checks[n].ok for n in names)
        _report(
            "criterion 4 (reconstruction)",
            ok,
            f"gcv_k={reference_run['result'].gcv_k}, "
            f"u0 err={reference_run['u0_err']:.4f}",
        )
        _assert_fields(checks, names)


class TestCriterion5ExactRecovery:
    def test_two_hundred_noiseless_instances(self):
        rng = np.random.default_rng(20260808)
        worst_pole = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 6))
            while True:
                poles = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
                if m == 1 or np.min(np.abs(np.diff(poles))) >= 0.05:
                    break
            amps = rng.uniform(0.1, 10.0, m) * rng.choice([-1.0, 1.0], m)
            n = int(rng.integers(30, 61))
            k = np.arange(n)
            values = (amps[None, :] * poles[None, :] ** k[:, None]).sum(axis=1)
            est = pencil.analyze(model.SampleTrace(0.0, 1.0, values))
            assert est.order == m, f"order {est.order} != {m} for poles {poles}"
            rel = np.max(np.abs(est.poles - poles) / poles)
            worst_pole = max(worst_pole, rel)
            assert rel <= 1e-8, f"pole error {rel:.2e} for poles {poles}"
        _report(
            "criterion 5 (exact recovery, 200 instances)",
            True,
            f"worst pole relative error {worst_pole:.2e}",
        )


class TestCriterion6CertificateDominance:
    def test_fifty_randomized_problems(self):
        rng = np.random.default_rng(42)
        m0, alpha0 = 15.0, 3.0
        covered = 0
        for _ in range(50):
            alpha = rng.uniform(3.0, 8.0)
            coeffs = {
                0: rng.uniform(0.05, 0.2) * rng.choice([-1.0, 1.0]),
                1: rng.uniform(5.0, 15.0) * rng.choice([-1.0, 1.0]),
            }
            problem = HeatProblem(alpha, coeffs, 0.3, 0.8, 1.3)
            trace = sample(problem, 0.3, 0.01, 50)
            est = pencil.analyze(trace)
            assert est.order == 2
            inputs = bounds.certificate_inputs(est, trace, m0, alpha0)
            assert (inputs.t1, inputs.ts) == (0.3, 0.01)
            cert = bounds.build_certificate(inputs)
            assert cert.rho < 1.0
            bound = cert.pole_bound
            true_pole = math.exp(-alpha * PI_SQ * 0.01)
            measured = abs(est.poles[1] - true_pole)
            assert measured <= bound, f"{measured:.3e} > {bound:.3e}"
            covered += 1
        _report("criterion 6 (certificate dominance)", True, f"{covered}/50 covered")


class TestCriterion7PerturbationLemmas:
    @staticmethod
    def _well_conditioned(rng, rows, cols):
        a = rng.standard_normal((rows, cols))
        u, _, vt = np.linalg.svd(a, full_matrices=False)
        return u @ np.diag(rng.uniform(0.5, 2.0, min(rows, cols))) @ vt

    def test_pseudoinverse_difference_hundred_instances(self):
        rng = np.random.default_rng(101)
        golden = (1 + math.sqrt(5)) / 2
        for _ in range(100):
            rows, cols = int(rng.integers(3, 9)), int(rng.integers(2, 7))
            a = self._well_conditioned(rng, rows, cols)
            e = 0.05 * rng.standard_normal((rows, cols))
            b = a + e
            assert np.linalg.matrix_rank(b) == np.linalg.matrix_rank(a)
            lhs = np.linalg.norm(np.linalg.pinv(b) - np.linalg.pinv(a), 2)
            rhs = (
                golden
                * np.linalg.norm(np.linalg.pinv(a), 2)
                * np.linalg.norm(np.linalg.pinv(b), 2)
                * np.linalg.norm(e, 2)
            )
            assert lhs <= rhs
        _report("criterion 7 (pseudoinverse difference inequality)", True)

    def test_perturbed_norm_hundred_instances(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            rows, cols = int(rng.integers(3, 9)), int(rng.integers(2, 7))
            a = self._well_conditioned(rng, rows, cols)
            pinv_norm = np.linalg.norm(np.linalg.pinv(a), 2)
            e = rng.standard_normal((rows, cols))
            e *= rng.uniform(0.1, 0.9) / (pinv_norm * np.linalg.norm(e, 2))
            if np.linalg.matrix_rank(a + e) != np.linalg.matrix_rank(a):
                continue
            lhs = np.linalg.norm(np.linalg.pinv(a + e), 2)
            rhs = pinv_norm / (1 - pinv_norm * np.linalg.norm(e, 2))
            assert lhs <= rhs + 1e-12
        _report("criterion 7 (perturbed pseudoinverse norm inequality)", True)

    def test_eigenvalue_perturbation_hundred_instances(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal((n, n)) + n * np.eye(n)
            eigs = rng.uniform(-2.0, 2.0, n)
            a = x @ np.diag(eigs) @ np.linalg.inv(x)
            e = 0.01 * rng.standard_normal((n, n))
            kappa = bounds.condition_number(x)
            for mu in np.linalg.eigvals(a + e):
                assert np.min(np.abs(mu - eigs)) <= kappa * np.linalg.norm(e, 2) + 1e-10
        _report("criterion 7 (eigenvalue perturbation inequality)", True)


class TestCriterion8TailDominance:
    def test_hundred_profiles_ten_times_each(self):
        rng = np.random.default_rng(88)
        t1 = 0.3
        for _ in range(100):
            alpha0 = rng.uniform(0.8, 4.0)
            alpha = alpha0 * rng.uniform(1.0, 2.5)
            coeffs = {n: rng.uniform(-2.0, 2.0) for n in range(0, 20)}
            m0 = math.sqrt(
                sum(c * c * (1.0 if n == 0 else 0.5) for n, c in coeffs.items())
            )
            m = int(rng.integers(1, 6))
            for _ in range(10):
                t = t1 + rng.uniform(0.0, 1.0)
                tail = sum(
                    c * math.exp(-alpha * n * n * PI_SQ * t)
                    for n, c in coeffs.items()
                    if n >= m
                )
                assert abs(tail) <= bounds.tail_bound(m0, alpha0, m, t)
        _report("criterion 8 (truncation-tail dominance)", True, "1000 evaluations")


class TestCriterion9RoundTrip:
    def test_twenty_randomized_identifications(self):
        rng = np.random.default_rng(7)
        cfg = pipeline.PipelineConfig()
        n1, n2, t0, n_rec = reference.REFERENCE_SCHEDULE
        worst_alpha = worst_coeff = 0.0
        for _ in range(20):
            alpha = rng.uniform(3.0, 8.0)
            coeffs = {
                n: rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
                for n in range(4)
            }
            problem = HeatProblem(alpha, coeffs, 0.3, 0.8, 1.3)
            trace_free = sample(problem, 0.3, 0.01, n1)
            trace_step = sample(problem, 0.8, 0.01, n2)
            trace_rec = sample(problem, t0, 0.01, n_rec)
            result = pipeline.identify(trace_free, trace_step, trace_rec, cfg)
            alpha_err = abs(result.alpha_hat - alpha) / alpha
            coeff_err = max(
                abs(result.u0_coeffs_hat[n] - coeffs.get(n, 0.0))
                for n in range(cfg.m_tilde)
            )
            worst_alpha = max(worst_alpha, alpha_err)
            worst_coeff = max(worst_coeff, coeff_err)
            assert alpha_err <= 1e-3
            assert coeff_err <= 0.1
        _report(
            "criterion 9 (round-trip identification)",
            True,
            f"worst alpha err {worst_alpha:.2e}, worst coefficient err "
            f"{worst_coeff:.2e}",
        )
