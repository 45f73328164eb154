import csv
import dataclasses
import io
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heatpencil import cli, model, reference
from heatpencil.model import (
    HeatProblem,
    QuadratureError,
    SampleTrace,
    TraceError,
    control_bracket,
    cosine_coefficients,
    evaluate_cosine_series,
    problem_from_function,
    read_trace_csv,
    sample,
    sample_windows,
    write_trace_csv,
)

PI = math.pi


def csv_writer_bytes(trace):
    """The trace as csv.writer writes it with one 17-digit field per value."""
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["t", "y"])
    for t, y in zip(trace.times, trace.values):
        writer.writerow([f"{t:.17g}", f"{y:.17g}"])
    return expected.getvalue().encode()


def reference_u0(x):
    return x - 9 * np.cos(PI * x) + 5 * np.cos(3 * PI * x)


def make_problem(alpha=4.0, coeffs=None, **kw):
    if coeffs is None:
        coeffs = {0: 0.5, 1: -9 - 4 / PI**2, 3: 5 - 4 / (9 * PI**2)}
    return HeatProblem(alpha, coeffs, 0.3, 0.8, 1.3, **kw)


def at(problem, t):
    """The observation at the instant ``t``: a one-sample window."""
    return sample(problem, t, 1.0, 1).values[0]


def free_at(problem, t):
    """The observation at ``t`` with the flux switched on only after ``t``."""
    return at(dataclasses.replace(problem, t2=t + 1, t3=t + 2), t)


def decay_rate(alpha, n, period):
    """The rate of cosine mode ``n``, read off two samples of its free response."""
    free = dataclasses.replace(make_problem(alpha, {n: 1.0}), t2=2 * period + 1, t3=2 * period + 2)
    y = sample(free, period, period, 2).values
    return -math.log(y[1] / y[0]) / period


class TestEigenvalue:
    def test_mode_zero_is_zero(self):
        assert decay_rate(4.0, 0, 0.01) == 0.0

    def test_published_values(self):
        # 100 * rate at alpha=4, period 0.01: 39.4784 and 157.9137
        assert abs(decay_rate(4.0, 1, 0.01) - 39.4784) < 5e-5
        assert abs(decay_rate(4.0, 2, 0.01) - 157.9137) < 5e-5

    def test_quadratic_ratio(self):
        # each mode is sampled on its own time scale, where its two samples
        # differ by a factor exp(-pi**2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.uniform(0.1, 20)
            n = int(rng.integers(1, 40))
            ratio = decay_rate(alpha, n, 1 / (alpha * n * n)) / decay_rate(alpha, 1, 1 / alpha)
            assert ratio == pytest.approx(n * n, rel=1e-14)


class TestCosineCoefficients:
    def test_reference_profile(self):
        coeffs = cosine_coefficients(lambda x: reference_u0(x), n_max=4)
        assert coeffs[0] == pytest.approx(0.5, abs=1e-10)
        # integral of x cos(pi x) is -2/pi^2, so C_1 = -9 - 4/pi^2
        assert coeffs[1] == pytest.approx(-9 - 4 / PI**2, abs=1e-10)
        assert coeffs[2] == pytest.approx(0.0, abs=1e-10)
        assert coeffs[3] == pytest.approx(5 - 4 / (9 * PI**2), abs=1e-10)

    def test_pure_cosine_is_a_delta(self):
        for k in (1, 3, 7):
            coeffs = cosine_coefficients(lambda x, k=k: math.cos(k * PI * x), n_max=9)
            for n, c in coeffs.items():
                assert c == pytest.approx(1.0 if n == k else 0.0, abs=1e-10)

    def test_constant_profile(self):
        coeffs = cosine_coefficients(lambda x: 0.75, n_max=5)
        assert coeffs[0] == pytest.approx(0.75, abs=1e-12)
        assert all(abs(coeffs[n]) < 1e-10 for n in range(1, 6))

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(model, "_QUAD_MAX_PANELS", 8)
        nodes = []

        def u0(x):
            value = math.sin(40.0 / (x + 0.01))  # scalars only
            nodes.append(x)
            return value

        with pytest.raises(QuadratureError, match="8 panels"):
            cosine_coefficients(u0, n_max=0)
        # every panel count up to the cap (1, 2, 4, 8) was tried, none past it
        assert len(nodes) == 15 * model._QUAD_NODES

    def test_reference_profile_to_mode_41(self):
        coeffs = cosine_coefficients(reference.reference_u0, n_max=41)
        exact = reference.reference_u0_coefficients(41)
        assert sorted(coeffs) == list(range(42))
        for n, c in coeffs.items():
            assert abs(c - exact.get(n, 0.0)) <= 1e-12

    def test_profile_evaluated_once_per_node(self):
        evaluations = 0

        def u0(x):
            nonlocal evaluations
            evaluations += np.size(x)
            return reference.reference_u0(x)

        cosine_coefficients(u0, n_max=41)
        assert evaluations <= 5000

    def test_scalar_only_callable_matches_array_callable(self):
        scalar = cosine_coefficients(lambda x: math.exp(x) * math.cos(2 * x), n_max=12)
        array = cosine_coefficients(lambda x: np.exp(x) * np.cos(2 * x), n_max=12)
        for n in range(13):
            assert scalar[n] == pytest.approx(array[n], abs=1e-14)


class TestFreeResponse:
    def test_constant_mode(self):
        problem = make_problem(coeffs={0: 0.5})
        for t in (0.1, 0.5, 3.0):
            assert free_at(problem, t) == 0.5

    def test_single_mode_decays_to_zero(self):
        problem = make_problem(coeffs={1: -9.4053})
        values = [free_at(problem, t) for t in (0.1, 0.5, 1.0, 5.0)]
        assert all(abs(b) < abs(a) for a, b in zip(values, values[1:]))
        assert abs(values[-1]) < 1e-60

    def test_against_direct_summation(self):
        # oracle: plain-python summation of at least 200 modes
        coeffs = {0: 0.5, 1: -9 - 4 / PI**2, 3: 5 - 4 / (9 * PI**2)}
        coeffs.update({n: -4 / (n * n * PI**2) for n in range(5, 201, 2)})
        problem = make_problem(coeffs=coeffs)
        t = 0.3
        expected = 0.0
        for n, c in sorted(problem.u0_coeffs.items()):
            expected += c * math.exp(-4.0 * n * n * PI**2 * t)
        assert free_at(problem, t) == pytest.approx(expected, rel=1e-13)

    def test_strictly_decreasing_for_positive_modes(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = {0: rng.uniform(-2, 2)}
            coeffs.update({n: rng.uniform(0.1, 3) for n in range(1, 4)})
            alpha = rng.uniform(0.5, 5)
            problem = make_problem(alpha=alpha, coeffs=coeffs)
            # stay where the decaying part is above rounding of the constant
            ts = np.sort(rng.uniform(0.01, 1.2 / alpha, 8))
            vals = [free_at(problem, t) for t in ts]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            sample(make_problem(), 0.0, 0.01, 1)


def heat_kernel_at_origin(alpha, s):
    # dual series of the kernel: (1/sqrt(pi alpha s)) sum_k exp(-k^2/(alpha s))
    total = 1.0
    k = 1
    while True:
        term = 2.0 * math.exp(-k * k / (alpha * s))
        total += term
        if term < 1e-18 * total:
            break
        k += 1
    return total / math.sqrt(math.pi * alpha * s)


class TestStepResponse:
    def test_continuous_at_switch_time(self):
        problem = make_problem()
        assert at(problem, problem.t2) == free_at(problem, problem.t2)

    def test_constant_term_value(self):
        # the long-time offset of the flux bracket is -1/(3 alpha) = -0.0833...
        problem = make_problem(coeffs={})
        dt = 2.0
        drift = -1.0 / (3 * 4.0) - dt
        assert at(problem, problem.t2 + dt) == pytest.approx(drift, abs=1e-10)

    @pytest.mark.parametrize("dt", [0.033, 0.5])
    def test_against_kernel_quadrature(self, dt):
        # oracle: integrate the dual-series heat kernel over the flux window,
        # with s = u^2 removing the 1/sqrt(s) endpoint singularity
        problem = make_problem(coeffs={})
        alpha = problem.alpha
        integral, err = quad(
            lambda u: heat_kernel_at_origin(alpha, u * u) * 2 * u,
            0.0,
            math.sqrt(dt),
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert err < 1e-10
        assert at(problem, problem.t2 + dt) == pytest.approx(-integral, abs=1e-10)

    def test_truncated_series_differs_from_exact(self):
        exact = make_problem(coeffs={})
        capped = make_problem(coeffs={}, control_series_terms=200)
        t = exact.t2  # at the switch time the truncation is most visible
        gap = at(capped, t) - at(exact, t)
        # missing tail is about -2/(alpha pi^2) * 1/200
        assert gap == pytest.approx(-2 / (4 * PI**2 * 200), rel=0.02)


class TestSample:
    def test_single_point(self):
        problem = make_problem()
        trace = sample(problem, 0.4, 0.01, 1)
        assert len(trace) == 1
        assert trace.values[0] == free_at(problem, 0.4)

    def test_matches_pointwise_ops(self):
        problem = make_problem()
        trace = sample(problem, 0.75, 0.01, 20)  # spans the switch at 0.8
        for i, t in enumerate(trace.times):
            expected = free_at(problem, t) if t < problem.t2 else at(problem, t)
            assert trace.values[i] == expected

    def test_observe_switches_at_t2(self):
        problem = make_problem()
        before, after = problem.t2 - 1e-6, problem.t2 + 1e-6
        assert at(problem, before) == free_at(problem, before)
        assert at(problem, after) - free_at(problem, after) == pytest.approx(
            control_bracket(problem.alpha, after - problem.t2), rel=1e-9
        )

    def test_validation(self):
        problem = make_problem()
        with pytest.raises(ValueError):
            sample(problem, -0.1, 0.01, 5)
        with pytest.raises(ValueError):
            sample(problem, 0.3, 0.0, 5)
        with pytest.raises(ValueError):
            sample(problem, 0.3, 0.01, 0)


def random_problem(rng, terms):
    modes = rng.choice(40, size=int(rng.integers(1, 12)), replace=False)
    coeffs = {int(n): float(rng.uniform(-10, 10)) for n in modes}
    alpha = float(rng.uniform(0.5, 8.0))
    return HeatProblem(alpha, coeffs, 0.3, 0.8, 1.3, control_series_terms=terms)


def control_bracket_oracle(alpha, dt, n_terms):
    # the series term by term, summed exactly; without n_terms it runs until
    # the terms are far below the rounding of the sum
    if n_terms is None and dt == 0.0:
        return 0.0
    terms = []
    for n in range(1, (n_terms or 10**7) + 1):
        lam = alpha * n * n * PI**2
        terms.append(2.0 / lam * math.exp(-lam * dt))
        if n_terms is None and terms[-1] < 1e-20 * terms[0]:
            break
    return -1.0 / (3.0 * alpha) - dt + math.fsum(terms)


class TestMaskedExp:
    """``model._exp_masked``, the package's one underflow policy, is np.exp
    bit for bit."""

    # the smallest double whose exp is the least subnormal, and the next
    # one down, whose exp is +0.0
    LAST_SUBNORMAL = -745.1332191019411
    FIRST_ZERO = -745.1332191019412

    def test_equals_exp_on_a_grid(self):
        grid = np.concatenate([
            np.linspace(-800.0, 0.0, 16001),
            np.linspace(-746.5, -744.5, 2001),
            [self.LAST_SUBNORMAL, self.FIRST_ZERO, model._EXP_ZERO,
             np.nextafter(model._EXP_ZERO, 0.0), -708.4, -np.inf, -0.0, 0.0],
        ])
        assert np.exp(self.LAST_SUBNORMAL) == 5e-324
        assert np.exp(self.FIRST_ZERO) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._exp_masked(grid)
        assert got.tobytes() == np.exp(grid).tobytes()
        assert not np.signbit(got).any()

    def test_live_mask_zeroes_its_false_entries(self):
        exponent = np.array([[-1.0, -2.0, -800.0], [-0.5, -1000.0, -3.0]])
        live = np.arange(3) < np.array([[2], [3]])
        expected = np.where(live, np.exp(exponent), 0.0)
        assert model._exp_masked(exponent, live).tobytes() == expected.tobytes()

    def test_nan_stays_nan(self):
        got = model._exp_masked(np.array([np.nan, -1.0, -900.0]))
        assert np.isnan(got[0]) and got[1] == math.exp(-1.0) and got[2] == 0.0


class TestSeriesLayer:
    @pytest.mark.parametrize("terms", [200, None])
    def test_sample_is_pointwise_observe_bit_for_bit(self, terms):
        rng = np.random.default_rng(20 if terms else 21)
        for _ in range(25):
            problem = random_problem(rng, terms)
            # windows of 60 samples that span the switch at t2
            t_start = float(rng.uniform(0.05, 0.79))
            period = float(rng.uniform(0.8 - t_start, 1.3 - t_start)) / 59
            trace = sample(problem, t_start, period, 60)
            assert trace.times[-1] > problem.t2
            for t, y in zip(trace.times, trace.values):
                assert y == at(problem, t)

    def test_bracket_vector_is_its_scalar_calls(self):
        dt = np.concatenate([[0.0, 1e-12, 1e-9], np.linspace(0.0, 0.5, 37)])
        for terms in (200, None):
            whole = control_bracket(4.0, dt, terms)
            for d, b in zip(dt, whole):
                assert b == control_bracket(4.0, [d], terms)[0]

    @pytest.mark.parametrize("terms", [200, None])
    def test_bracket_against_exact_sum(self, terms):
        # the array sum rounds differently from an exact sum; two ulps of the
        # bracket's scale is the tolerance
        for alpha in (0.7, 4.0, 9.0):
            for dt in (0.0, 1e-6, 1e-4, 0.003, 0.01, 0.05, 0.3, 2.0):
                expected = control_bracket_oracle(alpha, dt, terms)
                scale = 1.0 / (3.0 * alpha) + dt
                got = control_bracket(alpha, dt, terms)
                assert abs(got - expected) <= 2 * np.finfo(float).eps * scale

    def test_bracket_near_the_step(self):
        alpha = 4.0
        assert control_bracket(alpha, 0.0) == 0.0
        values = control_bracket(alpha, [1e-5, 1e-7, 1e-9])
        assert np.all(np.isfinite(values))
        # the tail tends to its closed form 1/(3 alpha): the bracket goes to 0
        # like the half-space response -2 sqrt(dt / (pi alpha))
        assert np.all(np.diff(values) > 0) and values[-1] < 0
        expected = -2.0 * np.sqrt(np.array([1e-5, 1e-7, 1e-9]) / (math.pi * alpha))
        np.testing.assert_allclose(values, expected, rtol=2e-3)

    @pytest.mark.parametrize("alpha", [0.7, 4.0])
    @pytest.mark.parametrize("dt", [1.1e-16, 1e-14, 1e-13])
    def test_bracket_small_time_form_past_the_cap(self, alpha, dt):
        # the series would need more than 10**6 terms here; the image terms
        # the closed form drops are O(exp(-1 / (alpha dt))) = 0.0
        expected = -2.0 * math.sqrt(dt / (math.pi * alpha))
        assert control_bracket(alpha, dt) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 4.0])
    def test_bracket_continuous_where_the_series_stops(self, alpha):
        # dt at which the a-priori count reaches 10**6 terms; just inside it
        # the summed series meets the closed form up to its cancellation error
        edge = -math.log(1e-16) / (alpha * PI**2 * (1e12 - 1))
        dt = np.array([0.999, 1.001]) * edge
        expected = -2.0 * np.sqrt(dt / (math.pi * alpha))
        np.testing.assert_allclose(control_bracket(alpha, dt), expected, rtol=1e-9)

    def test_tail_memory_is_bounded_near_the_step(self):
        # 16 samples that each need about 9.7 * 10**5 terms, just inside the
        # series cap: 124 MB if the terms were materialized at once
        dt = np.full(16, 1e-12)
        tracemalloc.start()
        try:
            values = control_bracket(4.0, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values))
        assert peak < 8 * 2**20

    def test_bracket_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            control_bracket(4.0, [0.1, -1e-9])
        with pytest.raises(ValueError):
            control_bracket(4.0, [0.1], n_terms=0)
        with pytest.raises(ValueError):
            control_bracket(0.0, [0.1])

    def test_series_term_count_capped(self):
        # refused before any term is summed: the cost grows with the count
        cap = model._TAIL_MAX_TERMS
        assert HeatProblem(4.0, {1: 1.0}, 0.3, 0.8, 1.3, control_series_terms=cap)
        message = f"'control_series_terms' is {cap + 1}, not in 1..{cap}"
        with pytest.raises(ValueError, match=message):
            HeatProblem(4.0, {1: 1.0}, 0.3, 0.8, 1.3, control_series_terms=cap + 1)
        with pytest.raises(ValueError, match=f"n_terms must lie in 1..{cap}"):
            control_bracket(4.0, [0.1], n_terms=cap + 1)

    def test_sample_windows_periods(self):
        problem = make_problem()
        free, step, rec = sample_windows(problem, 50, 40, 0.01, 79)
        assert (free.t_start, free.period, len(free)) == (0.3, (0.8 - 0.3) / 50, 50)
        assert (step.t_start, step.period, len(step)) == (0.8, (1.3 - 0.8) / 40, 40)
        assert (rec.t_start, rec.period, len(rec)) == (0.01, (0.8 - 0.01) / 79, 79)
        np.testing.assert_array_equal(step.values, sample(problem, 0.8, 0.5 / 40, 40).values)

    @pytest.mark.parametrize("counts,name", [
        ((0, 50, 79), "n1"), ((50, 0, 79), "n2"), ((50, 50, 0), "n_rec"), ((50, -3, 79), "n2"),
    ])
    def test_sample_windows_counts_named(self, counts, name):
        n1, n2, n_rec = counts
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            sample_windows(make_problem(), n1, n2, 0.01, n_rec)

    @pytest.mark.parametrize("t0", [0.0, -0.01, 0.8, 0.9, math.nan])
    def test_sample_windows_t0_outside_the_free_span(self, t0):
        message = rf"^t0 must lie in \(0, t2\) = \(0, 0\.8\), got {t0}$"
        with pytest.raises(ValueError, match=message):
            sample_windows(make_problem(), 50, 50, t0, 79)


class TestParseval:
    def test_norm_matches_quadrature(self):
        problem = make_problem(coeffs={0: 0.3, 1: -1.25, 2: 0.7, 5: 0.11})
        norm_sq, _ = quad(
            lambda x: evaluate_cosine_series(problem.u0_coeffs, x) ** 2, 0, 1,
            limit=200,
        )
        assert problem.u0_l2_norm() == pytest.approx(math.sqrt(norm_sq), rel=1e-10)


class TestHeatProblem:
    def test_window_ordering_enforced(self):
        with pytest.raises(ValueError):
            HeatProblem(4.0, {0: 1.0}, 0.8, 0.3, 1.3)
        with pytest.raises(ValueError):
            HeatProblem(4.0, {0: 1.0}, -0.1, 0.3, 1.3)
        with pytest.raises(ValueError):
            HeatProblem(0.0, {0: 1.0}, 0.3, 0.8, 1.3)

    @pytest.mark.parametrize("name,value", [
        ("alpha", math.nan), ("alpha", math.inf), ("t1", math.nan), ("t2", math.nan),
        ("t3", math.inf), ("t3", math.nan),
    ])
    def test_non_finite_field_named(self, name, value):
        fields = dict(alpha=4.0, u0_coeffs={0: 1.0}, t1=0.3, t2=0.8, t3=1.3)
        with pytest.raises(ValueError, match=f"^problem field '{name}' is"):
            HeatProblem(**{**fields, name: value})

    def test_non_finite_coefficient_named(self):
        with pytest.raises(ValueError, match="^problem field 'u0_cosine' entry 3 is nan"):
            HeatProblem(4.0, {0: 1.0, 3: math.nan}, 0.3, 0.8, 1.3)

    def test_zero_coefficients_dropped(self):
        problem = HeatProblem(4.0, {0: 1.0, 2: 0.0, 5: 3.0}, 0.3, 0.8, 1.3)
        assert dict(problem.u0_coeffs) == {0: 1.0, 5: 3.0}

    def test_immutable(self):
        problem = make_problem()
        with pytest.raises(AttributeError):
            problem.alpha = 5.0
        with pytest.raises(TypeError):
            problem.u0_coeffs[0] = 2.0

    def test_from_function_matches_analytic(self):
        problem = problem_from_function(
            lambda x: reference_u0(x), 4.0, 0.3, 0.8, 1.3, n_max=6
        )
        assert problem.u0_coeffs[1] == pytest.approx(-9 - 4 / PI**2, abs=1e-9)
        assert 2 not in problem.u0_coeffs  # quadrature zeros are dropped


class TestFileFormats:
    def test_trace_csv_round_trip_is_exact(self, tmp_path):
        trace = sample(make_problem(), 0.3, 0.01, 25)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert back.t_start == trace.t_start
        # the period is re-derived from printed times, exact only to rounding
        assert back.period == pytest.approx(trace.period, rel=1e-12)
        np.testing.assert_array_equal(back.values, trace.values)

    def test_trace_csv_bytes_match_csv_writer(self, tmp_path):
        # the format written by csv.writer with one 17-digit field per value
        rng = np.random.default_rng(8)
        for scale in (1.0, 1e-300, 1e300):
            values = rng.standard_normal(64) * scale
            values[:4] = [-0.0, 5e-324, 1e308, 1e-300]
            t_start, period = rng.uniform(0.01, 2.0), rng.uniform(1e-4, 0.1)
            trace = SampleTrace(float(t_start), float(period), values)
            path = tmp_path / "trace.csv"
            write_trace_csv(path, trace)
            assert path.read_bytes() == csv_writer_bytes(trace)
            back = read_trace_csv(path)
            assert back.t_start == trace.t_start
            np.testing.assert_array_equal(back.values, trace.values)
            assert math.copysign(1.0, back.values[0]) == -1.0

    def test_trace_csv_block_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "_CSV_BLOCK_ROWS", 7)
        rng = np.random.default_rng(9)
        for n in (1, 6, 7, 8, 21, 23):
            trace = SampleTrace(0.25, 0.001, rng.standard_normal(n))
            path = tmp_path / "trace.csv"
            write_trace_csv(path, trace)
            assert path.read_bytes() == csv_writer_bytes(trace)

    def test_trace_csv_memory_is_bounded(self, tmp_path, monkeypatch):
        # formatting 2**16 rows at once would hold about 9 MB of text, list
        # and tuple; blocks of 2**10 rows keep the peak near the times array
        monkeypatch.setattr(model, "_CSV_BLOCK_ROWS", 2**10)
        trace = SampleTrace(0.25, 1e-6, np.random.default_rng(10).standard_normal(2**16))
        tracemalloc.start()
        try:
            write_trace_csv(tmp_path / "trace.csv", trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.1,0.2\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_csv_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.1,1\n0.2,1\n0.4,1\n")
        with pytest.raises(ValueError, match="uniform"):
            read_trace_csv(path)

    def test_csv_spacing_tolerance_scales_with_the_period(self, tmp_path):
        # periods 1e-12 and 6e-10: uneven by 600x, yet within 1e-9 absolute
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.5,1\n0.500000000001,1\n0.5000000006,1\n")
        with pytest.raises(TraceError, match="bad.csv: sample times are not uniformly spaced"):
            read_trace_csv(path)
        values = np.random.default_rng(11).standard_normal(200)
        for period in 10.0 ** np.arange(-12, 4):
            for t_start in (0.5, 7 * period, 1e3):
                trace = SampleTrace(t_start, period, values)
                write_trace_csv(path, trace)
                back = read_trace_csv(path)
                assert back.t_start == trace.t_start
                assert back.period == trace.times[1] - trace.times[0]
                np.testing.assert_array_equal(back.values, values)

    @pytest.mark.parametrize(
        "rows", ["0.3,1\n0.2,1\n0.1,1\n", "0.1,1\n0.1,1\n0.1,1\n"],
        ids=["descending", "repeated"],
    )
    def test_csv_times_that_do_not_increase_rejected(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n" + rows)
        with pytest.raises(TraceError, match="bad.csv: sample times must increase"):
            read_trace_csv(path)

    def test_csv_non_finite_row_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.1,1\n0.2,nan\n0.3,1\n")
        with pytest.raises(TraceError, match="line 3"):
            read_trace_csv(path)

    def test_csv_malformed_row_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.1,1\n0.2\n")
        with pytest.raises(TraceError, match="line 3"):
            read_trace_csv(path)

    def test_csv_single_row_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t,y\n0.1,1\n")
        with pytest.raises(TraceError, match="needs two"):
            read_trace_csv(path)

    def test_problem_json_round_trip(self, tmp_path):
        problem = make_problem(control_series_terms=200)
        path = tmp_path / "problem.json"
        model.save_problem(path, problem)
        back = model.load_problem(path)
        assert back == problem

    @pytest.mark.parametrize("amplitude", [1, 1.0])
    def test_problem_unit_amplitude_of_earlier_files_accepted(self, amplitude):
        data = model.problem_to_dict(make_problem(control_series_terms=200))
        assert "control_amplitude" not in data
        with_key = model.problem_from_dict({**data, "control_amplitude": amplitude})
        assert with_key == model.problem_from_dict(data)

    @pytest.mark.parametrize("amplitude", [2.0, 0.0, -1, math.nan, "1", True, None])
    def test_problem_other_amplitude_refused(self, amplitude):
        data = {**model.problem_to_dict(make_problem()), "control_amplitude": amplitude}
        with pytest.raises(ValueError, match="'control_amplitude' .* the flux step is unit"):
            model.problem_from_dict(data)

    def test_problem_json_missing_field(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"alpha": 4.0}')
        with pytest.raises(ValueError, match="missing"):
            model.load_problem(path)


class TestSampleTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleTrace(0.0, -1.0, np.ones(3))
        with pytest.raises(ValueError):
            SampleTrace(0.0, 1.0, np.zeros(0))

    @pytest.mark.parametrize("name", ["t_start", "period"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_clock_rejected_by_name(self, name, value):
        clock = {"t_start": 0.3, "period": 0.01, name: value}
        with pytest.raises(TraceError, match=f"trace {name} is"):
            SampleTrace(values=np.ones(3), **clock)

    @pytest.mark.parametrize("t_start,period,count", [
        (0.3, 1e307, 50),   # free window: the last time overflows
        (0.01, 3e306, 79),  # reconstruction window
        (0.8, 1e307, 50),   # flux-step window
        (0.5, 1e-17, 79),   # the period does not move the clock
    ])
    def test_clock_that_overflows_or_stalls_rejected(self, t_start, period, count):
        named = re.escape(f"t_start {t_start!r} and period {period!r}")
        with pytest.raises(TraceError, match=named):
            SampleTrace(t_start, period, np.ones(count))

    def test_non_finite_values_rejected_by_index(self):
        with pytest.raises(TraceError, match="index 2"):
            SampleTrace(0.3, 0.01, [1.0, 2.0, np.nan, np.inf])
        with pytest.raises(TraceError, match="index 0"):
            SampleTrace(0.3, 0.01, [-np.inf])

    def test_times(self):
        trace = SampleTrace(0.3, 0.01, np.zeros(3))
        np.testing.assert_allclose(trace.times, [0.3, 0.31, 0.32])

    def test_values_read_only(self):
        trace = SampleTrace(0.3, 0.01, np.zeros(3))
        with pytest.raises(ValueError):
            trace.values[0] = 1.0

    def test_times_built_once_per_clock(self):
        # one read-only array per clock, the clock check's own, shared by the
        # live traces on that clock and dropped with the last of them
        trace = SampleTrace(0.123, 0.007, np.zeros(37))
        assert trace.times.tobytes() == (0.123 + 0.007 * np.arange(37)).tobytes()
        with pytest.raises(ValueError):
            trace.times[0] = 1.0
        same = SampleTrace(np.float64(0.123), 0.007, np.ones(37))
        assert same.times is trace.times
        assert SampleTrace(0.123, 0.007, np.zeros(38)).times is not trace.times
        times = weakref.ref(trace.times)
        del trace, same
        assert times() is None


@st.composite
def coefficient_maps(draw):
    """Modes 0-150, more than the row cache holds, with Python or numpy
    floats of either sign, zeros among them."""
    modes = draw(st.lists(st.integers(0, 150), max_size=60, unique=True))
    values = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0])
    return {n: draw(st.sampled_from([float, np.float64]))(draw(values)) for n in modes}


class TestProfileGrid:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(coefficient_maps())
    @example({n: (-1.0) ** n / (n + 1) for n in range(151)})
    @example({n: np.float64(n - 75.5) for n in range(150, -1, -3)})
    def test_cached_rows_sum_as_the_series_evaluator(self, coeffs):
        on_grid = model._profile(coeffs)
        expected = evaluate_cosine_series(coeffs, np.linspace(0.0, 1.0, 1001))
        assert on_grid.tobytes() == expected.tobytes()

    def test_cached_arrays_are_read_only(self):
        grid = model._PROFILE_GRID
        assert grid.tobytes() == np.linspace(0.0, 1.0, 1001).tobytes()
        for array in (grid, model._cosine_row(7)):
            with pytest.raises(ValueError):
                array[0] = 1.0
        text = cli._column_text("%.17g", grid.tobytes())
        assert isinstance(text, tuple) and len(text) == grid.size
