"""The refusal surface of ``identify`` under generated inputs, and the
certificate's pole bound on compressed and direct windows.

Finite, well-formed traces must either be identified or refused with one of
the program's own error types; a clock that cannot time its samples is
refused when the trace is built.  Bare numpy errors and RuntimeWarnings
(errors under the suite's filter) fail the property.  On the command line,
each such refusal exits 2 with one ``error`` line on stderr.

On noiseless windows, whether long enough for the pencil to compress them
or not, with priors consistent with the truth, every certificate that names
a mode puts that mode's true pole within its pole bound of the estimated
one.

Hypothesis draws some values from the literals of the modules loaded in the
session, so which generated examples run depends on what else was
imported; the explicit examples, which a full-suite run found, run in every
session.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatpencil import pencil
from heatpencil.cli import main
from heatpencil.model import (
    PI_SQ,
    HeatProblem,
    SampleTrace,
    TraceError,
    read_trace_csv,
    sample_windows,
    write_trace_csv,
)
from heatpencil.pipeline import IdentificationError, identify

TRACE_FILES = ("free.csv", "step.csv", "rec.csv")  # what `heatpencil identify` reads

# Periods at the edge of float64: 1e307 and 3e306 overflow the clock of a long
# enough window (and stay finite over a short one); 1e-17 does not move it.
EXTREME_PERIODS = (1e307, 3e306, 1e-17)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def cases(draw):
    alpha = draw(log_uniform(0.01, 100.0))
    t1 = draw(st.floats(0.05, 1.0))
    t2 = t1 + draw(st.floats(0.05, 1.0))
    t3 = t2 + draw(st.floats(0.05, 1.0))
    modes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True))
    coeffs = {n: draw(st.floats(-10.0, 10.0)) for n in modes}
    counts = draw(st.tuples(*[st.integers(9, 199)] * 3))
    return {
        "problem": HeatProblem(alpha, coeffs, t1, t2, t3),
        "counts": counts,
        "t0": t1 * draw(st.floats(0.01, 1.0)),
        "scale": draw(log_uniform(1e-6, 1e6)),
        "noise": draw(st.just(0.0) | log_uniform(1e-12, 1e-3)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "clock": draw(st.none() | st.tuples(st.integers(0, 2), st.sampled_from(EXTREME_PERIODS))),
    }


def huge_period(window, alpha, coeffs):
    # 9 samples at period 1e307 end at 8e307: a finite clock, under which the
    # flux-step window's drift overflows its singular values and the
    # reconstruction window's times overflow the design matrix's exponents
    problem = HeatProblem(alpha, coeffs, 1.0, 2.0, 3.0)
    return {"problem": problem, "counts": (9, 9, 9), "t0": 1.0, "scale": 1.0, "noise": 0.0,
            "seed": 0, "clock": (window, 1e307)}


def build_traces(case):
    """The case's three traces and priors, or None when its clock is refused."""
    problem = case["problem"]
    n1, n2, n_rec = case["counts"]
    rng = np.random.default_rng(case["seed"])
    windows = sample_windows(problem, n1, n2, case["t0"], n_rec)
    periods = [w.period for w in windows]
    if case["clock"] is not None:
        which, period = case["clock"]
        periods[which] = period
    try:
        traces = [
            SampleTrace(
                w.t_start,
                period,
                case["scale"] * w.values + case["noise"] * rng.standard_normal(len(w)),
            )
            for w, period in zip(windows, periods)
        ]
    except TraceError:
        assert case["clock"] is not None
        return None
    return traces, (1.5 * problem.u0_l2_norm() + 1.0, 0.75 * problem.alpha)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(cases())
@example(huge_period(1, 1.0, {1: 1.0}))
@example(huge_period(1, 1.0, {}))
@example(huge_period(2, 10.0, {}))
@pytest.mark.filterwarnings("ignore::UserWarning")  # the estimator's warnings on hard inputs
def test_identify_returns_or_refuses_with_its_own_errors(case):
    built = build_traces(case)
    if built is None:
        return
    traces, priors = built
    try:
        identify(*traces, None, priors)
    except (IdentificationError, pencil.PencilError):
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(cases())
@example(huge_period(1, 1.0, {1: 1.0}))
@pytest.mark.filterwarnings("ignore::UserWarning")  # the estimator's warnings on hard inputs
def test_cli_refusal_exits_two_with_one_stderr_line(case):
    built = build_traces(case)
    if built is None:
        return
    traces, (m0, alpha0) = built
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, trace in zip(TRACE_FILES, traces):
            write_trace_csv(work / name, trace)
        (work / "priors.json").write_text(json.dumps({"M0": m0, "alpha0": alpha0}))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["identify", str(work), str(work / "priors.json"),
                       "--out", str(work / "out" / "result.json")])
        lines = stderr.getvalue().splitlines()
        # the library on the traces as the command reads them back
        try:
            reread = [read_trace_csv(work / name) for name in TRACE_FILES]
        except TraceError:
            assert (rc, len(lines)) == (2, 1)
            return
    try:
        identify(*reread, None, (m0, alpha0))
    except (IdentificationError, pencil.PencilError) as exc:
        assert rc == 2
        assert lines == [f"error ({type(exc).__name__}): {exc}"]
    else:
        assert (rc, lines) == (0, [])


@st.composite
def certified_cases(draw, counts):
    """A noiseless problem on the reference windows' schedule, sampled with
    ``counts`` (low, high) samples per window, and priors M0 >= |u0|,
    alpha0 <= alpha."""
    alpha = draw(st.floats(1.0, 10.0))
    coeffs = {
        n: draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
        for n in range(draw(st.integers(2, 5)))
    }
    problem = HeatProblem(alpha, coeffs, 0.3, 0.8, 1.3)
    priors = (
        problem.u0_l2_norm() * draw(st.floats(1.0, 2.0)),
        alpha * draw(st.floats(0.5, 1.0)),
    )
    return problem, draw(st.integers(*counts)), priors


def check_pole_bound(case):
    """Whenever the case's certificate names a mode, that mode's true pole
    lies within ``pole_bound`` of z-tilde."""
    problem, count, priors = case
    traces = sample_windows(problem, count, count, 0.01, count)
    try:
        cert = identify(*traces, None, priors).certificate
    except (IdentificationError, pencil.PencilError):
        return
    if cert is None or cert.mode_index is None:
        return
    period = traces[0].period
    true_pole = math.exp(-problem.alpha * cert.mode_index**2 * PI_SQ * period)
    assert abs(true_pole - cert.z_tilde) <= cert.pole_bound


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(certified_cases((142, 330)))  # L = 48 to 110
@pytest.mark.filterwarnings("ignore::UserWarning")  # the estimator's warnings on hard inputs
def test_pole_bound_holds_on_compressed_windows(case):
    assert pencil.resolve_pencil_parameter(case[1]) >= pencil._COMPRESS_COLUMNS
    check_pole_bound(case)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(certified_cases((30, 141)))  # L = 10 to 47
@pytest.mark.filterwarnings("ignore::UserWarning")  # the estimator's warnings on hard inputs
def test_pole_bound_holds_on_direct_windows(case):
    assert pencil.resolve_pencil_parameter(case[1]) < pencil._COMPRESS_COLUMNS
    check_pole_bound(case)
