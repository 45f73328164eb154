"""The refusal surface of ``identify`` under generated inputs.

Finite, well-formed traces must either be identified or refused with one of
the program's own error types; a clock that cannot time its samples is
refused when the trace is built.  Bare numpy errors and RuntimeWarnings
(errors under the suite's filter) fail the property.

Hypothesis draws some values from the literals of the modules loaded in the
session, so which generated examples run depends on what else was
imported; the explicit examples, which a full-suite run found, run in every
session.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatpencil import pencil
from heatpencil.model import HeatProblem, SampleTrace, TraceError, sample_windows
from heatpencil.pipeline import IdentificationError, identify

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


def huge_step_period(coeffs):
    # 9 flux-step samples at period 1e307 end at 8e307: a finite clock whose
    # drift overflows the transformed window's singular values
    problem = HeatProblem(1.0, coeffs, 1.0, 2.0, 3.0)
    return {"problem": problem, "counts": (9, 9, 9), "t0": 1.0, "scale": 1.0, "noise": 0.0,
            "seed": 0, "clock": (1, 1e307)}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(cases())
@example(huge_step_period({1: 1.0}))
@example(huge_step_period({}))
@pytest.mark.filterwarnings("ignore::UserWarning")  # the estimator's warnings on hard inputs
def test_identify_returns_or_refuses_with_its_own_errors(case):
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
        return
    priors = (1.5 * problem.u0_l2_norm() + 1.0, 0.75 * problem.alpha)
    try:
        identify(*traces, None, priors)
    except (IdentificationError, pencil.PencilError):
        pass
