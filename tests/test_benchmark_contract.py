"""The program surface that the benchmark harness in ``perfbench/`` relies on.

The harness wraps package functions by their module attribute names and runs
the reference identification as ``repro-paper`` does.  Renaming or deleting
one of those names, or changing a signature it calls, breaks the benchmark;
these tests break first.  The harness files are loaded by path, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return _load("tracing"), _load("workloads")


def test_reference_identify_under_the_tracer(harness):
    tracing, workloads = harness
    # installing wraps every traced name, tsvd_solve included, or raises;
    # identify takes no 2-norm, the reference comparison does, so it runs
    # under the tracer too
    with tracing.Tracer() as tracer:
        result = workloads.reference_identify()
        assert workloads.reference_fields_ok(result) == workloads.PAPER_FIELDS_OK
    assert {span.name for span in tracer.spans} >= {
        "pipeline.identify", "pencil.analyze.free", "pencil.analyze.step",
        "pencil.analyze.rec", "pencil.build_hankel", "pencil.detect_order",
        "pencil.estimate_poles", "pencil.fit_amplitudes", "pipeline.gcv_select",
        "bounds.build_certificate",
    }
    counts = tracing.linalg_counts(tracer.spans)
    assert counts["lstsq"] == 2
    assert counts["svd_via_norm"] > 0


@pytest.mark.filterwarnings("ignore::UserWarning")  # noisy data trips the estimator's warnings
@pytest.mark.parametrize("name", ["batch", "noisy", "long"])
def test_identify_workload_op_and_check(harness, name):
    _, workloads = harness
    workload = workloads.make(name, None)
    workload.pool = 2
    items = workload.setup(1)
    for i in range(len(items)):
        item = workload.item(items, i)
        outcome = workload.check(item, workload.op(item))
        assert outcome.passed, outcome.problems


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_noisy_pole_labelled_above_its_mode_gets_no_interval(harness):
    # item 201 of the seed-2 noisy pool (noise 1e-10): the controlled window
    # reads alpha about 3.3x low, so the mode-1 free pole is labelled mode 2
    # and alpha_hat is 0.97 against the true 3.24.  The pole's certified rate
    # cannot reach mode 2's under alpha0 = 0.75 alpha, so no interval issues;
    # one would have read (-0.28, 2.22), excluding alpha.
    _, workloads = harness
    workload = workloads.make("noisy", None)
    item = workload.item(workload.setup(2), 201)
    assert item.level == 1e-10
    result = workload.op(item)
    cert = result.certificate
    assert cert.mode_index == 2 and result.alpha_hat < 0.35 * item.problem.alpha
    assert cert.alpha_interval is None
    outcome = workload.check(item, result)
    assert outcome.passed and not outcome.cert_miss


def test_paper_workload_twice(harness, tmp_path):
    # the second op's check compares every artifact but the manifests with
    # the first op's bytes
    _, workloads = harness
    workload = workloads.make("paper", tmp_path / "work")
    state = workload.setup(1)
    for _ in range(2):
        item = workload.item(state, 0)
        outcome = workload.check(item, workload.op(item))
        assert outcome.passed, outcome.problems
    assert state.first and "repro/u0.svg" in state.first
