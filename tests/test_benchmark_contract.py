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
    # installing wraps every traced name, tsvd_solve included, or raises
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
@pytest.mark.parametrize("name", ["batch", "noisy"])
def test_identify_workload_op_and_check(harness, name):
    _, workloads = harness
    workload = workloads.make(name, None)
    workload.pool = 2
    items = workload.setup(1)
    for i in range(len(items)):
        item = workload.item(items, i)
        outcome = workload.check(item, workload.op(item))
        assert outcome.passed, outcome.problems
