"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from heatpencil import model, pencil, pipeline  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(name: str, pool: int = 6):
    workload = workloads.make(name, ROOT / ".perfbench-work" / "unused")
    workload.pool = pool
    return workload


@pytest.mark.parametrize("name", ["batch", "long", "noisy"])
def test_same_seed_gives_byte_identical_inputs(name):
    workload = _small(name)
    first, again, other = workload.setup(5), workload.setup(5), workload.setup(6)
    assert workload.digest(first) == workload.digest(again)
    assert workload.digest(first) != workload.digest(other)
    for a, b in zip(first, again):
        assert a.problem == b.problem and a.priors == b.priors and a.level == b.level
        for ta, tb in zip(a.traces, b.traces):
            assert ta.values.tobytes() == tb.values.tobytes()


def test_generator_covers_its_ranges():
    problems = workloads.generate_problems(3, 200)
    alphas = np.array([p.alpha for p in problems])
    assert alphas.min() >= 3.0 and alphas.max() <= 8.0
    assert {len(p.u0_coeffs) for p in problems} == {2, 3, 4, 5}
    for p in problems:
        assert sorted(p.u0_coeffs) == list(range(len(p.u0_coeffs)))
        assert all(0.1 <= abs(c) <= 10.0 for c in p.u0_coeffs.values())


def test_noisy_levels_interleave_and_noise_is_added():
    workload = _small("noisy", pool=2)
    items = workload.setup(1)
    clean = workloads.IdentifyWorkload("batch", 2, workload.sizes).setup(1)
    levels = [workload.item(items, i).level for i in range(10)]
    assert levels == list(workloads.NOISE_LEVELS) * 2
    for item in items:
        base = clean[0] if item.problem == clean[0].problem else clean[1]
        diff = item.traces[0].values - base.traces[0].values
        assert 0 < np.std(diff) < 10 * item.level


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    workload = workloads.PaperWorkload(tmp_path_factory.mktemp("paper"))
    state = workload.setup(0)
    yield workload, state
    workload.cleanup()


def test_paper_op_passes(paper):
    workload, state = paper
    for i in range(2):
        item = workload.item(state, i)
        out = workload.check(item, workload.op(item))
        assert out.passed and out.returned and out.accurate and out.cert_cover, out.problems
    assert workload.fields_ok((state.work / "op" / "repro" / "report.md").read_text()) == 29


@pytest.mark.parametrize(
    "artifact", ["repro/free.csv", "repro/result.json", "bounds/certificate.json"]
)
def test_corrupted_paper_artifact_is_a_failed_op(paper, artifact):
    workload, state = paper
    item = workload.item(state, 0)
    if state.first is None:
        assert workload.check(item, workload.op(item)).passed
        item = workload.item(state, 1)
    raw = workload.op(item)
    path = state.work / "op" / artifact
    path.write_bytes(path.read_bytes() + b" ")
    out = workload.check(item, raw)
    assert not out.passed
    assert any("differ from the first op" in p for p in out.problems)


def test_paper_report_checks_catch_a_changed_count(paper):
    workload, state = paper
    item = workload.item(state, 0)
    codes, printed = workload.op(item)
    report = state.work / "op" / "repro" / "report.md"
    report.write_text(report.read_text().replace("29 within", "28 within"))
    out = workload.check(item, (codes, printed))
    assert not out.passed


def test_refusal_is_not_ok_but_not_failed_and_crash_is_failed():
    workload = _small("batch", pool=1)
    item = workload.setup(1)[0]
    refused = workload.check(item, pipeline.AlphaUnrecoverableError("no pair"))
    assert not refused.returned and refused.passed and refused.error == "AlphaUnrecoverableError"
    crashed = workload.check(item, IndexError("index 5 is out of bounds"))
    assert not crashed.returned and not crashed.passed
    # A bare ValueError (LinAlgError included) is a refusal only on noisy data.
    noisy = _small("noisy", pool=1)
    noisy_item = noisy.setup(1)[0]
    for error in (ValueError("order 7 invalid"), np.linalg.LinAlgError("SVD did not converge")):
        assert not workload.check(item, error).passed
        assert not _small("long", pool=1).check(item, error).passed
        out = noisy.check(noisy_item, error)
        assert out.passed and not out.returned


def _reference_spans():
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer:
        workloads.reference_identify()
    return tracer.spans


def test_reference_identify_counts_repeat_exactly():
    first = tracing.linalg_counts(_reference_spans())
    assert first == tracing.linalg_counts(_reference_spans())
    assert 0 < first["svd_via_norm"] <= first["svd"]


def test_self_time_plus_child_time_equals_duration():
    spans = _reference_spans()
    selfs = tracing.self_times(spans)
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    for span, own, child in zip(spans, selfs, children):
        assert own + child == pytest.approx(span.end - span.start, abs=1e-12)
        assert own >= -1e-9
    assert {s.name for s in spans} >= {
        "pipeline.identify", "pencil.analyze.free", "pencil.analyze.step",
        "pencil.analyze.rec", "linalg.norm", "bounds.build_certificate",
    }


def test_tracer_restores_every_function():
    before = {
        (m.__name__, a): getattr(m, a)
        for m, attrs in tracing.PACKAGE_FUNCS
        for a in attrs
    }
    before_linalg = {a: getattr(np.linalg, a) for a in tracing.LINALG_FUNCS}
    with tracing.Tracer():
        assert pencil.analyze is not before[("heatpencil.pencil", "analyze")]
    for (name, attr), fn in before.items():
        assert getattr(sys.modules[name], attr) is fn
    for attr, fn in before_linalg.items():
        assert getattr(np.linalg, attr) is fn
        assert getattr(np.linalg._linalg, attr) is fn
    assert model.sample is before[("heatpencil.model", "sample")]


def test_documentation_holds_every_workload_reason_and_prediction_row():
    readme = (HERE / "README.md").read_text()
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] in readme, workload["name"]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert f"`{metric['name']}`" in readme, metric["name"]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_one_run_reports_exactly_the_declared_metrics(trace, key):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "batch", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
