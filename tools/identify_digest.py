"""SHA-256 digests of what ``identify`` and the reference commands produce.

Usage::

    python3 tools/identify_digest.py [CHECKOUT]

CHECKOUT is a source tree holding ``src/heatpencil`` and
``perfbench/workloads.py`` (default: the tree this script sits in).  The
package and the benchmark's seeded input generators are loaded from it, so
the same script digests any two checkouts, including ones older than the
script.  It prints one line per seeded ``batch``, ``long`` and ``noisy`` pool
(seeds 1 and 2): a SHA-256 over every ``identify`` output of the pool, as
``to_dict()`` JSON, refusal type and message, and warnings.  One line digests
the same outputs on the edge problems no seeded pool holds:

- a zero initial state and a constant one (``u0 = 2``) on the ``batch``
  windows (50/50/79 samples), with no priors and with priors (5, 3), so the
  path of a free window without detectable modes is compared too;
- the reference initial state at alpha = 0.2, 0.5 and 1 on the ``long``
  windows (300/300/474 samples), with the benchmark's priors: slowly
  diffusing step windows keep the sketch's 16 rows where the pools' windows
  keep 12;
- the reference problem's ``long`` windows with seeded Gaussian noise of
  1e-12 and 1e-8 on the 474-sample reconstruction window, which keeps the
  16-row sketch and leaves it for Y's triangular factor, respectively.

One line digests the ``repr`` of
every ``FieldCheck`` that ``reference.compare_reference_run`` returns for
the reference ``identify``, so a changed computed value, tolerance or note
shows at full precision, where ``report.md`` prints 6 significant digits.
A last line digests ``repro-paper``, ``identify --plot``, ``identify --plot
--reference-problem``, ``bounds`` and ``simulate`` on the reference data,
run in process through ``cli.main``: their exit codes, what they print to
stdout and stderr, and their artifacts, ``manifest.json`` (which records a
timestamp) excluded.  The u0 plot is thus drawn against the built-in
reference, a problem file's and none; ``simulate`` reads the
``problem.json`` that ``repro-paper`` wrote, so the problem-file reader is
checked on a valid file.  The five commands run twice in the one process,
and the script exits 1 if the second round differs from the first, so state
that one ``cli.main`` call leaves for the next shows.  Two checkouts that print
the same lines produced the same bits.

The BLAS is pinned to one thread, as the benchmark pins it: the thread count
moves the last bits of some results.  Only the standard library, the package
and numpy, its one dependency, are used.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402  (the BLAS settings must precede numpy's import)
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2)
POOLS = ("batch", "long", "noisy")


def load_workloads(checkout: Path):
    """The checkout's ``perfbench/workloads.py``, importing the checkout's package."""
    sys.path.insert(0, str(checkout / "src"))
    spec = importlib.util.spec_from_file_location(
        "identify_digest_workloads", checkout / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def identify_line(traces, config, priors) -> bytes:
    """One ``identify`` outcome as text: its ``to_dict()`` JSON or its
    refusal, then its warnings."""
    from heatpencil import pipeline

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = pipeline.identify(*traces, config, priors)
            line = json.dumps(result.to_dict(), sort_keys=True)
        except Exception as exc:
            line = f"{type(exc).__name__}: {exc}"
    for w in caught:
        line += f"\n{w.category.__name__}: {w.message}"
    return line.encode() + b"\n\n"


def pool_digest(workloads, name: str, seed: int) -> str:
    workload = workloads.make(name, None)
    h = hashlib.sha256()
    for item in workload.setup(seed):
        h.update(identify_line(item.traces, workload.config, item.priors))
    return h.hexdigest()


def edge_digest(workloads) -> str:
    """The zero and the constant initial state on the ``batch`` windows,
    without and with priors; the reference initial state at slow
    diffusivities on the ``long`` windows; and the reference problem's
    ``long`` windows with noise on the reconstruction window."""
    import numpy as np

    from heatpencil import pipeline, reference
    from heatpencil.model import HeatProblem, SampleTrace

    config = pipeline.PipelineConfig()
    h = hashlib.sha256()
    for coeffs in ({}, {0: 2.0}):
        traces = workloads.sample_windows(HeatProblem(4.0, coeffs, 0.3, 0.8, 1.3), 50, 50, 79)
        for priors in (None, (5.0, 3.0)):
            h.update(identify_line(traces, config, priors))
    problem = reference.reference_problem()
    for alpha in (0.2, 0.5, 1.0):
        slow = HeatProblem(alpha, problem.u0_coeffs, 0.3, 0.8, 1.3)
        traces = workloads.sample_windows(slow, 300, 300, 474)
        h.update(identify_line(traces, config, workloads.priors_for(slow)))
    free, step, rec = workloads.sample_windows(problem, 300, 300, 474)
    for sigma in (1e-12, 1e-8):
        noise = sigma * np.random.default_rng(0).standard_normal(rec.values.size)
        noisy = SampleTrace(rec.t_start, rec.period, rec.values + noise)
        h.update(identify_line((free, step, noisy), config, reference.REFERENCE_PRIORS))
    return h.hexdigest()


def checks_digest() -> str:
    """Every check ``compare_reference_run`` returns for the reference
    ``identify``, as its ``repr``: full precision, where ``report.md`` prints
    6 significant digits."""
    from heatpencil import model, pipeline, reference

    traces = model.sample_windows(reference.reference_problem(), *reference.REFERENCE_SCHEDULE)
    result = pipeline.identify(*traces, priors=reference.REFERENCE_PRIORS)
    error = reference.u0_reconstruction_error(result.u0_coeffs_hat)
    checks = reference.compare_reference_run(result, error)
    return hashlib.sha256("\n".join(map(repr, checks)).encode()).hexdigest()


def artifact_digest() -> str:
    """One round of the reference commands in a fresh temporary folder, whose
    name is taken out of what they print."""
    from heatpencil import cli, reference

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        priors = work / "priors.json"
        m0, alpha0 = reference.REFERENCE_PRIORS
        priors.write_text(json.dumps({"M0": m0, "alpha0": alpha0}) + "\n")
        out = work / "out"
        commands = (
            ["repro-paper", "--out", str(out / "repro")],
            ["identify", str(out / "repro"), str(priors),
             "--out", str(out / "identify" / "result.json"), "--plot", str(out / "plots")],
            ["identify", str(out / "repro"), str(priors),
             "--out", str(out / "identify-ref" / "result.json"),
             "--plot", str(out / "plots-ref"),
             "--reference-problem", str(out / "repro" / "problem.json")],
            ["bounds", str(out / "identify" / "result.json"), str(priors),
             "--out", str(out / "bounds" / "certificate.json")],
            ["simulate", str(out / "repro" / "problem.json"), "--out", str(out / "simulate")],
        )
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            codes = [cli.main(argv) for argv in commands]
        h = hashlib.sha256(json.dumps(codes).encode())
        for stream in (stdout, stderr):
            h.update(stream.getvalue().replace(tmp, "<tmp>").encode() + b"\0")
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    workloads = load_workloads(checkout)
    for seed in SEEDS:
        for name in POOLS:
            print(f"{name} seed {seed}: {pool_digest(workloads, name, seed)}", flush=True)
    print(f"edge problems: {edge_digest(workloads)}", flush=True)
    print(f"reference checks: {checks_digest()}", flush=True)
    first, second = artifact_digest(), artifact_digest()
    print(f"artifacts: {first}")
    if second != first:
        print(f"artifacts differ on a second round in this process: {second}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
