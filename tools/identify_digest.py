"""SHA-256 digests of what ``identify`` and the reference commands produce.

Usage::

    python3 tools/identify_digest.py [CHECKOUT]

CHECKOUT is a source tree holding ``src/heatpencil`` and
``perfbench/workloads.py`` (default: the tree this script sits in).  The
package and the benchmark's seeded input generators are loaded from it, so
the same script digests any two checkouts, including ones older than the
script.  It prints one line per seeded ``batch``, ``long`` and ``noisy`` pool
(seeds 1 and 2): a SHA-256 over every ``identify`` output of the pool, as
``to_dict()`` JSON, refusal type and message, and warnings.  A last line
digests the artifacts of ``repro-paper``, ``identify --plot`` and ``bounds``
on the reference data, ``manifest.json`` (which records a timestamp)
excluded.  Two checkouts that print the same lines produced the same bits.

The BLAS is pinned to one thread, as the benchmark pins it: the thread count
moves the last bits of some results.  Only the standard library and the
package are used.
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


def pool_digest(workloads, name: str, seed: int) -> str:
    from heatpencil import pipeline

    workload = workloads.make(name, None)
    h = hashlib.sha256()
    for item in workload.setup(seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = pipeline.identify(*item.traces, workload.config, item.priors)
                line = json.dumps(result.to_dict(), sort_keys=True)
            except Exception as exc:
                line = f"{type(exc).__name__}: {exc}"
        for w in caught:
            line += f"\n{w.category.__name__}: {w.message}"
        h.update(line.encode() + b"\n\n")
    return h.hexdigest()


def artifact_digest() -> str:
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
            ["bounds", str(out / "identify" / "result.json"), str(priors),
             "--out", str(out / "bounds" / "certificate.json")],
        )
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in commands]
        h = hashlib.sha256(json.dumps(codes).encode())
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
    print(f"artifacts: {artifact_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
