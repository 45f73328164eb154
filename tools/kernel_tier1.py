"""Tier-1 under emulated OpenBLAS kernels, one child process per kernel.

Usage::

    python3 tools/kernel_tier1.py [KERNEL ...]

Each KERNEL (default: Haswell, Sandybridge, Prescott) is passed as
``OPENBLAS_CORETYPE`` to a child ``python -m pytest`` over the checkout this
script sits in, which OpenBLAS reads when it loads, so one machine can run the
kernels another CPU would pick; a value OpenBLAS does not know leaves its own
choice in place.  For each kernel the script prints pytest's closing count
and the node ids that failed or errored, then the failures every kernel
shares.  Kernels run one after another, never in parallel.  It exits 0 when
every child ran to its summary and 1 otherwise: the failures are the output,
not the exit code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("Haswell", "Sandybridge", "Prescott")
SUMMARY = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*) in [\d.]+s", re.MULTILINE)
OUTCOME = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_tier1(kernel: str) -> tuple[str | None, set[str]]:
    """pytest's closing count under ``kernel`` (None if it printed none) and
    the node ids that failed or errored."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    out = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True).stdout
    summary = SUMMARY.search(out)
    return (summary.group(1) if summary else None), set(OUTCOME.findall(out))


def main(argv: list[str]) -> int:
    failures, complete = {}, True
    for kernel in argv or KERNELS:
        summary, failed = run_tier1(kernel)
        complete &= summary is not None
        failures[kernel] = failed
        print(f"{kernel}: {summary or 'no pytest summary'}", flush=True)
        for node in sorted(failed):
            print(f"  {node}", flush=True)
    shared = set.intersection(*failures.values())
    print(f"failing under every kernel: {len(shared)}")
    for node in sorted(shared):
        print(f"  {node}")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
