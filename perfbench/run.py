"""heatpencil benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics from spans recorded around the package's public
functions.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record (the
environment, every metric, the failures) goes to
``.perfbench-out/<workload>-seed<seed>-trace<0|1>.json`` and, in a traced run,
the spans to ``...spans.csv.gz`` beside it.  The exit code is 1 when any
correctness check fails.  See perfbench/README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the thread count changes both the
# speed and the last bits of the results.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import collections
import csv
import ctypes
import gzip
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"

WORKLOADS = ("paper", "batch", "long", "noisy")
SETUP_REPEATS = 5
PROBE_LOOP = 10_000
PICK_SECONDS = 0.25
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import heatpencil; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "ratio",
    "accurate_frac": "ratio",
    "cert_cover_frac": "ratio",
    "cert_honest_frac": "ratio",
    "ref_fields_ok": "count",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """A check of the harness itself failed; the run reports no result."""


def import_package() -> None:
    if not (SRC / "heatpencil" / "__init__.py").is_file():
        raise HarnessError(f"no heatpencil sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heatpencil

    if Path(heatpencil.__file__).resolve().parent != (SRC / "heatpencil").resolve():
        raise HarnessError(f"imported heatpencil from {heatpencil.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, or None if it exposes none."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, seed: int, digest: str, cpus: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = blas_threads()
    if threads is not None and threads != 1:
        raise HarnessError(f"BLAS runs {threads} threads, expected 1")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": cpus,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_pinned": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_threads_reported": threads,
        "seed": seed,
        "inputs_sha256": digest,
    }


def import_seconds() -> float:
    """Time to import heatpencil in a fresh interpreter with the same settings."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Record:
    __slots__ = ("key", "seconds", "outcome", "traced")

    def __init__(self, key, seconds, outcome, traced):
        self.key = key
        self.seconds = seconds
        self.outcome = outcome
        self.traced = traced


def probe_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop of about half a millisecond."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(PROBE_LOOP):
            total += k
        best = min(best, time.perf_counter() - start)
    return best


class CpuPicker:
    """Keeps the process on the CPU that a probe finds least disturbed.

    On a shared host each CPU is slowed by its own neighbours, by up to 1.7
    times, for stretches of seconds to a minute, and the CPUs are rarely slow
    at the same moment.  Every ``PICK_SECONDS`` the picker times a fixed
    probe on each CPU the process may use and pins the process to the
    fastest; this happens between ops, outside their timing, and before each
    set-up.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.next_pick = 0.0

    def maybe_pick(self) -> None:
        if time.perf_counter() >= self.next_pick:
            self.pick()

    def pick(self) -> None:
        if len(self.cpus) < 2:
            return
        timings = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = probe_seconds()
        os.sched_setaffinity(0, {min(timings, key=timings.get)})
        self.next_pick = time.perf_counter() + PICK_SECONDS

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def run_ops(
    workload, state, seconds: float, cpus, tracer, tracing=None, between=None, times=0
) -> list[Record]:
    """Closed loop, one op at a time, for ``seconds``; only ``op`` is timed.

    Ops cycle through the workload's inputs in a fixed order.  With a tracer,
    even-numbered cycles run traced and odd ones untraced, so every input is
    timed both ways and the difference is the tracing overhead.  Traced ops on
    the same input must make the same LAPACK calls.  ``between`` is called
    ``times`` times between ops, spread evenly over the loop; the loop still
    runs ops for ``seconds``, not counting the time ``between`` takes.
    """
    records = []
    counts_by_key = {}
    inputs = workload.inputs(state)
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    done_between = 0
    i = 0
    while True:
        if done_between < times and clock() >= begin + seconds * (done_between + 1) / (times + 1):
            paused = clock()
            between()
            done_between += 1
            begin += clock() - paused
            deadline += clock() - paused
        cpus.maybe_pick()
        key = i % inputs
        item = workload.item(state, i)
        traced = tracer is not None and (i // inputs) % 2 == 0
        if traced:
            tracer.op = i
            first_span = len(tracer.spans)
            tracer.install()
        start = clock()
        raw = workload.op(item)
        elapsed = clock() - start
        if traced:
            tracer.remove()
            counts = tracing.linalg_counts(tracer.spans, first_span)
            if counts_by_key.setdefault(key, counts) != counts:
                raise HarnessError(
                    f"op {i} ran {counts}, an earlier op on the same input "
                    f"ran {counts_by_key[key]}"
                )
        records.append(Record(key, elapsed, workload.check(item, raw), traced))
        i += 1
        if i % workload.stride == 0 and clock() >= deadline:
            for _ in range(times - done_between):
                between()
            return records


def best_times(records: list[Record]) -> dict:
    """Each input's best (lowest) op time over its visits in the run.

    Other tenants of a shared host can slow every instruction by half for
    seconds to a minute at a time.  Ops revisit each input several times in
    a run, and the best visit of each input is the one least disturbed, so
    timing metrics built on it describe the program rather than the
    neighbours (the best-of-repeats rule of ``timeit``).  Outcomes repeat
    exactly from visit to visit, so each input keeps its first outcome.
    """
    best_time: dict = {}
    outcome: dict = {}
    for r in records:
        outcome.setdefault(r.key, r.outcome)
        best_time[r.key] = min(r.seconds, best_time.get(r.key, r.seconds))
    return {key: (best_time[key], outcome[key]) for key in best_time}


def latency_metrics(records: list[Record]) -> tuple[float, float, float]:
    """``op_per_s``, ``op_ms_p50`` and ``op_ms_p90`` from best times per input."""
    best = best_times(records).values()
    returned_ms = [1e3 * t for t, o in best if o.returned]
    good = sum(o.returned and o.passed for _, o in best)
    return (
        good / sum(t for t, _ in best),
        statistics.median(returned_ms) if returned_ms else float("nan"),
        percentile(returned_ms, 90) if returned_ms else float("nan"),
    )


def visit_tail(records: list[Record]) -> tuple[float, float]:
    """90th and 99th percentile of every visit's op time, not best-of.

    ``op_ms_p90`` spreads across inputs; this is the tail of single ops, where
    sporadic slow ops (allocation spikes, collector pauses) would show.  Only
    visits whose op returned output count, as in ``op_ms_p50``.
    """
    ms = [1e3 * r.seconds for r in records if r.outcome.returned]
    if not ms:
        return 0.0, 0.0
    return percentile(ms, 90), percentile(ms, 99)


def end_to_end(records: list[Record], setup_s: float, ref_fields_ok: int) -> dict:
    attempted = len(records)
    outcomes = [r.outcome for r in records]
    op_per_s, p50, p90 = latency_metrics(records)
    return {
        "setup_s": setup_s,
        "op_per_s": op_per_s,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ok_frac": sum(o.returned for o in outcomes) / attempted,
        "accurate_frac": sum(o.accurate for o in outcomes) / attempted,
        "cert_cover_frac": sum(o.cert_cover for o in outcomes) / attempted,
        "cert_honest_frac": 1.0 - sum(o.cert_miss for o in outcomes) / attempted,
        "ref_fields_ok": ref_fields_ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def reference_run(tracing, workloads) -> tuple[int, dict]:
    """Run the reference identify traced, twice; its LAPACK calls must repeat.

    Returns the reference fields within tolerance and the LAPACK call counts,
    which the record keeps.  The counts themselves are the program's to
    change; only counts that differ between two identical calls stop the run.
    """
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.op = "reference"
        with tracer:
            result = workloads.reference_identify()
        runs.append(tracing.linalg_counts(tracer.spans))
    if runs[0] != runs[1]:
        raise HarnessError(f"reference identify ran {runs[0]}, then {runs[1]}")
    return workloads.reference_fields_ok(result), runs[0]


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "start", "end", "parent", "op", "error", "info"])
        for i, s in enumerate(spans):
            writer.writerow([i, s.name, repr(s.start), repr(s.end), s.parent, s.op, s.error or "", s.info])


def timed_setup(workload, seed: int, cpus: CpuPicker):
    """Build the workload's inputs; return them and the set-up time.

    The set-up time is the build plus ``import heatpencil`` in a fresh
    interpreter, on the CPU the picker finds least disturbed.
    """
    cpus.pick()
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, import_seconds() + time.perf_counter() - start


def run_one(args) -> int:
    import_package()
    import numpy as np

    import tracing
    import workloads

    # identify warns when it discards poles; printing thousands of those
    # would only slow the loop down and bury the result line.
    warnings.simplefilter("ignore")
    workload = workloads.make(args.workload, WORK_DIR / f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    cpus = CpuPicker()
    setups = []

    def repeat_setup():
        setups.append(timed_setup(workload, args.seed, cpus)[1])

    try:
        if tracer is None:
            # The first set-up builds the inputs the ops use; the repeats are
            # spread over the op loop, so that setup_s, their median, does not
            # hang on the host's state in the second or two one build takes.
            state, first = timed_setup(workload, args.seed, cpus)
            setups.append(first)
            repeats = SETUP_REPEATS - 1
        else:
            tracer.op = "setup"
            with tracer:
                state = workload.setup(args.seed)
            repeats = 0
        digest = workload.digest(state)
        env = environment(np, args.seed, digest, len(cpus.cpus))
        ref_fields_ok, ref_counts = reference_run(tracing, workloads)
        records = run_ops(
            workload, state, args.seconds, cpus, tracer, tracing, repeat_setup, repeats
        )
    finally:
        cpus.release()
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    attempted = len(records)
    failures = [r.outcome for r in records if not r.outcome.passed]
    if tracer is None:
        metrics = end_to_end(records, statistics.median(setups), ref_fields_ok)
        units = END_TO_END_UNITS
    else:
        metrics, units = tracing.per_layer(tracer.spans, records)
        traced_p50 = latency_metrics([r for r in records if r.traced])[1]
        untraced = [r for r in records if not r.traced]
        metrics["trace.op_ms_p50"] = traced_p50
        metrics["trace.overhead_ms"] = (
            traced_p50 - latency_metrics(untraced)[1] if untraced else 0.0
        )
        p90, p99 = visit_tail(untraced)
        metrics["op.visit_ms_p90"] = p90
        metrics["op.visit_ms_p99"] = p99
        units.update({k: "ms" for k in (
            "trace.op_ms_p50", "trace.overhead_ms", "op.visit_ms_p90", "op.visit_ms_p99"
        )})
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "reference_linalg_counts": ref_counts,
        "setup_s_each": setups,
        "attempted": attempted,
        "failed": len(failures),
        "cert_miss_frac": sum(r.outcome.cert_miss for r in records) / attempted,
        "visits_per_input": statistics.median(
            collections.Counter(r.key for r in records).values()
        ),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": [
            {"error": o.error, "level": o.level, "problems": o.problems} for o in failures[:20]
        ],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        write_spans(OUT_DIR / f"{stem}.spans.csv.gz", tracer.spans)

    print(f"environment {json.dumps(env)}")
    print(f"reference identify LAPACK calls {json.dumps(ref_counts)}")
    print(f"{args.workload}: {attempted} ops attempted, {len(failures)} failed")
    for o in failures[:5]:
        print(f"  failed op: {o.error or ''} {'; '.join(o.problems)}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    table = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            status = 1
            sys.stderr.write(f"{name}: exit {done.returncode}\n{done.stderr}")
        if lines and lines[-1].startswith("{"):
            table[name] = json.loads(lines[-1])
    for name, result in table.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:42s} {entry['value']:14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (HarnessError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
