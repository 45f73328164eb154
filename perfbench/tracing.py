"""Spans around heatpencil's public functions, recorded from outside the package.

The tracer replaces functions at their module attributes (``heatpencil.model``,
``.pencil``, ``.pipeline``, ``.bounds``, ``.cli`` and ``numpy.linalg`` together
with ``numpy.linalg._linalg``) while it is installed, and puts the originals
back when it is removed.  Every call site in the package looks these names up
as module attributes at call time, so the wrappers see every call; wrapping
``numpy.linalg._linalg`` as well catches the SVDs that ``np.linalg.norm(x, 2)``
runs internally.  Nothing under ``src/`` is edited.

Each span records its name, start, end, parent, the op it belongs to, the
exception type it raised (if any) and a small ``info`` value taken from its
arguments or result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np
import numpy.linalg._linalg as _linalg_impl

from heatpencil import bounds, cli, model, pencil, pipeline

LINALG_FUNCS = ("svd", "eig", "eigvals", "lstsq", "norm")

# (module, attribute) pairs wrapped besides numpy.linalg.
PACKAGE_FUNCS = (
    (model, ("sample", "cosine_coefficients", "write_trace_csv", "read_trace_csv")),
    (pencil, ("analyze", "build_hankel", "detect_order", "estimate_poles", "fit_amplitudes")),
    (
        pipeline,
        (
            "identify",
            "free_window_spectrum",
            "alpha_from_step_window",
            "assign_mode_indices",
            "refine_alpha_from_trace",
            "build_design_matrix",
            "gcv_select",
            "tsvd_solve",
        ),
    ),
    (bounds, ("build_certificate",)),
    (cli, ("main",)),
)

# The pipeline stage that calls pencil.analyze names the window it analyzes.
_ANALYZE_ROLE = {
    "pipeline.free_window_spectrum": "free",
    "pipeline.alpha_from_step_window": "step",
    "pipeline.refine_alpha_from_trace": "rec",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name: str, start: float, parent: int, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = None
        self.info = None


def _sample_role(args, kwargs) -> str:
    problem = args[0] if args else kwargs["problem"]
    t_start = args[1] if len(args) > 1 else kwargs["t_start"]
    if t_start == problem.t1:
        return "free"
    if t_start == problem.t2:
        return "step"
    return "rec"


def _shape(args, kwargs):
    a = args[0] if args else next(iter(kwargs.values()))
    return tuple(np.shape(a))


def _svd_info(args, kwargs, result):
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    return _shape(args, kwargs), bool(compute_uv)


def _estimate_poles_info(args, kwargs, result):
    return len(result[0])


def _analyze_info(args, kwargs, result):
    return result.order


def _step_info(args, kwargs, result):
    return len(result.accepted), max(result.rates.size - 1, 0)


def _refine_info(args, kwargs, result):
    # refine_alpha_from_trace returns (alpha_coarse, {}) when it falls back.
    return not result[1]


_INFO = {
    "linalg.svd": _svd_info,
    "linalg.eig": lambda a, k, r: _shape(a, k),
    "linalg.eigvals": lambda a, k, r: _shape(a, k),
    "linalg.lstsq": lambda a, k, r: _shape(a, k),
    "pencil.estimate_poles": _estimate_poles_info,
    "pencil.analyze": _analyze_info,
    "pipeline.alpha_from_step_window": _step_info,
    "pipeline.refine_alpha_from_trace": _refine_info,
}


class Tracer:
    """Records spans while installed; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in (np.linalg, _linalg_impl):
            for attr in LINALG_FUNCS:
                self._patch(module, attr, f"linalg.{attr}")
        for module, attrs in PACKAGE_FUNCS:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                self._patch(module, attr, f"{short}.{attr}")

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original))

    # -- recording --------------------------------------------------------
    def _span_name(self, name: str, args, kwargs) -> str:
        if name == "model.sample":
            return f"model.sample.{_sample_role(args, kwargs)}"
        if name == "pencil.analyze" and self._stack:
            role = _ANALYZE_ROLE.get(self.spans[self._stack[-1]].name)
            if role:
                return f"pencil.analyze.{role}"
        if name == "cli.main":
            argv = args[0] if args else kwargs.get("argv")
            if argv:
                return f"cli.{argv[0]}"
        return name

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                self._span_name(name, args, kwargs),
                0.0,
                stack[-1] if stack else -1,
                self.op,
            )
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    return [span.end - span.start - child for span, child in zip(spans, child_time)]


def flops_estimate(span: Span) -> float:
    """Floating-point operations of a LAPACK call, computed from its shapes.

    Leading-order counts from Golub & Van Loan, Matrix Computations (4th ed.):
    thin SVD with vectors 6mn^2 + 20n^3, singular values only 4mn^2 - 4n^3/3,
    nonsymmetric eigenproblem 25n^3 with vectors and 10n^3 without, and the
    SVD-based least-squares solve counted as a thin SVD.  These are computed,
    not measured.
    """
    kind = span.name
    if kind == "linalg.svd":
        shape, with_uv = span.info
        m, n = max(shape[-2:]), min(shape[-2:])
        return 6.0 * m * n * n + 20.0 * n**3 if with_uv else 4.0 * m * n * n - 4.0 * n**3 / 3
    if kind in ("linalg.eig", "linalg.eigvals"):
        n = span.info[-1]
        return (25.0 if kind == "linalg.eig" else 10.0) * n**3
    if kind == "linalg.lstsq":
        m, n = max(span.info[-2:]), min(span.info[-2:])
        return 6.0 * m * n * n + 20.0 * n**3
    return 0.0


# LAPACK entry points counted; ``svd_via_norm`` are the SVDs that run inside
# np.linalg.norm(x, 2), and are counted in ``svd`` as well.
COUNT_KINDS = ("svd", "svd_via_norm", "eig", "eigvals", "lstsq")


def linalg_counts(spans: list[Span], first: int = 0) -> dict:
    """LAPACK entry points called by ``spans[first:]``."""
    counts = dict.fromkeys(COUNT_KINDS, 0)
    for span in spans[first:]:
        _count_linalg(spans, span, counts)
    return counts


def _count_linalg(spans: list[Span], span: Span, counts: dict) -> None:
    kind = span.name[len("linalg."):] if span.name.startswith("linalg.") else None
    if kind in counts:
        counts[kind] += 1
        if kind == "svd" and span.parent >= 0 and spans[span.parent].name == "linalg.norm":
            counts["svd_via_norm"] += 1


MS_SPANS = (
    "model.sample.free", "model.sample.step", "model.sample.rec",
    "model.cosine_coefficients", "model.write_trace_csv", "model.read_trace_csv",
    "pencil.analyze.free", "pencil.analyze.step", "pencil.analyze.rec",
    "pencil.build_hankel", "pencil.detect_order", "pencil.estimate_poles",
    "pencil.fit_amplitudes",
    "linalg.svd",
    "pipeline.free_window_spectrum", "pipeline.alpha_from_step_window",
    "pipeline.assign_mode_indices", "pipeline.refine_alpha_from_trace",
    "pipeline.build_design_matrix", "pipeline.gcv_select", "pipeline.tsvd_solve",
    "bounds.build_certificate",
)
SELF_MS_SPANS = ("cli.repro-paper", "cli.identify", "cli.bounds", "pipeline.identify")
FAIL_TYPES = (
    "ValueError", "PencilError", "RankDeficiencyError", "DegenerateRatesError",
    "IdentificationError", "AlphaUnrecoverableError", "AmbiguousIndicesError",
    "LinAlgError", "other",
)
FAIL_STAGES = (
    "free_window_spectrum", "alpha_from_step_window", "assign_mode_indices",
    "refine_alpha_from_trace", "build_design_matrix", "gcv_select", "tsvd_solve",
    "identify",
)
NOISE_NAMES = {1e-12: "1e-12", 1e-10: "1e-10", 1e-8: "1e-08", 1e-6: "1e-06", 1e-4: "1e-04"}


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[Span], records) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and their units.

    Times are medians per call over every span of that name outside the
    reference check (set-up included, so ``model`` layers show on every
    workload); counts and shares are per traced op.  A layer a workload never
    calls reads 0.
    """
    own = [i for i, s in enumerate(spans) if s.op != "reference"]
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_durations: dict[str, list[float]] = {}
    for i in own:
        s = spans[i]
        durations.setdefault(s.name, []).append(s.end - s.start)
        self_durations.setdefault(s.name, []).append(selfs[i])
    traced = [i for i, r in enumerate(records) if r.traced]
    traced_ops = set(traced)
    op_spans = [i for i in own if spans[i].op in traced_ops]
    n_traced = len(traced)

    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name] = float(value)
        units[name] = unit

    for name in MS_SPANS:
        put(f"{name}.ms", _median_ms(durations.get(name, [])), "ms")
    for name in SELF_MS_SPANS:
        put(f"{name}.self_ms", _median_ms(self_durations.get(name, [])), "ms")
    put(
        "cli.bytes_written",
        statistics.median(records[i].outcome.bytes_written for i in traced) if traced else 0,
        "B",
    )

    totals = dict.fromkeys(COUNT_KINDS, 0)
    for i in op_spans:
        _count_linalg(spans, spans[i], totals)
    flops = sum(flops_estimate(spans[i]) for i in op_spans)
    put("linalg.svd.calls", _ratio(totals["svd"], n_traced), "count")
    put("linalg.svd.norm_calls", _ratio(totals["svd_via_norm"], n_traced), "count")
    for kind in ("eig", "eigvals", "lstsq"):
        put(f"linalg.{kind}.calls", _ratio(totals[kind], n_traced), "count")
    put("linalg.flops_est", _ratio(flops, n_traced), "flop")

    kept = computed = accepted = pairs = refines = fallbacks = certs = withheld = 0
    for i in op_spans:
        s = spans[i]
        if s.name == "bounds.build_certificate":
            certs += 1
            withheld += s.error == "CertificateUnavailableError"
        elif s.info is None:
            continue
        elif s.name == "pencil.estimate_poles":
            # Only pole solves whose analyze call returned have a kept count.
            if s.parent >= 0 and spans[s.parent].info is not None:
                computed += s.info
        elif s.name.startswith("pencil.analyze"):
            kept += s.info
        elif s.name == "pipeline.alpha_from_step_window":
            accepted += s.info[0]
            pairs += s.info[1]
        elif s.name == "pipeline.refine_alpha_from_trace":
            refines += 1
            fallbacks += s.info
    put("pencil.pole_keep_frac", _ratio(kept, computed), "ratio")
    put("pipeline.credible_pair_frac", _ratio(accepted, pairs), "ratio")
    put("pipeline.refine_fallback_frac", _ratio(fallbacks, refines), "ratio")

    # Failures: the exception type, and the identify stage it escaped from.
    failed_stage: dict[int, str] = {}
    for i in op_spans:
        s = spans[i]
        if s.error and s.parent >= 0 and spans[s.parent].name == "pipeline.identify":
            failed_stage[s.op] = s.name[len("pipeline."):]
    type_counts = dict.fromkeys(FAIL_TYPES, 0)
    stage_counts = dict.fromkeys(FAIL_STAGES, 0)
    for i in traced:
        error = records[i].outcome.error
        if error:
            type_counts[error if error in type_counts else "other"] += 1
            stage = failed_stage.get(i, "identify")
            stage_counts[stage if stage in stage_counts else "identify"] += 1
    for name in FAIL_TYPES:
        put(f"pipeline.fail.{name}", _ratio(type_counts[name], n_traced), "ratio")
    for name in FAIL_STAGES:
        put(f"pipeline.fail_stage.{name}", _ratio(stage_counts[name], n_traced), "ratio")

    for level, label in NOISE_NAMES.items():
        at_level = [r.outcome for r in records if r.outcome.level == level]
        put(f"noise.{label}.ok_frac", _ratio(sum(o.returned for o in at_level), len(at_level)), "ratio")

    put("bounds.withheld_frac", _ratio(withheld, certs), "ratio")
    put("bounds.cert_miss_frac", _ratio(sum(r.outcome.cert_miss for r in records), len(records)), "ratio")

    return metrics, units
