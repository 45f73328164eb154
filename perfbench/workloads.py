"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Every workload builds its inputs from the seed in ``setup`` and never lets
the program see the generating truth: the program receives traces made by
``model.sample`` (plus, on ``noisy``, Gaussian noise added here) and priors.
``op`` is the only part that is timed; ``check`` compares what the op
returned with the truth afterwards and turns it into an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from heatpencil import cli, model, pencil, pipeline, reference

WINDOWS = (0.3, 0.8, 1.3)
REC_START = 0.01
ALPHA_RANGE = (3.0, 8.0)
MODE_COUNTS = (2, 3, 4, 5)
COEFF_RANGE = (0.1, 10.0)
NOISE_LEVELS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)

# Accuracy thresholds of acceptance criterion 9.
ALPHA_REL_TOL = 1e-3
COEFF_ABS_TOL = 0.1

# Errors through which the program declines an identification it cannot make.
# An op that ends in one is a refusal: not ok, but not a failed op either.  On
# noiseless data only the program's own error types count; on noisy data the
# bare ValueError (numpy's LinAlgError included), which the command line turns
# into exit code 2, is the failure path the workload is there to measure.
NOISELESS_REFUSALS = (pipeline.IdentificationError, pencil.PencilError)
NOISY_REFUSALS = NOISELESS_REFUSALS + (ValueError,)

PAPER_MISSES = {"free coefficient C_1", "kappa"}
PAPER_FIELDS_OK = 29


@dataclass
class Outcome:
    """What one op produced, judged against the truth.

    ``returned``: the program returned well-formed output.  ``passed``: every
    check that gates the op held; an op that did not pass is a failed op.
    """

    returned: bool = False
    passed: bool = False
    accurate: bool = False
    cert_cover: bool = False
    cert_miss: bool = False
    error: str | None = None
    level: float | None = None
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Seeded problem generator.
# ---------------------------------------------------------------------------

def _kronecker_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` points of a randomly shifted Kronecker sequence in [0, 1)^dim.

    The additive recurrence with the generalized golden ratio (Roberts' R_d
    sequence) spreads any prefix of the pool evenly over every coordinate, so
    the share of easy and hard problems an op loop meets varies far less
    between seeds than with independent draws.  The seed picks the shift.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    steps = phi ** -np.arange(1, dim + 1)
    shift = rng.random(dim)
    return np.mod(shift + np.outer(np.arange(1, count + 1), steps), 1.0)


def generate_problems(seed: int, count: int) -> list[model.HeatProblem]:
    """Random noiseless problems: alpha in [3, 8], cosine modes 0..m-1, m in 2..5.

    Each coefficient has magnitude in [0.1, 10] and a random sign.
    """
    rng = np.random.default_rng(seed)
    dims = 2 + 2 * max(MODE_COUNTS)
    points = _kronecker_points(rng, count, dims)
    lo, hi = ALPHA_RANGE
    clo, chi = COEFF_RANGE
    problems = []
    for p in points:
        alpha = lo + (hi - lo) * p[0]
        m = MODE_COUNTS[int(p[1] * len(MODE_COUNTS))]
        mags = clo + (chi - clo) * p[2 : 2 + m]
        signs = np.where(p[2 + max(MODE_COUNTS) : 2 + max(MODE_COUNTS) + m] < 0.5, -1.0, 1.0)
        coeffs = {n: float(mags[n] * signs[n]) for n in range(m)}
        problems.append(model.HeatProblem(float(alpha), coeffs, *WINDOWS))
    return problems


def priors_for(problem: model.HeatProblem) -> tuple[float, float]:
    """A priori data consistent with the truth: M0 = 1.5 |u0|, alpha0 = 0.75 alpha."""
    return 1.5 * problem.u0_l2_norm(), 0.75 * problem.alpha


def sample_windows(problem: model.HeatProblem, n_free: int, n_step: int, n_rec: int):
    t1, t2, t3 = problem.t1, problem.t2, problem.t3
    return (
        model.sample(problem, t1, (t2 - t1) / n_free, n_free),
        model.sample(problem, t2, (t3 - t2) / n_step, n_step),
        model.sample(problem, REC_START, (t2 - REC_START) / n_rec, n_rec),
    )


@dataclass(frozen=True)
class Item:
    """One identification input together with its generating truth."""

    problem: model.HeatProblem
    traces: tuple
    priors: tuple[float, float]
    level: float | None = None


def digest_items(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(model.problem_to_dict(item.problem), sort_keys=True).encode())
        h.update(np.asarray(item.priors, dtype=float).tobytes())
        for trace in item.traces:
            h.update(np.asarray([trace.t_start, trace.period]).tobytes())
            h.update(trace.values.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads built on pipeline.identify.
# ---------------------------------------------------------------------------

class IdentifyWorkload:
    """One op is ``pipeline.identify`` with priors on one pre-synthesized item."""

    stride = 1  # the op loop stops only after a multiple of this many ops
    noisy = False
    refusals = NOISELESS_REFUSALS

    def __init__(self, name: str, pool: int, sizes: tuple[int, int, int]):
        self.name = name
        self.pool = pool
        self.sizes = sizes
        self.config = pipeline.PipelineConfig()

    def setup(self, seed: int) -> list[Item]:
        items = []
        for problem in generate_problems(seed, self.pool):
            traces = sample_windows(problem, *self.sizes)
            items.append(Item(problem, traces, priors_for(problem)))
        return items

    def digest(self, state) -> str:
        return digest_items(state)

    def inputs(self, state) -> int:
        return len(state)

    def item(self, state, i: int) -> Item:
        return state[i % len(state)]

    def op(self, item: Item):
        try:
            return pipeline.identify(*item.traces, self.config, item.priors)
        except Exception as exc:  # judged by check()
            return exc

    def check(self, item: Item, result) -> Outcome:
        out = Outcome(level=item.level)
        if isinstance(result, BaseException):
            out.error = type(result).__name__
            out.passed = isinstance(result, self.refusals)
            if not out.passed:
                out.problems.append(f"raised {out.error}: {result}")
            return out
        problem = item.problem
        m_tilde = self.config.m_tilde
        u0 = np.asarray(result.u0_coeffs_hat)
        well_formed = (
            math.isfinite(result.alpha_hat)
            and result.alpha_hat > 0
            and u0.shape == (m_tilde,)
            and bool(np.all(np.isfinite(u0)))
            and 1 <= result.gcv_k <= result.gcv_curve.size
        )
        if not well_formed:
            out.problems.append("malformed result")
            return out
        out.returned = True
        alpha_ok = abs(result.alpha_hat - problem.alpha) / problem.alpha <= ALPHA_REL_TOL
        coeff_err = max(abs(u0[n] - problem.u0_coeffs.get(n, 0.0)) for n in range(m_tilde))
        out.accurate = alpha_ok and coeff_err <= COEFF_ABS_TOL
        cert = result.certificate
        if cert is not None and cert.alpha_interval is not None:
            lo, hi = cert.alpha_interval
            out.cert_cover = lo <= problem.alpha <= hi
            out.cert_miss = not out.cert_cover
        # On noiseless data a certificate that excludes the truth breaks the
        # a-priori guarantee; noise breaks the certificate's premise, so on
        # ``noisy`` coverage is only measured.  Accuracy is measured everywhere.
        out.passed = self.noisy or not out.cert_miss
        if not out.passed:
            out.problems.append(f"certificate {cert.alpha_interval} excludes {problem.alpha!r}")
        return out


class NoisyWorkload(IdentifyWorkload):
    """The batch problems with seeded absolute Gaussian noise, levels interleaved."""

    stride = len(NOISE_LEVELS)
    noisy = True
    refusals = NOISY_REFUSALS

    def setup(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 1])
        items = []
        for base in super().setup(seed):
            for level in NOISE_LEVELS:
                traces = tuple(
                    model.SampleTrace(
                        t.t_start, t.period, t.values + level * rng.standard_normal(t.values.size)
                    )
                    for t in base.traces
                )
                items.append(Item(base.problem, traces, base.priors, level))
        return items


# ---------------------------------------------------------------------------
# The paper workload: the command line, in process.
# ---------------------------------------------------------------------------

@dataclass
class PaperState:
    work: Path
    priors_path: Path
    coefficients: dict
    first: dict | None = None  # artifact path -> bytes of the first op


class PaperWorkload:
    """One op is ``repro-paper``, then ``identify`` and ``bounds`` on its traces."""

    name = "paper"
    stride = 1
    noisy = False
    QUAD_MAX_MODE = 41
    QUAD_AGREEMENT = 1e-10

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def setup(self, seed: int) -> PaperState:
        # The reference problem rebuilt from its profile function by quadrature;
        # the seed does not enter: the paper inputs are fixed.
        t1, t2, t3 = reference.REFERENCE_WINDOWS
        built = model.problem_from_function(
            reference.reference_u0, reference.REFERENCE_ALPHA, t1, t2, t3,
            n_max=self.QUAD_MAX_MODE,
        )
        exact = reference.reference_u0_coefficients(self.QUAD_MAX_MODE)
        gap = max(
            abs(built.u0_coeffs.get(n, 0.0) - exact.get(n, 0.0))
            for n in range(self.QUAD_MAX_MODE + 1)
        )
        if gap > self.QUAD_AGREEMENT:
            raise RuntimeError(f"quadrature coefficients differ from the exact ones by {gap:.3g}")
        self.work_root.mkdir(parents=True, exist_ok=True)
        priors_path = self.work_root / "priors.json"
        m0, alpha0 = reference.REFERENCE_PRIORS
        priors_path.write_text(json.dumps({"M0": m0, "alpha0": alpha0}) + "\n")
        return PaperState(self.work_root, priors_path, dict(built.u0_coeffs))

    def digest(self, state: PaperState) -> str:
        h = hashlib.sha256(json.dumps(sorted(state.coefficients.items())).encode())
        h.update(state.priors_path.read_bytes())
        return h.hexdigest()

    def inputs(self, state: PaperState) -> int:
        return 1

    def item(self, state: PaperState, i: int) -> PaperState:
        op_dir = state.work / "op"
        if op_dir.exists():
            shutil.rmtree(op_dir)
        return state

    def op(self, state: PaperState):
        op_dir = state.work / "op"
        repro, ident, cert = op_dir / "repro", op_dir / "identify", op_dir / "bounds"
        stdout = io.StringIO()
        codes = []
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                codes.append(cli.main(["repro-paper", "--out", str(repro)]))
                codes.append(cli.main([
                    "identify", str(repro), str(state.priors_path),
                    "--out", str(ident / "result.json"),
                ]))
                codes.append(cli.main([
                    "bounds", str(ident / "result.json"), str(state.priors_path),
                    "--out", str(cert / "certificate.json"),
                ]))
        except Exception as exc:  # judged by check()
            return exc
        return codes, stdout.getvalue()

    def check(self, state: PaperState, result) -> Outcome:
        out = Outcome()
        if isinstance(result, BaseException):
            out.error = type(result).__name__
            out.problems.append(f"raised {out.error}: {result}")
            return out
        codes, printed = result
        op_dir = state.work / "op"
        artifacts = {
            str(p.relative_to(op_dir)): p.read_bytes()
            for p in sorted(op_dir.rglob("*"))
            if p.is_file()
        }
        out.bytes_written = sum(len(b) for b in artifacts.values())
        if codes != [1, 0, 0]:
            out.problems.append(f"exit codes {codes}, expected [1, 0, 0]")
        report = artifacts.get("repro/report.md", b"").decode()
        fields_ok = self.fields_ok(report)
        if fields_ok != PAPER_FIELDS_OK:
            out.problems.append(f"{fields_ok} fields within tolerance, expected {PAPER_FIELDS_OK}")
        misses = self.misses(report)
        if misses != PAPER_MISSES:
            out.problems.append(f"misses {sorted(misses)}, expected {sorted(PAPER_MISSES)}")
        if not printed.startswith(report) or not report:
            out.problems.append("printed report differs from report.md")
        data = {k: v for k, v in artifacts.items() if not k.endswith("manifest.json")}
        if state.first is None:
            state.first = data
        elif data != state.first:
            changed = sorted(set(data) ^ set(state.first)) or sorted(
                k for k in data if data[k] != state.first[k]
            )
            out.problems.append(f"artifacts differ from the first op: {changed}")
        try:
            result_json = json.loads(artifacts["identify/result.json"])
            cert_json = json.loads(artifacts["bounds/certificate.json"])
        except (KeyError, ValueError) as exc:
            out.problems.append(f"unreadable artifact: {exc}")
            return out
        out.returned = codes == [1, 0, 0] and fields_ok is not None
        alpha = reference.REFERENCE_ALPHA
        alpha_ok = abs(result_json["alpha_hat"] - alpha) / alpha <= ALPHA_REL_TOL
        # The reference profile has infinitely many modes, so its profile
        # check is the reference's own relative L2 tolerance.
        out.accurate = alpha_ok and "| u0 relative L2 error |" in report and not re.search(
            r"^\| u0 relative L2 error \|.*MISS", report, re.M
        )
        interval = cert_json.get("alpha_interval")
        if interval:
            out.cert_cover = interval[0] <= alpha <= interval[1]
            out.cert_miss = not out.cert_cover
        if out.cert_miss:
            out.problems.append(f"certificate {interval} excludes {alpha}")
        out.passed = out.returned and not out.problems
        return out

    @staticmethod
    def fields_ok(report: str) -> int | None:
        found = re.search(r"(\d+) within tolerance", report)
        return int(found.group(1)) if found else None

    @staticmethod
    def misses(report: str) -> set[str]:
        return {
            m.group(1)
            for m in re.finditer(r"^\| ([^|]+?) \|.*\| MISS[^|]*\|$", report, re.M)
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.work_root, ignore_errors=True)


def reference_identify():
    """``identify`` on the built-in reference traces, as ``repro-paper`` runs it."""
    problem = reference.reference_problem()
    traces = sample_windows(problem, 50, 50, 79)
    return pipeline.identify(*traces, reference.reference_config(), reference.REFERENCE_PRIORS)


def reference_fields_ok(result) -> int:
    """Reference fields within tolerance, out of 31."""
    error = reference.u0_reconstruction_error(result.u0_coeffs_hat)
    return int(sum(bool(c.ok) for c in reference.compare_reference_run(result, error)))


def make(name: str, work_root: Path):
    if name == "paper":
        return PaperWorkload(work_root)
    if name == "batch":
        return IdentifyWorkload("batch", pool=400, sizes=(50, 50, 79))
    if name == "long":
        return IdentifyWorkload("long", pool=96, sizes=(300, 300, 474))
    if name == "noisy":
        return NoisyWorkload("noisy", pool=400, sizes=(50, 50, 79))
    raise ValueError(f"unknown workload {name!r}")
