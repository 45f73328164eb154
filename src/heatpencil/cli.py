"""Command-line front end: simulate, identify, bounds, repro-paper.

Every subcommand writes a ``manifest.json`` into its output directory
recording the tool version, timestamp, inputs, resolved parameters, and the
artifacts produced.  The data artifacts themselves are byte-deterministic
for identical inputs; the timestamp lives only in the manifest.

Exit codes: 0 success, 1 reproduction mismatch, 2 input error,
3 certificate unavailable.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, model, pencil, pipeline, reference

_MANIFEST_NAME = "manifest.json"
_TRACE_FILES = ("free.csv", "step.csv", "rec.csv")  # flux-free, flux-step, reconstruction


class InputError(Exception):
    """Bad or missing user input (exit code 2)."""


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


def _load_json(path: Path) -> dict:
    if not path.exists():
        raise InputError(f"missing input file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _number(data: dict, name: str, where: str, kind=float):
    """``data[name]`` converted by ``kind``; an InputError names the field otherwise."""
    if name not in data:
        raise InputError(f"{where} is missing field '{name}'")
    try:
        return kind(data[name])
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{where} field '{name}' is not a number: {data[name]!r}") from None


def _load_priors(path: Path) -> tuple[float, float]:
    data = _load_json(path)
    return _number(data, "M0", str(path)), _number(data, "alpha0", str(path))


def _write_manifest(
    out_dir: Path, subcommand: str, inputs: dict, parameters: dict, outputs: list[str]
) -> None:
    _write_json(
        out_dir / _MANIFEST_NAME,
        {
            "tool": "heatpencil",
            "tool_version": __version__,
            "subcommand": subcommand,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "inputs": inputs,
            "parameters": parameters,
            "outputs": outputs,
        },
    )


# ---------------------------------------------------------------------------
# Minimal self-contained SVG line plots (data fidelity lives in the CSV twin).
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 800, 600
_MARGIN = 70


def _svg_line_plot(
    series: list[tuple[np.ndarray, np.ndarray, str, str]],
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    xs_all = np.concatenate([s[0] for s in series])
    ys_all = np.concatenate([s[1] for s in series])
    if log_y:
        ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    span_x, span_y = x_hi - x_lo, y_hi - y_lo

    def sx(x):
        return _MARGIN + (x - x_lo) / span_x * (_SVG_W - 2 * _MARGIN)

    def sy(y):
        return _SVG_H - _MARGIN - (y - y_lo) / span_y * (_SVG_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{title}</text>',
    ]
    axis = (
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
    )
    parts.append(axis)
    for i in range(5):
        fx = x_lo + span_x * i / 4
        fy = y_lo + span_y * i / 4
        px, py = sx(fx), sy(fy)
        y_text = f"1e{fy:.1f}" if log_y else f"{fy:.4g}"
        parts.append(
            f'<line x1="{px:.1f}" y1="{_SVG_H - _MARGIN}" x2="{px:.1f}" '
            f'y2="{_SVG_H - _MARGIN + 6}" stroke="black"/>'
            f'<text x="{px:.1f}" y="{_SVG_H - _MARGIN + 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{fx:.4g}</text>'
            f'<line x1="{_MARGIN - 6}" y1="{py:.1f}" x2="{_MARGIN}" y2="{py:.1f}" '
            f'stroke="black"/>'
            f'<text x="{_MARGIN - 10}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{y_text}</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 20}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{x_label}</text>'
        f'<text x="20" y="{_SVG_H / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {_SVG_H / 2:.0f})">{y_label}</text>'
    )
    colors_used = []
    for xs, ys, color, label in series:
        ys_t = np.log10(np.maximum(ys, 1e-300)) if log_y else ys
        flat = np.column_stack((sx(xs), sy(ys_t))).ravel().tolist()
        points = ("%.2f,%.2f " * len(xs) % tuple(flat))[:-1]
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        colors_used.append((color, label))
    for i, (color, label) in enumerate(colors_used):
        if label:
            y0 = _MARGIN + 20 * i
            parts.append(
                f'<line x1="{_SVG_W - _MARGIN - 150}" y1="{y0}" '
                f'x2="{_SVG_W - _MARGIN - 120}" y2="{y0}" stroke="{color}" '
                f'stroke-width="1.5"/>'
                f'<text x="{_SVG_W - _MARGIN - 112}" y="{y0 + 4}" '
                f'font-family="sans-serif" font-size="12">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _csv_text(header: str, row_format: str, *columns: np.ndarray) -> str:
    """A header line, then ``row_format`` applied to each row of the columns,
    formatted by one ``%`` over all rows."""
    flat = np.column_stack(columns).ravel().tolist()
    return header + "\n" + row_format * len(columns[0]) % tuple(flat)


def _emit_plots(plot_dir: Path, result, reference_problem: model.HeatProblem | None) -> list[str]:
    plot_dir.mkdir(parents=True, exist_ok=True)
    ks = np.arange(1, result.gcv_curve.size + 1)
    (plot_dir / "gcv.csv").write_text(_csv_text("k,G", "%d,%.17g\n", ks, result.gcv_curve))
    (plot_dir / "gcv.svg").write_text(
        _svg_line_plot(
            [(ks.astype(float), result.gcv_curve, "#1f77b4", "")],
            "Cross-validation criterion vs truncation rank",
            "truncation rank k",
            "log10 G(k)",
            log_y=True,
        )
    )
    x = np.linspace(0.0, 1.0, 1001)
    u0_hat = model.evaluate_cosine_series(
        {n: c for n, c in enumerate(result.u0_coeffs_hat)}, x
    )
    series = [(x, u0_hat, "#d62728", "reconstructed")]
    header, columns = "x,u0_hat", [x, u0_hat]
    if reference_problem is not None:
        ref_vals = model.evaluate_cosine_series(reference_problem.u0_coeffs, x)
        series.append((x, ref_vals, "#1f77b4", "reference"))
        header, columns = header + ",u0_ref", columns + [ref_vals]
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    (plot_dir / "u0.csv").write_text(_csv_text(header, row_format, *columns))
    (plot_dir / "u0.svg").write_text(
        _svg_line_plot(
            series,
            "Initial temperature profile",
            "x",
            "u0(x)",
        )
    )
    return ["gcv.svg", "gcv.csv", "u0.svg", "u0.csv"]


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.n1 < 9 or args.n2 < 9:
        raise InputError("window sample counts must be at least 9")
    if args.n_rec < 1:
        raise InputError("reconstruction sample count must be at least 1")
    problem = model.load_problem(args.problem)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    windows = model.sample_windows(problem, args.n1, args.n2, args.t0, args.n_rec)
    traces = dict(zip(_TRACE_FILES, windows))
    for name, trace in traces.items():
        model.write_trace_csv(out_dir / name, trace)
    _write_manifest(
        out_dir,
        "simulate",
        inputs={"problem": str(args.problem)},
        parameters={
            "n1": args.n1, "n2": args.n2, "t0": args.t0, "n_rec": args.n_rec,
            "alpha": problem.alpha,
        },
        outputs=sorted(traces),
    )
    print(f"wrote {', '.join(sorted(traces))} to {out_dir}")
    return 0


def _read_traces(traces_dir: Path):
    traces = []
    for name in _TRACE_FILES:
        path = traces_dir / name
        if not path.exists():
            raise InputError(f"missing trace file: {path}")
        traces.append(model.read_trace_csv(path))
    return traces


def _cmd_identify(args) -> int:
    traces_dir = Path(args.traces)
    trace_free, trace_step, trace_rec = _read_traces(traces_dir)
    priors = _load_priors(Path(args.priors))
    ref_problem = model.load_problem(args.reference_problem) if args.reference_problem else None
    cfg = pipeline.PipelineConfig()
    result = pipeline.identify(trace_free, trace_step, trace_rec, cfg, priors)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    payload = result.to_dict()
    payload["manifest"] = _MANIFEST_NAME
    _write_json(out_path, payload)
    outputs = [out_path.name]
    if args.plot:
        outputs += _emit_plots(Path(args.plot), result, ref_problem)
    _write_manifest(
        out_path.parent,
        "identify",
        inputs={"traces": str(traces_dir), "priors": str(args.priors)},
        parameters={"M0": priors[0], "alpha0": priors[1]},
        outputs=outputs,
    )
    print(
        f"alpha_hat = {result.alpha_hat:.6g}, gcv_k = {result.gcv_k}, "
        f"certificate {'present' if result.certificate else 'absent'}"
    )
    return 0


def _bound_inputs_from_payload(data: dict, priors: tuple[float, float]) -> tuple:
    cert = data.get("certificate")
    if not cert:
        raise InputError("input must be an identification result with a certificate block")
    if not isinstance(cert, dict):
        raise InputError(f"certificate block must be a JSON object, got {type(cert).__name__}")
    m0, alpha0 = priors

    def field(name, kind=float):
        return _number(cert, name, "certificate block", kind)

    def optional(block, name, kind=float):
        return None if block.get(name) is None else _number(block, name, "input", kind)

    inputs = bounds.BoundInputs(
        m0=m0, alpha0=alpha0,
        m=field("M", int), n=field("N", int), l=field("L", int),
        t1=field("T1"), ts=field("Ts"),
        sigma_m=field("sigma_M"),
        y1_norm=field("Y1_norm_2"),
        y0_trunc_gap=field("Y0M_gap_2"),
        kappa_xm=field("kappa_XM"),
    )
    return (
        inputs,
        optional(cert, "z_tilde"),
        optional(cert, "mode_index", int),
        optional(data, "alpha_hat"),
    )


def _cmd_bounds(args) -> int:
    data = _load_json(Path(args.input))
    priors = _load_priors(Path(args.priors))
    inputs, z_tilde, mode_index, alpha_hat = _bound_inputs_from_payload(data, priors)
    try:
        certificate = bounds.build_certificate(
            inputs,
            alpha_hat=alpha_hat,
            z_tilde=z_tilde,
            mode_index=mode_index,
        )
    except bounds.CertificateUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    payload = certificate.to_dict()
    payload["manifest"] = _MANIFEST_NAME
    _write_json(out_path, payload)
    _write_manifest(
        out_path.parent,
        "bounds",
        inputs={"input": str(args.input), "priors": str(args.priors)},
        parameters={"M0": priors[0], "alpha0": priors[1]},
        outputs=[out_path.name],
    )
    if certificate.alpha_interval:
        lo, hi = certificate.alpha_interval
        print(f"alpha interval: ({lo:.4f}, {hi:.4f})")
    else:
        print(f"pole bound: {certificate.pole_bound:.6g}")
    return 0


def _format_reference_value(value: float) -> str:
    if value == int(value) and abs(value) < 100:
        return f"{value:.4f}"
    return f"{value:.6g}"


def _cmd_repro_paper(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = reference.reference_problem()
    model.save_problem(out_dir / "problem.json", problem)

    traces = model.sample_windows(problem, *reference.REFERENCE_SCHEDULE)
    for name, trace in zip(_TRACE_FILES, traces):
        model.write_trace_csv(out_dir / name, trace)

    result = pipeline.identify(*traces, reference.reference_config(), reference.REFERENCE_PRIORS)
    payload = result.to_dict()
    payload["manifest"] = _MANIFEST_NAME
    _write_json(out_dir / "result.json", payload)
    _emit_plots(out_dir, result, problem)

    u0_err = reference.u0_reconstruction_error(result.u0_coeffs_hat)
    checks = reference.compare_reference_run(result, u0_err)
    misses = [c for c in checks if not c.ok]
    unexplained = [c for c in misses if not c.known_unreproducible]

    lines = [
        "# Reference reproduction report",
        "",
        "Configuration: diffusivity 4, initial profile "
        "x - 9 cos(pi x) + 5 cos(3 pi x), windows 0.3 / 0.8 / 1.3, "
        "50 samples per window at period 0.01, singular threshold 1e-10, "
        "priors |u0| <= 15, alpha >= 3.",
        "",
        "| field | reference | computed | tolerance | status |",
        "|---|---|---|---|---|",
    ]
    for c in checks:
        status = "ok" if c.ok else ("MISS (known, see notes)" if c.known_unreproducible else "MISS")
        tol = f"{c.tolerance:g}" + (" rel" if c.relative else "")
        lines.append(
            f"| {c.name} | {_format_reference_value(c.expected)} | "
            f"{c.actual:.6g} | {tol} | {status} |"
        )
    cert = result.certificate
    lines += [
        "",
        f"Certificate inputs: M0={cert.inputs.m0:g}, alpha0={cert.inputs.alpha0:g}, "
        f"M={cert.inputs.m}, N={cert.inputs.n}, L={cert.inputs.l}, "
        f"T1={cert.inputs.t1:g}, Ts={cert.inputs.ts:g}.",
    ]
    lo, hi = result.certificate.alpha_interval
    lines += [
        "",
        f"The identified diffusivity lies between {lo:.4f} and {hi:.4f} "
        f"(reference interval: between "
        f"{reference.CERT_ALPHA_INTERVAL[0]:.4f} and "
        f"{reference.CERT_ALPHA_INTERVAL[1]:.4f}).",
        "",
        f"{len(checks)} fields compared, {len(checks) - len(misses)} within "
        f"tolerance, {len(misses)} missed "
        f"({len(misses) - len(unexplained)} of them documented as not "
        "reproducible in double precision; see README, Reproducibility notes).",
        "",
    ]
    for c in checks:
        if c.note:
            lines.append(f"- {c.name}: {c.note}")
    report = "\n".join(lines) + "\n"
    (out_dir / "report.md").write_text(report)
    _write_manifest(
        out_dir,
        "repro-paper",
        inputs={},
        parameters={"alpha": problem.alpha, "M0": reference.REFERENCE_PRIORS[0],
                    "alpha0": reference.REFERENCE_PRIORS[1]},
        outputs=sorted(
            ["problem.json", *_TRACE_FILES, "result.json",
             "report.md", "gcv.svg", "gcv.csv", "u0.svg", "u0.csv"]
        ),
    )
    print(report, end="")
    return 0 if not misses else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatpencil",
        description=(
            "Identify the diffusivity and initial temperature profile of a "
            "1-D heat equation from a single boundary trace under a flux-step "
            "schedule."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    n1, n2, t0, n_rec = reference.REFERENCE_SCHEDULE
    p = sub.add_parser("simulate", help="synthesize observation traces from a problem file")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--out", required=True, help="output directory for the trace CSVs")
    p.add_argument("--n1", type=int, default=n1, help="samples in the flux-free window")
    p.add_argument("--n2", type=int, default=n2, help="samples in the flux-step window")
    p.add_argument("--t0", type=float, default=t0, help="reconstruction window start")
    p.add_argument("--n-rec", type=int, default=n_rec, help="samples in the reconstruction window")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identify", help="run the identification pipeline on traces")
    p.add_argument("traces", help="directory holding free.csv, step.csv, rec.csv")
    p.add_argument("priors", help="JSON file with M0 (norm bound) and alpha0 (lower bound)")
    p.add_argument("--out", required=True, help="output path for the result JSON")
    p.add_argument("--plot", help="directory for gcv/u0 SVG plots and CSV twins")
    p.add_argument(
        "--reference-problem",
        help="optional problem JSON whose profile is overlaid on the u0 plot",
    )
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("bounds", help="emit the error certificate")
    p.add_argument("input", help="identification result JSON with a certificate block")
    p.add_argument("priors", help="JSON file with M0 and alpha0")
    p.add_argument("--out", required=True, help="output path for the certificate JSON")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "repro-paper",
        help="reproduce the built-in reference experiment and write a report",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_repro_paper)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError, model.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (pipeline.IdentificationError, pencil.PencilError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except bounds.CertificateUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
