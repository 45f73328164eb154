import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from heatpencil import cli, model, pipeline, reference
from heatpencil.cli import main
from heatpencil.model import HeatProblem


@pytest.fixture()
def workspace(tmp_path):
    model.save_problem(tmp_path / "problem.json", reference.reference_problem())
    (tmp_path / "priors.json").write_text(json.dumps({"M0": 15.0, "alpha0": 3.0}))
    return tmp_path


def run_module(*argv):
    """``python -m heatpencil.cli`` in a child process that imports the package
    these tests import, whether it is installed or only on ``sys.path``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "heatpencil.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def run_simulate(workspace):
    rc = main(
        ["simulate", str(workspace / "problem.json"), "--out", str(workspace / "traces")]
    )
    assert rc == 0
    return workspace / "traces"


class TestSimulate:
    def test_traces_match_model(self, workspace):
        traces_dir = run_simulate(workspace)
        problem = reference.reference_problem()

        def at(t):
            return model.sample(problem, t, 1.0, 1).values[0]

        free = model.read_trace_csv(traces_dir / "free.csv")
        assert free.values[0] == at(0.3)
        step = model.read_trace_csv(traces_dir / "step.csv")
        assert step.values[0] == at(0.8)
        assert step.values[10] == at(0.8 + 0.1)
        rec = model.read_trace_csv(traces_dir / "rec.csv")
        assert len(rec) == 79
        assert rec.t_start == 0.01

    def test_zero_profile_free_trace_is_zero(self, tmp_path):
        problem = HeatProblem(4.0, {}, 0.3, 0.8, 1.3)
        model.save_problem(tmp_path / "p.json", problem)
        rc = main(["simulate", str(tmp_path / "p.json"), "--out", str(tmp_path / "t")])
        assert rc == 0
        free = model.read_trace_csv(tmp_path / "t" / "free.csv")
        assert np.all(free.values == 0.0)

    def test_missing_problem_file(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--n1", "8", "window sample counts must be at least 9"),
            ("--n2", "8", "window sample counts must be at least 9"),
            ("--n-rec", "0", "reconstruction sample count must be at least 2"),
            ("--n-rec", "1", "reconstruction sample count must be at least 2"),
            ("--t0", "0.9", "t0 must lie in (0, t2) = (0, 0.8), got 0.9"),
            ("--t0", "0", "t0 must lie in (0, t2) = (0, 0.8), got 0.0"),
        ],
    )
    def test_schedule_refused(self, workspace, capsys, option, value, message):
        rc = main(
            ["simulate", str(workspace / "problem.json"), "--out",
             str(workspace / "traces"), option, value]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace / "traces").exists()

    def test_shortest_reconstruction_window_reads_back(self, workspace):
        traces = workspace / "traces"
        assert main(["simulate", str(workspace / "problem.json"), "--out", str(traces),
                     "--n-rec", "2"]) == 0
        rec = model.read_trace_csv(traces / "rec.csv")
        assert (rec.t_start, len(rec)) == (0.01, 2)
        assert rec.period == pytest.approx((0.8 - 0.01) / 2, rel=1e-12)

    def test_byte_identical_reruns(self, workspace):
        traces_dir = run_simulate(workspace)
        first = {p.name: p.read_bytes() for p in traces_dir.glob("*.csv")}
        run_simulate(workspace)
        second = {p.name: p.read_bytes() for p in traces_dir.glob("*.csv")}
        assert first == second

    def test_manifest_lists_outputs(self, workspace):
        traces_dir = run_simulate(workspace)
        manifest = json.loads((traces_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert sorted(manifest["outputs"]) == ["free.csv", "rec.csv", "step.csv"]


class TestIdentify:
    def test_reference_run(self, workspace):
        traces_dir = run_simulate(workspace)
        out = workspace / "out" / "result.json"
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(out),
                "--plot", str(workspace / "plots"),
                "--reference-problem", str(workspace / "problem.json"),
            ]
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert abs(result["alpha_hat"] - 4.0) < 1e-3
        assert result["gcv_k"] == 6
        assert result["certificate"]["alpha_interval"] is not None
        assert result["manifest"] == "manifest.json"
        for name in ("gcv.svg", "gcv.csv", "u0.svg", "u0.csv"):
            assert (workspace / "plots" / name).exists()
        svg = (workspace / "plots" / "gcv.svg").read_text()
        assert 'viewBox="0 0 800 600"' in svg
        u0_rows = (workspace / "plots" / "u0.csv").read_text().splitlines()
        assert u0_rows[0] == "x,u0_hat,u0_ref"
        assert len(u0_rows) == 1002

    def test_nine_sample_free_window_withholds_the_certificate(self, workspace, capsys):
        traces_dir = workspace / "traces"
        rc = main(
            ["simulate", str(workspace / "problem.json"), "--out", str(traces_dir),
             "--n1", "9"]
        )
        assert rc == 0
        out = workspace / "result.json"
        rc = main(["identify", str(traces_dir), str(workspace / "priors.json"), "--out", str(out)])
        assert rc == 0
        assert "certificate absent" in capsys.readouterr().out
        assert json.loads(out.read_text())["certificate"] is None

    def test_missing_reference_problem_writes_nothing(self, workspace, capsys):
        traces_dir = run_simulate(workspace)
        capsys.readouterr()
        out = workspace / "out" / "result.json"
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(out),
                "--reference-problem", str(workspace / "nope.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nope.json" in err
        assert not out.parent.exists()

    def test_missing_step_trace_names_file(self, workspace, capsys):
        traces_dir = run_simulate(workspace)
        (traces_dir / "step.csv").unlink()
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        assert "step.csv" in capsys.readouterr().err

    def test_missing_priors(self, workspace, capsys):
        traces_dir = run_simulate(workspace)
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "nopriors.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        assert "nopriors.json" in capsys.readouterr().err

    def test_pencil_error_exits_two_with_one_line(self, workspace, capsys):
        # the fast mode (rate 200) is visible on the window's own clock but
        # vanishes from the absolute-time fit, which is then rank deficient
        traces_dir = run_simulate(workspace)
        k = np.arange(50)
        free = model.SampleTrace(0.3, 0.01, 1.0 + np.exp(-2.0 * k))
        model.write_trace_csv(traces_dir / "free.csv", free)
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error (DegenerateRatesError): ")
        assert err.count("\n") == 1

    def test_short_free_window_exits_two_with_the_type(self, workspace, capsys):
        # ShortTraceError is a ValueError too, and still prints its type
        traces_dir = run_simulate(workspace)
        free = model.read_trace_csv(traces_dir / "free.csv")
        short = model.SampleTrace(free.t_start, free.period, free.values[:8])
        model.write_trace_csv(traces_dir / "free.csv", short)
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error (ShortTraceError): need at least 9 samples to form the pencil, got 8\n"
        )
        assert not (workspace / "result.json").exists()

    def test_mode_index_overflow_exits_two_with_one_line(self, workspace, capsys):
        # a free trace scaled by 1e150 gives alpha = 6.7e-151 and a mode
        # index of 2.4e75, refused before it can wrap in int64
        traces_dir = run_simulate(workspace)
        free = model.read_trace_csv(traces_dir / "free.csv")
        scaled = model.SampleTrace(free.t_start, free.period, free.values * 1e150)
        model.write_trace_csv(traces_dir / "free.csv", scaled)
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error (ModeIndexRangeError): rate 39.4784 maps to mode index")
        assert err.count("\n") == 1
        assert not (workspace / "result.json").exists()

    def test_non_finite_sample_names_the_line(self, workspace, capsys):
        traces_dir = run_simulate(workspace)
        lines = (traces_dir / "free.csv").read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",nan"
        (traces_dir / "free.csv").write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "free.csv, line 6: " in err and "not two finite numbers" in err

    def test_reversed_trace_names_the_file(self, workspace, capsys):
        traces_dir = run_simulate(workspace)
        header, *rows = (traces_dir / "free.csv").read_text().splitlines()
        (traces_dir / "free.csv").write_text("\n".join([header, *rows[::-1]]) + "\n")
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "free.csv: sample times must increase" in err

    @pytest.mark.parametrize(
        "priors", [{"M0": math.nan, "alpha0": 3.0}, {"M0": 15.0, "alpha0": math.inf}]
    )
    def test_non_finite_priors_exit_two_with_one_line(self, workspace, capsys, priors):
        traces_dir = run_simulate(workspace)
        (workspace / "bad.json").write_text(json.dumps(priors))
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "bad.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "must be finite" in err
        assert not (workspace / "result.json").exists()

    @pytest.mark.parametrize("profile", [{}, None], ids=["no-mode", "reference"])
    @pytest.mark.parametrize("priors,message", [
        ({"M0": -1.0, "alpha0": 3.0}, "norm prior must be nonnegative, got -1.0"),
        ({"M0": 15.0, "alpha0": 0.0}, "alpha0 must be positive, got 0.0"),
    ])
    def test_unusable_priors_exit_two_with_one_line(
        self, workspace, capsys, profile, priors, message
    ):
        if profile is not None:  # a profile whose free window shows no mode
            problem = HeatProblem(4.0, profile, 0.3, 0.8, 1.3)
            model.save_problem(workspace / "problem.json", problem)
        traces_dir = run_simulate(workspace)
        (workspace / "bad.json").write_text(json.dumps(priors))
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "bad.json"),
                "--out", str(workspace / "result.json"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace / "result.json").exists()

    @pytest.mark.parametrize("plots", ["plots", "out", "out/plots"])
    def test_manifest_lists_plots_by_their_path(self, workspace, plots):
        traces_dir = run_simulate(workspace)
        out = workspace / "out" / "result.json"
        rc = main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(out), "--plot", str(workspace / plots),
            ]
        )
        assert rc == 0
        listed = json.loads((out.parent / "manifest.json").read_text())["outputs"]
        assert len(listed) == 5
        for name in listed:
            assert (out.parent / name).is_file()

    def test_byte_identical_result(self, workspace):
        traces_dir = run_simulate(workspace)
        out = workspace / "result.json"
        args = [
            "identify", str(traces_dir), str(workspace / "priors.json"),
            "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first


class TestBounds:
    def _result_path(self, workspace):
        traces_dir = run_simulate(workspace)
        out = workspace / "result.json"
        main(
            [
                "identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(out),
            ]
        )
        return out

    def test_certificate_from_result(self, workspace):
        result = self._result_path(workspace)
        cert_path = workspace / "certificate.json"
        rc = main(
            ["bounds", str(result), str(workspace / "priors.json"),
             "--out", str(cert_path)]
        )
        assert rc == 0
        cert = json.loads(cert_path.read_text())
        block = json.loads(result.read_text())["certificate"]
        assert cert["alpha_interval"] == block["alpha_interval"]
        lo, hi = cert["alpha_interval"]
        # identify's certificate is tighter than the published (3.9921,
        # 4.0079), which reference rebuilds from rounding-chosen inputs
        assert 3.9921 < lo < 4.0 < hi < 4.0079

    def test_round_trip_matches_the_result_certificate(self, workspace):
        # identify and bounds reach build_certificate by different ways
        result = self._result_path(workspace)
        cert_path = workspace / "certificate.json"
        rc = main(
            ["bounds", str(result), str(workspace / "priors.json"),
             "--out", str(cert_path)]
        )
        assert rc == 0
        cert = json.loads(cert_path.read_text())
        assert cert.pop("manifest") == "manifest.json"
        block = json.loads(result.read_text())["certificate"]
        assert list(cert.items()) == list(block.items())

    def test_infinite_condition_number_is_written_as_null(self, tmp_path, capsys):
        # a seed-1 benchmark problem whose free window shows one mode: its
        # certificate block, with kappa_XM null as for numerically singular
        # eigenvectors, gives +inf pole bounds, written as null too
        problem = HeatProblem(
            7.875812270620443, {0: 9.38139555368721, 1: -5.983556121857667}, 0.3, 0.8, 1.3
        )
        model.save_problem(tmp_path / "problem.json", problem)
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"M0": 15.437037363092626, "alpha0": 5.906859202965332}))
        traces = tmp_path / "traces"
        assert main(
            ["simulate", str(tmp_path / "problem.json"), "--out", str(traces),
             "--n1", "50", "--n2", "50", "--t0", "0.01", "--n-rec", "79"]
        ) == 0
        result = tmp_path / "result.json"
        assert main(["identify", str(traces), str(priors), "--out", str(result)]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        data = json.loads(result.read_text(), parse_constant=refuse)
        block = data["certificate"]
        assert block["M"] == 1
        # the exact eigenbasis of a one-pole product is well conditioned;
        # the block is edited by hand to the one an infinite kappa writes
        assert 1.0 <= block["kappa_XM"] < 1.0 + 1e-9
        names = ("kappa_XM", "pole_bound", "pole_bound_general", "pole_bound_special")
        block.update(dict.fromkeys(names))
        result.write_text(json.dumps(data))
        cert_path = tmp_path / "certificate.json"
        assert main(["bounds", str(result), str(priors), "--out", str(cert_path)]) == 0
        assert capsys.readouterr().out.endswith("pole bound: inf\n")
        cert = json.loads(cert_path.read_text(), parse_constant=refuse)
        for name in names:
            assert cert[name] is None
        assert cert.pop("manifest") == "manifest.json"
        assert list(cert.items()) == list(block.items())

    def test_constant_mode_block_round_trips(self, tmp_path, capsys):
        # a free window with only the constant mode: no pole to convert, so
        # z_tilde, mode_index and the alpha interval are null
        model.save_problem(tmp_path / "problem.json", HeatProblem(4.0, {0: 2.0}, 0.3, 0.8, 1.3))
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"M0": 5, "alpha0": 3}))
        traces = run_simulate(tmp_path)
        result = tmp_path / "result.json"
        assert main(["identify", str(traces), str(priors), "--out", str(result)]) == 0
        block = json.loads(result.read_text())["certificate"]
        for name in ("z_tilde", "mode_index", "eigenvalue_bound", "alpha_bound", "alpha_interval"):
            assert block[name] is None
        cert_path = tmp_path / "certificate.json"
        capsys.readouterr()
        assert main(["bounds", str(result), str(priors), "--out", str(cert_path)]) == 0
        # set by the a-priori tail bound, not by rounding: kappa is 1 for one
        # pole, and the gap sigma_2 + eps sigma_1 is far below frob_Y0
        assert capsys.readouterr().out == "pole bound: 0.000163887\n"
        cert = json.loads(cert_path.read_text())
        assert cert.pop("manifest") == "manifest.json"
        assert list(cert.items()) == list(block.items())

    def test_zero_norm_prior_gives_degenerate_bounds(self, workspace):
        result = self._result_path(workspace)
        (workspace / "zero.json").write_text(json.dumps({"M0": 0.0, "alpha0": 3.0}))
        cert_path = workspace / "certificate.json"
        rc = main(
            ["bounds", str(result), str(workspace / "zero.json"),
             "--out", str(cert_path)]
        )
        assert rc == 0
        cert = json.loads(cert_path.read_text())
        # the tail terms vanish; only the recorded rounding-level truncation
        # gap keeps the perturbation level (and thus the bound) above zero
        assert cert["tail_bound_T1"] == 0.0
        assert cert["frob_Y0"] == 0.0
        assert cert["rho"] < 1e-9
        assert cert["pole_bound"] < 1e-3

    def test_result_without_certificate_rejected(self, workspace, capsys):
        path = workspace / "bare.json"
        path.write_text(json.dumps({"alpha_hat": 4.0, "certificate": None}))
        rc = main(
            ["bounds", str(path), str(workspace / "priors.json"),
             "--out", str(workspace / "cert.json")]
        )
        assert rc == 2
        assert "certificate block" in capsys.readouterr().err

    def test_incomplete_certificate_names_missing_field(self, workspace, capsys):
        path = workspace / "partial.json"
        path.write_text(json.dumps({"certificate": {"N": 50}}))
        rc = main(
            ["bounds", str(path), str(workspace / "priors.json"),
             "--out", str(workspace / "cert.json")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "missing field 'M'" in err

    @pytest.mark.parametrize("name", ["z_tilde", "mode_index"])
    def test_malformed_optional_certificate_field_named(self, workspace, capsys, name):
        result = self._result_path(workspace)
        data = json.loads(result.read_text())
        data["certificate"][name] = "x"
        result.write_text(json.dumps(data))
        rc = main(
            ["bounds", str(result), str(workspace / "priors.json"),
             "--out", str(workspace / "cert.json")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{name}'" in err

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("M", 2.9, "certificate block field 'M' is not an integer: 2.9"),
            ("L", 17.5, "certificate block field 'L' is not an integer: 17.5"),
            ("mode_index", 1.7, "input field 'mode_index' is not an integer: 1.7"),
            ("N", True, "certificate block field 'N' is not a number: True"),
            ("M", False, "certificate block field 'M' is not a number: False"),
            ("mode_index", True, "input field 'mode_index' is not a number: True"),
            ("Ts", True, "certificate block field 'Ts' is not a number: True"),
            ("M", "2", "certificate block field 'M' is not a number: '2'"),
            ("Ts", "0.01", "certificate block field 'Ts' is not a number: '0.01'"),
            ("mode_index", "1", "input field 'mode_index' is not a number: '1'"),
        ],
    )
    def test_fractional_or_boolean_field_refused(self, workspace, capsys, name, value, message):
        # int() would truncate these, a boolean would read as 0 or 1, and
        # float() or int() would parse a string
        result = self._result_path(workspace)
        data = json.loads(result.read_text())
        data["certificate"][name] = value
        result.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main(
            ["bounds", str(result), str(workspace / "priors.json"),
             "--out", str(workspace / "cert.json")]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace / "cert.json").exists()

    @pytest.mark.parametrize("value", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    @pytest.mark.parametrize("name", ["M", "N", "L", "mode_index"])
    def test_count_above_2_53_refused(self, workspace, capsys, name, value):
        # float64, in which theta squares M, holds every count only up to 2**53
        result = self._result_path(workspace)
        data = json.loads(result.read_text())
        data["certificate"][name] = value
        result.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main(
            ["bounds", str(result), str(workspace / "priors.json"),
             "--out", str(workspace / "cert.json")]
        )
        assert rc == 2
        where = "input" if name == "mode_index" else "certificate block"
        assert capsys.readouterr().err == (
            f"error: {where} field '{name}' is above 2**53, the largest exact count\n"
        )
        assert not (workspace / "cert.json").exists()

    def test_integral_floats_read_as_counts(self, workspace):
        result = self._result_path(workspace)
        data = json.loads(result.read_text())
        block = dict(data["certificate"])
        for name in ("M", "N", "L", "mode_index"):
            data["certificate"][name] = float(block[name])
        result.write_text(json.dumps(data))
        cert_path = workspace / "certificate.json"
        rc = main(["bounds", str(result), str(workspace / "priors.json"), "--out", str(cert_path)])
        assert rc == 0
        cert = json.loads(cert_path.read_text())
        assert cert.pop("manifest") == "manifest.json"
        assert list(cert.items()) == list(block.items())

    def test_unavailable_when_rho_too_large(self, workspace, capsys):
        result = self._result_path(workspace)
        (workspace / "huge.json").write_text(json.dumps({"M0": 1e12, "alpha0": 3.0}))
        rc = main(
            ["bounds", str(result), str(workspace / "huge.json"),
             "--out", str(workspace / "cert.json")]
        )
        assert rc == 3
        assert "certificate unavailable" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha0", [1e-100, 1e-200, 1e-300, 1e-320])
    def test_weak_diffusivity_prior_withholds_the_certificate(self, workspace, capsys, alpha0):
        # a true but weak alpha0 makes the tail bounds exceed float64: both
        # subcommands withhold the certificate
        result = self._result_path(workspace)
        weak = workspace / "weak.json"
        weak.write_text(json.dumps({"M0": 15.0, "alpha0": alpha0}))
        out = workspace / "weak_result.json"
        capsys.readouterr()
        rc = main(["identify", str(workspace / "traces"), str(weak), "--out", str(out)])
        assert rc == 0
        assert "certificate absent" in capsys.readouterr().out
        assert json.loads(out.read_text())["certificate"] is None
        rc = main(["bounds", str(result), str(weak), "--out", str(workspace / "cert.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: certificate unavailable (rho = ") and err.count("\n") == 1
        assert not (workspace / "cert.json").exists()

    def test_priors_without_fields(self, workspace, capsys):
        result = self._result_path(workspace)
        (workspace / "empty.json").write_text("{}")
        rc = main(
            ["bounds", str(result), str(workspace / "empty.json"),
             "--out", str(workspace / "cert.json")]
        )
        assert rc == 2


_PROBLEM = model.problem_to_dict(reference.reference_problem())


@pytest.mark.parametrize(
    "role,payload,named",
    [
        ("priors", [1, 2], "bad.json"),
        ("priors", {"M0": None, "alpha0": 3}, "'M0'"),
        ("result", [], "bad.json"),
        ("result", {"certificate": {"M": None}}, "'M'"),
        ("result", {"certificate": [1]}, "certificate block"),
        ("problem", [1], "bad.json"),
        ("problem", {**_PROBLEM, "alpha": None}, "'alpha'"),
        ("problem", {**_PROBLEM, "alpha": math.nan}, "'alpha'"),
        ("priors", {"m0": 15.0, "alpha0": 3.0}, "'M0'"),
        ("problem", {**_PROBLEM, "control_amplitude": 2.0}, "'control_amplitude'"),
        ("problem", {**_PROBLEM, "alpha": True}, "'alpha'"),
        ("problem", {**_PROBLEM, "control_series_terms": 200.7}, "'control_series_terms'"),
        ("problem", {**_PROBLEM, "control_series_terms": True}, "'control_series_terms'"),
        ("problem", {**_PROBLEM, "u0_cosine": {"0": True}}, "'u0_cosine'"),
        ("problem", {**_PROBLEM, "control_series_terms": 10**6 + 1}, "'control_series_terms'"),
        ("problem", {**_PROBLEM, "control_series_terms": 10**400}, "'control_series_terms'"),
        ("problem", {**_PROBLEM, "alpha": "4.0"}, "'alpha'"),
        ("priors", {"M0": "15", "alpha0": "3"}, "'M0'"),
        ("priors", {"M0": 15, "alpha0": "3"}, "'alpha0'"),
        ("problem", {**_PROBLEM, "u0_cosine": {"0": "1.5"}}, "'0'"),
        ("problem", {**_PROBLEM, "control_series_terms": "200"}, "'control_series_terms'"),
        ("problem", {**_PROBLEM, "u0_cosine": {"1": 2.0, "01": 3.0}}, "'01'"),
        ("problem", {**_PROBLEM, "u0_cosine": {"\u0661": 2.0}}, "'\u0661'"),
    ],
)
def test_malformed_json_exits_two_naming_it(workspace, capsys, role, payload, named):
    bad = workspace / "bad.json"
    bad.write_text(json.dumps(payload))
    if role == "problem":
        argv = ["simulate", str(bad), "--out", str(workspace / "traces")]
    else:
        result = workspace / "result.json"
        main(["identify", str(run_simulate(workspace)), str(workspace / "priors.json"),
              "--out", str(result)])
        inputs = (result, bad) if role == "priors" else (bad, workspace / "priors.json")
        argv = ["bounds", *map(str, inputs), "--out", str(workspace / "cert.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("role", ["priors", "result", "problem", "trace"])
def test_directory_in_place_of_a_file_exits_two_naming_it(workspace, capsys, role):
    traces_dir = run_simulate(workspace)
    folder = workspace / "folder"
    folder.mkdir()
    if role == "priors":
        argv = ["identify", str(traces_dir), str(folder), "--out", str(workspace / "r.json")]
    elif role == "result":
        argv = ["bounds", str(folder), str(workspace / "priors.json"),
                "--out", str(workspace / "cert.json")]
    elif role == "problem":
        argv = ["simulate", str(folder), "--out", str(workspace / "traces2")]
    else:
        (traces_dir / "free.csv").unlink()
        folder = traces_dir / "free.csv"
        folder.mkdir()
        argv = ["identify", str(traces_dir), str(workspace / "priors.json"),
                "--out", str(workspace / "r.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(folder) in err


class TestReproduction:
    def test_report_and_exit_code(self, tmp_path, capsys):
        rc = main(["repro-paper", "--out", str(tmp_path / "repro")])
        # two published values are documented as not reproducible in double
        # precision, so the reproduction reports a mismatch
        assert rc == 1
        report = (tmp_path / "repro" / "report.md").read_text()
        for label in (
            "theta", "Y1 spectral norm", "sigma_M", "kappa", "rho", "pole bound",
            "alpha interval lower", "alpha interval upper", "GCV rank",
        ):
            assert label in report
        assert "diffusivity lies between" in report
        assert "M0=15, alpha0=3, M=2, N=50, L=17, T1=0.3, Ts=0.01" in report
        missed = [line for line in report.splitlines() if "| MISS" in line]
        assert len(missed) == 2
        assert any("free coefficient C_1" in line for line in missed)
        assert any("kappa" in line for line in missed)
        repro = tmp_path / "repro"
        listed = json.loads((repro / "manifest.json").read_text())["outputs"]
        assert listed == [
            "free.csv", "gcv.csv", "gcv.svg", "problem.json", "rec.csv", "report.md",
            "result.json", "step.csv", "u0.csv", "u0.svg",
        ]
        for name in listed:
            assert (repro / name).is_file()

    def test_report_is_the_reference_report(self, tmp_path, capsys):
        rc = main(["repro-paper", "--out", str(tmp_path)])
        printed = capsys.readouterr().out
        traces = model.sample_windows(reference.reference_problem(), *reference.REFERENCE_SCHEDULE)
        result = pipeline.identify(*traces, priors=reference.REFERENCE_PRIORS)
        text, matched = reference.reproduction_report(result)
        assert text == (tmp_path / "report.md").read_text() == printed
        assert rc == (0 if matched else 1)
        error = reference.u0_reconstruction_error(result.u0_coeffs_hat)
        checks = reference.compare_reference_run(result, error)
        assert matched == all(c.ok for c in checks)
        ok = sum(c.ok for c in checks)
        known = sum(c.known_unreproducible and not c.ok for c in checks)
        assert (
            f"{len(checks)} fields compared, {ok} within tolerance, {len(checks) - ok} missed "
            f"({known} of them documented as not reproducible" in text
        )
        rows = [line for line in text.splitlines() if line.startswith("| ")][1:]
        assert [row.split(" | ")[0][2:] for row in rows] == [c.name for c in checks]
        assert text.splitlines()[2] == (
            "Configuration: diffusivity 4, initial profile "
            "x - 9 cos(pi x) + 5 cos(3 pi x), windows 0.3 / 0.8 / 1.3, "
            "50 samples per window at period 0.01, singular threshold 1e-10, "
            "priors |u0| <= 15, alpha >= 3."
        )


class TestArtifactFormats:
    """The writers format whole arrays; these pin their bytes to per-element
    f-string formatting of the same values."""

    @staticmethod
    def loop_polylines(series, log_y):
        ys_of = [np.log10(np.maximum(ys, 1e-300)) if log_y else ys for _, ys in series]
        xs_all = np.concatenate([xs for xs, _ in series])
        ys_all = np.concatenate(ys_of)
        x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
        y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
        width, height, margin = cli._SVG_W, cli._SVG_H, cli._MARGIN
        return [
            " ".join(
                f"{margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin):.2f},"
                f"{height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin):.2f}"
                for x, y in zip(xs, ys)
            )
            for (xs, _), ys in zip(series, ys_of)
        ]

    @pytest.mark.parametrize("log_y", [False, True])
    def test_polyline_matches_per_point_formatting(self, log_y):
        rng = np.random.default_rng(11)
        for scale in (1e-3, 1.0, 1e6):
            xs = np.sort(rng.uniform(-2.0, 3.0, 700))
            # the third series shares the first one's abscissa, whose text is kept
            series = [
                (xs, rng.standard_normal(700) * scale), (xs[::2], rng.exponential(scale, 350)),
                (xs, rng.exponential(scale, 700)),
            ]
            if log_y:
                series = [(x, np.abs(y)) for x, y in series]
            svg = cli._svg_line_plot(
                [(x, y, "#000000", "") for x, y in series], "t", "x", "y", log_y=log_y
            )
            points = re.findall(r'<polyline points="([^"]*)"', svg)
            assert points == self.loop_polylines(series, log_y)

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_csv_twins_match_per_row_formatting(self, tmp_path, with_reference):
        rng = np.random.default_rng(12)
        result = types.SimpleNamespace(
            gcv_curve=np.abs(rng.standard_normal(37)) * 10.0 ** rng.integers(-20, 3, 37),
            u0_coeffs_hat=rng.standard_normal(12),
        )
        problem = reference.reference_problem() if with_reference else None
        cli._emit_plots(tmp_path, result, problem)
        gcv_rows = [f"{k},{g:.17g}" for k, g in zip(range(1, 38), result.gcv_curve)]
        assert (tmp_path / "gcv.csv").read_text() == "\n".join(["k,G", *gcv_rows]) + "\n"
        x = np.linspace(0.0, 1.0, 1001)
        u0_hat = model.evaluate_cosine_series(dict(enumerate(result.u0_coeffs_hat)), x)
        u0_rows = [f"{xi:.17g},{u0_hat[i]:.17g}" for i, xi in enumerate(x)]
        header = "x,u0_hat"
        if with_reference:
            ref = model.evaluate_cosine_series(problem.u0_coeffs, x)
            u0_rows = [f"{row},{ref[i]:.17g}" for i, row in enumerate(u0_rows)]
            header += ",u0_ref"
        assert (tmp_path / "u0.csv").read_text() == "\n".join([header, *u0_rows]) + "\n"

    def test_column_text_is_the_uncached_format(self):
        grid = model._PROFILE_GRID
        pixels = cli._MARGIN + grid * (cli._SVG_W - 2 * cli._MARGIN)
        for fmt, column in (("%.17g", grid), ("%.2f", pixels)):
            for _ in range(2):  # built, then served from the cache
                assert cli._column_text(fmt, column.tobytes()) == tuple(
                    fmt % value for value in column.tolist()
                )


def test_repeated_main_calls_behave_as_fresh_processes(tmp_path, capsys, monkeypatch):
    # main() is also called in process, several times in one: a run, an
    # argument error and another run in sequence must each behave as they
    # do in a fresh process.
    priors = tmp_path / "priors.json"
    priors.write_text(json.dumps({"M0": 15.0, "alpha0": 3.0}))
    repro = tmp_path / "repro"
    assert main(["repro-paper", "--out", str(repro)]) == 1
    capsys.readouterr()
    no_out = ["identify", str(repro), str(priors), "--plot", str(tmp_path / "plots")]
    with pytest.raises(SystemExit) as exc:
        main(no_out)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --out" in err
    run = run_module(*no_out)
    assert (run.returncode, run.stderr) == (2, err)
    assert not (tmp_path / "plots").exists()
    bounds = ["bounds", str(repro / "result.json"), str(priors), "--out"]
    assert main([*bounds, str(tmp_path / "bounds" / "certificate.json")]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("alpha interval: (")
    run = run_module(*bounds, str(tmp_path / "fresh" / "certificate.json"))
    assert (run.returncode, run.stdout) == (0, printed)
    assert (tmp_path / "bounds" / "certificate.json").read_bytes() == (
        tmp_path / "fresh" / "certificate.json"
    ).read_bytes()
    # the u0 plot against a problem file, after repro-paper drew its own
    overlay = [
        "identify", str(repro), str(priors), "--reference-problem", str(repro / "problem.json")
    ]
    assert main([*overlay, "--out", str(tmp_path / "ident" / "result.json"),
                 "--plot", str(tmp_path / "ident" / "plots")]) == 0
    captured = capsys.readouterr()
    run = run_module(*overlay, "--out", str(tmp_path / "fresh-ident" / "result.json"),
                     "--plot", str(tmp_path / "fresh-ident" / "plots"))
    assert (run.returncode, run.stdout, run.stderr) == (0, captured.out, captured.err)
    assert artifacts(tmp_path / "ident") == artifacts(tmp_path / "fresh-ident")
    # help wraps at the terminal width of the moment it is printed
    for columns in ("80", "132"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        run = run_module("--help")
        assert (run.returncode, run.stdout, run.stderr) == (0, captured.out, captured.err)
    assert main(["repro-paper", "--out", str(tmp_path / "again")]) == 1
    captured = capsys.readouterr()
    run = run_module("repro-paper", "--out", str(tmp_path / "fresh-repro"))
    assert (run.returncode, run.stdout, run.stderr) == (1, captured.out, captured.err)
    assert artifacts(tmp_path / "again") == artifacts(tmp_path / "fresh-repro")


def artifacts(folder):
    """Every file under ``folder`` but the manifest, which records a timestamp."""
    return {
        str(path.relative_to(folder)): path.read_bytes()
        for path in sorted(folder.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        for _ in range(2):
            assert main(["repro-paper", "--out", str(tmp_path / "repro")]) == 1
            with pytest.raises(SystemExit):
                main(["bounds", str(tmp_path / "repro" / "result.json")])
            with pytest.raises(SystemExit):
                main(["--help"])
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    # build_parser itself still hands each caller a parser of its own
    assert build_parser() is not build_parser()


class TestConsoleEntry:
    def test_module_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "repro-paper" in proc.stdout
