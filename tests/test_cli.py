import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from cslbec import cli
from cslbec.core import spec_to_dict
from cslbec.geometry import QuadratureError
from cslbec.scenarios import SCENARIOS


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestScenarios:
    def test_listing(self, capsys):
        code, out, _ = run_capture(capsys, ["scenarios"])
        assert code == 0
        listing = json.loads(out)
        assert sorted(listing) == ["cs-mzi", "rb-mzi", "rb-swi",
                                   "rb-swi-echo"]
        assert listing["rb-mzi"]["mode"] == "mzi"
        assert listing["rb-swi-echo"]["spec"]["protocol"]["echo"] is True


class TestBound:
    def test_rb_mzi_capped(self, capsys):
        code, out, _ = run_capture(
            capsys, ["bound", "--scenario", "rb-mzi", "--fp-cap-one"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_bound_hz"] == pytest.approx(
            1.103284328489337e-10, rel=1e-9)
        assert payload["rc_m"] == 1e-6
        assert payload["mode"] == "mzi"

    def test_rb_mzi_closed_form_fp(self, capsys):
        code, out, _ = run_capture(capsys, ["bound", "--scenario", "rb-mzi"])
        assert code == 0
        # closed-form f_P = 0.9901 on the plateau lifts the bound by ~1%
        assert json.loads(out)["lambda_bound_hz"] == pytest.approx(
            1.103284328489337e-10 / 0.9900990098833777, rel=1e-9)

    def test_requires_source(self, capsys):
        code, _, err = run_capture(capsys, ["bound", "--rc-m", "1e-6"])
        assert code == 2
        assert "scenario" in err or "spec" in err

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            cli.run(["bound", "--scenario", "does-not-exist"])


class TestVariance:
    def test_point_evaluation(self, capsys):
        code, out, _ = run_capture(capsys, [
            "variance", "--scenario", "rb-mzi",
            "--lambda-hz", "1e-10", "--rc-m", "1e-6"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"sigma_phi_sq", "xi_t_sq", "visibility",
                                "valid"}
        assert payload["valid"] is True
        assert 0.0 < payload["visibility"] <= 1.0
        # xi0^2 plus the dephasing broadening, in xi^2 units
        assert payload["xi_t_sq"] > 0.9 ** 2

    def test_missing_point_is_config_error(self, capsys):
        code, _, err = run_capture(
            capsys, ["variance", "--scenario", "rb-mzi"])
        assert code == 2
        assert "lambda-hz" in err


class TestCurve:
    def test_echo_curve_minimum(self, capsys):
        code, out, _ = run_capture(capsys, [
            "curve", "--scenario", "rb-swi-echo", "--rc", "1e-8:1e-5:200"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["rc_m", "lambda_bound_hz"]
        assert len(rows) == 200
        bounds = [float(b) for _, b in rows]
        assert min(bounds) == pytest.approx(0.943e-16, rel=0.02)

    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run_capture(capsys, [
                "curve", "--scenario", "rb-mzi", "--rc", "1e-9:1e-3:50",
                "--out", str(f)])
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert b"\r" not in f1.read_bytes()

    def test_round_trip_9_digits(self, capsys):
        code, out, _ = run_capture(capsys, [
            "curve", "--scenario", "rb-mzi", "--rc", "1e-8:1e-5:20"])
        assert code == 0
        _, rows = parse_csv(out)
        for rc_text, bound_text in rows:
            rc = float(rc_text)
            # re-rendering reproduces the text: no precision lost in CSV
            assert f"{rc:.9g}" == rc_text
            assert f"{float(bound_text):.9g}" == bound_text

    def test_bad_grid_strings(self, capsys):
        for grid in ("1e-6", "abc:def:5", "1e-5:1e-6:10", "0:1e-5:10"):
            code, _, err = run_capture(capsys, [
                "curve", "--scenario", "rb-mzi", "--rc", grid])
            assert code == 2, grid
            assert "grid" in err


class TestGeometry:
    def test_closed_and_quadrature_columns(self, capsys):
        code, out, _ = run_capture(capsys, [
            "geometry", "--scenario", "rb-swi-echo", "--rc", "1e-8:1e-6:5"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["rc_m", "f_p", "f_s", "f_p_quadrature",
                          "f_s_quadrature"]
        for _, f_p, f_s, qp, qs in rows:
            assert float(qp) == pytest.approx(float(f_p), rel=1e-6)
            assert float(qs) == pytest.approx(float(f_s), rel=1e-6)


class TestTable1:
    def test_stdout_and_csv(self, capsys, tmp_path):
        path = tmp_path / "table1.csv"
        code, out, _ = run_capture(capsys, ["table1", "--csv", str(path)])
        assert code == 0
        assert out.splitlines()[0].startswith("scenario")
        header, rows = parse_csv(path.read_text())
        assert header == ["scenario", "N", "xi0", "t_s", "lambda_min_hz",
                          "k", "k_1_5"]
        got = {name: (int(k), int(k15))
               for name, _, _, _, _, k, k15 in rows}
        paper = {"rb-mzi": (2086, 3775), "rb-swi": (3381, 6423),
                 "cs-mzi": (1033, 1692), "rb-swi-echo": (3065, 5771)}
        for name, (k, k15) in paper.items():
            assert got[name][0] == pytest.approx(k, rel=0.03)
            assert got[name][1] == pytest.approx(k15, rel=0.03)


class TestRepetitions:
    def test_cs_mzi(self, capsys):
        code, out, _ = run_capture(capsys, [
            "repetitions", "--scenario", "cs-mzi", "--fp-cap-one"])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == pytest.approx(1033, rel=0.03)
        assert payload["k_1_5"] == pytest.approx(1692, rel=0.03)
        assert payload["lambda_min_hz"] == 1e-16


class TestSimulate:
    def test_oracle_agrees(self, capsys):
        code, out, _ = run_capture(capsys, [
            "simulate", "--scenario", "rb-mzi",
            "--lambda-hz", "1e-10", "--rc-m", "1e-6",
            "--n-traj", "2000", "--n-steps", "1000", "--seed", "7"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["z_score"]) < 4.0
        assert payload["mc_stderr"] > 0.0
        assert 0.0 <= payload["max_step_phase_rad"] <= 1e-3

    def test_seed_changes_output(self, capsys):
        outs = []
        for seed in ("3", "3", "4"):
            code, out, _ = run_capture(capsys, [
                "simulate", "--scenario", "rb-mzi",
                "--lambda-hz", "1e-10", "--rc-m", "1e-6",
                "--n-traj", "1000", "--n-steps", "1000", "--seed", seed])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]


class TestCalibrate:
    def test_report_fields(self, capsys):
        code, out, _ = run_capture(capsys, [
            "calibrate", "--scenario", "rb-mzi", "--fp-cap-one",
            "--k", "300", "--n-meta", "200", "--seed", "11"])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 300
        assert payload["n_meta"] == 200
        assert payload["lambda_hat_spread_hz"] > 0.0
        assert payload["cr_floor_hz"] > 0.0


class TestSpecFiles:
    def write_spec(self, tmp_path, mutate=None):
        d = spec_to_dict(SCENARIOS["rb-mzi"].spec)
        if mutate:
            mutate(d)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        return path

    def test_spec_file_bound(self, capsys, tmp_path):
        path = self.write_spec(tmp_path)
        code, out, _ = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6", "--fp-cap-one"])
        assert code == 0
        assert json.loads(out)["lambda_bound_hz"] == pytest.approx(
            1.103284328489337e-10, rel=1e-9)

    def test_unequal_mzi_widths(self, capsys, tmp_path):
        def mutate(d):
            d["geometry"]["w_y_m"] = 3.0 * d["geometry"]["w_x_m"]

        path = self.write_spec(tmp_path, mutate)
        code, out, _ = run_capture(capsys, [
            "geometry", "--spec", str(path), "--rc", "1e-9:1e-3:20"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20
        for _, f_p, f_s, qp, qs in rows:
            assert float(qp) == pytest.approx(float(f_p), rel=1e-6)
            assert float(f_s) == float(qs) == 0.0
        for command in (["bound"],
                        ["variance", "--lambda-hz", "1e-10"]):
            code, out, _ = run_capture(capsys, [
                *command, "--spec", str(path), "--rc-m", "1e-6"])
            assert code == 0, command
            assert all(math.isfinite(v) for v in json.loads(out).values()
                       if isinstance(v, float))

    def test_misspelled_key_is_config_error(self, capsys, tmp_path):
        def mutate(d):
            d["protocol"]["time"] = d["protocol"].pop("t_s")

        path = self.write_spec(tmp_path, mutate)
        code, _, err = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6"])
        assert code == 2
        assert "error" in err

    def test_invalid_physics_is_config_error(self, capsys, tmp_path):
        def mutate(d):
            d["protocol"]["t_s"] = -1.0

        path = self.write_spec(tmp_path, mutate)
        code, _, err = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6"])
        assert code == 2
        assert "positive" in err


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_csv([], ["a", "b"], str(path))
        assert path.read_text() == "a,b\n"

    def test_nan_rendering(self, tmp_path):
        path = tmp_path / "nan.csv"
        cli.emit_csv([(1.0, math.nan)], ["x", "y"], str(path))
        assert path.read_text().splitlines()[1] == "1,nan"


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError("requested accuracy not reached")

        monkeypatch.setattr(cli.geometry, "f_quadrature", boom)
        code, _, err = run_capture(capsys, [
            "geometry", "--scenario", "rb-mzi", "--rc", "1e-8:1e-6:3"])
        assert code == 3
        assert "numerical failure" in err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            cli.run(["bound", "--scenario", "rb-mzi", "--frobnicate"])

    @pytest.mark.parametrize("mode", ["swi_plain", "swi_echo"])
    def test_swi_mode_on_mzi_geometry_is_config_error(self, capsys, mode):
        code, out, err = run_capture(
            capsys, ["bound", "--scenario", "rb-mzi", "--mode", mode])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "SWI geometry" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--lambda-hz", "nan"),
                                             ("--lambda-hz", "inf"),
                                             ("--lambda-hz", "-1e-3"),
                                             ("--rc-m", "nan")])
    def test_bad_csl_point_is_config_error(self, capsys, flag, value):
        point = {"--lambda-hz": "1e-10", "--rc-m": "1e-6", flag: value}
        code, out, err = run_capture(
            capsys, ["variance", "--scenario", "rb-swi"]
            + [f"{k}={v}" for k, v in point.items()])
        assert code == 2
        assert out == ""
        field = "lam" if flag == "--lambda-hz" else "rc"
        assert err.startswith(f"error: {field} must be finite")


    @pytest.mark.parametrize("command, seed", [
        (command, seed) for command in ("simulate", "calibrate")
        for seed in ("-1", "18446744073709551616")])
    def test_out_of_range_seed_is_config_error(self, capsys, command, seed):
        args = {
            "simulate": ["--lambda-hz", "1e-10", "--rc-m", "1e-6",
                         "--n-traj", "1000", "--n-steps", "1000"],
            "calibrate": ["--fp-cap-one", "--k", "300", "--n-meta", "200"],
        }[command]
        code, out, err = run_capture(
            capsys,
            [command, "--scenario", "rb-mzi", *args, f"--seed={seed}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed")

    @pytest.mark.parametrize("argv", [
        ["bound", "--scenario", "rb-swi", "--rc-m=nan"],
        ["bound", "--scenario", "rb-mzi", "--rc-m=-inf"],
        ["repetitions", "--scenario", "rb-swi", "--rc-m=inf"],
        ["calibrate", "--scenario", "rb-swi-echo", "--rc-m=nan"],
    ])
    def test_nonfinite_rc_is_config_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: rc must be finite and > 0")

    @pytest.mark.parametrize("command, grid", [("curve", "1e-9:inf:4"),
                                               ("curve", "nan:1e-3:4"),
                                               ("geometry", "1e-9:inf:4")])
    def test_nonfinite_grid_is_config_error(self, capsys, command, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(
                capsys, [command, "--scenario", "rb-mzi", "--rc", grid])
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid requires finite min < max")


class TestByteStability:
    # the CSV outputs the benchmark gates by sha256; recorded there once
    REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "bench", "reference.json")

    @pytest.mark.parametrize("command", [
        "curve --scenario rb-swi-echo --rc 1e-9:1e-3:200",
        "geometry --scenario rb-swi --rc 1e-9:1e-3:50",
        "geometry --scenario rb-mzi --rc 1e-9:1e-3:50",
    ])
    def test_csv_sha256_matches_reference(self, capsys, command):
        with open(self.REFERENCE, encoding="utf-8") as f:
            expected = json.load(f)["cli-session"][command]["sha256"]
        code, out, _ = run_capture(capsys, command.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


class TestColdStart:
    # every CLI call is a fresh process: scipy is a test-only dependency,
    # and concurrent.futures (with logging) is needed only by sde_sample
    @pytest.mark.parametrize("module", ["scipy", "concurrent.futures"])
    def test_import_does_not_load(self, module):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cslbec, cslbec.cli; "
             f"assert {module!r} not in sys.modules, "
             f"sorted(m for m in sys.modules if m.startswith({module!r}))"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
