import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import cslbec
from cslbec import cli, inference
from cslbec.core import spec_to_dict
from cslbec.geometry import QuadratureError, f_closed
from cslbec.scenarios import SCENARIOS


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """Environment for a fresh Python process that imports this cslbec."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def write_spec(tmp_path, mutate=None, scenario="rb-mzi"):
    """A scenario's spec, changed by ``mutate``, as a spec file."""
    d = spec_to_dict(SCENARIOS[scenario].spec)
    if mutate:
        mutate(d)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    return path


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
            1.103284328489337e-10, rel=1e-9, abs=0)
        assert payload["rc_m"] == 1e-6
        assert payload["mode"] == "mzi"

    def test_rb_mzi_closed_form_fp(self, capsys):
        code, out, _ = run_capture(capsys, ["bound", "--scenario", "rb-mzi"])
        assert code == 0
        # closed-form f_P = 0.9901 on the plateau lifts the bound by ~1%
        assert json.loads(out)["lambda_bound_hz"] == pytest.approx(
            1.103284328489337e-10 / 0.9900990098833777, rel=1e-9, abs=0)

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
        assert min(bounds) == pytest.approx(0.943e-16, rel=0.02, abs=0)

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

    def test_bound_past_float_range_is_nan(self):
        # rb-swi's slope is too small to divide by above about 2.4e153 m;
        # a fresh process, so that any numpy warning would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "cslbec.cli", "curve", "--scenario",
             "rb-swi", "--rc", "1e153:6e153:3"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, rows = parse_csv(proc.stdout)
        assert math.isfinite(float(rows[0][1]))
        assert [bound for _, bound in rows[1:]] == ["nan", "nan"]

    def test_swi_bound_at_tiny_rc(self):
        # rc^2 is subnormal from about 1.5e-154 m down: the single-well
        # factors lost their digits there, 1.2 % at 1e-155 m and all of
        # them at 1e-160 m; a fresh process, so numpy warnings reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "cslbec.cli", "curve", "--scenario",
             "rb-swi", "--rc", "1e-160:1e-150:3"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, rows = parse_csv(proc.stdout)
        assert rows[1] == ["1e-155", "2.52731565e+286"]
        assert math.isfinite(float(rows[0][1]))

    def test_bad_grid_strings(self, capsys):
        for grid in ("1e-6", "abc:def:5", "1e-5:1e-6:10", "0:1e-5:10"):
            code, _, err = run_capture(capsys, [
                "curve", "--scenario", "rb-mzi", "--rc", grid])
            assert code == 2, grid
            assert "grid" in err


@pytest.mark.parametrize("command", ["curve", "geometry"])
def test_linear_grid(capsys, command):
    code, out, _ = run_capture(capsys, [
        command, "--scenario", "rb-mzi", "--rc", "1e-7:1e-6:7", "--linear"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [row[0] for row in rows] == [
        f"{rc:.9g}" for rc in np.linspace(1e-7, 1e-6, 7)]


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

    def test_swi_tiny_rc_matches_quadrature(self, capsys):
        # f_p is about 3.7e-292 at 1e-152 m, where it read 0
        code, out, _ = run_capture(capsys, [
            "geometry", "--scenario", "rb-swi", "--rc", "1e-152:1e-144:5"])
        assert code == 0
        _, rows = parse_csv(out)
        for _, f_p, f_s, qp, qs in rows:
            assert float(f_p) == pytest.approx(float(qp), rel=1e-6, abs=0)
            assert float(f_s) == pytest.approx(float(qs), rel=1e-6, abs=0)

    def test_swi_huge_rc_is_silent(self):
        # f_p is about 2.3e-274 here: far below the closed form's
        # intermediate products, which must neither overflow nor warn
        proc = subprocess.run(
            [sys.executable, "-m", "cslbec.cli", "geometry", "--scenario",
             "rb-swi", "--rc", "1e62:1e63:2"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        _, rows = parse_csv(proc.stdout)
        for _, f_p, f_s, qp, qs in rows:
            assert float(f_p) == pytest.approx(float(qp), rel=1e-6, abs=0)
            assert float(f_s) == pytest.approx(float(qs), rel=1e-6, abs=0)


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

    def test_no_fp_cap_uses_closed_form_f_p(self, capsys, tmp_path):
        tables = {}
        for flags in ([], ["--no-fp-cap"]):
            path = tmp_path / "table1.csv"
            code, _, _ = run_capture(capsys,
                                     ["table1", "--csv", str(path), *flags])
            assert code == 0
            _, rows = parse_csv(path.read_text())
            tables[bool(flags)] = {row[0]: row for row in rows}
        capped, closed = tables[False], tables[True]
        for name, sc in SCENARIOS.items():
            if sc.mode != "mzi":
                assert closed[name] == capped[name]
                continue
            # k = ceil(2/delta^2 (1 + c)^2) with the slope 2 (m/u)^2 t f_P
            f_p = f_closed(sc.spec.geometry, sc.rc).f_p
            assert f_p == pytest.approx(0.9901, abs=1e-4)
            slope = 2.0 * sc.spec.species.mass_u ** 2 * sc.spec.protocol.t
            c = sc.spec.sigma_phi0_sq / (sc.lambda_min * slope * f_p)
            assert int(closed[name][5]) == math.ceil(200.0 * (1.0 + c) ** 2)
            assert int(closed[name][5]) > int(capped[name][5])


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
        # MZI: Gamma_S = 0, so the Euler scheme's variance is exact
        assert payload["euler_bias"] == 0.0

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

    def test_huge_k_from_tiny_target(self, capsys):
        # k is about 1e15 counts per meta-repetition
        code, out, err = run_capture(capsys, [
            "calibrate", "--scenario", "rb-mzi", "--lambda-min-hz", "1e-16",
            "--n-meta", "50"])
        assert code == 0, err
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["k"] > 10 ** 14
        assert payload["relative_spread"] == pytest.approx(0.1, rel=0.5)

    def test_k_just_under_2_53_runs(self, capsys, tmp_path):
        # here k_1_5, which calibrate never reads, passes 2**53 and k not
        path = write_spec(tmp_path, lambda d: d["protocol"].update(echo=False),
                          "rb-swi-echo")
        code, out, err = run_capture(capsys, [
            "calibrate", "--spec", str(path),
            "--rc-m", repr(SCENARIOS["rb-swi-echo"].rc),
            "--lambda-min-hz", "2.4660331623580223e-14", "--n-meta", "50"])
        assert code == 0, err
        assert json.loads(out)["k"] == 4503599627370494


class TestSpecFiles:
    def test_spec_file_bound(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        code, out, _ = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6", "--fp-cap-one"])
        assert code == 0
        assert json.loads(out)["lambda_bound_hz"] == pytest.approx(
            1.103284328489337e-10, rel=1e-9, abs=0)

    def test_unequal_mzi_widths(self, capsys, tmp_path):
        def mutate(d):
            d["geometry"]["w_y_m"] = 3.0 * d["geometry"]["w_x_m"]

        path = write_spec(tmp_path, mutate)
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

    @pytest.mark.parametrize("argv", [
        ["bound", "--scenario", "rb-swi"],
        # without the scenario's lambda_min the default is the bound: a
        # numerical failure, not a bad lambda_min
        ["repetitions", "--spec", "{spec}"],
    ])
    def test_bound_past_float_range_exits_3(self, capsys, tmp_path, argv):
        path = write_spec(tmp_path, scenario="rb-swi")
        argv = [str(path) if a == "{spec}" else a for a in argv]
        code, out, err = run_capture(capsys, [*argv, "--rc-m", "3e153"])
        assert (code, out) == (3, "")
        assert err.startswith(
            "numerical failure: lambda_bound overflows the float range")

    def test_zero_slope_exits_3(self, capsys, tmp_path):
        def mutate(d):
            d["protocol"]["zeta_rad_s"] = 0.0

        path = write_spec(tmp_path, mutate, scenario="rb-swi-echo")
        with pytest.warns(UserWarning, match="^echo protocol with zeta = 0"):
            code, out, err = run_capture(capsys, [
                "bound", "--spec", str(path), "--rc-m", "8e-8"])
        assert (code, out) == (3, "")
        assert err == ("numerical failure: variance has no collapse-rate "
                       "sensitivity (alpha_csl^2 = 0)\n")

    @pytest.mark.parametrize("argv,message", [
        (["bound"], "bound requires --rc-m (or a scenario)"),
        (["repetitions"], "repetitions requires --rc-m (or a scenario)"),
        (["calibrate", "--rc-m", "1e-6"],
         "calibrate requires --lambda-min-hz (or a scenario)"),
    ], ids=["bound", "repetitions", "calibrate"])
    def test_spec_file_without_a_working_value_is_config_error(
            self, capsys, tmp_path, argv, message):
        # a scenario supplies rc and lambda_min; a spec file supplies neither
        path = write_spec(tmp_path)
        code, out, err = run_capture(capsys, [*argv, "--spec", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_misspelled_key_is_config_error(self, capsys, tmp_path):
        def mutate(d):
            d["protocol"]["time"] = d["protocol"].pop("t_s")

        path = write_spec(tmp_path, mutate)
        code, _, err = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6"])
        assert code == 2
        assert "error" in err

    def test_missing_spec_file_is_config_error(self, capsys, tmp_path):
        code, out, err = run_capture(capsys, [
            "bound", "--spec", str(tmp_path / "absent.json"), "--rc-m", "1e-6"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "absent.json" in err

    def test_sigma_n0_overflow_is_named(self, capsys, tmp_path):
        def mutate(d):
            d["state"]["sigma_n0"] = 1e200

        path = write_spec(tmp_path, mutate)
        code, out, err = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6"])
        assert code == 3
        assert out == ""
        assert err.startswith(
            "numerical failure: state.sigma_n0 squared overflows")

    def test_overflowing_default_sigma_n0_names_xi0(self, capsys, tmp_path):
        def mutate(d):
            del d["state"]["sigma_n0"]
            d["state"]["xi0"] = 1e-310
            d["observation"]["xi_t"] = 1.0

        path = write_spec(tmp_path, mutate)
        code, out, err = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: state.xi0 = 1e-310 is too small")
        assert "sigma_n0 must be finite" not in err

    def test_wide_observed_phase_is_config_error(self, capsys, tmp_path):
        # xi_t = 2 sqrt(N) is sigma_phi = 2 rad, past the pi/3 of the
        # narrow-phase model
        def mutate(d):
            d["observation"]["xi_t"] = 2.0 * math.sqrt(d["state"]["n_atoms"])

        path = write_spec(tmp_path, mutate, scenario="rb-swi")
        code, out, err = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-7"])
        assert (code, out) == (2, "")
        assert err.startswith("error: xi_t^2/N exceeds pi^2/9")

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_spec_file_derives_the_scenario_mode(self, capsys, tmp_path,
                                                 scenario):
        path = write_spec(tmp_path, scenario=scenario)
        code, from_file, _ = run_capture(capsys, [
            "bound", "--spec", str(path),
            "--rc-m", repr(SCENARIOS[scenario].rc)])
        assert code == 0
        code, from_name, _ = run_capture(capsys, [
            "bound", "--scenario", scenario])
        assert code == 0
        assert from_file == from_name

    # the bound assumes the protocol that produced xi_t: an MZI echo used
    # to be dropped, which read sigma_conv^2 = 23.7 rad^2 and exited 2
    @pytest.mark.parametrize("scenario, protocol, mode, bound", [
        ("rb-mzi", {"zeta_rad_s": 0.01, "echo": True}, "mzi",
         1.1143171717940525e-10),
        ("rb-swi", {"echo": True}, "swi_echo", 1.5400538130523437e-09),
    ], ids=["mzi-echo", "swi-echo"])
    def test_spec_echo_sets_the_protocol(self, capsys, tmp_path, scenario,
                                         protocol, mode, bound):
        path = write_spec(tmp_path, lambda d: d["protocol"].update(protocol),
                          scenario)
        code, out, err = run_capture(capsys, [
            "bound", "--spec", str(path),
            "--rc-m", repr(SCENARIOS[scenario].rc)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["mode"], payload["lambda_bound_hz"]) == (mode, bound)

    def test_invalid_physics_is_config_error(self, capsys, tmp_path):
        def mutate(d):
            d["protocol"]["t_s"] = -1.0

        path = write_spec(tmp_path, mutate)
        code, _, err = run_capture(capsys, [
            "bound", "--spec", str(path), "--rc-m", "1e-6"])
        assert code == 2
        assert "positive" in err

    # no output reads either field, so a spec may not set it
    @pytest.mark.parametrize("scenario", ["rb-mzi", "rb-swi-echo"])
    @pytest.mark.parametrize("key, value, name", [
        ("phase_mean_rad", 1.5707, "protocol.phase_mean"),
        ("epsilon_over_hbar_rad_s", 1e4, "protocol.epsilon_over_hbar")])
    def test_unmodelled_protocol_field_is_config_error(
            self, capsys, tmp_path, scenario, key, value, name):
        path = write_spec(
            tmp_path, lambda d: d["protocol"].update({key: value}), scenario)
        for command, *point in (("bound",), ("repetitions",),
                                ("variance", "--lambda-hz", "1e-10")):
            code, out, err = run_capture(capsys, [
                command, "--spec", str(path), "--rc-m", "1e-6", *point])
            assert (code, out) == (2, ""), command
            assert err.startswith(f"error: {name} must be"), command


class TestEmitCsv:
    def test_empty_rows_header_only(self):
        assert cli.render(([], ["a", "b"])) == "a,b\n"

    def test_nan_rendering(self):
        assert cli.render(([(1.0, math.nan)], ["x", "y"])) == "x,y\n1,nan\n"


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError("requested accuracy not reached")

        monkeypatch.setattr(cli.geometry, "f_quadrature", boom)
        code, _, err = run_capture(capsys, [
            "geometry", "--scenario", "rb-mzi", "--rc", "1e-8:1e-6:3"])
        assert code == 3
        assert "numerical failure" in err

    def test_every_package_error_has_an_exit_code(self):
        # run maps ValueError to exit 2 and ArithmeticError to exit 3, so
        # no exception class the package defines may fall outside both
        errors = [
            obj for info in pkgutil.iter_modules(cslbec.__path__)
            for obj in vars(importlib.import_module(
                f"cslbec.{info.name}")).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__.startswith("cslbec.")]
        assert len(errors) >= 4
        for error in errors:
            assert issubclass(error, (ValueError, ArithmeticError)), error

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            cli.run(["bound", "--scenario", "rb-mzi", "--frobnicate"])

    # each used to run, as --lambda-min-hz, --lambda-hz and
    # --scenario with --fp-cap-one, and exit 0
    @pytest.mark.parametrize("argv", [
        ["repetitions", "--scenario", "rb-mzi", "--lambda", "1e-10"],
        ["variance", "--scenario", "rb-mzi", "--lambda", "1e-10"],
        ["bound", "--scen", "rb-mzi", "--fp"],
    ], ids=["repetitions", "variance", "bound"])
    def test_flag_prefix_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments: " in err

    # the spec's geometry and echo set the mode: a --mode could only
    # restate the spec or contradict it
    @pytest.mark.parametrize("command", ["bound", "curve", "repetitions",
                                         "calibrate"])
    def test_mode_flag_is_refused(self, capsys, command):
        grid = ["--rc", "1e-8:1e-6:3"] if command == "curve" else []
        with pytest.raises(SystemExit) as exc:
            cli.run([command, "--scenario", "rb-swi", "--mode", "swi_plain",
                     *grid])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments: --mode swi_plain" in err

    # table1 used to print its whole table before failing on --csv
    @pytest.mark.parametrize("argv", [["table1", "--csv"],
                                      ["scenarios", "--out"]],
                             ids=["table1", "scenarios"])
    def test_unwritable_file_leaves_stdout_empty(self, capsys, tmp_path,
                                                 argv):
        path = tmp_path / "absent" / "x"
        code, out, err = run_capture(capsys, [*argv, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not path.parent.exists()

    # an empty --csv path used to be taken as no --csv: exit 0, no file
    @pytest.mark.parametrize("argv", [["table1", "--csv", ""],
                                      ["bound", "--scenario", "rb-mzi",
                                       "--out", ""]],
                             ids=["table1-csv", "bound-out"])
    def test_empty_output_path_is_config_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    # one failing argv per command that takes --out; the rendered output
    # is complete before any file is opened
    @pytest.mark.parametrize("argv, exit_code", [
        (["geometry", "--scenario", "rb-mzi", "--rc", "1e-9:inf:4"], 2),
        (["variance", "--scenario", "rb-mzi", "--lambda-hz", "1e308",
          "--rc-m", "1e-6"], 3),
        (["bound", "--scenario", "rb-swi", "--rc-m=-1e-6"], 2),
        (["curve", "--scenario", "rb-mzi", "--rc", "0:1e-5:10"], 2),
        (["repetitions", "--scenario", "rb-mzi",
          "--lambda-min-hz", "1e-320"], 3),
        (["simulate", "--scenario", "rb-mzi", "--lambda-hz", "1e-10",
          "--rc-m", "1e-6", "--seed=-1"], 2),
        (["calibrate", "--scenario", "rb-mzi", "--k", "300",
          "--n-meta", "1"], 2),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_failure_creates_no_out_file(self, capsys, tmp_path, argv,
                                         exit_code):
        path = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_capture(capsys, [*argv, "--out", str(path)])
        assert (code, out) == (exit_code, "")
        assert not path.exists()

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

    @pytest.mark.parametrize("argv, name", [
        (["calibrate", "--scenario", "rb-mzi", "--k", "300",
          "--n-meta", n_meta], "n_meta") for n_meta in ("1", "0")] + [
        (["repetitions", "--scenario", "rb-mzi", "--delta=nan"], "delta"),
        (["repetitions", "--scenario", "rb-mzi", "--lambda-min-hz=nan"],
         "lambda_min"),
        (["table1", "--delta=nan"], "delta"),
        (["calibrate", "--scenario", "rb-mzi", "--k", "1" + "0" * 400,
          "--n-meta", "50"], "k"),
        (["calibrate", "--scenario", "rb-mzi", "--lambda-min-hz", "0",
          "--k", "300", "--n-meta", "50"], "lambda_min"),
        (["calibrate", "--scenario", "rb-mzi", "--fp-cap-one",
          "--k", "1" + "0" * 39, "--n-meta", "50"], "k"),
    ])
    def test_bad_inference_argument_is_named(self, capsys, argv, name):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} must be")

    # JSON has no NaN or Infinity: such a result is a numerical failure.
    # At 1e300 Hz rb-swi's sigma_phi^2 = 1.787e308 is still finite, and
    # N sigma_phi^2 is not; at 1e305 Hz the rates themselves overflow.
    @pytest.mark.parametrize("scenario, lam, key, value", [
        pytest.param("rb-mzi", "1e308", "sigma_phi_sq", "nan",
                     id="rb-mzi-1e308-nan"),
        pytest.param("rb-swi", "1e300", "xi_t_sq", "inf",
                     id="rb-swi-1e300-inf"),
        pytest.param("rb-swi", "1e305", "sigma_phi_sq", "inf",
                     id="rb-swi-1e305-inf"),
    ])
    def test_nonfinite_result_exits_3(self, capsys, scenario, lam, key,
                                      value):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = run_capture(capsys, [
                "variance", "--scenario", scenario, "--lambda-hz", lam,
                "--rc-m", "1e-6"])
        assert code == 3
        assert out == ""
        assert err.startswith(
            f"numerical failure: {key} is {value}, not a finite number")

    # 1e15 float64 points: numpy refuses the 7 PiB at once, allocating nothing
    @pytest.mark.parametrize("argv", [
        ["curve", "--scenario", "rb-mzi",
         "--rc", "1e-9:1e-3:1000000000000000"],
        ["geometry", "--scenario", "rb-mzi",
         "--rc", "1e-9:1e-3:1000000000000000"],
        ["calibrate", "--scenario", "rb-mzi", "--k", "300",
         "--n-meta", "1000000000000000"],
    ])
    def test_oversized_request_exits_3(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: Unable to allocate")

    def test_infinite_repetition_count_is_named(self, capsys):
        code, out, err = run_capture(capsys, [
            "repetitions", "--scenario", "rb-mzi", "--lambda-min-hz", "1e-320"])
        assert code == 3
        assert out == ""
        assert err.startswith(
            "numerical failure: repetition count k overflows")

    @pytest.mark.parametrize("command", ["repetitions", "calibrate"])
    def test_inexact_repetition_count_is_named(self, capsys, tmp_path,
                                               command):
        # k is about 2.7e26 here: past 2**53 its low digits were noise
        path = write_spec(tmp_path, lambda d: d["protocol"].update(echo=False),
                          "rb-swi-echo")
        code, out, err = run_capture(capsys, [
            command, "--spec", str(path),
            "--rc-m", repr(SCENARIOS["rb-swi-echo"].rc),
            "--lambda-min-hz", "1e-19"])
        assert code == 3
        assert out == ""
        assert err.startswith(
            "numerical failure: repetition count k overflows 2**53")

    @pytest.mark.parametrize("argv", [
        ["repetitions", "--scenario", "rb-mzi", "--lambda-min-hz", "1e200"],
        ["calibrate", "--scenario", "rb-mzi", "--lambda-min-hz", "1e300",
         "--k", "300", "--n-meta", "50"],
    ])
    def test_overflowing_fisher_information_is_named(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith(
            "numerical failure: sigma_conv^2 / alpha_csl^2 + lambda squared "
            "overflows")

    def test_fisher_information_below_the_normal_range(self, capsys):
        # 2 x^2 overflowed at x = 1e154, and fisher_info printed as 0.0
        code, out, _ = run_capture(capsys, [
            "repetitions", "--scenario", "rb-mzi", "--lambda-min-hz", "1e154"])
        assert code == 0
        sc = SCENARIOS["rb-mzi"]
        split = inference.variance_split(sc.spec, sc.rc, sc.mode)
        x = split.sigma_conv_sq / split.alpha_csl_sq + 1e154
        fisher = json.loads(out)["fisher_info"]
        assert fisher > 0.0
        assert fisher == float(1 / (2 * Fraction(x) ** 2))

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
        "curve --spec {spec:rb-swi-echo} --rc 1e-8:1e-5:100",
    ])
    def test_csv_sha256_matches_reference(self, capsys, tmp_path, command):
        with open(self.REFERENCE, encoding="utf-8") as f:
            expected = json.load(f)["cli-session"][command]["sha256"]
        argv = command.split()
        for i, arg in enumerate(argv):
            # a braced spec placeholder names the scenario written there
            if arg.startswith("{spec:"):
                path = tmp_path / "spec.json"
                path.write_text(json.dumps(spec_to_dict(
                    SCENARIOS[arg[len("{spec:"):-1]].spec)), encoding="utf-8")
                argv[i] = str(path)
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected

    def test_table1_sha256_matches_reference(self, capsys, tmp_path):
        with open(self.REFERENCE, encoding="utf-8") as f:
            expected = json.load(f)["cli-session"]["table1 --csv {table1.csv}"]
        path = tmp_path / "table1.csv"
        code, out, _ = run_capture(capsys, ["table1", "--csv", str(path)])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
            == expected["stdout_sha256"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == expected["csv_sha256"]


class TestColdStart:
    # every CLI call is a fresh process: scipy is a test-only dependency,
    # and concurrent.futures (with logging) is needed only by sde_sample
    @pytest.mark.parametrize("module", ["scipy", "concurrent.futures"])
    def test_import_does_not_load(self, module):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cslbec, cslbec.cli; "
             f"assert {module!r} not in sys.modules, "
             f"sorted(m for m in sys.modules if m.startswith({module!r}))"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class ReadRecorder:
    """A parsed namespace that records the attributes read from it."""

    def __init__(self, namespace):
        self.__dict__.update(namespace=namespace, read=set())

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.namespace, name)


def subcommands():
    parser = cli._build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def dests(subparser):
    return {a.dest for a in subparser._actions
            if not isinstance(a, argparse._HelpAction)}


# the smallest argv each subcommand accepts, with sizes kept small
MINIMAL_ARGV = {
    "geometry": ["--scenario", "rb-mzi", "--rc", "1e-8:1e-6:3"],
    "variance": ["--scenario", "rb-mzi", "--lambda-hz", "1e-10",
                 "--rc-m", "1e-6"],
    "bound": ["--scenario", "rb-mzi"],
    "curve": ["--scenario", "rb-mzi", "--rc", "1e-8:1e-6:3"],
    "repetitions": ["--scenario", "rb-mzi"],
    "table1": [],
    "simulate": ["--scenario", "rb-mzi", "--lambda-hz", "1e-10",
                 "--rc-m", "1e-6", "--n-traj", "1000", "--n-steps", "1000"],
    "calibrate": ["--scenario", "rb-mzi", "--n-meta", "50"],
    "scenarios": [],
}


class TestOptionsAreRead:
    def test_option_count(self):
        subs = subcommands()
        assert sorted(subs) == sorted(MINIMAL_ARGV)
        assert sum(len(dests(p)) for p in subs.values()) == 50

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_handler_reads_every_option(self, capsys, tmp_path, command):
        argv = MINIMAL_ARGV[command]
        if command == "table1":
            argv = ["--csv", str(tmp_path / "table1.csv")]
        args = ReadRecorder(cli._build_parser().parse_args([command, *argv]))
        cli._emit(args)
        assert dests(subcommands()[command]) - args.read == set()

    @pytest.mark.parametrize("command", ["bound", "repetitions", "calibrate"])
    def test_stray_lambda_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.run([command, "--scenario", "rb-mzi", "--lambda-hz", "5"])
        assert exc.value.code == 2
        assert "--lambda-hz" in capsys.readouterr().err

    def test_k_and_delta_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["calibrate", "--scenario", "rb-mzi", "--k", "300",
                     "--delta", "0.5"])
        assert exc.value.code == 2
        assert "not allowed" in capsys.readouterr().err

    def test_scenario_and_spec_are_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["bound", "--scenario", "rb-mzi",
                     "--spec", str(tmp_path / "spec.json")])
        assert exc.value.code == 2
        assert "not allowed" in capsys.readouterr().err


def emitted_names(command, capsys, tmp_path):
    """The JSON keys or CSV columns a MINIMAL_ARGV run of ``command``
    emits; for scenarios, the keys of each entry."""
    argv = [command, *MINIMAL_ARGV[command]]
    if command == "table1":
        argv += ["--csv", str(tmp_path / "table1.csv")]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    if command == "table1":
        header, _ = parse_csv((tmp_path / "table1.csv").read_text())
        assert out.split("\n")[0].split() == header
        return header
    if command in ("geometry", "curve"):
        return parse_csv(out)[0]
    result = json.loads(out)
    if command == "scenarios":
        return sorted({key for entry in result.values() for key in entry})
    return sorted(result)


def readme_options():
    """(subcommand, flag) pairs of the README's CLI options table."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "README.md")
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    start = lines.index("| flag | unit | default | range | subcommands |")
    pairs = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        flag = cells[1].strip().strip("`")
        pairs |= {(command, flag)
                  for command in re.findall(r"`([\w-]+)`", cells[-2])}
    return pairs


class TestHelp:
    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_every_option_has_help(self, command):
        for action in subcommands()[command]._actions:
            assert (action.help or "").strip(), action.option_strings

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_epilog_names_outputs_and_exit_codes(self, capsys, tmp_path,
                                                 command):
        epilog = subcommands()[command].epilog
        for name in emitted_names(command, capsys, tmp_path):
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])",
                             epilog), name
        assert re.search(r"exit codes: 0 \w[^;]*; 2 \w[^;]*; 3 \w", epilog)

    def test_help_formats(self, capsys):
        for command in MINIMAL_ARGV:
            with pytest.raises(SystemExit) as exc:
                cli.run([command, "--help"])
            assert exc.value.code == 0
            assert "exit codes: 0" in capsys.readouterr().out

    def test_readme_lists_every_option(self):
        parser_pairs = {(command, flag)
                        for command, p in subcommands().items()
                        for a in p._actions
                        if not isinstance(a, argparse._HelpAction)
                        for flag in a.option_strings}
        assert readme_options() == parser_pairs


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def run_quiet(argv):
    """Exit code, stdout and stderr of ``cslbec argv``, warnings ignored."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-320, 1e-160, 1e-9, 1e-6, 1e-3, 1e160, 1e300])
# sizes stay small and fixed; the float flags are drawn
FUZZED = {
    "variance": ([], ["--lambda-hz", "--rc-m"]),
    "bound": ([], ["--rc-m"]),
    "curve": (None, []),
    "geometry": (None, []),
    "repetitions": ([], ["--rc-m", "--delta", "--lambda-min-hz"]),
    "simulate": (["--n-traj", "1000", "--n-steps", "1000", "--seed", "1"],
                 ["--lambda-hz", "--rc-m"]),
    "calibrate": (["--k", "300", "--n-meta", "50", "--seed", "1"],
                  ["--rc-m", "--lambda-min-hz"]),
}
ARGV_FUZZ = settings(derandomize=True, deadline=None, max_examples=60,
                     phases=(Phase.explicit, Phase.generate))


@st.composite
def fuzzed_argv(draw, command):
    fixed, flags = FUZZED[command]
    argv = [command, "--scenario", draw(st.sampled_from(sorted(SCENARIOS)))]
    if fixed is None:
        # curve and geometry: the grid's two float bounds
        fixed = [f"--rc={draw(FLOATS)!r}:{draw(FLOATS)!r}:4"]
    for flag in flags:
        value = draw(st.none() | FLOATS)
        if value is not None:
            argv.append(f"{flag}={value!r}")
    return argv + fixed


class TestArgvFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZED))
    def test_exit_code_and_output(self, command):
        @ARGV_FUZZ
        @given(fuzzed_argv(command))
        def check(argv):
            code, out, err = run_quiet(argv)
            assert code in (0, 2, 3), (argv, err)
            assert "Traceback" not in err
            if code != 0:
                assert out == ""
            elif command == "geometry":
                assert "nan" not in out and "inf" not in out, argv
            elif command != "curve":
                json.loads(out, parse_constant=_reject_constant)

        check()
