"""The package namespace: ``import cslbec`` loads only the numpy-free spec
layer, and binds only its types and ``SCENARIOS``; the numerical names are
imported from their modules.  The CLI's scalar commands never load numpy;
its array commands do.

Every check runs in a fresh interpreter, so that no import made by an
earlier test can hide one the package makes.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest

import cslbec
from cslbec import cli, core
from cslbec.scenarios import SCENARIOS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cslbec.__file__)))
README = os.path.join(os.path.dirname(SRC), "README.md")

# the package's whole namespace: the spec layer's types and scenarios
EXPORTS = ("CslPoint", "ExperimentSpec", "InitialState", "MziGeometry",
           "NoiseModel", "Protocol", "Species", "SwiGeometry", "SCENARIOS")

# the numerical names, which only their own modules bind
LAYER_NAMES = {
    "dynamics": ("PhaseMoments", "Rates", "phase_variance", "rates",
                 "visibility"),
    "geometry": ("GeometryFactors", "f_closed", "f_quadrature",
                 "optimal_rc"),
    "inference": ("ExclusionCurve", "RepetitionEstimate", "exclusion_curve",
                  "lambda_bound", "repetitions", "table1", "variance_split"),
}


def fresh(body: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a new interpreter, started with ``flags``, that
    imports this cslbec."""
    path = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         f"EXPORTS = {EXPORTS!r}\nLAYER_NAMES = {LAYER_NAMES!r}\n"
         + textwrap.dedent(body)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_fresh(body: str) -> str:
    """Run ``body`` in a new interpreter that imports this cslbec; its
    stdout."""
    return fresh(body).stdout


def test_spec_layer_loads_without_numpy(tmp_path):
    path = tmp_path / "spec.json"
    run_fresh(f"""
        import dataclasses, json, sys
        import cslbec
        from cslbec import core, scenarios
        spec = scenarios.SCENARIOS["rb-mzi"].spec
        with open({str(path)!r}, "w", encoding="utf-8") as f:
            json.dump(core.spec_to_dict(spec), f)
        assert core.load_spec({str(path)!r}) == spec
        try:
            dataclasses.replace(spec, xi_t=0.5)
        except core.SpecError as exc:
            assert str(exc) == "xi_t < xi0: observed narrowing is unphysical"
        else:
            raise AssertionError("a spec with xi_t < xi0 was made")
        assert cslbec.SCENARIOS is scenarios.SCENARIOS
        loaded = sorted(m for m in sys.modules
                        if m == "numpy" or m.startswith("cslbec."))
        assert loaded == ["cslbec.core", "cslbec.scenarios"], loaded
    """)


def test_every_export_is_its_module_attribute():
    run_fresh("""
        import cslbec
        from cslbec import core, scenarios
        assert cslbec.__all__ == list(EXPORTS)
        for name in EXPORTS:
            owner = scenarios if name == "SCENARIOS" else core
            assert getattr(cslbec, name) is getattr(owner, name), name
        for module, names in LAYER_NAMES.items():
            assert not hasattr(cslbec, module), module
            for name in names:
                assert not hasattr(cslbec, name), name
        # importing a layer binds the module, and still none of its names
        from cslbec import dynamics, geometry, inference
        assert cslbec.inference is inference
        for module, names in LAYER_NAMES.items():
            for name in names:
                assert not hasattr(cslbec, name), name
                assert hasattr(getattr(cslbec, module), name), name
    """)


def test_star_import_binds_every_name():
    run_fresh("""
        import cslbec
        before = {*globals(), "before"}
        from cslbec import *
        assert set(globals()) - before == set(EXPORTS)
        for name in EXPORTS:
            assert globals()[name] is getattr(cslbec, name), name
    """)


def test_importtime_lists_every_layer():
    # a layer loaded through importlib.import_module printed no row, and
    # its cost showed as the importer's own
    err = fresh("import cslbec.cli", "-X", "importtime").stderr
    rows = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}
    layers = ("core", "scenarios", "geometry", "dynamics", "inference",
              "oracles", "cli")
    missing = [m for m in layers if f"cslbec.{m}" not in rows]
    assert not missing, missing


def test_readme_library_use_runs():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text[text.index("\n## Library use\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    values = [float(line) for line in run_fresh(block).split()]
    assert len(values) == 2 and all(map(math.isfinite, values)), values


def test_bool_rc_is_refused_without_numpy():
    run_fresh("""
        import sys
        from cslbec import SCENARIOS
        from cslbec.inference import lambda_bound
        try:
            lambda_bound(SCENARIOS["rb-mzi"].spec, True, "mzi")
        except ValueError as exc:
            assert str(exc) == "rc must be a real number, not a bool, got True"
        else:
            raise AssertionError("a bool rc gave a bound")
        assert "numpy._core" not in sys.modules
    """)


# numpy's lazy module object is in sys.modules from the first import of a
# numerical layer on; its submodule numpy._core loads with numpy itself
SCALAR_ARGV = [
    ["scenarios"],
    ["table1"],
    ["bound", "--scenario", "rb-swi"],
    ["repetitions", "--scenario", "rb-mzi", "--fp-cap-one"],
    ["variance", "--scenario", "rb-swi-echo", "--lambda-hz", "1e-12"],
    ["bound", "--spec", "{spec}", "--rc-m", "1e-6"],
    ["repetitions", "--spec", "{spec}", "--rc-m", "1e-6"],
    ["variance", "--spec", "{spec}", "--rc-m", "1e-6", "--lambda-hz",
     "1e-12"],
]
ARRAY_ARGV = {
    "curve": ["curve", "--scenario", "rb-swi", "--rc", "1e-8:1e-6:3"],
    "geometry": ["geometry", "--scenario", "rb-mzi", "--rc", "1e-8:1e-6:3"],
    "calibrate": ["calibrate", "--scenario", "rb-mzi", "--k", "200",
                  "--n-meta", "10"],
    "simulate": ["simulate", "--scenario", "rb-swi", "--lambda-hz", "1e-12",
                 "--n-traj", "1000", "--n-steps", "1000"],
}


def test_scalar_commands_load_no_numpy(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(core.spec_to_dict(SCENARIOS["rb-swi"].spec)),
                    encoding="utf-8")
    argvs = [[arg.format(spec=path) for arg in argv] for argv in SCALAR_ARGV]
    run_fresh(f"""
        import contextlib, io, sys
        from cslbec import cli
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv) == 0, argv
            assert "numpy._core" not in sys.modules, argv
    """)


@pytest.mark.parametrize("command", sorted(ARRAY_ARGV))
def test_array_commands_load_numpy(command):
    run_fresh(f"""
        import contextlib, io, sys
        from cslbec import cli
        assert "numpy._core" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run({ARRAY_ARGV[command]!r}) == 0
        assert "numpy._core" in sys.modules
    """)


def test_fresh_simulate_equals_in_process():
    # the fresh process first reads numpy in sde_sample, which runs two
    # blocks on a thread pool; a short switch interval lets a worker
    # preempt a half-loaded module
    argv = ["simulate", "--scenario", "rb-swi", "--lambda-hz", "1e-12",
            "--n-traj", "5000", "--n-steps", "1000", "--seed", "9"]
    fresh = run_fresh(f"""
        import sys
        from cslbec import cli
        assert "numpy._core" not in sys.modules
        sys.setswitchinterval(1e-6)
        assert cli.run({argv!r}) == 0
    """)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    assert fresh == out.getvalue()
    assert json.loads(fresh)["mc_variance"] > 0
