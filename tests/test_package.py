"""The package namespace: ``import cslbec`` loads only the numpy-free spec
layer, and each numerical name resolves on first access.

Every check but the last runs in a fresh interpreter, so that no import
made by an earlier test can hide one the package makes.
"""

import os
import subprocess
import sys
import textwrap

import cslbec
from cslbec import inference

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cslbec.__file__)))

# every name the package bound when it imported all its layers at once
EXPORTS = {
    "core": ("CslPoint", "ExperimentSpec", "InitialState", "MziGeometry",
             "NoiseModel", "Protocol", "Species", "SwiGeometry"),
    "scenarios": ("SCENARIOS",),
    "dynamics": ("PhaseMoments", "Rates", "phase_variance", "rates",
                 "visibility"),
    "geometry": ("GeometryFactors", "f_closed", "f_quadrature",
                 "optimal_rc"),
    "inference": ("ExclusionCurve", "RepetitionEstimate", "exclusion_curve",
                  "lambda_bound", "repetitions", "table1", "variance_split"),
}


def run_fresh(body: str) -> None:
    """Run ``body`` in a new interpreter that imports this cslbec."""
    path = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"EXPORTS = {EXPORTS!r}\n" + textwrap.dedent(body)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_spec_layer_loads_without_numpy(tmp_path):
    path = tmp_path / "spec.json"
    run_fresh(f"""
        import json, sys
        import cslbec
        from cslbec import core, scenarios
        spec = scenarios.SCENARIOS["rb-mzi"].spec
        with open({str(path)!r}, "w", encoding="utf-8") as f:
            json.dump(core.spec_to_dict(spec), f)
        assert core.load_spec({str(path)!r}) == spec
        assert core.validate(spec) == []
        assert cslbec.SCENARIOS is scenarios.SCENARIOS
        loaded = sorted(m for m in sys.modules
                        if m == "numpy" or m.startswith("cslbec."))
        assert loaded == ["cslbec.core", "cslbec.scenarios"], loaded
    """)


def test_every_export_is_its_module_attribute():
    run_fresh("""
        import importlib, sys
        import cslbec
        names = set()
        for module, exported in EXPORTS.items():
            mod = importlib.import_module(f"cslbec.{module}")
            assert getattr(cslbec, module) is mod, module
            for name in exported:
                assert getattr(cslbec, name) is getattr(mod, name), name
            names |= {module, *exported}
        assert set(cslbec.__all__) == names
        assert names <= set(dir(cslbec))
        assert not hasattr(cslbec, "no_such_name")
    """)


def test_star_import_binds_every_name():
    run_fresh("""
        import sys
        from cslbec import *
        for module, exported in EXPORTS.items():
            mod = sys.modules[f"cslbec.{module}"]
            assert globals()[module] is mod, module
            for name in exported:
                assert globals()[name] is getattr(mod, name), name
    """)


def test_name_follows_a_patch_of_its_module(monkeypatch):
    # the package caches nothing, so a patched and then restored module
    # attribute (as the benchmark's tracer leaves them) shows through
    original = inference.lambda_bound

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(inference, "lambda_bound", patched)
    assert cslbec.lambda_bound is patched
    monkeypatch.undo()
    assert cslbec.lambda_bound is original
