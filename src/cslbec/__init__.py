"""Collapse-model exclusion bounds from two-mode BEC interferometry.

``import cslbec`` loads only the spec layer: the ``core`` types and
``SCENARIOS``, which need no numpy.  The numerical names (``dynamics``,
``geometry``, ``inference`` and what they export here) resolve on first
access; they bind numpy lazily, and numpy loads on its first attribute
access.  Each access returns the submodule's current attribute, so a
name patched there is seen here too.
"""

from importlib import import_module as _import_module

from .core import (
    CslPoint,
    ExperimentSpec,
    InitialState,
    MziGeometry,
    NoiseModel,
    Protocol,
    Species,
    SwiGeometry,
)
from .scenarios import SCENARIOS

__version__ = "0.1.0"

_NUMERICAL = {
    "dynamics": ("PhaseMoments", "Rates", "phase_variance", "rates",
                 "visibility"),
    "geometry": ("GeometryFactors", "f_closed", "f_quadrature", "optimal_rc"),
    "inference": ("ExclusionCurve", "RepetitionEstimate", "exclusion_curve",
                  "lambda_bound", "repetitions", "table1", "variance_split"),
}
_OWNER = {name: module for module, names in _NUMERICAL.items()
          for name in names}

__all__ = [
    "CslPoint", "ExperimentSpec", "InitialState", "MziGeometry",
    "NoiseModel", "Protocol", "Species", "SwiGeometry", "SCENARIOS",
    "core", "scenarios", *_NUMERICAL, *_OWNER,
]


def __getattr__(name):
    if name in _NUMERICAL:
        return _import_module(f"{__name__}.{name}")
    if name in _OWNER:
        module = _import_module(f"{__name__}.{_OWNER[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
