"""Collapse-model exclusion bounds from two-mode BEC interferometry.

``import cslbec`` loads only the spec layer: the ``core`` types and
``SCENARIOS``, which need no numpy.  The numerical layers are imported
as modules, ``from cslbec.inference import lambda_bound`` or
``from cslbec import inference``; they bind numpy lazily, and numpy
loads on its first attribute access.
"""

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

__all__ = [
    "CslPoint", "ExperimentSpec", "InitialState", "MziGeometry",
    "NoiseModel", "Protocol", "Species", "SwiGeometry", "SCENARIOS",
]
