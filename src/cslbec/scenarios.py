"""Built-in scenario registry for one-command reproduction.

Four proposal scenarios (two Mach-Zehnder, two single-well), one row
each, with their working localization length and target rate lambda_min.
Each row's inference mode is its spec's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CESIUM_133,
    RUBIDIUM_87,
    ExperimentSpec,
    InitialState,
    MziGeometry,
    Protocol,
    SwiGeometry,
)

__all__ = ["Scenario", "SCENARIOS"]


@dataclass(frozen=True)
class Scenario:
    spec: ExperimentSpec
    rc: float          # working localization length, m
    lambda_min: float  # Hz

    @property
    def mode(self) -> str:
        return self.spec.mode


# Both Mach-Zehnder scenarios share one geometry.  For each single well
# (w_y = x0/sqrt(6)) the diffusion factor peaks at rc = sqrt(2/3) x0; each
# Mach-Zehnder rc sits on the f_P plateau (w_x << rc << delta_x).
_MZI_GEOMETRY = MziGeometry(delta_x=10e-6, w_x=100e-9)
_X0_PLAIN = 0.5e-6
_X0_ECHO = 100e-9

SCENARIOS = {
    "rb-mzi": Scenario(
        spec=ExperimentSpec(species=RUBIDIUM_87, geometry=_MZI_GEOMETRY,
                            state=InitialState(n_atoms=300_000, xi0=0.9),
                            protocol=Protocol(t=0.8), xi_t=1.1),
        rc=1e-6, lambda_min=1e-10),
    "rb-swi": Scenario(
        spec=ExperimentSpec(species=RUBIDIUM_87,
                            geometry=SwiGeometry(x0=_X0_PLAIN),
                            state=InitialState(n_atoms=300_000, xi0=5.0),
                            protocol=Protocol(t=0.5, zeta=6e-3), xi_t=200.0),
        rc=math.sqrt(2.0 / 3.0) * _X0_PLAIN, lambda_min=1e-10),
    "cs-mzi": Scenario(
        spec=ExperimentSpec(species=CESIUM_133, geometry=_MZI_GEOMETRY,
                            state=InitialState(n_atoms=1_000_000_000, xi0=0.3),
                            protocol=Protocol(t=20.0), xi_t=1.3 * 0.3),
        rc=1e-6, lambda_min=1e-16),
    "rb-swi-echo": Scenario(
        spec=ExperimentSpec(species=RUBIDIUM_87,
                            geometry=SwiGeometry(x0=_X0_ECHO),
                            state=InitialState(n_atoms=50_000, xi0=1.0),
                            protocol=Protocol(t=0.2, zeta=4.0, echo=True),
                            xi_t=1.15),
        rc=math.sqrt(2.0 / 3.0) * _X0_ECHO, lambda_min=1e-16),
}
