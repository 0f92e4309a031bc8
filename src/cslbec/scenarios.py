"""Built-in scenario registry for one-command reproduction.

Four proposal scenarios (two Mach-Zehnder, two single-well) with their
working localization length, target rate lambda_min and inference mode.
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
    mode: str          # inference mode: mzi | swi_plain | swi_echo
    rc: float          # working localization length, m
    lambda_min: float  # Hz


def _mzi_scenarios():
    geometry = MziGeometry(delta_x=10e-6, w_x=100e-9)
    rb = ExperimentSpec(
        species=RUBIDIUM_87,
        geometry=geometry,
        state=InitialState(n_atoms=300_000, xi0=0.9),
        protocol=Protocol(t=0.8),
        xi_t=1.1,
    )
    cs = ExperimentSpec(
        species=CESIUM_133,
        geometry=geometry,
        state=InitialState(n_atoms=1_000_000_000, xi0=0.3),
        protocol=Protocol(t=20.0),
        xi_t=1.3 * 0.3,
    )
    # rc on the f_P plateau (w_x << rc << delta_x)
    return (Scenario(rb, "mzi", 1e-6, 1e-10),
            Scenario(cs, "mzi", 1e-6, 1e-16))


def _swi_scenarios():
    x0_plain = 0.5e-6
    plain = ExperimentSpec(
        species=RUBIDIUM_87,
        geometry=SwiGeometry(x0=x0_plain),
        state=InitialState(n_atoms=300_000, xi0=5.0),
        protocol=Protocol(t=0.5, zeta=6e-3),
        xi_t=200.0,
    )
    x0_echo = 100e-9
    echo = ExperimentSpec(
        species=RUBIDIUM_87,
        geometry=SwiGeometry(x0=x0_echo),
        state=InitialState(n_atoms=50_000, xi0=1.0),
        protocol=Protocol(t=0.2, zeta=4.0, echo=True),
        xi_t=1.15,
    )
    # diffusion factor peaks at rc = sqrt(2/3) x0 for w_y = x0/sqrt(6)
    opt = math.sqrt(2.0 / 3.0)
    return (Scenario(plain, "swi_plain", opt * x0_plain, 1e-10),
            Scenario(echo, "swi_echo", opt * x0_echo, 1e-16))


def _build_registry():
    rb_mzi, cs_mzi = _mzi_scenarios()
    rb_swi, rb_swi_echo = _swi_scenarios()
    return {
        "rb-mzi": rb_mzi,
        "rb-swi": rb_swi,
        "cs-mzi": cs_mzi,
        "rb-swi-echo": rb_swi_echo,
    }


SCENARIOS = _build_registry()
