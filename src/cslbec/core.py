"""Shared domain types, physical constants and experiment-spec validation.

All other modules consume the value objects defined here.  Unit conventions:
angles in radians, times in seconds, lengths in meters, rates in Hz.  The
JSON schema consumed by the CLI carries unit-suffixed field names (``t_s``,
``rc_m``, ...) to prevent silent unit mistakes; unknown keys are rejected.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, fields, is_dataclass

__all__ = [
    "HBAR",
    "ATOMIC_MASS_KG",
    "RB87_MASS_U",
    "CS133_MASS_U",
    "CslPoint",
    "Species",
    "MziGeometry",
    "SwiGeometry",
    "InitialState",
    "Protocol",
    "NoiseModel",
    "ExperimentSpec",
    "SpecError",
    "validate",
    "ground_state_width",
    "spec_from_dict",
    "spec_to_dict",
    "load_spec",
]

# Single source for physical constants; no other module defines any.
HBAR = 1.054571817e-34          # J s
ATOMIC_MASS_KG = 1.66053906660e-27  # kg, unified atomic mass unit
RB87_MASS_U = 86.909180         # Rb-87 mass in u
CS133_MASS_U = 132.905452       # Cs-133 mass in u

# Narrow-phase Gaussian treatment requires sigma_phi(0) <= pi/3.
_MAX_XI0_SQ_OVER_N = math.pi ** 2 / 9.0


class SpecError(ValueError):
    """Raised for malformed experiment-spec input (bad JSON keys, types)."""


@dataclass(frozen=True)
class CslPoint:
    """A point (lambda, r_C) in the collapse-model parameter plane."""

    lam: float  # collapse rate, Hz, referenced to 1 u
    rc: float   # localization length, m

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not (math.isfinite(self.rc) and self.rc > 0):
            raise ValueError(f"rc must be finite and > 0, got {self.rc!r}")


@dataclass(frozen=True)
class Species:
    name: str
    mass_u: float  # atomic mass in u


RUBIDIUM_87 = Species("Rb-87", RB87_MASS_U)
CESIUM_133 = Species("Cs-133", CS133_MASS_U)


@dataclass(frozen=True)
class MziGeometry:
    """Two identical, displaced Gaussian modes with no spatial overlap."""

    delta_x: float        # mode separation, m
    w_x: float            # transverse mode width, m
    w_y: float = None     # second transverse width, m; defaults to w_x

    def __post_init__(self):
        if self.w_y is None:
            object.__setattr__(self, "w_y", self.w_x)


@dataclass(frozen=True)
class SwiGeometry:
    """Ground plus first excited harmonic mode in a single well."""

    x0: float             # harmonic ground-state width, m
    w_y: float = None     # transverse Gaussian width, m; defaults to x0/sqrt(6)

    def __post_init__(self):
        if self.w_y is None:
            object.__setattr__(self, "w_y", self.x0 / math.sqrt(6.0))


@dataclass(frozen=True)
class InitialState:
    n_atoms: int          # atom count N
    xi0: float            # phase-squeezing parameter
    sigma_n0: float = None  # number-difference spread; default sqrt(N)/xi0

    def __post_init__(self):
        if self.sigma_n0 is None and self.n_atoms > 0 and self.xi0 > 0:
            # minimum-uncertainty default: sigma_phi(0) * sigma_n(0) = 1
            object.__setattr__(
                self, "sigma_n0", math.sqrt(self.n_atoms) / self.xi0
            )


@dataclass(frozen=True)
class Protocol:
    t: float                       # interrogation time, s
    zeta: float = 0.0              # dispersion parameter, rad/s
    echo: bool = False             # sign-flip of zeta at t/2
    phase_mean: float = 0.0        # mean interferometric phase, rad
    epsilon_over_hbar: float = 0.0  # mode energy splitting, rad/s


@dataclass(frozen=True)
class NoiseModel:
    gamma: float = 0.0  # conventional decoherence rate, Hz


@dataclass(frozen=True)
class ExperimentSpec:
    species: Species
    geometry: object  # MziGeometry | SwiGeometry
    state: InitialState
    protocol: Protocol
    noise: NoiseModel = field(default_factory=NoiseModel)
    xi_t: float = None  # observed/assumed effective squeezing at time t

    @property
    def sigma_phi0_sq(self) -> float:
        return self.state.xi0 ** 2 / self.state.n_atoms


def _float_fields(obj, prefix: str = ""):
    """(dotted name, value) of every float field, nested dataclasses too."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _float_fields(value, f"{prefix}{f.name}.")
        elif isinstance(value, float):
            yield prefix + f.name, value


def validate(spec: ExperimentSpec) -> list:
    """Collect every violated invariant as a message; never raises.

    A NaN or infinite number gives one violation per field, and then the
    range checks are skipped: they mean nothing for such values.  Soft
    conditions (MZI separation regime, echo with zero dispersion) emit a
    ``UserWarning`` instead of a violation.  ``CslPoint`` checks its own
    fields on construction.
    """
    v = [f"{name} must be finite, got {value!r}"
         for name, value in _float_fields(spec)
         if not math.isfinite(value)]
    if v:
        return v

    if spec.species.mass_u <= 0:
        v.append("mass_u must be positive")

    g = spec.geometry
    if isinstance(g, MziGeometry):
        if g.delta_x <= 0 or g.w_x <= 0 or g.w_y <= 0:
            v.append("MZI lengths must be positive")
        elif g.delta_x < 10.0 * g.w_x:
            warnings.warn(
                "MZI geometry intended for delta_x >> w_x", stacklevel=2
            )
    elif isinstance(g, SwiGeometry):
        if g.x0 <= 0 or g.w_y <= 0:
            v.append("SWI lengths must be positive")
    else:
        v.append("geometry must be MziGeometry or SwiGeometry")

    s = spec.state
    if s.n_atoms < 2:
        v.append("n_atoms must be >= 2")
    if s.xi0 <= 0:
        v.append("xi0 must be positive")
    if s.sigma_n0 is not None and s.sigma_n0 < 0:
        v.append("sigma_n0 must be nonnegative")
    if s.n_atoms >= 2 and s.xi0 > 0:
        if s.xi0 ** 2 / s.n_atoms > _MAX_XI0_SQ_OVER_N:
            v.append("xi0^2/N exceeds pi^2/9: narrow-phase treatment invalid")

    p = spec.protocol
    if p.t <= 0:
        v.append("t must be positive")
    if p.echo and p.zeta == 0:
        warnings.warn("echo protocol with zeta = 0 has no effect", stacklevel=2)

    if spec.noise.gamma < 0:
        v.append("gamma must be nonnegative")

    if spec.xi_t is not None and spec.xi_t < s.xi0:
        v.append("xi_t < xi0: observed narrowing is unphysical")

    return v


def _check_seed(seed) -> None:
    """Reject a Monte Carlo seed outside the uint64 range of a Philox key."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise ValueError(
            f"seed must be an integer in [0, 2**64), got {seed!r}")


def ground_state_width(omega: float, species: Species, convention: str) -> float:
    """Harmonic ground-state width for trap angular frequency ``omega``.

    Two conventions are in circulation, differing by a factor two:
    ``"main"`` gives sqrt(2*hbar/(m*omega)), ``"appendix"`` gives
    sqrt(hbar/(2*m*omega)).  Callers must choose explicitly; nothing in this
    package calls it implicitly (x0 is the canonical geometry input).
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    m = species.mass_u * ATOMIC_MASS_KG
    if convention == "main":
        return math.sqrt(2.0 * HBAR / (m * omega))
    if convention == "appendix":
        return math.sqrt(HBAR / (2.0 * m * omega))
    raise ValueError(f"unknown convention {convention!r}")


# --- JSON schema ------------------------------------------------------------

def _check_keys(d: dict, allowed: set, context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise SpecError(f"unknown keys in {context}: {sorted(unknown)}")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise SpecError(f"missing key {key!r} in {context}")
    return d[key]


def _integral(value, name: str) -> int:
    """An integral JSON number (3 or 3.0); bools and 2.9 are SpecErrors."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{name} must be an integral number, got {value!r}")
    return value


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from the strict unit-suffixed JSON schema."""
    if not isinstance(d, dict):
        raise SpecError("experiment spec must be a JSON object")
    _check_keys(
        d,
        {"species", "geometry", "state", "protocol", "noise", "observation"},
        "spec",
    )

    sp = _require(d, "species", "spec")
    _check_keys(sp, {"name", "mass_u"}, "species")
    species = Species(_require(sp, "name", "species"),
                      float(_require(sp, "mass_u", "species")))

    ge = _require(d, "geometry", "spec")
    gtype = _require(ge, "type", "geometry")
    if gtype == "mzi":
        _check_keys(ge, {"type", "delta_x_m", "w_x_m", "w_y_m"}, "geometry")
        geometry = MziGeometry(
            float(_require(ge, "delta_x_m", "geometry")),
            float(_require(ge, "w_x_m", "geometry")),
            float(ge["w_y_m"]) if "w_y_m" in ge else None,
        )
    elif gtype == "swi":
        _check_keys(ge, {"type", "x0_m", "w_y_m"}, "geometry")
        geometry = SwiGeometry(
            float(_require(ge, "x0_m", "geometry")),
            float(ge["w_y_m"]) if "w_y_m" in ge else None,
        )
    else:
        raise SpecError(f"geometry type must be 'mzi' or 'swi', got {gtype!r}")

    st = _require(d, "state", "spec")
    _check_keys(st, {"n_atoms", "xi0", "sigma_n0"}, "state")
    state = InitialState(
        _integral(_require(st, "n_atoms", "state"), "state.n_atoms"),
        float(_require(st, "xi0", "state")),
        float(st["sigma_n0"]) if "sigma_n0" in st else None,
    )

    pr = _require(d, "protocol", "spec")
    _check_keys(
        pr,
        {"t_s", "zeta_rad_s", "echo", "phase_mean_rad", "epsilon_over_hbar_rad_s"},
        "protocol",
    )
    echo = pr.get("echo", False)
    if not isinstance(echo, bool):
        raise SpecError(f"protocol.echo must be a JSON boolean, got {echo!r}")
    protocol = Protocol(
        t=float(_require(pr, "t_s", "protocol")),
        zeta=float(pr.get("zeta_rad_s", 0.0)),
        echo=echo,
        phase_mean=float(pr.get("phase_mean_rad", 0.0)),
        epsilon_over_hbar=float(pr.get("epsilon_over_hbar_rad_s", 0.0)),
    )

    no = d.get("noise", {})
    _check_keys(no, {"gamma_hz"}, "noise")
    noise = NoiseModel(float(no.get("gamma_hz", 0.0)))

    ob = d.get("observation", {})
    _check_keys(ob, {"xi_t"}, "observation")
    xi_t = float(ob["xi_t"]) if "xi_t" in ob else None

    return ExperimentSpec(species, geometry, state, protocol, noise, xi_t)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    g = spec.geometry
    if isinstance(g, MziGeometry):
        geometry = {"type": "mzi", "delta_x_m": g.delta_x,
                    "w_x_m": g.w_x, "w_y_m": g.w_y}
    else:
        geometry = {"type": "swi", "x0_m": g.x0, "w_y_m": g.w_y}
    d = {
        "species": {"name": spec.species.name, "mass_u": spec.species.mass_u},
        "geometry": geometry,
        "state": {"n_atoms": spec.state.n_atoms, "xi0": spec.state.xi0,
                  "sigma_n0": spec.state.sigma_n0},
        "protocol": {"t_s": spec.protocol.t,
                     "zeta_rad_s": spec.protocol.zeta,
                     "echo": spec.protocol.echo,
                     "phase_mean_rad": spec.protocol.phase_mean,
                     "epsilon_over_hbar_rad_s": spec.protocol.epsilon_over_hbar},
        "noise": {"gamma_hz": spec.noise.gamma},
    }
    if spec.xi_t is not None:
        d["observation"] = {"xi_t": spec.xi_t}
    return d


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as f:
        return spec_from_dict(json.load(f))
