"""Shared domain types, physical constants and experiment-spec validation.

All other modules consume the value objects defined here.  Unit conventions:
angles in radians, times in seconds, lengths in meters, rates in Hz.  The
JSON schema consumed by the CLI carries unit-suffixed field names (``t_s``,
``x0_m``, ...) to prevent silent unit mistakes; unknown keys are rejected.
One table, ``_SCHEMA``, declares each field's key, attribute, JSON type and
range: parsing, serialising and the per-field checks of ``validate`` read it.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

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

# Narrow-phase Gaussian treatment requires sigma_phi <= pi/3, at any time.
_MAX_SIGMA_PHI = math.pi / 3.0


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
        _check_positive("rc", self.rc)


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
            # minimum-uncertainty default: sigma_phi(0) * sigma_n(0) = 1;
            # left None where it overflows, which ``validate`` reports
            sigma_n0 = math.sqrt(self.n_atoms) / self.xi0
            if math.isfinite(sigma_n0):
                object.__setattr__(self, "sigma_n0", sigma_n0)


@dataclass(frozen=True)
class Protocol:
    t: float                       # interrogation time, s
    zeta: float = 0.0              # dispersion parameter, rad/s
    echo: bool = False             # sign-flip of zeta at t/2
    phase_mean: float = 0.0        # mean interferometric phase, rad
    epsilon_over_hbar: float = 0.0  # mode energy splitting, rad/s

    def legs(self, n_steps: int) -> tuple:
        """((zeta, duration, steps), ...) of the dispersion schedule.

        The echo flips zeta at t/2; its first half gets half the steps,
        rounded down, and its second half the rest.  The plain protocol is
        one leg of n_steps.  The analytic model and both oracles read this
        one schedule.
        """
        if self.echo:
            half = n_steps // 2
            legs = ((self.zeta, self.t / 2.0, half),
                    (-self.zeta, self.t / 2.0, n_steps - half))
        else:
            legs = ((self.zeta, self.t, n_steps),)
        if min(steps for _, _, steps in legs) < 1:
            raise ValueError(
                f"n_steps = {n_steps!r} leaves a protocol leg with no steps; "
                f"the {'echo' if self.echo else 'plain'} protocol needs "
                f"n_steps >= {len(legs)}")
        return legs


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


def _check_seed(seed) -> None:
    """Reject a Monte Carlo seed outside the uint64 range of a Philox key."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise ValueError(
            f"seed must be an integer in [0, 2**64), got {seed!r}")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


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

class _Field(NamedTuple):
    """One JSON key of a spec group and the dataclass attribute it fills."""

    key: str               # JSON key, unit-suffixed
    attr: str              # dataclass attribute
    kind: type = float     # float, int, bool or str: see _parse
    required: bool = True  # else the dataclass default applies
    rule: str = ""         # range rule, a key of _RULES


# (JSON group, geometry type, dataclass, fields); the observation group's
# fields are ExperimentSpec's own.  A group with no required field may be
# left out.
_SCHEMA = (
    ("species", None, Species, (
        _Field("name", "name", str),
        _Field("mass_u", "mass_u", rule="positive"))),
    ("geometry", "mzi", MziGeometry, (
        _Field("delta_x_m", "delta_x", rule="positive"),
        _Field("w_x_m", "w_x", rule="positive"),
        _Field("w_y_m", "w_y", required=False, rule="positive"))),
    ("geometry", "swi", SwiGeometry, (
        _Field("x0_m", "x0", rule="positive"),
        _Field("w_y_m", "w_y", required=False, rule="positive"))),
    ("state", None, InitialState, (
        _Field("n_atoms", "n_atoms", int, rule=">= 2"),
        _Field("xi0", "xi0", rule="positive"),
        _Field("sigma_n0", "sigma_n0", required=False, rule="nonnegative"))),
    ("protocol", None, Protocol, (
        _Field("t_s", "t", rule="positive"),
        _Field("zeta_rad_s", "zeta", required=False),
        _Field("echo", "echo", bool, required=False),
        _Field("phase_mean_rad", "phase_mean", required=False),
        _Field("epsilon_over_hbar_rad_s", "epsilon_over_hbar",
               required=False))),
    ("noise", None, NoiseModel, (
        _Field("gamma_hz", "gamma", required=False, rule="nonnegative"),)),
    ("observation", None, ExperimentSpec, (
        _Field("xi_t", "xi_t", required=False),)),
)

_RULES = {
    "positive": lambda x: x > 0,
    "nonnegative": lambda x: x >= 0,
    ">= 2": lambda x: x >= 2,
}

# the int kind is n_atoms: every formula divides by float(N)
_JSON_TYPES = {
    float: "a JSON number in the float range",
    int: "an integral number in [-2**53, 2**53]",
    bool: "a JSON boolean",
    str: "a JSON string",
}


def _groups(spec: ExperimentSpec):
    """(JSON group, geometry type, fields, object) of each group of ``spec``."""
    for group, gtype, cls, flds in _SCHEMA:
        obj = spec if cls is ExperimentSpec else getattr(spec, group)
        if isinstance(obj, cls):
            yield group, gtype, flds, obj


def validate(spec: ExperimentSpec) -> list:
    """Collect every violated invariant as a message; never raises.

    A NaN or infinite number gives one violation per field, and then the
    range checks are skipped: they mean nothing for such values.  Soft
    conditions (MZI separation regime, echo with zero dispersion) emit a
    ``UserWarning`` instead of a violation.  ``CslPoint`` checks its own
    fields on construction.
    """
    nonfinite, v = [], []
    for group, _, flds, obj in _groups(spec):
        for f in flds:
            name = f.attr if obj is spec else f"{group}.{f.attr}"
            value = getattr(obj, f.attr)
            if isinstance(value, float) and not math.isfinite(value):
                nonfinite.append(f"{name} must be finite, got {value!r}")
            elif f.rule and value is not None and not _RULES[f.rule](value):
                v.append(f"{name} must be {f.rule}")
    if nonfinite:
        return nonfinite

    g, s, p = spec.geometry, spec.state, spec.protocol
    if not isinstance(g, (MziGeometry, SwiGeometry)):
        v.append("geometry must be MziGeometry or SwiGeometry")
    elif isinstance(g, MziGeometry) and 0 < g.delta_x < 10.0 * g.w_x:
        warnings.warn("MZI geometry intended for delta_x >> w_x", stacklevel=2)
    if s.n_atoms >= 2 and s.xi0 / math.sqrt(s.n_atoms) > _MAX_SIGMA_PHI:
        v.append("xi0^2/N exceeds pi^2/9: narrow-phase treatment invalid")
    if s.sigma_n0 is None and s.n_atoms >= 2 and s.xi0 > 0:
        v.append(f"state.xi0 = {s.xi0!r} is too small: the default "
                 "state.sigma_n0 = sqrt(N)/xi0 overflows")
    if p.echo and p.zeta == 0:
        warnings.warn("echo protocol with zeta = 0 has no effect", stacklevel=2)
    if spec.xi_t is not None and spec.xi_t < s.xi0:
        v.append("xi_t < xi0: observed narrowing is unphysical")
    return v


def _parse(value, kind: type, name: str):
    """``value`` as a ``kind``; SpecError unless it is that JSON type.

    NaN and infinities pass as floats, and ``validate`` names them.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        ok = number and (isinstance(value, float)
                         or abs(value) <= sys.float_info.max)
    elif kind is int:
        ok = number and abs(value) <= 2 ** 53 and value % 1 == 0
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise SpecError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return kind(value)


def _members(value, allowed: set, name: str) -> dict:
    """``value`` if it is a JSON object with keys from ``allowed``."""
    if not isinstance(value, dict):
        raise SpecError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise SpecError(f"unknown keys in {name}: {sorted(unknown)}")
    return value


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from the strict unit-suffixed JSON schema."""
    _members(d, {group for group, *_ in _SCHEMA}, "experiment spec")
    parts = {}
    for group, gtype, cls, flds in _SCHEMA:
        obj = d.get(group, {})
        if gtype is not None and isinstance(obj, dict) \
                and obj.get("type") != gtype:
            continue
        _members(obj, {f.key for f in flds} | ({"type"} if gtype else set()),
                 group)
        values = {}
        for f in flds:
            if f.key in obj:
                values[f.attr] = _parse(obj[f.key], f.kind, f"{group}.{f.key}")
            elif f.required:
                raise SpecError(f"{group}.{f.key} is required")
        if cls is ExperimentSpec:
            parts.update(values)
        else:
            parts[group] = cls(**values)
    if "geometry" not in parts:
        raise SpecError("geometry.type must be 'mzi' or 'swi', "
                        f"got {d.get('geometry', {}).get('type')!r}")
    return ExperimentSpec(**parts)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """The JSON form of ``spec``; fields that are None are left out."""
    d = {}
    for group, gtype, flds, obj in _groups(spec):
        out = {} if gtype is None else {"type": gtype}
        for f in flds:
            value = getattr(obj, f.attr)
            if value is not None:
                out[f.key] = value
        if out:
            d[group] = out
    return d


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as f:
        return spec_from_dict(json.load(f))
