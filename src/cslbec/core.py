"""Shared domain types, physical constants and experiment-spec validation.

All other modules consume the value objects defined here.  Unit conventions:
angles in radians, times in seconds, lengths in meters, rates in Hz.  The
JSON schema consumed by the CLI carries unit-suffixed field names (``t_s``,
``x0_m``, ...) to prevent silent unit mistakes; unknown keys are rejected.
One table, ``_SCHEMA``, declares each field's key, attribute, type and
range: parsing, serialising and the checks each spec runs when made read it.
"""

from __future__ import annotations

import importlib.util
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
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
    "spec_from_dict",
    "spec_to_dict",
    "load_spec",
]

# Single source for physical constants; no other module defines any.
RB87_MASS_U = 86.909180         # Rb-87 mass in u
CS133_MASS_U = 132.905452       # Cs-133 mass in u

# Narrow-phase Gaussian treatment requires sigma_phi <= pi/3, at any time.
_MAX_SIGMA_PHI = math.pi / 3.0


class SpecError(ValueError):
    """Raised for malformed experiment-spec input (bad JSON keys, types),
    and when an ``ExperimentSpec`` is made that breaks a rule."""


def _lazy_numpy():
    """numpy as a module that loads on its first attribute access.

    The numerical layers bind ``np`` to it, so a command that reads no
    array never imports numpy.  A numpy already in ``sys.modules``, loaded
    or lazy, is returned as it is.  Python 3.11's lazy module takes no
    lock while it loads: code that first reads numpy from several threads
    must read it once before they start.
    """
    np = sys.modules.get("numpy")
    if np is None:
        spec = importlib.util.find_spec("numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = importlib.util.module_from_spec(spec)
        sys.modules["numpy"] = np
        spec.loader.exec_module(np)
    return np


@dataclass(frozen=True)
class CslPoint:
    """A point (lambda, r_C) in the collapse-model parameter plane."""

    lam: float  # collapse rate, Hz, referenced to 1 u
    rc: float   # localization length, m

    def __post_init__(self):
        _check_nonnegative("lam", self.lam)
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
        if self.w_y is None and _is_finite(self.x0):
            object.__setattr__(self, "w_y", float(self.x0) / math.sqrt(6.0))


@dataclass(frozen=True)
class InitialState:
    n_atoms: int          # atom count N
    xi0: float            # phase-squeezing parameter
    sigma_n0: float = None  # number-difference spread; default sqrt(N)/xi0

    def __post_init__(self):
        if (self.sigma_n0 is None and _is_int(self.n_atoms)
                and _is_finite(self.xi0) and self.n_atoms > 0 and self.xi0 > 0):
            # minimum-uncertainty default: sigma_phi(0) * sigma_n(0) = 1;
            # left None where it overflows, which the spec's check reports;
            # a float, also for numpy's scalars
            sigma_n0 = math.sqrt(self.n_atoms) / float(self.xi0)
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

    def __post_init__(self):  # valid by construction: see _violations
        violations = _violations(self)
        if violations:
            raise SpecError("; ".join(violations))

    @property
    def sigma_phi0_sq(self) -> float:
        return self.state.xi0 ** 2 / self.state.n_atoms

    @property
    def mode(self) -> str:
        """Inference mode of the protocol that produced xi_t: "mzi" for an
        MZI geometry, else "swi_echo" or "swi_plain" by ``protocol.echo``."""
        if isinstance(self.geometry, MziGeometry):
            return "mzi"
        return "swi_echo" if self.protocol.echo else "swi_plain"


def _is_int(value) -> bool:
    """True for an int, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for a finite real number, numpy's included; a bool is not one."""
    try:
        return (isinstance(value, numbers.Real)
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int past the float range
        return False


def _check_count(name: str, value, minimum: int) -> None:
    if not _is_int(value) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def _check_seed(seed) -> None:
    """Reject a seed outside the uint64 range of a Philox key, or a bool."""
    if not (_is_int(seed) and 0 <= seed < 2 ** 64):
        raise ValueError(
            f"seed must be an integer in [0, 2**64), got {seed!r}")


def _check_finite(name: str, value: float) -> None:
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(name: str, value: float) -> None:
    if not (_is_finite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not (_is_finite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


# --- JSON schema ------------------------------------------------------------

class _Field(NamedTuple):
    """One JSON key of a spec group and the dataclass attribute it fills."""

    key: str               # JSON key, unit-suffixed
    attr: str              # dataclass attribute: required without a default
    kind: type = float     # float, int, bool or str: see _KINDS
    rule: str = ""         # range rule, a key of _RULES


# the readout's phase slope is N cos(phase_mean); no command models a mode
# splitting, which only the Dicke oracle takes, as an argument
_OFF_COS_ZERO = ("off the zeros of cos (|cos| >= 0.1): "
                 "the readout carries no phase there")
_UNMODELLED = "0: no command models a mode splitting"

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
        _Field("w_y_m", "w_y", rule="positive"))),
    ("geometry", "swi", SwiGeometry, (
        _Field("x0_m", "x0", rule="positive"),
        _Field("w_y_m", "w_y", rule="positive"))),
    ("state", None, InitialState, (
        _Field("n_atoms", "n_atoms", int, rule=">= 2"),
        _Field("xi0", "xi0", rule="positive"),
        _Field("sigma_n0", "sigma_n0", rule="nonnegative"))),
    ("protocol", None, Protocol, (
        _Field("t_s", "t", rule="positive"),
        _Field("zeta_rad_s", "zeta"),
        _Field("echo", "echo", bool),
        _Field("phase_mean_rad", "phase_mean", rule=_OFF_COS_ZERO),
        _Field("epsilon_over_hbar_rad_s", "epsilon_over_hbar",
               rule=_UNMODELLED))),
    ("noise", None, NoiseModel, (
        _Field("gamma_hz", "gamma", rule="nonnegative"),)),
    ("observation", None, ExperimentSpec, (
        _Field("xi_t", "xi_t"),)),
)

_RULES = {
    "positive": lambda x: x > 0,
    "nonnegative": lambda x: x >= 0,
    ">= 2": lambda x: x >= 2,
    _OFF_COS_ZERO: lambda x: abs(math.cos(x)) >= 0.1,
    _UNMODELLED: lambda x: x == 0,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# each kind's test and name in a spec file, then in a made spec, where
# numpy's scalars count too; the kind itself converts.  NaN and infinities
# pass as floats in a spec file, and the spec's own check names them.  The
# int kind is n_atoms: every formula divides by float(N)
_KINDS = {
    float: (lambda x: _is_number(x) and (isinstance(x, float)
                                         or abs(x) <= sys.float_info.max),
            "a JSON number in the float range", _is_finite, "finite"),
    int: (lambda x: _is_number(x) and abs(x) <= 2 ** 53 and x % 1 == 0,
          "an integral number in [-2**53, 2**53]",
          lambda x: _is_int(x) and _is_finite(x), "an int in the float range"),
    bool: (lambda x: isinstance(x, bool), "a JSON boolean",
           lambda x: type(x).__name__ == "bool", "a bool"),
    str: (lambda x: isinstance(x, str), "a JSON string",
          lambda x: isinstance(x, str), "a str"),
}

# each group's dataclasses: a geometry is one of two
_GROUP_TYPES = {group: tuple(c for g, _, c, _ in _SCHEMA if g == group)
                for group, _, cls, _ in _SCHEMA if cls is not ExperimentSpec}


def _groups(spec: ExperimentSpec):
    """(JSON group, geometry type, fields, object) of each group of ``spec``."""
    for group, gtype, cls, flds in _SCHEMA:
        obj = spec if cls is ExperimentSpec else getattr(spec, group)
        if isinstance(obj, cls):
            yield group, gtype, flds, obj


def _violations(spec: ExperimentSpec) -> list:
    """The rules ``spec`` breaks, one message each.  A group of the wrong
    type and a field of the wrong kind, NaN or infinite are reported
    alone: the other rules mean nothing for them."""
    malformed = [f"{group} must be " + " or ".join(c.__name__ for c in types)
                 for group, types in _GROUP_TYPES.items()
                 if not isinstance(getattr(spec, group), types)]
    v = []
    for group, _, flds, obj in _groups(spec):
        for f in flds:
            name = f.attr if obj is spec else f"{group}.{f.attr}"
            value = getattr(obj, f.attr)
            *_, is_kind, kind = _KINDS[f.kind]
            if value is None and getattr(type(obj), f.attr, 0) is None:
                continue  # None is this field's default: not given
            if not is_kind(value):
                malformed.append(f"{name} must be {kind}, got {value!r}")
            elif f.rule and not _RULES[f.rule](value):
                v.append(f"{name} must be {f.rule}")
    if malformed:
        return malformed

    s = spec.state
    for name, xi in (("xi0", s.xi0), ("xi_t", spec.xi_t)):
        if (xi is not None and s.n_atoms >= 2
                and xi / math.sqrt(s.n_atoms) > _MAX_SIGMA_PHI):
            v.append(f"{name}^2/N exceeds pi^2/9: narrow-phase treatment "
                     "invalid")
    if s.sigma_n0 is None and s.n_atoms >= 2 and s.xi0 > 0:
        v.append(f"state.xi0 = {s.xi0!r} is too small: the default "
                 "state.sigma_n0 = sqrt(N)/xi0 overflows")
    if spec.xi_t is not None and spec.xi_t < s.xi0:
        v.append("xi_t < xi0: observed narrowing is unphysical")
    return v


def _soft_warnings(spec: ExperimentSpec) -> None:
    """Warn of an MZI separation not >> the mode width and of an echo with
    zeta = 0; the CLI calls it, and making a spec does not."""
    g, p = spec.geometry, spec.protocol
    if isinstance(g, MziGeometry) and g.delta_x < 10.0 * g.w_x:
        warnings.warn("MZI geometry intended for delta_x >> w_x", stacklevel=2)
    if p.echo and p.zeta == 0:
        warnings.warn("echo protocol with zeta = 0 " + (
            "has no effect" if isinstance(g, MziGeometry) else
            "leaves the swi_echo bound no slope in lambda: it drops f_P, "
            "and no dispersion amplifies f_S"), stacklevel=2)


def _parse(value, kind: type, name: str):
    """``value`` as a ``kind``; SpecError unless it is that JSON type."""
    is_kind, kind_name, *_ = _KINDS[kind]
    if not is_kind(value):
        raise SpecError(f"{name} must be {kind_name}, got {value!r}")
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
            elif not hasattr(cls, f.attr):
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
    """The JSON form of ``spec``, each field as its kind's JSON type, so
    numpy scalars are written as plain numbers; fields that are None are
    left out."""
    d = {}
    for group, gtype, flds, obj in _groups(spec):
        out = {} if gtype is None else {"type": gtype}
        for f in flds:
            value = getattr(obj, f.attr)
            if value is not None:
                out[f.key] = f.kind(value)
        if out:
            d[group] = out
    return d


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as f:
        return spec_from_dict(json.load(f))
