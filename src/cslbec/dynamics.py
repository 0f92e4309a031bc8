"""Analytic evolution of the two-mode phase distribution.

The phase-space density in (phi, n) obeys a linear Fokker-Planck equation
with dispersion drift zeta*n, phase diffusion Gamma_P/2 and number diffusion
N^2*Gamma_S/4.  Its characteristic function stays Gaussian for Gaussian
initial states, so moments evolve in closed form; the echo protocol flips
the sign of zeta at t/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (_MAX_SIGMA_PHI, CslPoint, ExperimentSpec, Species,
                   _lazy_numpy)
from .geometry import f_closed

np = _lazy_numpy()

__all__ = [
    "Rates",
    "PhaseMoments",
    "GaussianCharacteristic",
    "rates",
    "phase_variance",
    "characteristic_function",
    "echo_characteristic_closed",
    "visibility",
]


@dataclass(frozen=True)
class Rates:
    gamma_p: float  # dephasing rate, Hz
    gamma_s: float  # diffusion rate, Hz


@dataclass(frozen=True)
class PhaseMoments:
    mean: float      # rad
    variance: float  # rad^2
    t: float         # s

    @property
    def valid(self) -> bool:  # False once sqrt(variance) > pi/3
        return math.sqrt(self.variance) <= _MAX_SIGMA_PHI


def _square(x: float, name: str) -> float:
    """x ** 2, with an OverflowError that names x if the square overflows."""
    try:
        return x ** 2
    except OverflowError:
        raise OverflowError(
            f"{name} squared overflows the float range ({name} = {x!r})"
        ) from None


def collapse_rates(lam, species: Species, f_p, f_s) -> Rates:
    """Gamma_P = 2 lambda (m/u)^2 f_P, Gamma_S = 2 lambda (m/u)^2 f_S."""
    amp = 2.0 * lam * _square(species.mass_u, "species.mass_u")
    return Rates(gamma_p=amp * f_p, gamma_s=amp * f_s)


def rates(point: CslPoint, species: Species, geometry) -> Rates:
    """Rates at a CSL point from the closed-form geometry factors."""
    f = f_closed(geometry, point.rc)
    return collapse_rates(point.lam, species, f.f_p, f.f_s)


@dataclass(frozen=True)
class GaussianCharacteristic:
    """Quadratic form of a zero-mean Gaussian characteristic function.

    chi(s, q) = exp(-(var_phi*s^2 + 2*cov*s*q + var_n*q^2) / 2), with s
    conjugate to phi and q conjugate to n.  Initial states are assumed to
    have <n> = <n phi> = 0.
    """

    var_phi: float
    cov: float
    var_n: float

    def evaluate(self, s, q):
        quad = (self.var_phi * np.asarray(s) ** 2
                + 2.0 * self.cov * np.asarray(s) * np.asarray(q)
                + self.var_n * np.asarray(q) ** 2)
        return np.exp(-quad / 2.0)

    def evolve(self, zeta: float, tau: float, r: Rates, n_atoms: int
               ) -> "GaussianCharacteristic":
        """Propagate for a duration tau at fixed dispersion zeta.

        chi_{t+tau}(s, q) = chi_t(s, q + zeta*tau*s)
            * exp[-Gamma_P*tau/2 s^2
                  - N^2 Gamma_S tau/4 (q^2 + zeta*tau*q*s + zeta^2 tau^2/3 s^2)]
        """
        d = n_atoms ** 2 * r.gamma_s * tau / 2.0  # added number variance
        zeta_sq = _square(zeta, "protocol.zeta")
        tau_sq = _square(tau, "the leg duration")
        var_phi = (self.var_phi
                   + 2.0 * self.cov * zeta * tau
                   + self.var_n * zeta_sq * tau_sq
                   + r.gamma_p * tau
                   + d * zeta_sq * tau_sq / 3.0)
        cov = self.cov + self.var_n * zeta * tau + d * zeta * tau / 2.0
        var_n = self.var_n + d
        return GaussianCharacteristic(var_phi, cov, var_n)


# the unit diffusion channel: the collapse part is linear in the rates
_UNIT_S = Rates(gamma_p=0.0, gamma_s=1.0)


def propagator_parts(spec: ExperimentSpec) -> tuple:
    """(initial, unit_p, unit_s) parts of the evolved quadratic form.

    The evolved form is initial + Gamma_P * unit_p + Gamma_S * unit_s,
    entry by entry (``collapse_part``): the collapse noise is linear in
    the rates, so its responses to one unit of each rate are scalars fixed
    by the spec alone, and a rate array costs one linear combination.  The
    legs are those of ``Protocol.legs``, walked once; this closed form
    needs no time steps, so their step counts go unused.  The initial
    covariance goes once through the net dispersion shear sum_k zeta_k
    tau_k, exactly 0.0 for the echo, so no cancellation is left in its
    initial part.  Phase noise never feeds back into n, so the unit
    dephasing response is a phase variance t; the diffusion response
    accumulates leg by leg from zero.
    """
    legs = spec.protocol.legs(2)
    shear = sum(zeta * tau for zeta, tau, _ in legs)
    var_n = _square(spec.state.sigma_n0, "state.sigma_n0")
    initial = GaussianCharacteristic(
        spec.sigma_phi0_sq + var_n * _square(shear, "protocol.zeta * t"),
        var_n * shear, var_n)
    unit_p = GaussianCharacteristic(spec.protocol.t, 0.0, 0.0)
    unit_s = GaussianCharacteristic(0.0, 0.0, 0.0)
    n_atoms = spec.state.n_atoms
    for zeta, tau, _ in legs:
        unit_s = unit_s.evolve(zeta, tau, _UNIT_S, n_atoms)
    if not math.isfinite(unit_s.var_phi):
        raise OverflowError(
            "the unit-rate diffusion response N^2 zeta^2 t^3 overflows the "
            f"float range (N = {n_atoms!r}, zeta = {spec.protocol.zeta!r}, "
            f"t = {spec.protocol.t!r})")
    return initial, unit_p, unit_s


def collapse_part(unit_p, unit_s, r: Rates):
    """Gamma_P * unit_p + Gamma_S * unit_s for one entry of the form.

    The forward model and the inference both combine the unit-rate
    responses here, in this order; over an r_C array the rates are arrays.
    """
    return r.gamma_p * unit_p + r.gamma_s * unit_s


def _evolved_characteristic(spec: ExperimentSpec, point: CslPoint
                            ) -> GaussianCharacteristic:
    initial, unit_p, unit_s = propagator_parts(spec)
    r = rates(point, spec.species, spec.geometry)
    return GaussianCharacteristic(
        initial.var_phi + collapse_part(unit_p.var_phi, unit_s.var_phi, r),
        initial.cov + collapse_part(unit_p.cov, unit_s.cov, r),
        initial.var_n + collapse_part(unit_p.var_n, unit_s.var_n, r))


def phase_variance(spec: ExperimentSpec, point: CslPoint) -> PhaseMoments:
    """Phase mean and variance at the interrogation time.

    Plain protocol:
        sigma_phi^2(t) = sigma_phi^2(0) + Gamma_P t
                         + zeta^2 t^2 (sigma_n^2(0) + Gamma_S N^2 t / 6)
    Echo protocol: the dispersion term zeta^2 t^2 sigma_n^2(0) cancels and
    the diffusion amplification is reduced by a factor four:
        sigma_phi^2(t) = sigma_phi^2(0) + Gamma_P t
                         + zeta^2 t^2 Gamma_S N^2 t / 24
    """
    var = _evolved_characteristic(spec, point).var_phi
    moments = PhaseMoments(spec.protocol.phase_mean, var, spec.protocol.t)
    if not moments.valid:
        warnings.warn(
            f"sigma_phi = {math.sqrt(var):.3g} exceeds pi/3; "
            "narrow-phase treatment unreliable",
            stacklevel=2,
        )
    return moments


def characteristic_function(spec: ExperimentSpec, point: CslPoint, s, q):
    """Evaluate chi_t(s, q), composing the two echo legs when requested."""
    return _evolved_characteristic(spec, point).evaluate(s, q)


def echo_characteristic_closed(spec: ExperimentSpec, point: CslPoint
                               ) -> GaussianCharacteristic:
    """Closed-form quadratic form after a full echo cycle.

    chi_t(s, q) = chi_0(s, q) * exp[-Gamma_P t/2 s^2
        - N^2 Gamma_S t/4 (q^2 + zeta^2 t^2 / 12 s^2 - zeta t q s / 2)]

    The q*s cross term records the residual phi-n correlation left by the
    second leg; it does not affect either marginal.
    """
    r = rates(point, spec.species, spec.geometry)
    n, p = spec.state.n_atoms, spec.protocol
    d = n ** 2 * r.gamma_s * p.t / 2.0
    return GaussianCharacteristic(
        var_phi=spec.sigma_phi0_sq + r.gamma_p * p.t
        + d * p.zeta ** 2 * p.t ** 2 / 12.0,
        cov=-d * p.zeta * p.t / 4.0,
        var_n=spec.state.sigma_n0 ** 2 + d,
    )


def visibility(spec: ExperimentSpec, point: CslPoint) -> float:
    """Interference contrast exp(-Gamma_P t / 2), times exp(-gamma t)."""
    r = rates(point, spec.species, spec.geometry)
    return (math.exp(-r.gamma_p * spec.protocol.t / 2.0)
            * math.exp(-spec.noise.gamma * spec.protocol.t))
