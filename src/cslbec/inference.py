"""Exclusion bounds, Fisher information and repetition counts.

The forward model is linear in the collapse rate,
sigma_phi^2(t) = sigma_conv^2(t) + alpha_csl^2(t) * lambda, so bound
extraction is a one-line inversion and the Fisher information of the
Gaussian count distribution has a closed form.  Both terms are read off
the propagator in :mod:`cslbec.dynamics`; the f_P = 1 plateau cap and the
echo mode's dropped dephasing term are geometry-factor choices made in
one place, ``_factors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ExperimentSpec, CslPoint, MziGeometry, _check_seed
from .dynamics import collapse_rates, count_distribution, propagator_parts
from .geometry import f_closed

__all__ = [
    "MODES",
    "VarianceSplit",
    "ExclusionCurve",
    "RepetitionEstimate",
    "CalibrationResult",
    "ExcessVarianceError",
    "variance_split",
    "lambda_bound",
    "exclusion_curve",
    "repetitions",
    "table1",
    "calibrate_estimator",
]

MODES = ("mzi", "swi_plain", "swi_echo")


class ExcessVarianceError(ValueError):
    """Observed phase spread falls below the conventional prediction."""


@dataclass(frozen=True)
class VarianceSplit:
    sigma_conv_sq: float  # rad^2, collapse-independent part
    alpha_csl_sq: float   # rad^2 s, slope of the variance in lambda


@dataclass(frozen=True)
class ExclusionCurve:
    label: str
    rc: np.ndarray            # m
    lambda_bound: np.ndarray  # Hz; NaN marks points with no positive bound


@dataclass(frozen=True)
class RepetitionEstimate:
    fisher_info: float  # 1/Hz^2 at lambda = lambda_min
    k: int
    k_inflated: int     # with sigma_conv^2 increased by 50%
    delta: float
    lambda_min: float


def _factors(spec: ExperimentSpec, rc, mode: str, fp_cap_one: bool):
    """(f_P, f_S) for the inference: closed forms, f_P = 1 under the plateau
    cap, f_P = 0 in echo mode (dephasing dropped to stay conservative)."""
    f = f_closed(spec.geometry, rc)
    f_p = 0.0 if mode == "swi_echo" else 1.0 if fp_cap_one else f.f_p
    return f_p, f.f_s


def variance_split(spec: ExperimentSpec, rc, mode: str,
                   fp_cap_one: bool = False,
                   include_noise: bool = False) -> VarianceSplit:
    """Split the phase variance into conventional and collapse terms.

    Both are the forward model's propagator parts, run with the protocol
    the mode names (two legs for ``swi_echo``): the initial part, plus
    2*gamma*t when ``include_noise``, and the collapse part at lambda = 1
    with the factors of ``_factors``.  ``rc`` may be an array.  The SWI
    modes need an SWI geometry: MZI modes do not overlap.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode != "mzi" and isinstance(spec.geometry, MziGeometry):
        raise ValueError(f"mode {mode!r} requires an SWI geometry, "
                         "got an MZI geometry")
    f_p, f_s = _factors(spec, rc, mode, fp_cap_one)
    spec = replace(spec, protocol=replace(spec.protocol,
                                          echo=mode == "swi_echo"))
    initial, slope = propagator_parts(
        spec, collapse_rates(1.0, spec.species, f_p, f_s))
    conv = initial.var_phi
    if include_noise:
        conv += 2.0 * spec.noise.gamma * spec.protocol.t
    return VarianceSplit(sigma_conv_sq=conv, alpha_csl_sq=slope.var_phi)


def _excess(spec: ExperimentSpec, split: VarianceSplit) -> float:
    if spec.xi_t is None:
        raise ValueError("spec has no observed xi_t")
    return spec.xi_t ** 2 / spec.state.n_atoms - split.sigma_conv_sq


def lambda_bound(spec: ExperimentSpec, rc: float, mode: str,
                 fp_cap_one: bool = False) -> float:
    """Largest collapse rate consistent with the observed squeezing xi_t.

    Inverts the linear variance model at sigma_phi^2 = xi_t^2 / N.  Raises
    ExcessVarianceError when the observed spread is below the conventional
    prediction (negative excess signals an inconsistent spec, not a bound).
    """
    split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)
    excess = _excess(spec, split)
    if excess < 0:
        raise ExcessVarianceError(
            "observed spread below conventional prediction"
        )
    if split.alpha_csl_sq <= 0.0:
        raise ZeroDivisionError(
            "variance has no collapse-rate sensitivity (alpha_csl^2 = 0)"
        )
    return excess / split.alpha_csl_sq


def exclusion_curve(spec: ExperimentSpec, mode: str, rc_grid,
                    fp_cap_one: bool = False,
                    label: str = "") -> ExclusionCurve:
    """lambda_bound over the grid; NaN where lambda_bound would raise."""
    rc_grid = np.asarray(rc_grid, dtype=float)
    split = variance_split(spec, rc_grid, mode, fp_cap_one=fp_cap_one)
    excess = _excess(spec, split)
    bound = np.divide(excess, split.alpha_csl_sq,
                      out=np.full(rc_grid.shape, np.nan),
                      where=(excess >= 0) & (split.alpha_csl_sq > 0.0))
    return ExclusionCurve(label=label, rc=rc_grid, lambda_bound=bound)


def fisher_information(split: VarianceSplit, lam: float) -> float:
    """FI of the Gaussian count distribution with respect to lambda."""
    return 1.0 / (2.0 * (split.sigma_conv_sq / split.alpha_csl_sq + lam) ** 2)


def repetitions(spec: ExperimentSpec, rc: float, mode: str,
                lambda_min: float = None, delta: float = 0.1,
                fp_cap_one: bool = False) -> RepetitionEstimate:
    """Measurement repetitions needed to resolve lambda_min at precision delta.

    k >= (2/delta^2) (1 + sigma_conv^2 / (lambda alpha_csl^2))^2, reported
    as a ceiling.  ``k_inflated`` assumes an extra noise broadening
    2*gamma*t = 0.5 * sigma_conv^2.  ``lambda_min`` defaults to the
    spec's own exclusion bound.
    """
    if lambda_min is None:
        lambda_min = lambda_bound(spec, rc, mode, fp_cap_one=fp_cap_one)
    for name, value in (("lambda_min", lambda_min), ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)

    def k_of(conv):
        c = conv / (lambda_min * split.alpha_csl_sq)
        return math.ceil(2.0 / delta ** 2 * (1.0 + c) ** 2)

    return RepetitionEstimate(
        fisher_info=fisher_information(split, lambda_min),
        k=k_of(split.sigma_conv_sq),
        k_inflated=k_of(1.5 * split.sigma_conv_sq),
        delta=delta,
        lambda_min=lambda_min,
    )


def table1(delta: float = 0.1, fp_cap_one: bool = True) -> list:
    """Repetition estimates for the four built-in proposal scenarios.

    Returns (name, scenario, RepetitionEstimate) triples in registry order.
    The MZI rows use the f_P = 1 plateau cap by default.
    """
    from .scenarios import SCENARIOS

    rows = []
    for name in ("rb-mzi", "rb-swi", "cs-mzi", "rb-swi-echo"):
        sc = SCENARIOS[name]
        cap = fp_cap_one and sc.mode == "mzi"
        est = repetitions(sc.spec, sc.rc, sc.mode, lambda_min=sc.lambda_min,
                          delta=delta, fp_cap_one=cap)
        rows.append((name, sc, est))
    return rows


@dataclass(frozen=True)
class CalibrationResult:
    lambda_hat_mean: float
    lambda_hat_spread: float   # empirical std over meta-repetitions
    spread_stderr: float
    cr_floor: float            # Cramer-Rao lower limit on the spread
    k: int
    n_meta: int


def calibrate_estimator(spec: ExperimentSpec, rc: float, mode: str,
                        lambda_true: float, k: int, seed: int,
                        n_meta: int = 500,
                        fp_cap_one: bool = False) -> CalibrationResult:
    """Monte Carlo check that the variance estimator reaches the CR floor.

    Each meta-repetition draws k synthetic count differences from the
    Gaussian readout model at lambda_true, forms the unbiased sample
    variance and inverts the linear model for a lambda estimate.
    """
    if k < 100:
        raise ValueError("k must be >= 100")
    if n_meta < 2:
        raise ValueError(f"n_meta must be >= 2 for a spread, got {n_meta!r}")
    _check_seed(seed)
    split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)
    n = spec.state.n_atoms
    phase = spec.protocol.phase_mean
    cosp_sq = math.cos(phase) ** 2

    mean = count_distribution(spec, CslPoint(lam=lambda_true, rc=rc)).mean
    var_counts = n ** 2 * cosp_sq * (
        split.sigma_conv_sq + split.alpha_csl_sq * lambda_true)

    rng = np.random.Generator(np.random.Philox(key=seed))
    samples = rng.normal(mean, math.sqrt(var_counts), size=(n_meta, k))
    s2 = np.var(samples, axis=1, ddof=1)
    sigma_phi_sq_hat = s2 / (n ** 2 * cosp_sq)
    lam_hat = (sigma_phi_sq_hat - split.sigma_conv_sq) / split.alpha_csl_sq

    spread = float(np.std(lam_hat, ddof=1))
    cr = 1.0 / math.sqrt(k * fisher_information(split, lambda_true))
    return CalibrationResult(
        lambda_hat_mean=float(np.mean(lam_hat)),
        lambda_hat_spread=spread,
        spread_stderr=spread / math.sqrt(2.0 * (n_meta - 1)),
        cr_floor=cr,
        k=k,
        n_meta=n_meta,
    )
