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
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import ExperimentSpec, MziGeometry, _check_positive, _check_seed
from .dynamics import _square, collapse_rates, propagator_parts
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
# exclusion-curve points per forward-model call: its 64 KiB temporaries stay
# in cache and on the heap, where whole-grid ones are mapped and faulted anew
_BLOCK = 8192


class ExcessVarianceError(ValueError):
    """Observed phase spread falls below the conventional prediction."""


@dataclass(frozen=True)
class VarianceSplit:
    sigma_conv_sq: float  # rad^2, collapse-independent part
    alpha_csl_sq: float   # rad^2 s, slope of the variance in lambda


@dataclass(frozen=True)
class ExclusionCurve:
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
                   fp_cap_one: bool = False) -> VarianceSplit:
    """Split the phase variance into conventional and collapse terms.

    Both are the forward model's propagator parts, run with the protocol
    the mode names (two legs for ``swi_echo``): the initial part, and the
    collapse part at lambda = 1 with the factors of ``_factors``.  ``rc``
    may be an array.  The SWI modes need an SWI geometry: MZI modes do not
    overlap.
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
    return VarianceSplit(sigma_conv_sq=initial.var_phi,
                         alpha_csl_sq=slope.var_phi)


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
    return _invert(spec, variance_split(spec, rc, mode,
                                        fp_cap_one=fp_cap_one))


def _invert(spec: ExperimentSpec, split: VarianceSplit) -> float:
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
                    fp_cap_one: bool = False) -> ExclusionCurve:
    """lambda_bound over the 1-D grid; NaN where lambda_bound would raise."""
    rc_grid = np.asarray(rc_grid, dtype=float)
    bound = np.full(rc_grid.shape, np.nan)
    for i in range(0, max(len(rc_grid), 1), _BLOCK):
        rc, out = rc_grid[i:i + _BLOCK], bound[i:i + _BLOCK]
        split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)
        excess = _excess(spec, split)
        np.divide(excess, split.alpha_csl_sq, out=out,
                  where=(excess >= 0) & (split.alpha_csl_sq > 0.0))
    return ExclusionCurve(rc=rc_grid, lambda_bound=bound)


def fisher_information(split: VarianceSplit, lam: float) -> float:
    """FI of the Gaussian count distribution with respect to lambda."""
    return 1.0 / (2.0 * _square(split.sigma_conv_sq / split.alpha_csl_sq + lam,
                                "sigma_conv^2 / alpha_csl^2 + lambda"))


def repetitions(spec: ExperimentSpec, rc: float, mode: str,
                lambda_min: float = None, delta: float = 0.1,
                fp_cap_one: bool = False) -> RepetitionEstimate:
    """Measurement repetitions needed to resolve lambda_min at precision delta.

    k >= (2/delta^2) (1 + sigma_conv^2 / (lambda alpha_csl^2))^2, reported
    as a ceiling.  ``k_inflated`` assumes an extra noise broadening
    2*gamma*t = 0.5 * sigma_conv^2.  ``lambda_min`` defaults to the
    spec's own exclusion bound.
    """
    split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)
    if lambda_min is None:
        lambda_min = _invert(spec, split)
    _check_positive("lambda_min", lambda_min)
    _check_positive("delta", delta)

    def k_of(conv):
        try:
            c = conv / (lambda_min * split.alpha_csl_sq)
            return math.ceil(2.0 / delta ** 2 * (1.0 + c) ** 2)
        except (OverflowError, ZeroDivisionError):
            raise OverflowError(
                "repetition count k overflows the float range at "
                f"lambda_min = {lambda_min!r}, delta = {delta!r}") from None

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
    for name, sc in SCENARIOS.items():
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

    Each meta-repetition draws the sample variance of k Gaussian counts at
    lambda_true from its exact law, sigma_phi^2 chi^2_{k-1} / (k - 1), in
    O(n_meta) memory at any k, and inverts the linear model for lambda.
    """
    if not 100 <= k <= sys.float_info.max:
        raise ValueError("k must be >= 100 and within the float range")
    if n_meta < 2:
        raise ValueError(f"n_meta must be >= 2 for a spread, got {n_meta!r}")
    _check_seed(seed)
    split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)
    cr = 1.0 / math.sqrt(k * fisher_information(split, lambda_true))
    sigma_phi_sq = split.sigma_conv_sq + split.alpha_csl_sq * lambda_true

    rng = np.random.Generator(np.random.Philox(key=seed))
    s2 = sigma_phi_sq * rng.chisquare(k - 1, size=n_meta) / (k - 1)
    lam_hat = (s2 - split.sigma_conv_sq) / split.alpha_csl_sq

    spread = float(np.std(lam_hat, ddof=1))
    return CalibrationResult(
        lambda_hat_mean=float(np.mean(lam_hat)),
        lambda_hat_spread=spread,
        spread_stderr=spread / math.sqrt(2.0 * (n_meta - 1)),
        cr_floor=cr,
        k=k,
        n_meta=n_meta,
    )
