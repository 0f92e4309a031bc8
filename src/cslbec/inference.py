"""Exclusion bounds, Fisher information and repetition counts.

The forward model is linear in the collapse rate,
sigma_phi^2(t) = sigma_conv^2(t) + alpha_csl^2(t) * lambda, so bound
extraction is a one-line inversion and the Fisher information of the
Gaussian count distribution has a closed form.  Both terms are read off
the propagator in :mod:`cslbec.dynamics`: the intercept and the responses
to unit dephasing and diffusion rates are scalars computed once per spec
and mode, and only the geometry factors f_P, f_S and one linear
combination of those responses run on an r_C array.  The f_P = 1 plateau
cap and the echo mode's dropped dephasing term are geometry-factor
choices made in one place, ``_factors``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import ExperimentSpec, MziGeometry, _check_positive, _check_seed
from .dynamics import (_square, collapse_part, collapse_rates,
                       propagator_parts)
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
# smallest chi^2 relative spread sqrt(2/(k-1)) calibrate_estimator accepts:
# above it the float rounding of s^2 is at most 0.1 % of the spread
_MIN_CHI2_SPREAD = 1e3 * sys.float_info.epsilon
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


def _mode_parts(spec: ExperimentSpec, mode: str) -> tuple:
    """``propagator_parts`` of ``spec`` run with the protocol ``mode``
    names (two legs for ``swi_echo``), after checking the mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if (mode == "mzi") != isinstance(spec.geometry, MziGeometry):
        want, got = ("MZI", "SWI") if mode == "mzi" else ("SWI", "MZI")
        raise ValueError(f"mode {mode!r} requires an {want} geometry, "
                         f"got an {got} geometry")
    echo = mode == "swi_echo"
    if spec.protocol.echo != echo:
        spec = replace(spec, protocol=replace(spec.protocol, echo=echo))
    return propagator_parts(spec)


def _slope(spec: ExperimentSpec, parts: tuple, rc, mode: str,
           fp_cap_one: bool):
    """alpha_csl^2 at rc: the unit-rate responses of ``parts`` combined
    with the rates at lambda = 1 and the factors of ``_factors``."""
    _, unit_p, unit_s = parts
    f_p, f_s = _factors(spec, rc, mode, fp_cap_one)
    return collapse_part(unit_p.var_phi, unit_s.var_phi,
                         collapse_rates(1.0, spec.species, f_p, f_s))


def variance_split(spec: ExperimentSpec, rc, mode: str,
                   fp_cap_one: bool = False) -> VarianceSplit:
    """Split the phase variance into conventional and collapse terms.

    Both come from one ``propagator_parts`` call, run with the protocol
    the mode names (two legs for ``swi_echo``): the intercept is its
    initial part, and the slope combines its unit-rate responses, scalars
    fixed by the spec and mode, with the rates at lambda = 1 and the
    factors of ``_factors``.  Only f_closed and that combination depend
    on ``rc``, which may be an array.  The SWI modes need an SWI
    geometry, since MZI modes do not overlap, and ``mzi`` needs an MZI
    geometry.
    """
    parts = _mode_parts(spec, mode)
    return VarianceSplit(sigma_conv_sq=parts[0].var_phi,
                         alpha_csl_sq=_slope(spec, parts, rc, mode,
                                             fp_cap_one))


def _excess(spec: ExperimentSpec, sigma_conv_sq: float) -> float:
    if spec.xi_t is None:
        raise ValueError("spec has no observed xi_t")
    return spec.xi_t ** 2 / spec.state.n_atoms - sigma_conv_sq


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
    excess = _excess(spec, split.sigma_conv_sq)
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
    """lambda_bound over the 1-D grid ``rc_grid``.

    NaN marks the points with no positive bound: a negative excess
    variance or a zero slope.  A grid that is not 1-D, an r_C outside
    (0, 6.7e153 m], a bad mode or a spec without xi_t raises for the
    whole grid.  The intercept and the unit-rate responses are computed
    once per curve; each block of the grid runs only the geometry
    factors, their linear combination and the division.
    """
    rc_grid = np.asarray(rc_grid, dtype=float)
    if rc_grid.ndim != 1:
        raise ValueError(
            f"rc_grid must be a 1-D grid, got shape {rc_grid.shape}")
    parts = _mode_parts(spec, mode)
    excess = _excess(spec, parts[0].var_phi)
    bound = np.full(rc_grid.shape, np.nan)
    for i in range(0, rc_grid.size, _BLOCK):
        rc, out = rc_grid[i:i + _BLOCK], bound[i:i + _BLOCK]
        slope = _slope(spec, parts, rc, mode, fp_cap_one)
        np.divide(excess, slope, out=out,
                  where=(excess >= 0) & (slope > 0.0))
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
    k stops below about 4e25, where that law's relative spread
    sqrt(2/(k-1)) would fall under 1e3 float epsilons and the spread left
    would be float rounding, not the estimator's.  lambda_true must be
    finite and >= 0.
    """
    if not (math.isfinite(lambda_true) and lambda_true >= 0):
        raise ValueError(
            f"lambda_true must be finite and >= 0, got {lambda_true!r}")
    if not (k >= 100 and math.sqrt(2 / (k - 1)) >= _MIN_CHI2_SPREAD):
        raise ValueError(
            "k must be >= 100 and below about 4e25, where the chi^2 "
            f"spread sqrt(2/(k-1)) reaches 1e3 float epsilons; got k = {k!r}")
    if n_meta < 2:
        raise ValueError(f"n_meta must be >= 2 for a spread, got {n_meta!r}")
    _check_seed(seed)
    split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)
    fisher = fisher_information(split, lambda_true)
    cr = 1.0 / math.sqrt(fisher) / math.sqrt(k)  # k F itself can overflow
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
