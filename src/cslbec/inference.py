"""Exclusion bounds, Fisher information and repetition counts.

The forward model is linear in the collapse rate,
sigma_phi^2(t) = sigma_conv^2(t) + alpha_csl^2(t) * lambda, so bound
extraction is a one-line inversion and the Fisher information of the
Gaussian count distribution has a closed form.  A bound assumes the
protocol that produced xi_t, so ``mode`` is always ``spec.mode``.
``_model`` reads both terms off the propagator of the spec's protocol and
is the one place that reads the mode and the f_P = 1 plateau cap.  Only
the slope's geometry factors and one linear combination run on an r_C
array.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .core import (ExperimentSpec, _check_count, _check_nonnegative,
                   _check_positive, _check_seed, _lazy_numpy)
from .dynamics import (_square, collapse_part, collapse_rates,
                       propagator_parts)
from . import geometry

np = _lazy_numpy()

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

    def __post_init__(self):  # a slope over an r_C grid may hold zeros
        if isinstance(a := self.alpha_csl_sq, numbers.Real) and a <= 0.0:
            raise ZeroDivisionError("variance has no collapse-rate "
                                    "sensitivity (alpha_csl^2 = 0)")


@dataclass(frozen=True)
class ExclusionCurve:
    rc: np.ndarray            # m
    lambda_bound: np.ndarray  # Hz; NaN marks points with no finite bound


@dataclass(frozen=True)
class RepetitionEstimate:
    fisher_info: float  # 1/Hz^2 at lambda = lambda_min
    k: int
    k_inflated: int     # with sigma_conv^2 increased by 50%
    delta: float
    lambda_min: float


def _model(spec: ExperimentSpec, mode: str, fp_cap_one: bool):
    """(sigma_conv^2, slope): the intercept, and alpha_csl^2 as a function
    of r_C that returns a float for a scalar r_C and an array otherwise.

    ``mode`` must be ``spec.mode``: ``propagator_parts`` runs once, with
    the spec's own protocol (two legs for an echo).  The slope evaluates
    only the factors the mode reads; the echo mode drops dephasing
    (f_P = 0) to stay conservative.
    """
    if mode != spec.mode:
        raise ValueError(f"mode {mode!r} is not the spec's mode "
                         f"{spec.mode!r}, set by its geometry and echo")
    g = spec.geometry
    initial, unit_p, unit_s = propagator_parts(spec)

    if mode == "swi_plain" and not fp_cap_one:
        def factors(rc):  # the one case that reads both factors
            f = geometry.f_closed(g, rc)
            return f.f_p, f.f_s
    elif mode == "mzi" and fp_cap_one:
        def factors(rc):  # f_P = 1 in r_C's shape
            r = geometry._checked_rc(rc)
            return (1.0 if isinstance(r, float) else np.ones(r.shape)), 0.0
    elif mode == "mzi":
        def factors(rc):
            return geometry._mzi_f_p(g, geometry._checked_r2(rc)), 0.0
    else:
        f_p = 0.0 if mode == "swi_echo" else 1.0

        def factors(rc):
            return f_p, geometry._swi_f_s(g, geometry._checked_r2(rc))

    def slope(rc):
        rates = collapse_rates(1.0, spec.species, *factors(rc))
        return collapse_part(unit_p.var_phi, unit_s.var_phi, rates)

    return initial.var_phi, slope


def variance_split(spec: ExperimentSpec, rc, mode: str,
                   fp_cap_one: bool = False) -> VarianceSplit:
    """Split the phase variance into conventional and collapse terms.

    ``rc`` may be an array: the slope has its shape, and a scalar ``rc``
    gives a float without numpy.  ``mode`` must be ``spec.mode``.
    """
    sigma_conv_sq, slope = _model(spec, mode, fp_cap_one)
    return VarianceSplit(sigma_conv_sq, slope(rc))


def _one_rc(rc) -> float:
    """``rc`` checked as one r_C (``geometry._checked_rc``); a grid, which
    only ``exclusion_curve`` takes, raises a ValueError."""
    r = geometry._checked_rc(rc)
    if not isinstance(r, float):
        raise ValueError(f"rc must be one r_C, got shape {r.shape}; "
                         "exclusion_curve takes a grid")
    return r


def _excess(spec: ExperimentSpec, sigma_conv_sq: float) -> float:
    if spec.xi_t is None:
        raise ValueError("spec has no observed xi_t")
    return spec.xi_t ** 2 / spec.state.n_atoms - sigma_conv_sq


def lambda_bound(spec: ExperimentSpec, rc: float, mode: str,
                 fp_cap_one: bool = False) -> float:
    """Largest collapse rate consistent with the observed squeezing xi_t.

    Inverts the linear variance model at sigma_phi^2 = xi_t^2 / N.  Raises
    ExcessVarianceError when the observed spread is below the conventional
    prediction (negative excess signals an inconsistent spec, not a
    bound), ZeroDivisionError for a zero slope and OverflowError for a
    bound past the float range.
    """
    return _invert(spec, variance_split(spec, _one_rc(rc), mode,
                                        fp_cap_one=fp_cap_one))


def _invert(spec: ExperimentSpec, split: VarianceSplit) -> float:
    excess = _excess(spec, split.sigma_conv_sq)
    if excess < 0:
        raise ExcessVarianceError(
            "observed spread below conventional prediction"
        )
    bound = excess / split.alpha_csl_sq
    if math.isinf(bound):
        raise OverflowError(
            "lambda_bound overflows the float range (excess variance "
            f"{excess!r} over alpha_csl^2 = {split.alpha_csl_sq!r})")
    return bound


def exclusion_curve(spec: ExperimentSpec, mode: str, rc_grid,
                    fp_cap_one: bool = False) -> ExclusionCurve:
    """lambda_bound over the 1-D grid ``rc_grid``.

    NaN marks exactly the points where ``lambda_bound`` raises: a negative
    excess variance, a zero slope or a bound past the float range.  A grid
    that is not 1-D or holds bools, an r_C outside (0, 6.7e153 m], a mode
    other than ``spec.mode`` or a spec without xi_t raises for the whole
    grid.  A negative excess gives all NaN without a geometry factor.
    """
    rc_grid = geometry._rc_array(rc_grid)
    if rc_grid.ndim != 1:
        raise ValueError(
            f"rc_grid must be a 1-D grid, got shape {rc_grid.shape}")
    sigma_conv_sq, slope = _model(spec, mode, fp_cap_one)
    excess = _excess(spec, sigma_conv_sq)
    bound = np.full(rc_grid.shape, np.nan)
    if excess < 0:
        geometry._checked_rc(rc_grid)
        return ExclusionCurve(rc=rc_grid, lambda_bound=bound)
    for i in range(0, rc_grid.size, _BLOCK):
        alpha, out = slope(rc_grid[i:i + _BLOCK]), bound[i:i + _BLOCK]
        with np.errstate(over="ignore"):  # past the float range: inf, then NaN
            np.divide(excess, alpha, out=out, where=alpha > 0.0)
        out[np.isinf(out)] = np.nan
    return ExclusionCurve(rc=rc_grid, lambda_bound=bound)


def fisher_information(split: VarianceSplit, lam: float) -> float:
    """FI of the Gaussian count distribution with respect to lambda."""
    return 0.5 / _square(split.sigma_conv_sq / split.alpha_csl_sq + lam,
                         "sigma_conv^2 / alpha_csl^2 + lambda")


def _repetition_count(name: str, conv: float, split: VarianceSplit,
                      lambda_min: float, delta: float) -> int:
    """Ceiling of (2/delta^2) (1 + conv / (lambda_min alpha_csl^2))^2.

    A count past 2**53, where a float count is not exact, raises an
    OverflowError naming ``name``.
    """
    try:
        c = conv / (lambda_min * split.alpha_csl_sq)
        k = 2.0 / delta ** 2 * (1.0 + c) ** 2
    except (OverflowError, ZeroDivisionError):
        k = math.inf
    if k > 2.0 ** 53:
        raise OverflowError(
            f"repetition count {name} overflows 2**53, past which a "
            f"float count is not exact: {name} = {k:.6g} at "
            f"lambda_min = {lambda_min!r}, delta = {delta!r}")
    return math.ceil(k)


def repetitions(spec: ExperimentSpec, rc: float, mode: str,
                lambda_min: float = None, delta: float = 0.1,
                fp_cap_one: bool = False) -> RepetitionEstimate:
    """Measurement repetitions needed to resolve lambda_min at precision delta.

    k >= (2/delta^2) (1 + sigma_conv^2 / (lambda alpha_csl^2))^2, reported
    as a ceiling.  ``k_inflated`` assumes an extra noise broadening
    2*gamma*t = 0.5 * sigma_conv^2.  ``lambda_min`` defaults to the
    spec's own exclusion bound.  A count past 2**53 raises OverflowError.
    """
    split = variance_split(spec, _one_rc(rc), mode, fp_cap_one=fp_cap_one)
    if lambda_min is None:
        lambda_min = _invert(spec, split)
    _check_positive("lambda_min", lambda_min)
    _check_positive("delta", delta)
    return RepetitionEstimate(
        fisher_info=fisher_information(split, lambda_min),
        k=_repetition_count("k", split.sigma_conv_sq, split, lambda_min,
                            delta),
        k_inflated=_repetition_count("k_inflated", 1.5 * split.sigma_conv_sq,
                                     split, lambda_min, delta),
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
    cr_floor: float            # Cramer-Rao lower limit on the spread
    k: int
    n_meta: int

    @property
    def spread_stderr(self) -> float:
        return self.lambda_hat_spread / math.sqrt(2.0 * (self.n_meta - 1))


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
    finite and >= 0; k and n_meta (>= 2) must be ints, and a bool is not.
    """
    _check_nonnegative("lambda_true", lambda_true)
    _check_count("k", k, 100)
    if math.sqrt(2 / (k - 1)) < _MIN_CHI2_SPREAD:
        raise ValueError(
            "k must be below about 4e25, where the chi^2 spread "
            f"sqrt(2/(k-1)) reaches 1e3 float epsilons; got k = {k!r}")
    _check_count("n_meta", n_meta, 2)
    _check_seed(seed)
    split = variance_split(spec, _one_rc(rc), mode, fp_cap_one=fp_cap_one)
    fisher = fisher_information(split, lambda_true)
    cr = 1.0 / math.sqrt(fisher) / math.sqrt(k)  # k F itself can overflow
    sigma_phi_sq = split.sigma_conv_sq + split.alpha_csl_sq * lambda_true

    rng = np.random.Generator(np.random.Philox(key=seed))
    s2 = sigma_phi_sq * rng.chisquare(k - 1, size=n_meta) / (k - 1)
    lam_hat = (s2 - split.sigma_conv_sq) / split.alpha_csl_sq

    return CalibrationResult(
        lambda_hat_mean=float(np.mean(lam_hat)),
        lambda_hat_spread=float(np.std(lam_hat, ddof=1)),
        cr_floor=cr,
        k=k,
        n_meta=n_meta,
    )
