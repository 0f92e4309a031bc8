import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cslbec.core import (
    CslPoint,
    ExperimentSpec,
    InitialState,
    MziGeometry,
    NoiseModel,
    Protocol,
    RUBIDIUM_87,
    Species,
    SwiGeometry,
)
from cslbec.dynamics import phase_variance, propagator_parts
from cslbec.geometry import f_closed, optimal_rc
from cslbec import geometry, inference
from cslbec.inference import (
    CalibrationResult,
    ExcessVarianceError,
    MODES,
    VarianceSplit,
    calibrate_estimator,
    exclusion_curve,
    fisher_information,
    lambda_bound,
    repetitions,
    table1,
    variance_split,
)
from cslbec.scenarios import SCENARIOS

OPT = math.sqrt(2.0 / 3.0)

RB_MZI = SCENARIOS["rb-mzi"]
RB_SWI = SCENARIOS["rb-swi"]
CS_MZI = SCENARIOS["cs-mzi"]
RB_ECHO = SCENARIOS["rb-swi-echo"]

# every scenario with each mode its geometry allows
SCENARIO_MODES = [(name, mode) for name, sc in sorted(SCENARIOS.items())
                  for mode in (("mzi",) if sc.mode == "mzi"
                               else ("swi_plain", "swi_echo"))]


def scenario_spec(name, mode):
    """Scenario ``name``'s spec run with the protocol ``mode`` names: a
    single well's echo flag, which sets its mode, follows ``mode``."""
    spec = SCENARIOS[name].spec
    if mode == "mzi":
        return spec
    echo = mode == "swi_echo"
    return replace(spec, protocol=replace(spec.protocol, echo=echo))


def negative_excess(spec):
    """A valid ``spec`` whose conventional spread exceeds the observed one.

    With xi_t = xi0, the dispersion broadening (zeta t sigma_n0)^2 of a
    plain protocol is all of the negative excess; a spec without
    dispersion gets zeta = 1e-3 rad/s.  An echo's net shear is exactly 0,
    so no echo spec with xi_t >= xi0, as a spec must have, has one.
    """
    assert not spec.protocol.echo
    protocol = replace(spec.protocol, zeta=spec.protocol.zeta or 1e-3)
    return replace(spec, protocol=protocol, xi_t=spec.state.xi0)


PAPER_K = {"rb-mzi": 2086, "rb-swi": 3381, "cs-mzi": 1033,
           "rb-swi-echo": 3065}
PAPER_K15 = {"rb-mzi": 3775, "rb-swi": 6423, "cs-mzi": 1692,
             "rb-swi-echo": 5771}


def random_spec(rng, mode):
    n_atoms = int(rng.integers(1_000, 1_000_000))
    xi0 = float(rng.uniform(0.5, 2.0))
    t = float(rng.uniform(0.1, 2.0))
    if mode == "mzi":
        # an MZI spec may carry dispersion and an echo: its mode is "mzi"
        geometry = MziGeometry(delta_x=float(rng.uniform(5e-6, 2e-5)),
                               w_x=float(rng.uniform(5e-8, 3e-7)))
        zeta = float(rng.choice([0.0, rng.uniform(1e-6, 1e-2)]))
        echo = bool(rng.integers(2))
    else:
        geometry = SwiGeometry(x0=float(rng.uniform(5e-8, 1e-6)))
        zeta = float(rng.uniform(1e-4, 1e-2))
        echo = mode == "swi_echo"
    xi_t = xi0 * float(rng.uniform(1.01, 1.5))
    return ExperimentSpec(
        species=RUBIDIUM_87,
        geometry=geometry,
        state=InitialState(n_atoms=n_atoms, xi0=xi0),
        protocol=Protocol(t=t, zeta=zeta, echo=echo),
        noise=NoiseModel(),
        xi_t=xi_t,
    )


class TestVarianceSplit:
    def test_mzi_direct_identification(self):
        spec = RB_MZI.spec
        rc = 1e-6
        split = variance_split(spec, rc, "mzi")
        assert split.sigma_conv_sq == pytest.approx(
            0.9 ** 2 / 300_000, rel=1e-12)
        f_p = f_closed(spec.geometry, rc).f_p
        assert split.alpha_csl_sq == pytest.approx(
            2.0 * 86.909180 ** 2 * 0.8 * f_p, rel=1e-12)

    def test_intercept_is_zero_lambda_variance(self):
        cases = [(RB_MZI, "mzi"), (RB_SWI, "swi_plain"),
                 (RB_ECHO, "swi_echo")]
        for sc, mode in cases:
            split = variance_split(sc.spec, sc.rc, mode)
            pv = phase_variance(sc.spec, CslPoint(0.0, sc.rc)).variance
            assert split.sigma_conv_sq == pv

    @pytest.mark.parametrize("sc,mode", [(RB_MZI, "mzi"),
                                         (RB_SWI, "swi_plain")])
    def test_slope_matches_forward_model(self, sc, mode):
        split = variance_split(sc.spec, sc.rc, mode)
        l1, l2 = 1e-12, 7e-12
        v1 = phase_variance(sc.spec, CslPoint(l1, sc.rc)).variance
        v2 = phase_variance(sc.spec, CslPoint(l2, sc.rc)).variance
        assert (v2 - v1) / (l2 - l1) == pytest.approx(
            split.alpha_csl_sq, rel=1e-12)

    def test_echo_slope_drops_dephasing(self):
        # the echo inference slope is the forward-model slope minus the
        # dephasing contribution 2 (m/u)^2 t f_P, dropped on purpose
        sc = RB_ECHO
        split = variance_split(sc.spec, sc.rc, "swi_echo")
        l1, l2 = 1e-13, 1e-12
        v1 = phase_variance(sc.spec, CslPoint(l1, sc.rc)).variance
        v2 = phase_variance(sc.spec, CslPoint(l2, sc.rc)).variance
        forward = (v2 - v1) / (l2 - l1)
        f_p = f_closed(sc.spec.geometry, sc.rc).f_p
        dephasing = 2.0 * 86.909180 ** 2 * sc.spec.protocol.t * f_p
        assert forward - dephasing == pytest.approx(
            split.alpha_csl_sq, rel=1e-12)
        assert split.alpha_csl_sq < forward

    @pytest.mark.parametrize("fp_cap_one", [False, True])
    @pytest.mark.parametrize("name, mode", SCENARIO_MODES)
    def test_slope_has_the_shape_of_rc(self, name, mode, fp_cap_one):
        # constant factors (capped MZI: f_P = 1, f_S = 0) still give a
        # slope per r_C, and a scalar r_C gives Python floats
        sc, spec = SCENARIOS[name], scenario_spec(name, mode)
        for grid in (np.geomspace(1e-9, 1e-3, 6),
                     np.geomspace(1e-9, 1e-3, 6).reshape(2, 3)):
            slope = variance_split(spec, grid, mode,
                                   fp_cap_one=fp_cap_one).alpha_csl_sq
            assert isinstance(slope, np.ndarray)
            assert (slope.dtype, slope.shape) == (np.float64, grid.shape)
            pointwise = [variance_split(spec, float(rc), mode,
                                        fp_cap_one=fp_cap_one).alpha_csl_sq
                         for rc in grid.ravel()]
            assert all(type(a) is float for a in pointwise)
            np.testing.assert_array_equal(slope.ravel(), pointwise)
        if mode == sc.mode:  # elsewhere the excess can be negative
            bound = lambda_bound(sc.spec, sc.rc, mode, fp_cap_one=fp_cap_one)
            assert type(bound) is float

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            variance_split(RB_MZI.spec, 1e-6, "ramsey")

    @pytest.mark.parametrize("name, spec_mode", SCENARIO_MODES)
    def test_mode_other_than_the_specs_is_refused(self, name, spec_mode):
        # the bound assumes the protocol that produced xi_t: a mode may not
        # restate the spec's geometry or echo differently
        spec, rc = scenario_spec(name, spec_mode), SCENARIOS[name].rc
        assert spec.mode == spec_mode
        for mode in set(MODES) - {spec_mode}:
            for call in (lambda: variance_split(spec, rc, mode),
                         lambda: lambda_bound(spec, rc, mode),
                         lambda: exclusion_curve(spec, mode, [rc]),
                         lambda: repetitions(spec, rc, mode, lambda_min=1.0),
                         lambda: calibrate_estimator(spec, rc, mode, 1.0,
                                                     200, seed=1)):
                with pytest.raises(ValueError, match=(
                        f"^mode '{mode}' is not the spec's mode "
                        f"'{spec_mode}'")):
                    call()

    @pytest.mark.parametrize("mode", MODES)
    def test_intercept_and_slope_match_forward_model(self, mode):
        # the inference evaluates the spec's own protocol, echo included:
        # its intercept is the forward model's at lambda = 0, bit for bit,
        # and where it keeps f_P its slope is the forward model's
        rng = np.random.default_rng([11, MODES.index(mode)])
        for _ in range(100):
            spec = random_spec(rng, mode)
            rc = float(rng.uniform(3e-8, 3e-6))
            split = variance_split(spec, rc, spec.mode)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sigma_phi past pi/3
                conv = phase_variance(spec, CslPoint(0.0, rc)).variance
                lam = conv / split.alpha_csl_sq  # doubles the variance
                forward = phase_variance(spec, CslPoint(lam, rc)).variance
            assert split.sigma_conv_sq == conv
            if mode != "swi_echo":
                assert (forward - conv) / lam == pytest.approx(
                    split.alpha_csl_sq, rel=1e-12, abs=0)


class TestLambdaBound:
    def test_mzi_hand_evaluated(self):
        # lambda = (u/m)^2 (xi_t^2 - xi0^2) / (2 N t f_P), f_P = 1
        bound = lambda_bound(RB_MZI.spec, 1e-6, "mzi", fp_cap_one=True)
        by_hand = (1.1 ** 2 - 0.9 ** 2) / 300_000 \
            / (2.0 * 86.909180 ** 2 * 0.8)
        assert bound == pytest.approx(by_hand, rel=1e-12, abs=0)
        assert bound == pytest.approx(1.103284328489337e-10, rel=1e-9, abs=0)

    def test_echo_hand_evaluated(self):
        # lambda = 12 (u/m)^2 (xi_t^2 - xi0^2) / (N^3 t^3 zeta^2 f_S)
        sc = RB_ECHO
        bound = lambda_bound(sc.spec, sc.rc, "swi_echo")
        f_s = f_closed(sc.spec.geometry, sc.rc).f_s
        by_hand = 12.0 * (1.15 ** 2 - 1.0) \
            / (86.909180 ** 2 * 50_000 ** 3 * 0.2 ** 3 * 4.0 ** 2 * f_s)
        assert bound == pytest.approx(by_hand, rel=1e-12, abs=0)
        assert bound == pytest.approx(9.434816072105962e-17, rel=1e-9, abs=0)

    def test_no_excess_gives_zero(self):
        spec = ExperimentSpec(
            species=RUBIDIUM_87,
            geometry=MziGeometry(delta_x=10e-6, w_x=100e-9),
            state=InitialState(n_atoms=10_000, xi0=1.0),
            protocol=Protocol(t=1.0),
            noise=NoiseModel(),
            xi_t=1.0,
        )
        assert lambda_bound(spec, 1e-6, "mzi") == 0.0
        # a zero excess is a bound of 0 Hz on the curve too, not a gap
        curve = exclusion_curve(spec, "mzi", np.geomspace(1e-8, 1e-6, 5))
        np.testing.assert_array_equal(curve.lambda_bound, 0.0)

    def test_zero_slope_is_named(self):
        # an echo with zeta = 0 has no slope in lambda: the named error,
        # not Python's bare "float division by zero", and a curve of gaps
        spec = replace(RB_ECHO.spec,
                       protocol=replace(RB_ECHO.spec.protocol, zeta=0.0))
        with pytest.raises(ZeroDivisionError, match="^" + re.escape(
                "variance has no collapse-rate sensitivity "
                "(alpha_csl^2 = 0)") + "$"):
            lambda_bound(spec, RB_ECHO.rc, "swi_echo")
        curve = exclusion_curve(spec, "swi_echo",
                                np.geomspace(1e-8, 1e-6, 5))
        assert np.all(np.isnan(curve.lambda_bound))

    def test_negative_excess_raises(self):
        # xi_t > xi0, but the dispersion broadening (zeta t sigma_n0)^2 =
        # 1e-2 exceeds the excess (1.2^2 - 1) / N = 4.4e-5
        spec = ExperimentSpec(
            species=RUBIDIUM_87,
            geometry=MziGeometry(delta_x=10e-6, w_x=100e-9),
            state=InitialState(n_atoms=10_000, xi0=1.0),
            protocol=Protocol(t=1.0, zeta=1e-3),
            noise=NoiseModel(),
            xi_t=1.2,
        )  # a valid spec: making it raised nothing
        with pytest.raises(ExcessVarianceError):
            lambda_bound(spec, 1e-6, "mzi")

    @pytest.mark.parametrize("rc", [True, np.True_],
                             ids=["bool", "numpy-bool"])
    def test_refuses_a_bool_rc(self, rc):
        # a bool was read as 1 m: 4.413 Hz for rb-mzi
        with pytest.raises(ValueError, match="^rc must be a real number, "
                                             "not a bool, got "):
            lambda_bound(RB_MZI.spec, rc, "mzi")
        with pytest.raises(ValueError, match="^rc must be a real number, "
                                             "not a bool, got "):
            exclusion_curve(RB_MZI.spec, "mzi", [rc, rc])
        # numpy reads a list that mixes a bool with floats as floats
        with pytest.raises(ValueError, match="^rc must be a real number, "
                                             "not a bool, got "):
            exclusion_curve(RB_MZI.spec, "mzi", [1e-6, rc])

    def test_requires_xi_t(self):
        spec = ExperimentSpec(
            species=RUBIDIUM_87,
            geometry=MziGeometry(delta_x=10e-6, w_x=100e-9),
            state=InitialState(n_atoms=10_000, xi0=1.0),
            protocol=Protocol(t=1.0),
            noise=NoiseModel(),
        )
        with pytest.raises(ValueError, match="xi_t"):
            lambda_bound(spec, 1e-6, "mzi")

    @pytest.mark.parametrize("mode", MODES)
    def test_equivalent_to_published_inversions(self, mode):
        # the generic linear inversion agrees with the three dedicated
        # bound formulas written out independently here
        rng = np.random.default_rng([12, MODES.index(mode)])
        compared = 0
        for _ in range(100):
            spec = random_spec(rng, mode)
            if mode == "swi_plain":
                # a dispersion broadening zeta^2 t^2 N sigma_n0^2 of up to
                # xi0^2 keeps xi_t below the narrow-phase limit pi/3 sqrt(N)
                zeta = (spec.state.xi0 ** 2 / spec.protocol.t
                        / spec.state.n_atoms * float(rng.uniform(0.3, 1.0)))
                spec = replace(spec, protocol=replace(spec.protocol,
                                                      zeta=zeta))
            rc = float(rng.uniform(3e-8, 3e-6))
            f = f_closed(spec.geometry, rc)
            n = spec.state.n_atoms
            t = spec.protocol.t
            zeta = spec.protocol.zeta
            m_sq = spec.species.mass_u ** 2
            # the echo cancels the dispersion broadening of sigma_conv
            dispersion = 0.0 if spec.protocol.echo else \
                zeta ** 2 * t ** 2 * n * spec.state.sigma_n0 ** 2
            if mode == "swi_plain":
                # the dispersion is of the order of random_spec's excess,
                # which would leave some draws below the conventional
                # prediction
                spec = replace(spec, xi_t=math.sqrt(
                    spec.state.xi0 ** 2 + dispersion)
                    * float(rng.uniform(1.01, 1.5)))
            excess = spec.xi_t ** 2 - spec.state.xi0 ** 2 - dispersion
            if mode == "mzi":
                expected = excess / (2.0 * n * t * m_sq * f.f_p)
            elif mode == "swi_plain":
                expected = excess / (2.0 * n * t * m_sq
                                     * (f.f_p + n ** 2 / 6.0 * zeta ** 2
                                        * t ** 2 * f.f_s))
            else:
                expected = 12.0 * (spec.xi_t ** 2 - spec.state.xi0 ** 2) \
                    / (m_sq * n ** 3 * t ** 3 * zeta ** 2 * f.f_s)
            if excess < 0 and mode != "swi_echo":
                with pytest.raises(ExcessVarianceError):
                    lambda_bound(spec, rc, mode)
                continue
            assert lambda_bound(spec, rc, mode) == pytest.approx(
                expected, rel=1e-12, abs=0)
            compared += 1
        assert compared >= 50


class TestExclusionCurve:
    def test_mzi_curve_shape_and_minimum(self):
        grid = np.geomspace(1e-9, 1e-3, 200)
        curve = exclusion_curve(RB_MZI.spec, "mzi", grid)
        vals = curve.lambda_bound
        assert not np.any(np.isnan(vals))
        low = float(np.nanmin(vals))
        assert low == pytest.approx(1.1e-10, rel=0.05, abs=0)
        # U shape: both ends far above the minimum
        assert vals[0] > 100 * low and vals[-1] > 100 * low

    def test_swi_echo_minimum_location(self):
        grid = np.geomspace(1e-8, 1e-5, 400)
        curve = exclusion_curve(RB_ECHO.spec, "swi_echo", grid)
        i = int(np.nanargmin(curve.lambda_bound))
        rc_star = optimal_rc(RB_ECHO.spec.geometry)
        # minimum within one grid cell of the analytic optimum
        assert grid[max(i - 1, 0)] <= rc_star <= grid[min(i + 1, len(grid) - 1)]
        assert curve.lambda_bound[i] == pytest.approx(0.943e-16, rel=0.01,
                                                      abs=0)

    @staticmethod
    def assert_matches_pointwise(spec, mode, grid, fp_cap_one):
        curve = exclusion_curve(spec, mode, grid, fp_cap_one=fp_cap_one)
        expected = []
        for rc in grid:
            try:
                expected.append(lambda_bound(spec, rc, mode,
                                             fp_cap_one=fp_cap_one))
            except (ExcessVarianceError, ZeroDivisionError, OverflowError):
                expected.append(math.nan)
        np.testing.assert_array_equal(curve.lambda_bound, expected)
        return curve.lambda_bound

    @pytest.mark.parametrize("fp_cap_one", [False, True])
    @pytest.mark.parametrize("name", ["rb-mzi", "rb-swi", "cs-mzi",
                                      "rb-swi-echo"])
    def test_equals_pointwise_lambda_bound(self, name, fp_cap_one):
        # at 1e-160 m rc^2 is subnormal, yet the SWI factors stay nonzero
        sc = SCENARIOS[name]
        grid = np.geomspace(1e-160, 1e-3, 300)
        bounds = self.assert_matches_pointwise(sc.spec, sc.mode, grid,
                                               fp_cap_one)
        assert np.isfinite(bounds[-1])
        if sc.mode == "swi_echo" or (sc.mode == "swi_plain"
                                     and not fp_cap_one):
            assert np.isfinite(bounds[0])
        if sc.spec.protocol.echo:
            return  # an echo spec has no negative excess (negative_excess)
        # observed spread below the conventional one: no bound anywhere
        bounds = self.assert_matches_pointwise(negative_excess(sc.spec),
                                               sc.mode, grid, fp_cap_one)
        assert np.all(np.isnan(bounds))

    @pytest.mark.parametrize("fp_cap_one", [False, True])
    @pytest.mark.parametrize("name, mode", SCENARIO_MODES)
    def test_no_bound_rule_over_the_whole_rc_range(self, name, mode,
                                                   fp_cap_one):
        # the whole accepted range, denser where rc^2 is subnormal and where
        # the SWI bounds pass the float range; RuntimeWarnings are errors
        grid = np.concatenate([np.geomspace(1e-200, 6e153, 1001),
                               np.geomspace(1e-163, 1e-161, 41),
                               np.geomspace(1e153, 6e153, 41)])
        spec = scenario_spec(name, mode)
        bounds = self.assert_matches_pointwise(spec, mode, grid, fp_cap_one)
        assert not np.isinf(bounds).any()
        if name == "rb-swi" and not (mode == "swi_plain" and fp_cap_one):
            # the slope falls off as f_S ~ x0^2/rc^2 unless f_P = 1 holds it
            with pytest.raises(OverflowError, match="lambda_bound overflows"):
                lambda_bound(spec, 6e153, mode,
                             fp_cap_one=fp_cap_one)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_blocks_match_one_pass(self, name):
        # two whole blocks and a partial one against the whole grid at once
        sc = SCENARIOS[name]
        grid = np.geomspace(1e-160, 1e-3, 2 * inference._BLOCK + 1001)
        split = variance_split(sc.spec, grid, sc.mode)
        excess = inference._excess(sc.spec, split.sigma_conv_sq)
        one_pass = np.divide(excess, split.alpha_csl_sq,
                             out=np.full(grid.shape, np.nan),
                             where=(excess >= 0) & (split.alpha_csl_sq > 0.0))
        np.testing.assert_array_equal(
            exclusion_curve(sc.spec, sc.mode, grid).lambda_bound, one_pass)

    def test_unit_responses_once_per_curve(self, monkeypatch):
        # the intercept and unit slopes are scalars: one propagator pass
        # for a curve of several blocks
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return propagator_parts(*args, **kwargs)

        monkeypatch.setattr(inference, "propagator_parts", counted)
        grid = np.geomspace(1e-9, 1e-3, 2 * inference._BLOCK + 1)
        curve = exclusion_curve(RB_ECHO.spec, "swi_echo", grid)
        assert len(calls) == 1
        assert np.isfinite(curve.lambda_bound).all()

    @staticmethod
    def count_factor_formulas(monkeypatch):
        """Count the calls of each closed-form formula of cslbec.geometry,
        and of ``f_closed``, which runs both factors."""
        calls = dict.fromkeys(("_mzi_f_p", "_swi_f_s", "f_closed"), 0)
        for name in calls:
            def counted(*args, _name=name, _formula=getattr(geometry, name)):
                calls[_name] += 1
                return _formula(*args)

            monkeypatch.setattr(geometry, name, counted)
        return calls

    @pytest.mark.parametrize("name, mode, fp_cap_one, evaluated", [
        ("rb-swi", "swi_plain", False, {"f_closed", "_swi_f_s"}),
        ("rb-swi", "swi_plain", True, {"_swi_f_s"}),
        ("rb-swi-echo", "swi_echo", False, {"_swi_f_s"}),
        ("rb-swi-echo", "swi_echo", True, {"_swi_f_s"}),
        ("rb-mzi", "mzi", False, {"_mzi_f_p"}),
        ("rb-mzi", "mzi", True, set()),
    ])
    def test_evaluates_only_the_factors_its_mode_reads(
            self, monkeypatch, name, mode, fp_cap_one, evaluated):
        calls = self.count_factor_formulas(monkeypatch)
        sc = SCENARIOS[name]
        grid = np.geomspace(1e-9, 1e-3, 2 * inference._BLOCK + 1)
        curve = exclusion_curve(sc.spec, mode, grid, fp_cap_one=fp_cap_one)
        # each formula the mode reads once per block, no other
        assert calls == {n: 3 if n in evaluated else 0 for n in calls}
        assert np.isfinite(curve.lambda_bound).all()

    @pytest.mark.parametrize("fp_cap_one", [False, True])
    @pytest.mark.parametrize("name, mode", [
        (name, mode) for name, mode in SCENARIO_MODES if mode != "swi_echo"])
    def test_negative_excess_evaluates_no_factor(self, monkeypatch, name,
                                                 mode, fp_cap_one):
        calls = self.count_factor_formulas(monkeypatch)
        narrow = negative_excess(scenario_spec(name, mode))
        grid = np.geomspace(1e-9, 1e-3, 2 * inference._BLOCK + 1)
        curve = exclusion_curve(narrow, mode, grid, fp_cap_one=fp_cap_one)
        assert np.isnan(curve.lambda_bound).all()
        # the grid is still checked, whole
        for bad in (0.0, -1e-6, 1e154, math.inf, math.nan):
            with pytest.raises(ValueError, match="rc must be"):
                exclusion_curve(narrow, mode, np.append(grid, bad),
                                fp_cap_one=fp_cap_one)
        assert set(calls.values()) == {0}

    @pytest.mark.parametrize("rc_grid", [1e-6, [[1e-7, 1e-6]]])
    def test_refuses_grid_that_is_not_1d(self, rc_grid):
        with pytest.raises(ValueError, match="rc_grid"):
            exclusion_curve(RB_MZI.spec, "mzi", rc_grid)

    def test_undefined_points_become_gaps(self):
        # echo inference with zeta = 0 has zero slope everywhere
        spec = ExperimentSpec(
            species=RUBIDIUM_87,
            geometry=SwiGeometry(x0=100e-9),
            state=InitialState(n_atoms=1_000, xi0=1.0),
            protocol=Protocol(t=0.2, zeta=0.0, echo=True),
            noise=NoiseModel(),
            xi_t=1.2,
        )
        grid = np.geomspace(1e-8, 1e-6, 5)
        bounds = self.assert_matches_pointwise(spec, "swi_echo", grid, False)
        assert np.all(np.isnan(bounds))


class TestRepetitions:
    def test_negligible_conventional_noise(self):
        # c -> 0 gives the pure statistics floor k = 2 / delta^2
        spec = ExperimentSpec(
            species=RUBIDIUM_87,
            geometry=MziGeometry(delta_x=10e-6, w_x=100e-9),
            state=InitialState(n_atoms=1_000_000, xi0=1e-6),
            protocol=Protocol(t=1.0),
            noise=NoiseModel(),
        )
        est = repetitions(spec, 1e-6, "mzi", lambda_min=1e-6, delta=0.1)
        assert est.k == 200
        assert est.k_inflated == 200

    def test_paper_rows(self):
        for name, sc in (("rb-mzi", RB_MZI), ("cs-mzi", CS_MZI)):
            est = repetitions(sc.spec, sc.rc, sc.mode,
                              lambda_min=sc.lambda_min, delta=0.1,
                              fp_cap_one=True)
            assert est.k == pytest.approx(PAPER_K[name], rel=0.03)
            assert est.k_inflated == pytest.approx(PAPER_K15[name], rel=0.03)

    def test_lambda_min_defaults_to_bound(self):
        est = repetitions(RB_MZI.spec, 1e-6, "mzi", fp_cap_one=True)
        assert est.lambda_min == pytest.approx(
            lambda_bound(RB_MZI.spec, 1e-6, "mzi", fp_cap_one=True),
            rel=1e-12, abs=0)

    def test_one_split_per_call(self, monkeypatch):
        # the default lambda_min inverts the split the counts use
        import cslbec.inference as inference

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return variance_split(*args, **kwargs)

        monkeypatch.setattr(inference, "variance_split", counted)
        est = repetitions(RB_MZI.spec, 1e-6, "mzi", fp_cap_one=True)
        assert len(calls) == 1
        assert est.lambda_min == lambda_bound(RB_MZI.spec, 1e-6, "mzi",
                                              fp_cap_one=True)

    def test_monotonicity_in_lambda_min(self):
        ks = [repetitions(RB_MZI.spec, 1e-6, "mzi", lambda_min=lam,
                          delta=0.1).k
              for lam in (1e-11, 1e-10, 1e-9)]
        assert ks[0] >= ks[1] >= ks[2]
        assert all(k >= 200 for k in ks)

    def test_inflation_identity(self):
        for sc in (RB_MZI, RB_SWI, CS_MZI, RB_ECHO):
            split = variance_split(sc.spec, sc.rc, sc.mode,
                                   fp_cap_one=sc.mode == "mzi")
            c = split.sigma_conv_sq / (sc.lambda_min * split.alpha_csl_sq)
            est = repetitions(sc.spec, sc.rc, sc.mode,
                              lambda_min=sc.lambda_min, delta=0.1,
                              fp_cap_one=sc.mode == "mzi")
            assert est.k == math.ceil(200.0 * (1.0 + c) ** 2)
            assert est.k_inflated == math.ceil(200.0 * (1.0 + 1.5 * c) ** 2)
            assert est.k_inflated >= est.k
            # the Cramer-Rao relation k = 1/(delta^2 lambda^2 F)
            inflated = replace(split, sigma_conv_sq=1.5 * split.sigma_conv_sq)
            for k, s in ((est.k, split), (est.k_inflated, inflated)):
                f = fisher_information(s, sc.lambda_min)
                assert k == pytest.approx(
                    1.0 / (0.1 ** 2 * sc.lambda_min ** 2 * f), rel=1e-12, abs=1)

    def test_count_past_2_53_is_refused(self):
        # past 2**53 a float skips integers, so ceil(k) is no exact count
        split = variance_split(RB_SWI.spec, RB_SWI.rc, "swi_plain")

        def lambda_at(k, inflation):  # 200 (1 + inflation c)^2 = k
            return inflation * split.sigma_conv_sq / (
                split.alpha_csl_sq * (math.sqrt(k / 200.0) - 1.0))

        est = repetitions(RB_SWI.spec, RB_SWI.rc, "swi_plain",
                          lambda_min=lambda_at(0.999 * 2 ** 53, 1.5))
        assert 0.99 * 2 ** 53 < est.k_inflated <= 2 ** 53
        for inflation, name in ((1.5, "k_inflated"), (1.0, "k")):
            with pytest.raises(OverflowError,
                               match=rf"^repetition count {name} overflows"):
                repetitions(RB_SWI.spec, RB_SWI.rc, "swi_plain",
                            lambda_min=lambda_at(1.001 * 2 ** 53, inflation))

    def test_count_of_exactly_2_53_is_exact(self):
        # k = 2 / delta^2 is exactly 2**53 at delta = 2**-26, and the
        # largest count a float holds exactly; one ulp less delta is past it
        split = VarianceSplit(sigma_conv_sq=0.0, alpha_csl_sq=1.0)
        k = inference._repetition_count("k", 0.0, split, 1.0, 2.0 ** -26)
        assert k == 2 ** 53
        with pytest.raises(OverflowError,
                           match=r"^repetition count k overflows 2\*\*53"):
            inference._repetition_count(
                "k", 0.0, split, 1.0, math.nextafter(2.0 ** -26, 0.0))

    def test_fisher_information_relation(self):
        split = variance_split(RB_MZI.spec, 1e-6, "mzi", fp_cap_one=True)
        lam = 1e-10
        fi = fisher_information(split, lam)
        assert fi == pytest.approx(
            1.0 / (2.0 * (split.sigma_conv_sq / split.alpha_csl_sq
                          + lam) ** 2), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            repetitions(RB_MZI.spec, 1e-6, "mzi", lambda_min=0.0)
        with pytest.raises(ValueError):
            repetitions(RB_MZI.spec, 1e-6, "mzi", lambda_min=1e-10,
                        delta=0.0)
        # a str used to raise a bare TypeError
        with pytest.raises(ValueError, match="^lambda_min must be finite "
                                             "and > 0, got '1e-10'$"):
            repetitions(RB_MZI.spec, 1e-6, "mzi", lambda_min="1e-10")


class TestTable1:
    def test_matches_paper_within_tolerance(self):
        rows = table1()
        assert [name for name, _, _ in rows] == [
            "rb-mzi", "rb-swi", "cs-mzi", "rb-swi-echo"]
        for name, _, est in rows:
            assert est.k == pytest.approx(PAPER_K[name], rel=0.03)
            assert est.k_inflated == pytest.approx(PAPER_K15[name], rel=0.03)

    def test_row_invariants(self):
        for _, _, est in table1():
            assert est.k >= 200
            assert est.k_inflated >= est.k


def count_matrix_calibration(spec, rc, mode, lambda_true, k, seed, n_meta,
                             fp_cap_one=False):
    """calibrate_estimator's earlier draw: all n_meta x k Gaussian counts
    around the readout mean, 0.0 at phase 0, one sample variance per row,
    rescaled by N^2 cos^2(phase) to phase.  The reference for the
    chi-square draw.  Returns (lambda_hat_mean, lambda_hat_spread)."""
    split = variance_split(spec, rc, mode, fp_cap_one=fp_cap_one)
    scale = (spec.state.n_atoms * math.cos(spec.protocol.phase_mean)) ** 2
    sigma_phi_sq = split.sigma_conv_sq + split.alpha_csl_sq * lambda_true
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.normal(0.0, math.sqrt(scale * sigma_phi_sq),
                        size=(n_meta, k))
    s2 = np.var(counts, axis=1, ddof=1) / scale
    lam_hat = (s2 - split.sigma_conv_sq) / split.alpha_csl_sq
    return float(np.mean(lam_hat)), float(np.std(lam_hat, ddof=1))


class TestCalibrateEstimator:
    def make_unit_spec(self, lam_scale=1.0):
        return ExperimentSpec(
            species=Species("unit", 1.0),
            geometry=SwiGeometry(x0=1.0, w_y=1.0 / math.sqrt(6.0)),
            state=InitialState(n_atoms=1_000, xi0=1.0),
            protocol=Protocol(t=1.0, zeta=1e-3),
            noise=NoiseModel(),
        )

    def test_null_calibration(self):
        spec = ExperimentSpec(
            species=RUBIDIUM_87,
            geometry=MziGeometry(delta_x=10e-6, w_x=100e-9),
            state=InitialState(n_atoms=10_000, xi0=1.0),
            protocol=Protocol(t=1.0),
            noise=NoiseModel(),
        )
        res = calibrate_estimator(spec, 1e-6, "mzi", lambda_true=0.0,
                                  k=2000, seed=5)
        se = res.lambda_hat_spread / math.sqrt(res.n_meta)
        assert abs(res.lambda_hat_mean) < 3.0 * se

    def test_spread_reaches_cr_floor(self):
        spec = self.make_unit_spec()
        res = calibrate_estimator(spec, OPT, "swi_plain", lambda_true=0.01,
                                  k=500, seed=17, n_meta=800)
        # sample-variance spread is within a few percent of the floor for
        # Gaussian counts; allow Monte Carlo wobble
        assert res.lambda_hat_spread == pytest.approx(res.cr_floor, rel=0.1)
        assert res.lambda_hat_mean == pytest.approx(
            0.01, abs=3.0 * res.lambda_hat_spread / math.sqrt(res.n_meta))

    def test_deterministic_by_seed(self):
        spec = self.make_unit_spec()
        a = calibrate_estimator(spec, OPT, "swi_plain", 0.01, 200, seed=1)
        b = calibrate_estimator(spec, OPT, "swi_plain", 0.01, 200, seed=1)
        c = calibrate_estimator(spec, OPT, "swi_plain", 0.01, 200, seed=2)
        assert a.lambda_hat_spread == b.lambda_hat_spread
        assert a.lambda_hat_spread != c.lambda_hat_spread

    # "1e-10" and None used to raise a bare TypeError
    @pytest.mark.parametrize("lambda_true", [math.nan, math.inf, -1e-10,
                                             "1e-10", None])
    def test_refuses_bad_lambda_true(self, lambda_true):
        with pytest.raises(ValueError, match="lambda_true must be finite "
                                             "and >= 0"):
            calibrate_estimator(self.make_unit_spec(), OPT, "swi_plain",
                                lambda_true, 200, seed=1)

    def test_requires_minimum_k(self):
        # below 100 the count rule refuses an int as it does a float; the
        # ceiling refuses sqrt(2/(k-1)) under 1e3 float epsilons, where
        # the spread would be float rounding, and k beyond the float range
        for k in (50, 50.0):
            with pytest.raises(ValueError, match=(
                    f"^k must be an int >= 100, got {k!r}$")):
                calibrate_estimator(self.make_unit_spec(), OPT, "swi_plain",
                                    0.01, k, seed=1)
        for k in (10 ** 26, 10 ** 40, 10 ** 400):
            with pytest.raises(ValueError, match=(
                    r"^k must be below about 4e25, where the chi\^2 spread "
                    rf"sqrt\(2/\(k-1\)\) reaches 1e3 float epsilons; "
                    rf"got k = {k}$")):
                calibrate_estimator(self.make_unit_spec(), OPT, "swi_plain",
                                    0.01, k, seed=1)
        calibrate_estimator(self.make_unit_spec(), OPT, "swi_plain", 0.01,
                            4 * 10 ** 25, seed=1)

    # k = 300.5 used to run and report k = 300.5, n_meta = 50.5 failed
    # inside numpy, seed True ran as seed 1, and k = "300" or None raised
    # a bare TypeError
    @pytest.mark.parametrize("changes, message", [
        ({"k": 300.5}, "k must be an int >= 100, got 300.5"),
        ({"k": "300"}, "k must be an int >= 100, got '300'"),
        ({"k": None}, "k must be an int >= 100, got None"),
        ({"n_meta": 50.5}, "n_meta must be an int >= 2, got 50.5"),
        ({"n_meta": 1}, "n_meta must be an int >= 2, got 1"),
        ({"seed": True}, "seed must be an integer in [0, 2**64), got True"),
    ], ids=["k-float", "k-str", "k-none", "n_meta-float", "n_meta-1",
            "seed-bool"])
    def test_count_or_seed_that_is_not_an_int_is_named(self, changes,
                                                       message):
        args = dict(k=300, seed=1, n_meta=50)
        args.update(changes)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibrate_estimator(self.make_unit_spec(), OPT, "swi_plain",
                                0.01, **args)

    def test_cr_floor_where_k_times_fisher_overflows(self):
        # F = 1/(2 (c + lambda)^2) is about 5e299 at lambda = 1e-150, so
        # k F overflows at k = 1e12 while the floor sqrt(2/k)(c + lambda)
        # is about 1.4e-156
        spec = replace(RB_MZI.spec, state=InitialState(10_000, 1e-140))
        lam, k = 1e-150, 10 ** 12
        res = calibrate_estimator(spec, RB_MZI.rc, "mzi", lam, k, seed=3,
                                  fp_cap_one=True)
        split = variance_split(spec, RB_MZI.rc, "mzi", fp_cap_one=True)
        c = split.sigma_conv_sq / split.alpha_csl_sq
        # ratios: pytest.approx's absolute 1e-12 would pass any tiny value
        floor = math.sqrt(2.0 / k) * (c + lam)
        assert res.cr_floor / floor == pytest.approx(1.0, rel=1e-12)
        assert res.lambda_hat_spread / floor == pytest.approx(1.0, rel=0.3)

    def test_replays_the_chi_square_law(self):
        # lambda_hat = (sigma_phi^2 chi^2_{k-1} / (k - 1) - sigma_conv^2)
        # / alpha_csl^2 on Philox(key=seed), its mean and ddof=1 spread
        sc, k, n_meta, seed = RB_MZI, 2086, 500, 7
        res = calibrate_estimator(sc.spec, sc.rc, sc.mode, sc.lambda_min,
                                  k=k, seed=seed, n_meta=n_meta,
                                  fp_cap_one=True)
        split = variance_split(sc.spec, sc.rc, sc.mode, fp_cap_one=True)
        sigma_phi_sq = split.sigma_conv_sq \
            + split.alpha_csl_sq * sc.lambda_min
        rng = np.random.Generator(np.random.Philox(key=seed))
        chi2 = rng.chisquare(k - 1, size=n_meta)
        lam_hat = (sigma_phi_sq * chi2 / (k - 1) - split.sigma_conv_sq) \
            / split.alpha_csl_sq
        assert res.lambda_hat_mean == float(np.mean(lam_hat))
        assert res.lambda_hat_spread == float(np.std(lam_hat, ddof=1))
        assert res.spread_stderr == \
            res.lambda_hat_spread / math.sqrt(2.0 * (n_meta - 1))

    def test_spread_stderr_follows_spread(self):
        # a constructor field would let it disagree with the spread
        with pytest.raises(TypeError):
            CalibrationResult(lambda_hat_mean=0.0, lambda_hat_spread=1.0,
                              spread_stderr=0.1, cr_floor=0.5, k=100,
                              n_meta=3)

    def test_spread_stderr_matches_the_scatter_of_spreads(self):
        sc = RB_MZI
        runs = [calibrate_estimator(sc.spec, sc.rc, sc.mode, sc.lambda_min,
                                    k=2086, seed=seed, n_meta=50,
                                    fp_cap_one=True)
                for seed in range(400)]
        scatter = np.std([r.lambda_hat_spread for r in runs], ddof=1)
        stderr = np.median([r.spread_stderr for r in runs])
        assert scatter / stderr == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize("setting", ["unit-swi", "rb-mzi"])
    def test_agrees_with_count_matrix(self, setting):
        if setting == "unit-swi":
            args = (self.make_unit_spec(), OPT, "swi_plain", 0.01)
            k, n_meta, seed, cap = 500, 800, 17, False
        else:
            args = (RB_MZI.spec, RB_MZI.rc, "mzi", RB_MZI.lambda_min)
            k, n_meta, seed, cap = 300, 600, 4, True
        res = calibrate_estimator(*args, k=k, seed=seed, n_meta=n_meta,
                                  fp_cap_one=cap)
        # a different stream from the same seed: independent estimates
        ref_mean, ref_spread = count_matrix_calibration(
            *args, k=k, seed=seed, n_meta=n_meta, fp_cap_one=cap)
        both = math.hypot(res.lambda_hat_spread, ref_spread)
        assert (abs(res.lambda_hat_mean - ref_mean)
                < 5.0 * both / math.sqrt(n_meta))
        assert (abs(res.lambda_hat_spread - ref_spread)
                < 5.0 * both / math.sqrt(2.0 * (n_meta - 1)))
