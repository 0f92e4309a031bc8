import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from cslbec.dynamics import (
    GaussianCharacteristic,
    PhaseMoments,
    Rates,
    characteristic_function,
    echo_characteristic_closed,
    phase_variance,
    rates,
    visibility,
    _evolved_characteristic,
    collapse_part,
    propagator_parts,
)
from cslbec.geometry import f_closed
from cslbec.scenarios import SCENARIOS

OPT = math.sqrt(2.0 / 3.0)


def mzi_spec(**kw):
    d = dict(
        species=RUBIDIUM_87,
        geometry=MziGeometry(delta_x=10e-6, w_x=100e-9),
        state=InitialState(n_atoms=300_000, xi0=0.9),
        protocol=Protocol(t=0.8),
        noise=NoiseModel(),
        xi_t=1.1,
    )
    d.update(kw)
    return ExperimentSpec(**d)


def swi_spec(**kw):
    d = dict(
        species=RUBIDIUM_87,
        geometry=SwiGeometry(x0=100e-9),
        state=InitialState(n_atoms=50_000, xi0=1.0),
        protocol=Protocol(t=0.2, zeta=4.0, echo=True),
        noise=NoiseModel(),
        xi_t=1.15,
    )
    d.update(kw)
    return ExperimentSpec(**d)


def order_one_spec(zeta=0.3, echo=False, mass_u=1.0, t=1.2):
    """Synthetic parameters of order unity for clean algebra checks."""
    return ExperimentSpec(
        species=Species("unit", mass_u),
        geometry=SwiGeometry(x0=1.0, w_y=1.0 / math.sqrt(6.0)),
        state=InitialState(n_atoms=4, xi0=1.0),
        protocol=Protocol(t=t, zeta=zeta, echo=echo),
        noise=NoiseModel(),
    )


class TestRates:
    def test_independent_reimplementation(self):
        # Gamma_P = 2 lambda (m/u)^2 with f_P = 1: MZI plateau is 0.9901,
        # so scale out f explicitly
        spec = mzi_spec()
        point = CslPoint(1e-10, 1e-6)
        r = rates(point, spec.species, spec.geometry)
        f = f_closed(spec.geometry, point.rc)
        expected = 2.0 * 1e-10 * 86.909180 ** 2  # = 1.5106411e-6
        assert r.gamma_p / f.f_p == pytest.approx(expected, rel=1e-12)
        assert r.gamma_p / f.f_p == pytest.approx(1.5106411e-6, rel=1e-6)
        assert r.gamma_s == 0.0

    def test_zero_lambda(self):
        r = rates(CslPoint(0.0, 1e-7), RUBIDIUM_87, SwiGeometry(x0=1e-7))
        assert r.gamma_p == 0.0 and r.gamma_s == 0.0

    def test_swi_optimum_diffusion_rate(self):
        x0 = 100e-9
        point = CslPoint(1e-16, OPT * x0)
        r = rates(point, RUBIDIUM_87, SwiGeometry(x0=x0))
        expected = math.sqrt(288.0 / 625.0) * 86.909180 ** 2 * 1e-16
        assert r.gamma_s == pytest.approx(expected, rel=1e-12, abs=0)
        assert r.gamma_s == pytest.approx(120.0 / 27.0 * r.gamma_p,
                                          rel=1e-12, abs=0)


class TestPhaseVariance:
    def test_frozen_dynamics(self):
        spec = mzi_spec(protocol=Protocol(t=3.0))
        for t in (0.01, 1.0, 100.0):
            s = mzi_spec(protocol=Protocol(t=t))
            pm = phase_variance(s, CslPoint(0.0, 1e-6))
            assert pm.variance == pytest.approx(spec.sigma_phi0_sq, rel=1e-12)

    def test_dispersion_dominated_example(self):
        spec = ExperimentSpec(
            species=RUBIDIUM_87,
            geometry=SwiGeometry(x0=0.5e-6),
            state=InitialState(n_atoms=300_000, xi0=5.0),
            protocol=Protocol(t=0.5, zeta=6e-3),
            noise=NoiseModel(),
        )
        pm = phase_variance(spec, CslPoint(0.0, OPT * 0.5e-6))
        assert 300_000 * pm.variance == pytest.approx(32425.0, rel=1e-9)

    def test_echo_diffusion_example(self):
        spec = swi_spec()
        pm = phase_variance(spec, CslPoint(1e-16, OPT * 100e-9))
        excess = 50_000 * pm.variance - 1.0
        assert excess == pytest.approx(0.341819065, rel=1e-6)
        # close to the claimed broadening xi_t = 1.15 xi0
        assert excess == pytest.approx(1.15 ** 2 - 1.0, rel=0.07)

    def test_plain_to_echo_diffusion_ratio_is_four(self):
        # with sigma_n0 = 0 and Gamma_P scaled out, the diffusion terms
        # differ by exactly 4
        def diffusion_term(echo):
            spec = swi_spec(
                state=InitialState(50_000, 1.0, sigma_n0=0.0),
                protocol=Protocol(t=0.2, zeta=4.0, echo=echo))
            pm = phase_variance(spec, CslPoint(1e-16, OPT * 100e-9))
            r = rates(CslPoint(1e-16, OPT * 100e-9), spec.species,
                      spec.geometry)
            return pm.variance - spec.sigma_phi0_sq - r.gamma_p * 0.2

        assert diffusion_term(False) == pytest.approx(
            4.0 * diffusion_term(True), rel=1e-12)

    def test_echo_cancels_dispersion_exactly(self):
        # at Gamma_S = 0 (MZI), echo variance is sigma0^2 + Gamma_P t
        spec = mzi_spec(protocol=Protocol(t=0.8, zeta=2e-3, echo=True))
        point = CslPoint(1e-10, 1e-6)
        pm = phase_variance(spec, point)
        r = rates(point, spec.species, spec.geometry)
        assert pm.variance == pytest.approx(
            spec.sigma_phi0_sq + r.gamma_p * 0.8, rel=1e-12)

    def test_validity_flag(self):
        spec = mzi_spec(state=InitialState(4, 1.0),
                        protocol=Protocol(t=1.0, zeta=2.0))
        with pytest.warns(UserWarning, match="pi/3"):
            pm = phase_variance(spec, CslPoint(0.0, 1e-6))
        assert not pm.valid

    def test_validity_follows_variance(self):
        edge = (math.pi / 3.0) ** 2
        assert PhaseMoments(0.0, edge * (1.0 - 1e-9), 1.0).valid
        assert not PhaseMoments(0.0, edge * (1.0 + 1e-9), 1.0).valid
        # a constructor field would let the flag disagree with the variance
        with pytest.raises(TypeError):
            PhaseMoments(0.0, 4.0, 1.0, True)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.0, 1e-9),
        scale=st.floats(1.0, 4.0),
    )
    def test_monotone_in_lambda_and_time(self, lam, scale):
        spec = swi_spec(protocol=Protocol(t=0.2, zeta=4.0))
        point = CslPoint(lam, OPT * 100e-9)
        base = phase_variance(spec, point).variance
        more_lam = phase_variance(
            spec, CslPoint(lam * scale + 1e-18, point.rc)).variance
        longer = phase_variance(
            swi_spec(protocol=Protocol(t=0.2 * scale, zeta=4.0)),
            point).variance
        assert more_lam >= base
        assert longer >= base

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_monotone_in_atom_number(self):
        point = CslPoint(1e-14, OPT * 100e-9)
        vs = [phase_variance(
            swi_spec(state=InitialState(n, 1.0),
                     protocol=Protocol(t=0.2, zeta=4.0)),
            point).variance for n in (1_000, 10_000, 100_000)]
        assert vs[0] <= vs[1] <= vs[2]


class TestOverflow:
    # a square that overflows the float range names the quantity squared
    @pytest.mark.parametrize("spec, name", [
        (order_one_spec(mass_u=1e200), "species.mass_u"),
        (order_one_spec(zeta=1e200), "protocol.zeta \\* t"),
        (order_one_spec(zeta=1e200, echo=True), "protocol.zeta"),
        (order_one_spec(zeta=0.0, t=1e200), "the leg duration"),
        (mzi_spec(state=InitialState(n_atoms=300_000, xi0=0.9,
                                     sigma_n0=1e200)), "state.sigma_n0"),
    ])
    def test_named(self, spec, name):
        with pytest.raises(OverflowError, match=f"^{name} squared overflows"):
            phase_variance(spec, CslPoint(1e-10, 1e-6))


class TestPropagatorParts:
    # away from zero, rates and zeta stay clear of subnormal products
    RATE = st.just(0.0) | st.floats(1e-20, 1e-3)
    ZETA = (st.just(0.0) | st.floats(1e-3, 1e3)
            | st.floats(-1e3, -1e-3))

    @settings(max_examples=200, deadline=None)
    @given(n_atoms=st.integers(2, 10 ** 9), xi0=st.floats(0.5, 5.0),
           t=st.floats(1e-3, 100.0), zeta=ZETA, echo=st.booleans(),
           gamma_p=RATE, gamma_s=RATE)
    def test_collapse_is_linear_in_the_rates(self, n_atoms, xi0, t, zeta,
                                             echo, gamma_p, gamma_s):
        # the unit-rate responses, combined, equal a leg-by-leg evolution
        # of the collapse noise at those rates
        spec = swi_spec(state=InitialState(n_atoms=n_atoms, xi0=xi0),
                        protocol=Protocol(t=t, zeta=zeta, echo=echo))
        _, unit_p, unit_s = propagator_parts(spec)
        r = Rates(gamma_p, gamma_s)
        direct = GaussianCharacteristic(0.0, 0.0, 0.0)
        for leg_zeta, tau, _ in spec.protocol.legs(2):
            direct = direct.evolve(leg_zeta, tau, r, n_atoms)
        for name in ("var_phi", "cov", "var_n"):
            combined = collapse_part(getattr(unit_p, name),
                                     getattr(unit_s, name), r)
            assert combined == pytest.approx(getattr(direct, name),
                                             rel=1e-13, abs=0), name

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_rates_near_the_float_limit_stay_finite(self):
        # each rate multiplies a unit response once, so a variance just
        # below the float maximum does not overflow on the way
        sc = SCENARIOS["rb-swi"]
        point = CslPoint(1e300, 1e-6)
        r = rates(point, sc.spec.species, sc.spec.geometry)
        n, p = sc.spec.state.n_atoms, sc.spec.protocol
        expected = (sc.spec.sigma_phi0_sq + r.gamma_p * p.t
                    + r.gamma_s * p.zeta ** 2 * p.t ** 3 / 6.0 * n ** 2)
        var = phase_variance(sc.spec, point).variance
        assert expected > 1e308
        assert var == pytest.approx(expected, rel=1e-12, abs=0)

    def test_overflowing_unit_diffusion_is_named(self):
        # zeta^2 is finite, but N^2 zeta^2 t^3 is not: refused, not NaN
        spec = order_one_spec(zeta=1e154, echo=True)
        with pytest.raises(OverflowError, match="unit-rate diffusion"):
            propagator_parts(spec)


class TestCharacteristicFunction:
    def test_normalization(self):
        spec = swi_spec()
        val = characteristic_function(spec, CslPoint(1e-16, OPT * 100e-9),
                                      0.0, 0.0)
        assert val == pytest.approx(1.0, abs=1e-15)

    @staticmethod
    def _richardson(fd, h0, levels):
        table = [fd(h0 / 2 ** k) for k in range(levels)]
        for m in range(1, levels):
            fac = 4.0 ** m
            table = [(fac * table[k + 1] - table[k]) / (fac - 1.0)
                     for k in range(len(table) - 1)]
        return table[0]

    def test_moment_extraction_finite_difference(self):
        # -d^2/ds^2 chi(0,0) equals the closed-form variance for 20 random
        # specs.  The base step is scaled so the central difference sits
        # well above float roundoff; four Richardson levels remove the
        # truncation error down to ~1e-12 relative.
        rng = np.random.default_rng(11)
        for _ in range(20):
            zeta = rng.uniform(-0.5, 0.5)
            echo = bool(rng.integers(0, 2))
            lam = rng.uniform(0.0, 0.2)
            spec = order_one_spec(zeta=zeta, echo=echo,
                                  t=rng.uniform(0.5, 2.0))
            point = CslPoint(lam, OPT * 1.0)
            var = _evolved_characteristic(spec, point).var_phi

            def chi(s):
                return characteristic_function(spec, point, s, 0.0)

            def fd(h):
                return -(chi(h) - 2.0 * chi(0.0) + chi(-h)) / h ** 2

            est = self._richardson(fd, math.sqrt(0.05 / var), 4)
            assert est == pytest.approx(var, rel=1e-10)

    def test_moment_extraction_fixed_step(self):
        # same identity at the fixed 1e-5 step with one Richardson level;
        # the variance here is large enough (~44) that chi(h) - 1 clears
        # double-precision roundoff at this step size
        import warnings
        spec = order_one_spec(zeta=2.0, t=1.5)
        point = CslPoint(0.3, OPT)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            var = _evolved_characteristic(spec, point).var_phi

        def chi(s):
            return characteristic_function(spec, point, s, 0.0)

        def fd(h):
            return -(chi(h) - 2.0 + chi(-h)) / h ** 2

        h = 1e-5
        est = (4.0 * fd(h / 2.0) - fd(h)) / 3.0
        assert est == pytest.approx(var, rel=1e-6)

    def test_echo_composition_matches_closed_form(self):
        # composing the two legs reproduces the closed echo solution
        spec = order_one_spec(zeta=0.3, echo=True, t=1.4)
        point = CslPoint(0.05, 0.8)
        closed = echo_characteristic_closed(spec, point)
        s = np.linspace(-2.0, 2.0, 20)[:, None]
        q = np.linspace(-2.0, 2.0, 20)[None, :]
        composed = characteristic_function(spec, point, s, q)
        np.testing.assert_allclose(composed, closed.evaluate(s, q),
                                   rtol=0.0, atol=1e-12)

    def test_echo_marginal_coefficients(self):
        # phi and n marginals carry no trace of the residual cross term:
        # var_phi = sigma0^2 + Gp t + N^2 Gs zeta^2 t^3 / 24,
        # var_n = sigma_n0^2 + N^2 Gs t / 2
        spec = order_one_spec(zeta=0.3, echo=True, t=1.4)
        point = CslPoint(0.05, 0.8)
        r = rates(point, spec.species, spec.geometry)
        n, t, zeta = 4, 1.4, 0.3
        chi = _evolved_characteristic(spec, point)
        assert chi.var_phi == pytest.approx(
            spec.sigma_phi0_sq + r.gamma_p * t
            + n ** 2 * r.gamma_s * zeta ** 2 * t ** 3 / 24.0, rel=1e-12)
        assert chi.var_n == pytest.approx(
            spec.state.sigma_n0 ** 2 + n ** 2 * r.gamma_s * t / 2.0,
            rel=1e-12)

    def test_echo_intercept_is_exact(self):
        # the net echo shear is exactly zero, so at lambda = 0 nothing of
        # the ~8000 rad^2 mid-echo dispersion variance is left behind
        sc = SCENARIOS["rb-swi-echo"]
        moments = phase_variance(sc.spec, CslPoint(0.0, sc.rc))
        assert moments.variance == sc.spec.sigma_phi0_sq

    def test_echo_with_zero_zeta_equals_plain(self):
        for lam in (0.0, 1e-14):
            a = swi_spec(protocol=Protocol(t=0.2, zeta=0.0, echo=True))
            b = swi_spec(protocol=Protocol(t=0.2, zeta=0.0, echo=False))
            point = CslPoint(lam, OPT * 100e-9)
            s, q = 0.3, 0.7
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert characteristic_function(a, point, s, q) == \
                    pytest.approx(characteristic_function(b, point, s, q),
                                  rel=1e-14)


class TestVisibility:
    def test_no_dephasing(self):
        spec = mzi_spec()
        assert visibility(spec, CslPoint(0.0, 1e-6)) == 1.0

    def test_decay_value(self):
        # Gamma_P t = 0.2 -> V = exp(-0.1)
        spec = mzi_spec(protocol=Protocol(t=1.0))
        f = f_closed(spec.geometry, 1e-6).f_p
        lam = 0.2 / (2.0 * 86.909180 ** 2 * f)
        assert visibility(spec, CslPoint(lam, 1e-6)) == pytest.approx(
            math.exp(-0.1), rel=1e-12)

    def test_conventional_noise_multiplies(self):
        spec = mzi_spec(protocol=Protocol(t=1.0))
        f = f_closed(spec.geometry, 1e-6).f_p
        lam = 0.2 / (2.0 * 86.909180 ** 2 * f)
        gamma_p = 0.2
        noisy = mzi_spec(protocol=Protocol(t=1.0),
                         noise=NoiseModel(gamma=gamma_p / 2.0))
        # gamma = Gamma_P / 2 here gives exp(-Gamma_P t)
        assert visibility(noisy, CslPoint(lam, 1e-6)) == pytest.approx(
            math.exp(-0.2), rel=1e-12)


def test_gaussian_characteristic_psd():
    chi = GaussianCharacteristic(var_phi=1.0, cov=0.2, var_n=2.0)
    assert chi.evaluate(0.0, 0.0) == 1.0
    assert abs(chi.evaluate(1.3, -0.7)) <= 1.0
