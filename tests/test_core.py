import json
import math

import pytest

from cslbec.core import (
    CslPoint,
    ExperimentSpec,
    InitialState,
    MziGeometry,
    NoiseModel,
    Protocol,
    RUBIDIUM_87,
    SpecError,
    Species,
    SwiGeometry,
    ground_state_width,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    validate,
)


def make_spec(**kw):
    defaults = dict(
        species=RUBIDIUM_87,
        geometry=MziGeometry(delta_x=10e-6, w_x=100e-9),
        state=InitialState(n_atoms=300_000, xi0=0.9),
        protocol=Protocol(t=0.8),
        noise=NoiseModel(),
        xi_t=1.1,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


# one float field per group, set to a given value
NONFINITE_SPECS = {
    "species.mass_u": lambda x: make_spec(species=Species("x", x)),
    "geometry.delta_x": lambda x: make_spec(
        geometry=MziGeometry(delta_x=x, w_x=100e-9)),
    "geometry.x0": lambda x: make_spec(geometry=SwiGeometry(x0=x, w_y=4e-8)),
    "state.xi0": lambda x: make_spec(
        state=InitialState(300_000, x, sigma_n0=600.0)),
    "state.sigma_n0": lambda x: make_spec(
        state=InitialState(300_000, 0.9, sigma_n0=x)),
    "protocol.t": lambda x: make_spec(protocol=Protocol(t=x)),
    "protocol.zeta": lambda x: make_spec(protocol=Protocol(0.8, zeta=x)),
    "protocol.phase_mean": lambda x: make_spec(
        protocol=Protocol(0.8, phase_mean=x)),
    "noise.gamma": lambda x: make_spec(noise=NoiseModel(gamma=x)),
    "xi_t": lambda x: make_spec(xi_t=x),
}


class TestDefaults:
    def test_sigma_n0_minimum_uncertainty(self):
        spec = make_spec()
        # sqrt(3e5) / 0.9
        assert spec.state.sigma_n0 == pytest.approx(608.5806195, rel=1e-9)
        # sigma_phi(0) * sigma_n(0) = 1 exactly
        prod = math.sqrt(spec.sigma_phi0_sq) * spec.state.sigma_n0
        assert prod == pytest.approx(1.0, rel=1e-12)

    def test_mzi_w_y_defaults_to_w_x(self):
        g = MziGeometry(delta_x=1e-5, w_x=2e-7)
        assert g.w_y == 2e-7

    def test_swi_w_y_default(self):
        g = SwiGeometry(x0=6e-7)
        assert g.w_y == pytest.approx(6e-7 / math.sqrt(6), rel=1e-12)

    def test_explicit_sigma_n0_kept(self):
        s = InitialState(n_atoms=100, xi0=1.0, sigma_n0=3.0)
        assert s.sigma_n0 == 3.0


class TestValidate:
    def test_valid_spec(self):
        assert validate(make_spec()) == []

    # a CSL point checks its own fields, so no invalid one reaches validate
    def test_rc_zero(self):
        with pytest.raises(ValueError, match="rc must be finite and > 0"):
            CslPoint(lam=1e-10, rc=0.0)

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            CslPoint(lam=-1.0, rc=1e-7)

    @pytest.mark.parametrize("lam, rc", [(math.nan, 1e-7), (math.inf, 1e-7),
                                         (1e-10, math.nan), (1e-10, math.inf)])
    def test_nonfinite_point(self, lam, rc):
        with pytest.raises(ValueError, match="must be finite"):
            CslPoint(lam=lam, rc=rc)

    def test_xi_t_below_xi0(self):
        v = validate(make_spec(xi_t=0.5, state=InitialState(300_000, 1.0)))
        assert any("xi_t < xi0" in msg for msg in v)

    def test_wide_initial_phase_rejected(self):
        v = validate(make_spec(state=InitialState(n_atoms=4, xi0=3.0),
                               xi_t=3.0))
        assert any("pi^2/9" in msg for msg in v)

    def test_mzi_separation_warning(self):
        with pytest.warns(UserWarning, match="delta_x"):
            validate(make_spec(geometry=MziGeometry(delta_x=1e-7, w_x=1e-7)))

    def test_echo_without_zeta_warns(self):
        with pytest.warns(UserWarning, match="echo"):
            validate(make_spec(protocol=Protocol(t=1.0, echo=True)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(NONFINITE_SPECS))
    def test_nonfinite_field(self, name, value):
        # exactly one violation, naming the field, and no range messages
        assert validate(NONFINITE_SPECS[name](value)) == [
            f"{name} must be finite, got {value!r}"]

    def test_nonpositive_time(self):
        v = validate(make_spec(protocol=Protocol(t=0.0)))
        assert any("t must be positive" in msg for msg in v)


class TestGroundStateWidth:
    def test_round_trip_main(self):
        m = RUBIDIUM_87.mass_u * 1.66053906660e-27
        hbar = 1.054571817e-34
        omega = 2.0 * hbar / (m * (100e-9) ** 2)
        x0 = ground_state_width(omega, RUBIDIUM_87, "main")
        assert x0 == pytest.approx(1.0e-7, rel=1e-12)

    def test_conventions_differ_by_factor_two(self):
        omega = 1e5
        main = ground_state_width(omega, RUBIDIUM_87, "main")
        app = ground_state_width(omega, RUBIDIUM_87, "appendix")
        assert main == pytest.approx(2.0 * app, rel=1e-12)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            ground_state_width(0.0, RUBIDIUM_87, "main")

    def test_146_khz_interpretation(self):
        # brute force over the four (convention, frequency reading)
        # combinations against the 100 nm target: only the "main"
        # convention with 146 kHz read directly as rad/s matches
        results = {}
        for conv in ("main", "appendix"):
            for label, omega in (("rad_s", 146e3), ("hz", 2 * math.pi * 146e3)):
                results[(conv, label)] = ground_state_width(
                    omega, RUBIDIUM_87, conv)
        matches = [k for k, v in results.items()
                   if abs(v - 100e-9) / 100e-9 < 0.01]
        assert matches == [("main", "rad_s")]


class TestSerialization:
    def test_round_trip_validates_identically(self):
        spec = make_spec()
        clone = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert validate(clone) == validate(spec)
        assert clone == spec

    def test_swi_round_trip(self):
        spec = make_spec(geometry=SwiGeometry(x0=100e-9),
                         protocol=Protocol(t=0.2, zeta=4.0, echo=True))
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone == spec

    def test_unknown_top_level_key(self):
        d = spec_to_dict(make_spec())
        d["units"] = "si"
        with pytest.raises(SpecError, match="unknown keys"):
            spec_from_dict(d)

    def test_misspelled_unit_key(self):
        d = spec_to_dict(make_spec())
        d["protocol"]["t"] = d["protocol"].pop("t_s")
        with pytest.raises(SpecError):
            spec_from_dict(d)

    def test_missing_required_key(self):
        d = spec_to_dict(make_spec())
        del d["species"]
        with pytest.raises(SpecError, match="species"):
            spec_from_dict(d)

    @pytest.mark.parametrize("echo", ["false", "true", 0, 1, None])
    def test_echo_must_be_boolean(self, echo):
        d = spec_to_dict(make_spec())
        d["protocol"]["echo"] = echo
        with pytest.raises(SpecError, match="protocol.echo must be a JSON "
                                            "boolean"):
            spec_from_dict(d)

    @pytest.mark.parametrize("n_atoms", [2.9, 3e5 + 0.5, True, "300000",
                                         math.inf, math.nan])
    def test_n_atoms_must_be_integral(self, n_atoms):
        d = spec_to_dict(make_spec())
        d["state"]["n_atoms"] = n_atoms
        with pytest.raises(SpecError, match="state.n_atoms must be an "
                                            "integral number"):
            spec_from_dict(d)

    def test_n_atoms_integral_float_accepted(self):
        d = spec_to_dict(make_spec())
        d["state"]["n_atoms"] = 3e5
        n_atoms = spec_from_dict(d).state.n_atoms
        assert n_atoms == 300_000 and isinstance(n_atoms, int)

    def test_load_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(make_spec())))
        assert load_spec(path) == make_spec()


def test_species_constants():
    assert RUBIDIUM_87.mass_u == pytest.approx(86.909180)
    assert Species("x", 1.0).mass_u == 1.0
