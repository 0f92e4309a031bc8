import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from cslbec import cli
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
    _soft_warnings,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)
from cslbec.scenarios import SCENARIOS


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
        assert g.w_y == pytest.approx(6e-7 / math.sqrt(6), rel=1e-12, abs=0)

    def test_defaults_are_floats_for_numpy_scalars(self):
        # a float32 xi0 used to give a float32 sigma_n0, and a float64 xi0
        # whose sigma_n0 overflows a numpy RuntimeWarning
        s = InitialState(n_atoms=np.int64(300_000), xi0=np.float32(0.9))
        assert type(s.sigma_n0) is float
        assert s.sigma_n0 == math.sqrt(300_000) / float(np.float32(0.9))
        assert InitialState(300_000, np.float64(5e-324)).sigma_n0 is None
        assert type(SwiGeometry(x0=np.float32(6e-7)).w_y) is float

    def test_explicit_sigma_n0_kept(self):
        s = InitialState(n_atoms=100, xi0=1.0, sigma_n0=3.0)
        assert s.sigma_n0 == 3.0


class TestProtocolLegs:
    def test_plain_is_one_leg(self):
        assert Protocol(t=0.8, zeta=3.0).legs(1001) == ((3.0, 0.8, 1001),)

    def test_echo_splits_odd_steps_at_half_time(self):
        legs = Protocol(t=0.2, zeta=4.0, echo=True).legs(1001)
        assert legs == ((4.0, 0.1, 500), (-4.0, 0.1, 501))
        assert sum(tau for _, tau, _ in legs) == 0.2
        assert sum(steps for _, _, steps in legs) == 1001

    @pytest.mark.parametrize("echo, n_steps", [(True, 1), (False, 0),
                                               (True, -4)])
    def test_leg_without_steps_is_named(self, echo, n_steps):
        with pytest.raises(ValueError, match=f"n_steps = {n_steps} leaves"):
            Protocol(t=1.0, zeta=1.0, echo=echo).legs(n_steps)


def refused(message):
    """pytest.raises for a SpecError whose message is exactly ``message``."""
    return pytest.raises(SpecError, match=f"^{re.escape(message)}$")


class TestValidate:
    """Every ExperimentSpec checks its rules once, when it is made."""

    def test_valid_spec(self):
        spec = make_spec()
        assert replace(spec) == spec
        for sc in SCENARIOS.values():
            assert replace(sc.spec) == sc.spec

    # a CSL point checks its own fields, so no invalid one reaches a model
    def test_rc_zero(self):
        with pytest.raises(ValueError, match="rc must be finite and > 0"):
            CslPoint(lam=1e-10, rc=0.0)

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            CslPoint(lam=-1.0, rc=1e-7)

    @pytest.mark.parametrize("lam, rc", [(math.nan, 1e-7), (math.inf, 1e-7),
                                         (1e-10, math.nan), (1e-10, math.inf),
                                         ("1e-10", 1e-6), (1e-10, None)])
    def test_nonfinite_point(self, lam, rc):
        # a str or None used to reach math.isfinite, a bare TypeError
        with pytest.raises(ValueError, match="must be finite"):
            CslPoint(lam=lam, rc=rc)

    def test_xi_t_below_xi0(self):
        with refused("xi_t < xi0: observed narrowing is unphysical"):
            make_spec(xi_t=0.5, state=InitialState(300_000, 1.0))

    def test_wide_initial_phase_rejected(self):
        with refused("xi0^2/N exceeds pi^2/9: narrow-phase treatment "
                     "invalid; xi_t^2/N exceeds pi^2/9: narrow-phase "
                     "treatment invalid"):
            make_spec(state=InitialState(n_atoms=4, xi0=3.0), xi_t=3.0)

    # the soft conditions warn only where the CLI reads a spec
    def test_mzi_separation_warning(self):
        spec = make_spec(geometry=MziGeometry(delta_x=1e-7, w_x=1e-7))
        with pytest.warns(UserWarning, match="delta_x"):
            _soft_warnings(spec)

    def test_echo_without_zeta_warns(self):
        spec = make_spec(protocol=Protocol(t=1.0, echo=True))
        with pytest.warns(UserWarning, match="^echo protocol with zeta = 0 "
                                             "has no effect$"):
            _soft_warnings(spec)

    @pytest.mark.parametrize("geometry, echo, mode", [
        (MziGeometry(delta_x=10e-6, w_x=100e-9), False, "mzi"),
        (MziGeometry(delta_x=10e-6, w_x=100e-9), True, "mzi"),
        (SwiGeometry(x0=100e-9), False, "swi_plain"),
        (SwiGeometry(x0=100e-9), True, "swi_echo")])
    def test_mode_follows_geometry_and_echo(self, geometry, echo, mode):
        spec = make_spec(geometry=geometry,
                         protocol=Protocol(t=1.0, zeta=4.0, echo=echo))
        assert spec.mode == mode

    def test_swi_echo_without_zeta_warns_of_no_slope(self):
        # a single well's echo selects swi_echo, which drops f_P
        spec = make_spec(geometry=SwiGeometry(x0=100e-9),
                         protocol=Protocol(t=1.0, echo=True))
        assert spec.mode == "swi_echo"
        with pytest.warns(UserWarning, match=(
                r"^echo protocol with zeta = 0 leaves the swi_echo bound no "
                r"slope in lambda: it drops f_P, and no dispersion "
                r"amplifies f_S$")):
            _soft_warnings(spec)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(NONFINITE_SPECS))
    def test_nonfinite_field(self, name, value):
        # exactly one violation, naming the field, and no range messages;
        # xi_t = nan used to give a NaN bound
        with refused(f"{name} must be finite, got {value!r}"):
            NONFINITE_SPECS[name](value)

    def test_nonpositive_time(self):
        with refused("protocol.t must be positive"):
            make_spec(protocol=Protocol(t=0.0))

    # each of these used to get an answer: N = 1 a variance and a 69.30 Hz
    # bound, the negative mass 7.28e-11 Hz and the negative xi0 3.85e-10
    # Hz; t < 0 gave a ZeroDivisionError in the bound, and SDE runs with
    # Euler steps of negative duration
    @pytest.mark.parametrize("group, change, message", [
        ("state", dict(n_atoms=1), "state.n_atoms must be >= 2"),
        ("species", dict(mass_u=-87.0), "species.mass_u must be positive"),
        ("state", dict(xi0=-5.0, sigma_n0=1.0), "state.xi0 must be positive"),
        ("protocol", dict(t=-0.5), "protocol.t must be positive"),
    ], ids=["n_atoms-1", "mass_u-negative", "xi0-negative", "t-negative"])
    def test_range_rule_holds_when_made(self, group, change, message):
        spec = SCENARIOS["rb-swi"].spec
        with refused(message):
            replace(spec, **{group: replace(getattr(spec, group), **change)})

    def test_phase_rule_reads_cos(self):
        # |cos(1.47)| = 0.1006 is read, |cos(-4.66)| = 0.052 is refused
        make_spec(protocol=Protocol(0.8, phase_mean=1.47),
                  noise=NoiseModel(gamma=50.0))
        with refused("protocol.phase_mean must be off the zeros of cos "
                     "(|cos| >= 0.1): the readout carries no phase there"):
            make_spec(protocol=Protocol(0.8, phase_mean=-4.66))

    # each of these used to reach the numerics: the old check raised a bare
    # AttributeError or TypeError, passed the spec, or gave a bound (a NaN
    # one for the float32 NaN), and echo="no" selected swi_echo
    @pytest.mark.parametrize("group, field, value, message", [
        ("state", None, None, "state must be InitialState"),
        ("protocol", None, None, "protocol must be Protocol"),
        ("species", None, None, "species must be Species"),
        ("noise", None, None, "noise must be NoiseModel"),
        # a fresh state: its default sigma_n0 used to compare N > 0 first
        ("state", None, InitialState(n_atoms="300000", xi0=5.0),
         "state.n_atoms must be an int in the float range, got '300000'"),
        ("state", "n_atoms", 300000.0,
         "state.n_atoms must be an int in the float range, got 300000.0"),
        # not a float: it used to raise a bare OverflowError
        ("state", "n_atoms", 10 ** 400,
         f"state.n_atoms must be an int in the float range, got {10 ** 400}"),
        ("protocol", "t", "0.5", "protocol.t must be finite, got '0.5'"),
        ("protocol", "echo", "no", "protocol.echo must be a bool, got 'no'"),
        (None, "xi_t", "200", "xi_t must be finite, got '200'"),
        (None, "xi_t", np.float32("nan"),
         "xi_t must be finite, got np.float32(nan)"),
    ], ids=["state-None", "protocol-None", "species-None", "noise-None",
            "n_atoms-str", "n_atoms-float", "n_atoms-huge", "t-str",
            "echo-str", "xi_t-str", "xi_t-float32-nan"])
    def test_kind_and_required_hold_when_made(self, group, field, value,
                                              message):
        spec = SCENARIOS["rb-swi"].spec
        if group is None:
            change = {field: value}
        elif field is None:
            change = {group: value}
        else:
            change = {group: replace(getattr(spec, group), **{field: value})}
        with refused(message):
            replace(spec, **change)

    def test_numpy_scalars_are_accepted(self):
        # numpy's bool, int and float are kinds as Python's are
        spec = SCENARIOS["rb-swi"].spec
        made = replace(spec, state=replace(spec.state,
                                           n_atoms=np.int64(300000)),
                       protocol=replace(spec.protocol, t=np.float32(0.5),
                                        echo=np.bool_(True)))
        assert made.mode == "swi_echo"
        # a spec file holds them as plain JSON values
        d = json.loads(json.dumps(spec_to_dict(made)))
        assert spec_from_dict(d) == made


class TestSerialization:
    def test_round_trip_validates_identically(self):
        # a spec file refuses a broken rule with the message of the spec it
        # would make
        spec = make_spec()
        clone = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert clone == spec
        d = spec_to_dict(spec)
        d["observation"]["xi_t"] = 0.5
        with refused("xi_t < xi0: observed narrowing is unphysical"):
            spec_from_dict(d)

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
                                         math.inf, math.nan, 2 ** 53 + 1])
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


# reproduced spec files that gave a traceback, a silent coercion or an
# unrelated error: (group, key or None for the group, value, message start)
MALFORMED = [
    ("geometry", None, 5, "geometry must be a JSON object"),
    ("noise", None, None, "noise must be a JSON object"),
    ("observation", None, [], "observation must be a JSON object"),
    ("state", "xi0", None, "state.xi0 must be a JSON number"),
    ("state", "sigma_n0", None, "state.sigma_n0 must be a JSON number"),
    ("geometry", "w_y_m", None, "geometry.w_y_m must be a JSON number"),
    ("state", "n_atoms", 1e300, "state.n_atoms must be an integral number"),
    ("state", "n_atoms", 10 ** 400, "state.n_atoms must be an integral "
                                    "number"),
    ("state", "xi0", "0.9", "state.xi0 must be a JSON number"),
    ("state", "xi0", True, "state.xi0 must be a JSON number"),
    ("species", "mass_u", True, "species.mass_u must be a JSON number"),
    ("species", "mass_u", 10 ** 400, "species.mass_u must be a JSON number"),
    ("species", "name", 5, "species.name must be a JSON string"),
]

# the leaves a spec file may hold by mistake
ODD_LEAVES = st.sampled_from([
    None, True, False, "", "0.9", [], [1.0], {}, {"a": 1}, 0, -1, 0.0,
    5e-324, 1e300, 10 ** 400, -(10 ** 400), 2 ** 53 + 1, math.nan,
    math.inf, -math.inf])
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)
# no shrinking: shrinking a failing CLI run took minutes and most of a GB,
# while a derandomized failure already reproduces as it is reported
FUZZ = settings(derandomize=True, deadline=None, max_examples=200,
                phases=(Phase.explicit, Phase.generate))


def _key_paths(d, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def damaged_specs(draw):
    """A scenario's spec dict with keys dropped or leaves replaced."""
    d = copy.deepcopy(spec_to_dict(draw(st.sampled_from(
        list(SCENARIOS.values()))).spec))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(d))
        if not paths:
            break
        *outer, key = draw(st.sampled_from(paths))
        group = d
        for k in outer:
            group = group[k]
        if draw(st.booleans()):
            del group[key]
        else:
            group[key] = draw(ODD_LEAVES | JSON_LEAVES | JSON_VALUES)
    return d


def or_numpy(strategy, scalar):
    """``strategy``'s values, some of them as numpy's ``scalar`` type."""
    return strategy | strategy.map(scalar)


POSITIVE = or_numpy(st.floats(min_value=0.0, exclude_min=True,
                              allow_infinity=False), np.float64)
NONNEGATIVE = or_numpy(st.floats(min_value=0.0, allow_infinity=False),
                       np.float64)
FINITE = or_numpy(st.floats(allow_nan=False, allow_infinity=False),
                  np.float64)


@st.composite
def spec_fields(draw):
    """ExperimentSpec's keyword arguments over every field's range; a spec
    refuses some of them.  Some numbers and echo flags are numpy's scalars.

    Three draws in four take xi0 and xi_t (at least xi0) at or below the
    narrow-phase limit pi/3 sqrt(N), so that enough specs are valid; the
    fourth draws both anywhere, so that the refusal is met too.
    """
    n_atoms = draw(or_numpy(st.integers(2, 2 ** 53), np.int64))
    narrow = draw(st.integers(0, 3)) > 0
    xi_max = math.pi / 3.0 * math.sqrt(n_atoms) if narrow else None
    xi0 = draw(or_numpy(st.floats(0.0, xi_max, exclude_min=True,
                                  allow_infinity=False), np.float64))
    species = Species(draw(st.text(max_size=8)), draw(POSITIVE))
    geometry = draw(
        st.builds(MziGeometry, POSITIVE, POSITIVE, st.none() | POSITIVE)
        | st.builds(SwiGeometry, POSITIVE, st.none() | POSITIVE))
    state = InitialState(n_atoms, xi0, draw(st.none() | NONNEGATIVE))
    return dict(
        species=species,
        geometry=geometry,
        state=state,
        protocol=Protocol(draw(POSITIVE), draw(FINITE),
                          draw(or_numpy(st.booleans(), np.bool_)),
                          draw(FINITE)),
        noise=NoiseModel(draw(NONNEGATIVE)),
        xi_t=draw(st.none() | or_numpy(
            st.floats(xi0, xi_max, allow_infinity=False), np.float64)),
    )


def made_spec(fields):
    """The spec ``fields`` make, or None where it refuses them."""
    try:
        return ExperimentSpec(**fields)
    except SpecError:
        return None


def spec_file(fields):
    """The spec-file dict of ``fields``, also of fields a spec refuses."""
    spec = object.__new__(ExperimentSpec)  # skips the spec's own check
    spec.__dict__.update(fields)
    return spec_to_dict(spec)


def run_bound(d):
    """Exit code and stderr of ``cslbec bound`` on ``d`` as a spec file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(d, f)
        err = io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = cli.run(["bound", "--spec", path, "--rc-m", "1e-6"])
    return code, err.getvalue()


class TestSpecFuzz:
    @pytest.mark.parametrize("group, key, value, message", MALFORMED, ids=[
        f"{group}.{key}:{type(value).__name__}"
        for group, key, value, _ in MALFORMED])
    def test_malformed_spec_is_named_error(self, group, key, value,
                                           message):
        d = spec_to_dict(make_spec())
        if key is None:
            d[group] = value
        else:
            d[group][key] = value
        with pytest.raises(SpecError, match="^" + message):
            spec_from_dict(d)
        code, err = run_bound(d)
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @FUZZ
    @given(JSON_VALUES | damaged_specs())
    def test_any_json_gives_spec_or_spec_error(self, value):
        try:
            spec = spec_from_dict(value)
        except SpecError:
            return
        assert isinstance(spec, ExperimentSpec)
        assert replace(spec) == spec

    @FUZZ
    @given(damaged_specs() | spec_fields().map(spec_file))
    def test_cli_exit_code(self, d):
        code, err = run_bound(d)
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    @FUZZ
    @given(spec_fields().map(made_spec))
    def test_round_trip_of_valid_specs(self, spec):
        assume(spec is not None)
        d = spec_to_dict(spec)
        # each value as its kind's Python type, numpy's scalars included
        kinds = {"n_atoms": int, "echo": bool, "name": str, "type": str}
        for group in d.values():
            for key, value in group.items():
                assert type(value) is kinds.get(key, float)
        assert spec_from_dict(json.loads(json.dumps(d))) == spec


def test_species_constants():
    assert RUBIDIUM_87.mass_u == pytest.approx(86.909180)
    assert Species("x", 1.0).mass_u == 1.0
