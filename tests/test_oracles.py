import concurrent.futures
import fractions
import json
import math
import os
import re
import sys
import threading

import numpy as np
import pytest

from cslbec.core import (
    CslPoint,
    ExperimentSpec,
    InitialState,
    MziGeometry,
    NoiseModel,
    Protocol,
    Species,
    SwiGeometry,
)
from cslbec.dynamics import Rates, phase_variance, rates
from cslbec.geometry import f_closed
from cslbec import oracles
from cslbec.oracles import (
    DickeState,
    PositivityError,
    _euler_bias,
    _jx_coefficients,
    _jx_dissipator,
    coherent_spin_state,
    dicke_evolve,
    dicke_phase_variance,
    sde_sample,
    spin_operators,
)
from cslbec.scenarios import SCENARIOS

OPT = math.sqrt(2.0 / 3.0)
UNIT = Species("unit", 1.0)
SWI_UNIT = SwiGeometry(x0=1.0, w_y=1.0 / math.sqrt(6.0))
F_AT_OPT = f_closed(SWI_UNIT, OPT)


def swi_unit_spec(n_atoms, xi0, t, zeta, echo=False, sigma_n0=None):
    """Unit-mass spec on the unit-length geometry; rates are then simply
    Gamma = 2 lambda f at rc = sqrt(2/3)."""
    return ExperimentSpec(
        species=UNIT,
        geometry=SWI_UNIT,
        state=InitialState(n_atoms=n_atoms, xi0=xi0, sigma_n0=sigma_n0),
        protocol=Protocol(t=t, zeta=zeta, echo=echo),
        noise=NoiseModel(),
    )


def lam_for_gamma_s(gamma_s):
    return gamma_s / (2.0 * F_AT_OPT.f_s)


def serial_sde_sample(spec, point, n_traj, n_steps, seed):
    """The block loop of sde_sample run serially in one thread: the
    reference for the pooled sampler.  Returns (mean, variance)."""
    r = rates(point, spec.species, spec.geometry)
    p = spec.protocol
    dt = p.t / n_steps
    sig_phi = math.sqrt(r.gamma_p * p.t)
    sig_n = math.sqrt(spec.state.n_atoms ** 2 * r.gamma_s / 2.0 * dt)
    phi_all = np.empty(n_traj)
    for block, start in enumerate(range(0, n_traj, 4096)):
        m = min(4096, n_traj - start)
        key = np.array([seed, block], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        phi = rng.normal(0.0, math.sqrt(spec.sigma_phi0_sq), size=m)
        n = rng.normal(0.0, spec.state.sigma_n0, size=m)
        if sig_phi > 0.0:
            phi += sig_phi * rng.standard_normal(m)
        for step in range(n_steps):
            zeta = p.zeta
            if p.echo and step >= n_steps // 2:
                zeta = -p.zeta
            phi += zeta * n * dt
            if sig_n > 0.0:
                n += sig_n * rng.standard_normal(m)
        phi_all[start:start + m] = phi
    return float(np.mean(phi_all)), float(np.var(phi_all, ddof=1))


def discrete_euler_bias(legs, diff_n):
    """Exact rational sum, step by step, of the Euler scheme's phi-variance
    less the SDE's.  The increment drawn after a step shears into phi by
    the later steps' total T; over that step the SDE integrates
    diff_n (T + zeta (t_end - s))^2 ds, so the step contributes
    diff_n dt T^2 - diff_n dt (T^2 + T c + c^2 / 3), with c = zeta dt."""
    total, tail = fractions.Fraction(0), fractions.Fraction(0)
    for zeta, tau, steps in reversed(legs):
        dt = fractions.Fraction(tau) / steps
        c = fractions.Fraction(zeta) * dt
        for _ in range(steps):
            total -= dt * (tail * c + c * c / 3)
            tail += c
    return float(fractions.Fraction(diff_n) * total)


def random_hermitian(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def dense_lindblad(op, rho):
    """op rho op^H - {op^H op, rho} / 2 by dense matrix products."""
    op_h = op.conj().T
    return op @ rho @ op_h - (op_h @ op @ rho + rho @ op_h @ op) / 2.0


def dense_evolve(n, r, zeta, eps, rho, t, n_steps, echo):
    """Dense-matrix Lawson RK4 reference for dicke_evolve: same step grid,
    same exact diagonal factor, both channels built from spin_operators.

    The Hamiltonian and the J_z channel act elementwise in the Dicke
    basis, so applied to the all-ones matrix they give the coefficients
    g of the factor exp(g dt/2); RK4 integrates the dense J_x channel in
    the interaction picture of that factor, in classical Lawson form."""
    jx, _, jz = spin_operators(n)
    ones = np.ones((n + 1, n + 1))

    def f(x):
        return r.gamma_s * dense_lindblad(jx, x)

    def segment(rho, zeta, tau, steps):
        ham = eps * jz + zeta * jz @ jz
        g = -1j * (ham @ ones - ones @ ham) + r.gamma_p * dense_lindblad(
            jz, ones)
        dt = tau / steps
        half, full = np.exp(g * (0.5 * dt)), np.exp(g * dt)
        for _ in range(steps):
            k1 = f(rho)
            k2 = f(half * (rho + 0.5 * dt * k1))
            k3 = f(half * rho + 0.5 * dt * k2)
            k4 = f(full * rho + dt * half * k3)
            rho = full * rho + (dt / 6.0) * (
                full * k1 + 2.0 * half * (k2 + k3) + k4)
        return rho

    if not echo:
        return segment(rho, zeta, t, n_steps)
    half = n_steps // 2
    rho = segment(rho, zeta, t / 2.0, half)
    return segment(rho, -zeta, t / 2.0, n_steps - half)


class TestSdeSample:
    def test_preconditions(self):
        spec = swi_unit_spec(10_000, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="n_traj"):
            sde_sample(spec, CslPoint(0.0, OPT), 500, 1000, 1)
        with pytest.raises(ValueError, match="n_steps"):
            sde_sample(spec, CslPoint(0.0, OPT), 1000, 500, 1)
        # float counts used to end in a TypeError from range()
        with pytest.raises(ValueError, match="^n_traj must be an int"):
            sde_sample(spec, CslPoint(0.0, OPT), 1000.5, 1000, 1)
        with pytest.raises(ValueError, match="^n_steps must be an int"):
            sde_sample(spec, CslPoint(0.0, OPT), 1000, 2000.0, 1)

    def test_no_dynamics(self):
        spec = swi_unit_spec(10_000, 1.0, 1.0, 0.0)
        m = sde_sample(spec, CslPoint(0.0, OPT), 4096, 1000, seed=7)
        expected = 1.0 / 10_000
        assert abs(m.variance - expected) < 3.0 * m.stderr_variance
        assert abs(m.mean) < 3.0 * m.stderr_mean

    def test_pure_dispersion_stretch(self):
        # zeta = 1, sigma_n0 = 2, t = 1: variance grows by exactly 4
        spec = swi_unit_spec(10_000, 1.0, 1.0, 1.0, sigma_n0=2.0)
        m = sde_sample(spec, CslPoint(0.0, OPT), 8192, 1000, seed=3)
        expected = 1.0 / 10_000 + 4.0
        assert abs(m.variance - expected) < 3.0 * m.stderr_variance

    def test_echo_cancels_dispersion(self):
        # MZI: Gamma_S = 0, so the echo leaves only sigma0^2 + Gamma_P t
        geom = MziGeometry(delta_x=10.0, w_x=0.1)
        f = f_closed(geom, 1.0)
        lam = 0.05 / (2.0 * f.f_p)  # Gamma_P t = 0.05 at t = 1
        spec = ExperimentSpec(
            species=UNIT, geometry=geom,
            state=InitialState(n_atoms=10_000, xi0=1.0, sigma_n0=30.0),
            protocol=Protocol(t=1.0, zeta=0.5, echo=True),
            noise=NoiseModel(),
        )
        m = sde_sample(spec, CslPoint(lam, 1.0), 8192, 1000, seed=5)
        expected = 1.0 / 10_000 + 0.05
        assert abs(m.variance - expected) < 3.0 * m.stderr_variance

    def test_deterministic_for_seed(self):
        spec = swi_unit_spec(10_000, 1.0, 0.5, 1e-3)
        point = CslPoint(1e-3, OPT)
        a = sde_sample(spec, point, 4096, 1000, seed=11)
        b = sde_sample(spec, point, 4096, 1000, seed=11)
        c = sde_sample(spec, point, 4096, 1000, seed=12)
        assert a.variance == b.variance and a.mean == b.mean
        assert a.variance != c.variance

    def test_deterministic_across_partial_block(self):
        # one full 4096-trajectory block plus a partial one
        spec = swi_unit_spec(10_000, 1.0, 0.5, 1e-3, echo=True)
        point = CslPoint(1e-3, OPT)
        a = sde_sample(spec, point, 5000, 1000, seed=21)
        b = sde_sample(spec, point, 5000, 1000, seed=21)
        assert a == b

    @pytest.mark.parametrize("echo", [False, True])
    @pytest.mark.parametrize("n_traj", [1000, 5000, 3 * 4096 + 1])
    def test_matches_serial_reference(self, n_traj, echo):
        # one block; a full block plus a partial one; three full plus one
        spec = swi_unit_spec(10_000, 1.0, 0.5, 1e-3, echo=echo)
        point = CslPoint(1e-3, OPT)
        m = sde_sample(spec, point, n_traj, 1000, seed=31)
        assert (m.mean, m.variance) == serial_sde_sample(
            spec, point, n_traj, 1000, seed=31)

    def test_echo_with_odd_steps_flips_at_half_time(self):
        # an echo flipped one step early would leave a net shear -zeta dt,
        # z of about 45 here
        sc = SCENARIOS["rb-swi-echo"]
        point = CslPoint(0.0, sc.rc)
        m = sde_sample(sc.spec, point, 4000, 1001, seed=1)
        expected = phase_variance(sc.spec, point).variance
        assert abs(m.variance - expected) < 5.0 * m.stderr_variance

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_same_bits_at_any_worker_count(self, monkeypatch, cpus):
        # 8 workers is more than most test machines have cores; 4 blocks
        # cap the pool at 4
        spec = swi_unit_spec(10_000, 1.0, 0.5, 1e-3, echo=True)
        point = CslPoint(1e-3, OPT)
        n_traj = 3 * 4096 + 1
        pools = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(oracles, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            RecordingPool)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                sde_sample(spec, point, n_traj, 1000, seed=31)),
            daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker.start()
            worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "sde_sample did not finish in 120 s"
        assert pools == [min(4, cpus)]
        m = results[0]
        assert (m.mean, m.variance) == serial_sde_sample(
            spec, point, n_traj, 1000, seed=31)

    def test_caller_error_state_reaches_blocks(self):
        # np.errstate is per context, and the blocks run on worker threads
        spec = swi_unit_spec(10_000, 1.0, 1.0, 1e200, sigma_n0=1e200)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            sde_sample(spec, CslPoint(0.0, OPT), 5000, 1000, seed=1)

    def test_seed_streams_disjoint(self, monkeypatch):
        # every block's Philox key, as the generator holds it
        philox = np.random.Philox
        keys = []

        def recorder(*args, **kwargs):
            bit_gen = philox(*args, **kwargs)
            keys.append(tuple(int(k) for k in bit_gen.state["state"]["key"]))
            return bit_gen

        monkeypatch.setattr(np.random, "Philox", recorder)
        spec = swi_unit_spec(10_000, 1.0, 1.0, 0.0)
        per_seed = []
        for seed in (42, 43):
            keys.clear()
            sde_sample(spec, CslPoint(0.0, OPT), 8192, 1000, seed=seed)
            assert len(keys) == 2
            per_seed.append(set(keys))
        assert per_seed[0].isdisjoint(per_seed[1])

    # True used to run as seed 1
    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "7", True])
    def test_rejects_out_of_range_seed(self, seed):
        spec = swi_unit_spec(10_000, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"seed must be an integer in "
                                             r"\[0, 2\*\*64\)"):
            sde_sample(spec, CslPoint(0.0, OPT), 1000, 1000, seed)

    @pytest.mark.filterwarnings("error")
    def test_largest_seeds_keep_distinct_streams(self):
        # seeds above 2**63 do not pass through a lossy float conversion
        spec = swi_unit_spec(10_000, 1.0, 1.0, 0.0)
        a = sde_sample(spec, CslPoint(0.0, OPT), 1000, 1000, 2 ** 64 - 1)
        b = sde_sample(spec, CslPoint(0.0, OPT), 1000, 1000, 2 ** 64 - 2)
        assert a.seed == 2 ** 64 - 1
        assert a.variance != b.variance

    @pytest.mark.parametrize("zeta", [1.0, -0.3, 4.0])
    @pytest.mark.parametrize("n_steps", [2, 3, 1000, 1001])
    @pytest.mark.parametrize("echo", [False, True])
    def test_euler_bias_matches_discrete_sum(self, echo, n_steps, zeta):
        legs = Protocol(t=1.3, zeta=zeta, echo=echo).legs(n_steps)
        assert _euler_bias(legs, 2.5) == pytest.approx(
            discrete_euler_bias(legs, 2.5), rel=1e-9, abs=0)

    def test_euler_bias_warning(self):
        # |bias| = 2.5e-5 rad^2, 0.115 standard errors at 12289 draws
        spec = swi_unit_spec(10_000, 1.0, 1.0, 1e-3, sigma_n0=0.0)
        point = CslPoint(lam_for_gamma_s(1e-3), OPT)
        with pytest.warns(UserWarning, match="increase n_steps"):
            m = sde_sample(spec, point, 12289, 1000, seed=1)
        assert abs(m.euler_bias) > 0.1 * m.stderr_variance

    def test_euler_bias_below_rule_is_silent(self):
        # the same point at 4096 draws: the bias is 0.068 standard errors
        spec = swi_unit_spec(10_000, 1.0, 1.0, 1e-3, sigma_n0=0.0)
        point = CslPoint(lam_for_gamma_s(1e-3), OPT)
        m = sde_sample(spec, point, 4096, 1000, seed=1)
        assert m.euler_bias < 0.0
        assert abs(m.euler_bias) <= 0.1 * m.stderr_variance

    def test_unbiased_over_random_specs(self):
        # closed-form variance inside the 99% interval of the Monte Carlo
        # estimate for 20 random parameter draws
        # ranges keep sigma_phi well below pi so the narrow-phase closed
        # form applies
        rng = np.random.default_rng(2024)
        for i in range(20):
            n_atoms = int(rng.integers(1_000, 20_000))
            spec = swi_unit_spec(
                n_atoms=n_atoms,
                xi0=float(rng.uniform(0.5, 2.0)),
                t=float(rng.uniform(0.3, 1.5)),
                zeta=float(rng.uniform(0.0, 1e-3)),
                echo=bool(rng.integers(0, 2)),
            )
            point = CslPoint(float(rng.uniform(0.0, 1e-4)), OPT)
            closed = phase_variance(spec, point).variance
            m = sde_sample(spec, point, 2048, 1000, seed=100 + i)
            assert abs(m.variance - closed) < 2.576 * m.stderr_variance, \
                f"draw {i}: mc {m.variance} vs closed {closed}"


class TestSpinOperators:
    def test_commutator(self):
        jx, jy, jz = spin_operators(6)
        np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)

    def test_casimir(self):
        n = 9
        jx, jy, jz = spin_operators(n)
        j = n / 2.0
        total = jx @ jx + jy @ jy + jz @ jz
        np.testing.assert_allclose(total, j * (j + 1) * np.eye(n + 1),
                                   atol=1e-12)


class TestCoherentSpinState:
    def test_equatorial_expectations(self):
        n = 100
        state = coherent_spin_state(n)
        jx, jy, jz = spin_operators(n)
        assert np.real(np.trace(jx @ state.rho)) == pytest.approx(n / 2.0)
        assert abs(np.trace(jy @ state.rho)) < 1e-10
        assert abs(np.trace(jz @ state.rho)) < 1e-10

    def test_is_valid_state(self):
        coherent_spin_state(150).check()

    @pytest.mark.parametrize("theta", [0.0, 1.2, math.pi / 2.0, 2.5, math.pi])
    def test_polar_angle_over_its_whole_range(self, theta):
        # <J_z> = j cos(theta), <J_x> = j sin(theta) at phi = 0, poles too
        n = 20
        rho = coherent_spin_state(n, theta=theta).rho
        jx, _, jz = spin_operators(n)
        assert np.real(np.trace(jz @ rho)) == pytest.approx(
            n / 2.0 * math.cos(theta), abs=1e-12)
        assert np.real(np.trace(jx @ rho)) == pytest.approx(
            n / 2.0 * math.sin(theta), abs=1e-12)

    # a negative cos or sin of theta/2 used to be clamped: theta = 4.0 gave
    # the pole <J_z> = -N/2, and a NaN angle a NaN rho, with no error
    @pytest.mark.parametrize("theta, phi, name", [
        (4.0, 0.0, "theta"), (-1.2, 0.0, "theta"), (math.nan, 0.0, "theta"),
        (math.inf, 0.0, "theta"), (1.2, math.nan, "phi"),
        (1.2, -math.inf, "phi"), (1.2, "0", "phi"), ("1", 0.0, "theta")])
    def test_angle_outside_its_range_is_refused(self, theta, phi, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            coherent_spin_state(20, theta=theta, phi=phi)

    # a float, negative or bool atom number used to give a state of the
    # wrong size: 4x4 for 2.5, 0x0 for -1 and 2x2 for True
    @pytest.mark.parametrize("n_atoms", [2.5, -1, 0, True, 4.0])
    def test_atom_number_must_be_a_positive_int(self, n_atoms):
        with pytest.raises(ValueError, match="^n_atoms must be an int >= 1"):
            coherent_spin_state(n_atoms)

    def test_numpy_integer_atom_number_is_accepted(self):
        assert np.array_equal(coherent_spin_state(np.int64(6)).rho,
                              coherent_spin_state(6).rho)

    def test_projection_noise(self):
        # sigma_phi^2 = 1/N for the coherent state
        pm = dicke_phase_variance(coherent_spin_state(100))
        assert pm.variance == pytest.approx(0.01, rel=0.02)


class TestDickeEvolve:
    def test_free_rotation(self):
        n = 20
        eps = 5.0
        state = dicke_evolve(n, Rates(0.0, 0.0), zeta=0.0,
                             epsilon_over_hbar=eps,
                             initial=coherent_spin_state(n), t=1.0,
                             n_steps=1000)
        jx, jy, _ = spin_operators(n)
        jplus = np.trace((jx + 1j * jy) @ state.rho)
        assert abs(jplus) == pytest.approx(n / 2.0, rel=1e-9)
        # <J_+> picks up the phase e^{i eps t} under the J_z Hamiltonian
        assert math.cos(np.angle(jplus) - eps * 1.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_pure_dephasing_contrast(self):
        n = 40
        initial = coherent_spin_state(n)
        jx, jy, _ = spin_operators(n)

        def transverse(rho):
            return abs(np.trace((jx + 1j * jy) @ rho))

        state = dicke_evolve(n, Rates(gamma_p=0.2, gamma_s=0.0), zeta=0.0,
                             epsilon_over_hbar=0.0, initial=initial, t=1.0,
                             n_steps=1000)
        ratio = transverse(state.rho) / transverse(initial.rho)
        assert ratio == pytest.approx(math.exp(-0.1), abs=1e-3)

    def test_diffusion_growth_angular_average(self):
        # fast rotation averages the J_x channel, halving the raw N^2
        # Gamma_S coefficient for sigma_n^2 = 4 Var(J_z)
        n = 40
        gamma_s = 1e-3
        eps = 1e3 * max(gamma_s, 1.0)
        initial = coherent_spin_state(n)
        state = dicke_evolve(n, Rates(0.0, gamma_s), zeta=0.0,
                             epsilon_over_hbar=eps, initial=initial, t=1.0,
                             n_steps=4000)
        _, _, jz = spin_operators(n)

        def var_n(rho):
            return 4.0 * np.real(np.trace(jz @ jz @ rho)
                                 - np.trace(jz @ rho) ** 2)

        growth = var_n(state.rho) - var_n(initial.rho)
        expected = n ** 2 * gamma_s * 1.0 / 2.0
        assert growth == pytest.approx(expected, rel=0.05)

    def test_trace_and_hermiticity_preserved(self):
        n = 30
        state = dicke_evolve(n, Rates(0.05, 0.02), zeta=0.1,
                             epsilon_over_hbar=50.0,
                             initial=coherent_spin_state(n), t=1.0,
                             n_steps=2000)
        assert abs(np.trace(state.rho) - 1.0) < 1e-9
        assert np.max(np.abs(state.rho - state.rho.conj().T)) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 200])
    def test_banded_rhs_matches_dense(self, n):
        rng = np.random.default_rng(n)
        jx, _, _ = spin_operators(n)
        gamma_s = 0.7
        rho = random_hermitian(n + 1, rng)
        dense = gamma_s * dense_lindblad(jx, rho)
        band = _jx_coefficients(np.real(np.diag(jx, -1)), gamma_s)
        # NaN-filled buffers: any entry the dissipator fails to write shows
        banded, x, c = (np.full_like(rho, np.nan) for _ in range(3))
        _jx_dissipator(rho, band, banded, x, c)
        assert np.max(np.abs(banded - dense)) <= (
            1e-13 * np.max(np.abs(dense)))

    def test_matches_dense_rk4_with_echo(self):
        # Gamma_S = 0 takes each leg as the single factor exp(g tau)
        n = 20
        initial = coherent_spin_state(n, theta=1.2, phi=0.4)
        for r in (Rates(gamma_p=0.3, gamma_s=0.2),
                  Rates(gamma_p=0.3, gamma_s=0.0)):
            state = dicke_evolve(n, r, zeta=0.15, epsilon_over_hbar=40.0,
                                 initial=initial, t=1.0, n_steps=400,
                                 echo=True)
            dense = dense_evolve(n, r, 0.15, 40.0, initial.rho, 1.0, 400,
                                 echo=True)
            assert np.max(np.abs(state.rho - dense)) <= 1e-12

    def test_fourth_order_convergence(self):
        # the run above against a fine-step one: halving dt cuts the
        # error about 16-fold
        n, r = 20, Rates(gamma_p=0.3, gamma_s=0.2)
        initial = coherent_spin_state(n, theta=1.2, phi=0.4)

        def run(steps):
            return dicke_evolve(n, r, zeta=0.15, epsilon_over_hbar=40.0,
                                initial=initial, t=1.0, n_steps=steps,
                                echo=True).rho

        fine = run(6400)
        err = [np.max(np.abs(run(steps) - fine)) for steps in (200, 400, 800)]
        assert err[-1] < 1e-10
        for coarse, finer in zip(err, err[1:]):
            assert math.log2(coarse / finer) > 3.5

    def test_pure_dephasing_is_exact(self):
        # Gamma_P N^2 dt / 2 = 16: far past RK4's stability interval, yet
        # the dephasing factor is applied exactly
        n, gamma_p, t = 40, 2.0, 1.0
        initial = coherent_spin_state(n)
        state = dicke_evolve(n, Rates(gamma_p, 0.0), 0.0, 0.0, initial, t,
                             100)
        m = np.arange(n + 1)
        exact = np.exp(-gamma_p * (m[:, None] - m[None, :]) ** 2 * t / 2.0)
        assert np.max(np.abs(state.rho - exact * initial.rho)) <= 1e-14

    @pytest.mark.parametrize("echo", [False, True])
    def test_work_buffers_stay_private(self, echo):
        # the steps write in place: neither the caller's initial state nor
        # an earlier result may share memory with a later call's buffers.
        # An odd step count ends a leg on one of its work arrays.
        n, r = 20, Rates(gamma_p=0.3, gamma_s=0.2)
        initial = coherent_spin_state(n, theta=1.2, phi=0.4)
        before = initial.rho.copy()

        def run():
            return dicke_evolve(n, r, zeta=0.15, epsilon_over_hbar=40.0,
                                initial=initial, t=1.0, n_steps=41,
                                echo=echo).rho

        first = run()
        assert np.array_equal(initial.rho, before)
        kept = first.copy()
        second = run()
        assert np.array_equal(first, kept)
        assert np.array_equal(second, kept)
        assert not np.shares_memory(first, second)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError, match="N <= 200"):
            dicke_evolve(500, Rates(0.0, 0.0), 0.0, 0.0,
                         coherent_spin_state(10), 1.0, 1000)

    def test_rejects_initial_of_other_size(self):
        with pytest.raises(ValueError, match="n_atoms = 10.*n_atoms = 40"):
            dicke_evolve(40, Rates(0.0, 0.0), 0.0, 0.0,
                         coherent_spin_state(10), 1.0, 1000)

    # these used to reach the integrator and fail as a PositivityError
    # (t < 0) or as a FloatingPointError asking for more steps
    @pytest.mark.parametrize("name, changes", [
        ("t", {"t": -1.0}), ("t", {"t": math.nan}), ("t", {"t": math.inf}),
        ("zeta", {"zeta": math.nan}), ("zeta", {"zeta": -math.inf}),
        ("epsilon_over_hbar", {"epsilon_over_hbar": math.inf}),
        ("r.gamma_p", {"r": Rates(math.nan, 0.1)}),
        ("r.gamma_p", {"r": Rates(math.inf, 0.1)}),
        ("r.gamma_p", {"r": Rates(-0.1, 0.1)}),
        ("r.gamma_s", {"r": Rates(0.1, math.nan)}),
        ("n_atoms", {"n_atoms": True}),
        # a float n_steps used to fail in range() where Gamma_S > 0 and run
        # silently where Gamma_S = 0; True ran one step
        ("n_steps", {"n_steps": 10.0}),
        ("n_steps", {"n_steps": 10.0, "r": Rates(0.1, 0.0)}),
        ("n_steps", {"n_steps": True}),
        # a str used to raise a bare TypeError
        ("t", {"t": "1"}), ("zeta", {"zeta": "0"}),
        ("epsilon_over_hbar", {"epsilon_over_hbar": None})])
    def test_bad_argument_is_named(self, name, changes):
        args = dict(n_atoms=4, r=Rates(0.1, 0.1), zeta=0.0,
                    epsilon_over_hbar=0.0, initial=coherent_spin_state(4),
                    t=1.0, n_steps=10)
        args.update(changes)
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
            dicke_evolve(**args)

    def test_echo_leg_without_steps_is_named(self):
        with pytest.raises(ValueError, match="n_steps = 1 leaves"):
            dicke_evolve(4, Rates(0.0, 0.0), 0.1, 0.0,
                         coherent_spin_state(4), 1.0, 1, echo=True)

    def test_state_check_returns_its_diagnostics(self):
        n = 40
        rho = coherent_spin_state(n).rho
        trace_error, min_eig = DickeState(n, rho).check()
        assert trace_error == abs(np.trace(rho) - 1.0)
        assert trace_error <= 1e-14
        # a pure state: one eigenvalue 1, the other N at 0 up to rounding
        assert min_eig == np.linalg.eigvalsh(rho)[0]
        assert abs(min_eig) <= 1e-14

    def test_state_check_rejects_bad_matrices(self):
        rho = np.diag([0.7, 0.5, -0.2]).astype(complex)
        with pytest.raises(PositivityError):
            DickeState(2, rho).check()
        with pytest.raises(ValueError, match="trace"):
            DickeState(2, np.eye(3, dtype=complex)).check()
        with pytest.raises(FloatingPointError, match="2.8"):
            DickeState(2, np.full((3, 3), np.nan, dtype=complex)).check()
        # unit trace, finite, but one off-diagonal entry without its mirror
        skew = np.diag([0.5, 0.3, 0.2]).astype(complex)
        skew[0, 1] = 0.1
        with pytest.raises(ValueError, match="^density matrix is not "
                                             "Hermitian$"):
            DickeState(2, skew).check()
        # Gamma_S N^2 dt / 2 = 16 lies outside RK4's stability interval
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="Gamma_S"):
            dicke_evolve(40, Rates(0.0, 2.0), 0.0, 0.0,
                         coherent_spin_state(40), 1.0, 100)


class TestDickePhaseVariance:
    def test_pure_dephasing_adds_linearly(self):
        # Gamma_P t = 0.04 on top of the 1/N projection noise
        n = 100
        state = dicke_evolve(n, Rates(gamma_p=0.04, gamma_s=0.0), zeta=0.0,
                             epsilon_over_hbar=0.0,
                             initial=coherent_spin_state(n), t=1.0,
                             n_steps=1000)
        pm = dicke_phase_variance(state)
        assert pm.variance == pytest.approx(0.05, rel=0.05)

    def test_rotation_invariance(self):
        base = dicke_phase_variance(coherent_spin_state(60))
        rot = dicke_phase_variance(coherent_spin_state(60, phi=0.7))
        assert rot.variance == pytest.approx(base.variance, rel=1e-10)

    def test_requires_transverse_component(self):
        n = 10
        rho = np.zeros((n + 1, n + 1), dtype=complex)
        rho[-1, -1] = 1.0  # stretched state along +z
        with pytest.raises(ValueError, match="transverse"):
            dicke_phase_variance(DickeState(n, rho))

    @pytest.mark.parametrize("n", [1, 2, 40, 200])
    def test_matches_dense_moments(self, n):
        # the band moments against dense J_x, J_y products, on a tilted
        # and rotated state and on one evolved with both channels
        jx, jy, _ = spin_operators(n)
        tilted = coherent_spin_state(n, theta=1.2, phi=2.5)
        evolved = dicke_evolve(n, Rates(0.05, 0.002), 0.1, 30.0, tilted,
                               1.0, 100, echo=True)
        for state in (tilted, evolved):
            ex = np.real(np.trace(jx @ state.rho))
            ey = np.real(np.trace(jy @ state.rho))
            alpha = math.atan2(ey, ex)
            jyp = -math.sin(alpha) * jx + math.cos(alpha) * jy
            var = np.real(np.trace(jyp @ jyp @ state.rho)
                          - np.trace(jyp @ state.rho) ** 2)
            pm = dicke_phase_variance(state)
            assert pm.mean == pytest.approx(alpha, rel=1e-12)
            assert pm.variance == pytest.approx(var / (ex ** 2 + ey ** 2),
                                                rel=1e-12)

    def test_low_contrast_warns(self):
        n = 40
        state = dicke_evolve(n, Rates(gamma_p=2.0, gamma_s=0.0), zeta=0.0,
                             epsilon_over_hbar=0.0,
                             initial=coherent_spin_state(n), t=1.0,
                             n_steps=1000)
        with pytest.warns(UserWarning, match="contrast"):
            dicke_phase_variance(state)


class TestStreamCanary:
    # NumPy fixes each BitGenerator's bits, not the algorithm a Generator
    # method turns them into; these pin the first draws of both methods
    # the package samples with
    MOVED = ("numpy changed Generator.{} on Philox; every Monte Carlo "
             "number (simulate, calibrate, the benchmark's reference) "
             "moves with it")

    def test_sde_block_0_normals(self):
        key = np.array([42, 0], dtype=np.uint64)
        draws = np.random.Generator(np.random.Philox(key=key)) \
            .standard_normal(3).tolist()
        assert draws == [0.3375714466967798, -0.7821534784435413,
                         -0.3160252007782352], self.MOVED.format(
                             "standard_normal")

    def test_calibrate_chisquare(self):
        draws = np.random.Generator(np.random.Philox(key=42)) \
            .chisquare(299, 3).tolist()
        assert draws == [306.6553134382396, 290.6802510566375,
                         313.6141773992399], self.MOVED.format("chisquare")


class TestBenchReference:
    # the Dicke values the benchmark gates; recorded there once, read-only
    REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "bench", "reference.json")
    DICKE_REL = 1e-6  # the benchmark's tolerance on these values

    @pytest.mark.parametrize("n, steps", [(10, 200), (40, 1000)])
    def test_dephasing_phase_variance(self, n, steps):
        with open(self.REFERENCE, encoding="utf-8") as f:
            expected = json.load(f)["oracle-check"][
                f"dicke dephasing {n}x{steps}"]["phase_variance"]
        state = dicke_evolve(n, Rates(gamma_p=0.2, gamma_s=0.0), zeta=0.0,
                             epsilon_over_hbar=0.0,
                             initial=coherent_spin_state(n), t=1.0,
                             n_steps=steps)
        assert dicke_phase_variance(state).variance == pytest.approx(
            expected, rel=self.DICKE_REL)


class TestOracleAgreement:
    def test_three_way_phase_variance(self):
        # closed form, trajectory ensemble and master equation agree
        # pairwise within 5% in the narrow-phase validity regime
        n = 100
        gamma_s = 5e-3
        lam = lam_for_gamma_s(gamma_s)
        spec = swi_unit_spec(n, 1.0, 1.0, zeta=0.01)
        point = CslPoint(lam, OPT)
        r = rates(point, spec.species, spec.geometry)
        assert r.gamma_s == pytest.approx(gamma_s, rel=1e-12)

        closed = phase_variance(spec, point).variance

        mc = sde_sample(spec, point, 20_000, 1000, seed=9).variance

        dicke = dicke_phase_variance(dicke_evolve(
            n, r, zeta=0.01, epsilon_over_hbar=100.0,
            initial=coherent_spin_state(n), t=1.0, n_steps=1000)).variance

        for a, b in ((closed, mc), (closed, dicke), (mc, dicke)):
            assert a == pytest.approx(b, rel=0.05)

    def test_dicke_collapse_increment(self):
        # the collapse term is 9 % of the total above, where a Dicke one 40 %
        # low would pass: compare the increments over lambda = 0 alone
        n = 100
        spec = swi_unit_spec(n, 1.0, 1.0, zeta=0.01)
        points = (CslPoint(lam_for_gamma_s(5e-3), OPT), CslPoint(0.0, OPT))
        closed = [phase_variance(spec, p).variance for p in points]
        dicke = [dicke_phase_variance(dicke_evolve(
            n, rates(p, spec.species, spec.geometry), zeta=0.01,
            epsilon_over_hbar=100.0, initial=coherent_spin_state(n), t=1.0,
            n_steps=1000)).variance for p in points]
        assert dicke[0] - dicke[1] == pytest.approx(closed[0] - closed[1],
                                                    rel=0.05, abs=0)


class TestDickeLargeN:
    # the Dicke collapse increment tends to the phase-space closed form as
    # 1/N; at fixed zeta N the closed-form increment Gamma_P t
    # + Gamma_S t^3 / 6 (plain) or / 24 (echo) does not depend on N
    GAMMA_S = 5e-3

    def residuals(self, echo):
        """Relative Dicke-minus-closed collapse increments at N = 50, 100
        and 200, and the (50, 100) and (100, 200) extrapolations 2 D(2N) -
        D(N), each relative to the closed form."""
        dicke, closed = [], []
        for n in (50, 100, 200):
            spec = swi_unit_spec(n, 1.0, 1.0, zeta=1.0 / n, echo=echo)
            points = (CslPoint(lam_for_gamma_s(self.GAMMA_S), OPT),
                      CslPoint(0.0, OPT))
            var = [phase_variance(spec, p).variance for p in points]
            closed.append(var[0] - var[1])
            var = [dicke_phase_variance(dicke_evolve(
                n, rates(p, spec.species, spec.geometry), zeta=1.0 / n,
                epsilon_over_hbar=100.0, initial=coherent_spin_state(n),
                t=1.0, n_steps=200, echo=echo)).variance for p in points]
            dicke.append(var[0] - var[1])
        assert closed == pytest.approx([closed[0]] * 3, rel=1e-12)
        return ([d / c - 1.0 for d, c in zip(dicke, closed)],
                [(2.0 * dicke[i + 1] - dicke[i]) / closed[i + 1] - 1.0
                 for i in (0, 1)])

    @pytest.mark.parametrize("echo, sign", [(False, -1.0), (True, 1.0)],
                             ids=["plain", "echo"])
    def test_extrapolation_in_one_over_n(self, echo, sign):
        residual, (coarse, fine) = self.residuals(echo)
        # plain loses part of its zeta^2 diffusion term, the echo gains the
        # J_x channel's own phase diffusion: each keeps its sign at every N
        assert all(np.sign(r) == sign for r in residual)
        # and halves with each doubling of N
        assert 0.4 < residual[2] / residual[1] < 0.6
        # 2 D(2N) - D(N) cancels the 1/N term, so what is left shrinks with
        # N: the finer pair's error is bounded by the coarser pair's, and
        # the extrapolation lands closer than the largest N alone
        assert abs(fine) <= abs(coarse)
        assert abs(fine) < abs(residual[2])
