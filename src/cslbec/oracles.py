"""Independent numerical ground truth for the analytic dynamics.

Two oracles that share none of the Gaussian propagation of
:mod:`cslbec.dynamics`, only its ``Rates`` and ``PhaseMoments`` types and,
for the sampler, the closed-form rates at a CSL point (``rates``):

* an Euler-Maruyama sampler for the phase-space Fokker-Planck equation
  (drift d(phi) = zeta*n dt, diffusions Gamma_P in phi and N^2 Gamma_S / 2
  in n, reproducing the Fokker-Planck coefficients Gamma_P/2 and
  N^2 Gamma_S/4);

* a Dicke-basis integrator for the full collective-spin master equation
  with J_z dephasing and J_x diffusion Lindblad channels, which works on
  the tridiagonal band of J_x so that each step costs O(N^2).
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CslPoint, ExperimentSpec, Protocol, _check_seed
from .dynamics import PhaseMoments, Rates, rates

__all__ = [
    "SdeMoments",
    "DickeState",
    "PositivityError",
    "sde_sample",
    "coherent_spin_state",
    "spin_operators",
    "dicke_evolve",
    "dicke_phase_variance",
]

_BLOCK = 4096  # trajectories per RNG stream
_TOL_TRACE = 1e-9  # DickeState.check: trace and Hermiticity tolerance
_TOL_POS = 1e-8    # DickeState.check: most negative eigenvalue allowed


@dataclass(frozen=True)
class SdeMoments:
    """Empirical phase moments from a trajectory ensemble."""

    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    t: float
    n_traj: int
    seed: int
    max_step_phase: float  # |zeta| max|n| dt at the final step, last leg's dt


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sde_block(spec: ExperimentSpec, seed: int, block: int, m: int,
               legs: tuple, sig_phi: float, diff_n: float):
    """Final phi of one block of m trajectories, and max|n| at the last step.

    ``legs`` is the schedule of ``Protocol.legs``; each leg steps at its
    own dt with number noise of variance ``diff_n`` * dt per step.  The
    block draws from its own Philox stream keyed by (seed, block) and
    touches no shared state, so blocks can run in any order or at once.
    """
    key = np.array([seed, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    phi = rng.normal(0.0, math.sqrt(spec.sigma_phi0_sq), size=m)
    n = rng.normal(0.0, spec.state.sigma_n0, size=m)
    if sig_phi > 0.0:
        phi += sig_phi * rng.standard_normal(m)
    for zeta, tau, steps in legs:
        dt = tau / steps
        sig_n = math.sqrt(diff_n * dt)
        for _ in range(steps):
            phi += zeta * n * dt
            if sig_n > 0.0:
                n += sig_n * rng.standard_normal(m)
    return phi, float(np.max(np.abs(n)))


def sde_sample(spec: ExperimentSpec, point: CslPoint, n_traj: int,
               n_steps: int, seed: int) -> SdeMoments:
    """Monte Carlo phase moments at time t from Euler-Maruyama trajectories.

    Initial (phi, n) are Gaussian with variances (xi0^2/N, sigma_n0^2).
    The steps follow the schedule of ``Protocol.legs``: the echo flips the
    sign of zeta at t/2, each half stepping at its own dt.  The phi
    collapse noise is additive at a constant rate and never feeds back
    into n, so its n_steps increments sum exactly to one normal of
    variance Gamma_P t, drawn once per trajectory after the initial
    (phi, n); only the n channel is stepped.  Trajectories are generated in
    fixed-size blocks, each from a counter-based Philox stream keyed by the
    pair (seed, block index), so streams of different seeds never overlap.
    The blocks run concurrently on a thread pool (numpy releases the GIL
    while it fills and combines the arrays), one worker per usable CPU up
    to the number of blocks, and are assembled in block order: the result
    is bitwise reproducible for a given (seed, n_traj, n_steps) at any
    worker count.  ``max_step_phase`` is |zeta| max|n| dt at the final
    step, with the last leg's dt: the value the dispersion-step warning
    tests.
    """
    if n_traj < 1000:
        raise ValueError("n_traj must be >= 1000")
    if n_steps < 1000:
        raise ValueError("n_steps must be >= 1000")
    _check_seed(seed)

    r = rates(point, spec.species, spec.geometry)
    n_atoms = spec.state.n_atoms
    p = spec.protocol
    legs = p.legs(n_steps)
    sig_phi = math.sqrt(r.gamma_p * p.t)
    diff_n = n_atoms ** 2 * r.gamma_s / 2.0

    # imported here: a cold CLI call that never simulates skips its cost
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, n_traj, _BLOCK)
    # a copy of the caller's context per block carries numpy's error state
    # (np.errstate) into the worker threads
    contexts = [contextvars.copy_context() for _ in starts]

    def run_block(block: int):
        m = min(_BLOCK, n_traj - starts[block])
        return contexts[block].run(_sde_block, spec, seed, block, m, legs,
                                   sig_phi, diff_n)

    workers = min(len(starts), _cpu_count())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(run_block, range(len(starts))))
    phi_all = np.concatenate([phi for phi, _ in blocks])
    max_abs_n = max(top for _, top in blocks)

    _, tau, steps = legs[-1]
    max_step_phase = abs(p.zeta) * max_abs_n * (tau / steps)
    if max_step_phase > 1e-3:
        warnings.warn(
            "dispersion step zeta*|n|*dt exceeds 1e-3 rad; "
            "increase n_steps",
            stacklevel=2,
        )

    mean = float(np.mean(phi_all))
    var = float(np.var(phi_all, ddof=1))
    return SdeMoments(
        mean=mean,
        variance=var,
        stderr_mean=math.sqrt(var / n_traj),
        stderr_variance=var * math.sqrt(2.0 / (n_traj - 1)),
        t=p.t,
        n_traj=n_traj,
        seed=seed,
        max_step_phase=max_step_phase,
    )


# --- Dicke-basis master equation --------------------------------------------

class PositivityError(RuntimeError):
    """Density matrix left the positive cone beyond tolerance."""


@dataclass(frozen=True)
class DickeState:
    """Density matrix in the J_z eigenbasis of the J = N/2 spin block.

    Basis ordering is m = -J ... +J.
    """

    n_atoms: int
    rho: np.ndarray

    def check(self) -> None:
        if not np.isfinite(self.rho).all():
            raise FloatingPointError(
                "density matrix is not finite: an RK4 step is stable only "
                "for Gamma_P * N^2 * dt / 2 <~ 2.8; increase n_steps")
        tr = np.trace(self.rho)
        if abs(tr - 1.0) > _TOL_TRACE:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.2e}")
        if np.max(np.abs(self.rho - self.rho.conj().T)) > _TOL_TRACE:
            raise ValueError("density matrix is not Hermitian")
        w = np.linalg.eigvalsh(self.rho)
        if w[0] < -_TOL_POS:
            raise PositivityError(
                f"smallest eigenvalue {w[0]:.3e} below -{_TOL_POS:.0e}"
            )


def _spin_bands(n_atoms: int):
    """J_z diagonal m = -J..J and J_+ sub-diagonal sqrt(j(j+1) - m(m+1))."""
    j = n_atoms / 2.0
    m = np.arange(-j, j + 1)
    return m, np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))


def spin_operators(n_atoms: int):
    """Dense J_x, J_y, J_z for the symmetric J = N/2 block."""
    m, cp = _spin_bands(n_atoms)
    jz = np.diag(m).astype(complex)
    jp = np.diag(cp, -1).astype(complex)
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return jx, jy, jz


def coherent_spin_state(n_atoms: int, theta: float = math.pi / 2.0,
                        phi: float = 0.0) -> DickeState:
    """Coherent spin state |theta, phi>; the default points along +x."""
    j = n_atoms / 2.0
    m = np.arange(-j, j + 1)
    log_binom = np.array([
        0.5 * (math.lgamma(n_atoms + 1) - math.lgamma(j + mk + 1)
               - math.lgamma(j - mk + 1))
        for mk in m
    ])
    # log-domain binomial amplitudes keep N ~ 200 well-conditioned
    amp = np.exp(
        log_binom
        + (j + m) * math.log(max(math.cos(theta / 2.0), 1e-300))
        + (j - m) * math.log(max(math.sin(theta / 2.0), 1e-300))
    ) * np.exp(-1j * m * phi)
    amp /= np.linalg.norm(amp)
    return DickeState(n_atoms, np.outer(amp, amp.conj()))


def _band_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the Hermitian tridiagonal A with zero diagonal.

    a holds the sub-diagonal A[k+1, k]; the super-diagonal is its
    conjugate.  Two shifted row products, O(N^2) for an (N+1)^2 matrix x.
    """
    out = np.zeros_like(x)
    out[1:] = a[:, None] * x[:-1]
    out[:-1] += a.conj()[:, None] * x[1:]
    return out


def _dicke_rhs(rho: np.ndarray, time: float, deph, gamma_s: float,
               jx_band: np.ndarray, dh_band: np.ndarray) -> np.ndarray:
    """Interaction-picture dissipator of the Dicke master equation.

    deph * rho is the J_z dephasing channel (elementwise, since it commutes
    with the diagonal Hamiltonian).  J_x(t) is tridiagonal with sub-diagonal
    a_k = jx_band[k] exp(i dh_band[k] time), dh_band[k] = h[k+1] - h[k],
    and the diffusion channel is the double commutator
    D[A]rho = -[A, [A, rho]] / 2, taken as X = A rho, C = X - X^H,
    Y = A C, D = -(Y + Y^H) / 2, which assumes a Hermitian rho.
    """
    out = deph * rho
    if gamma_s > 0.0:
        a = jx_band * np.exp(1j * dh_band * time)
        x = _band_product(a, rho)
        y = _band_product(a, x - x.conj().T)
        out = out - (0.5 * gamma_s) * (y + y.conj().T)
    return out


def _evolve_segment(rho, mz, jx_band, r: Rates, zeta: float,
                    epsilon_over_hbar: float, tau: float, n_steps: int):
    """RK4 in the interaction picture of the diagonal Hamiltonian.

    The Hamiltonian eps/hbar J_z + zeta J_z^2 is diagonal here, so its
    unitary is applied exactly through elementwise phases and RK4 only
    integrates the dissipator, whose J_x operator picks up those phases.
    This removes the stiff free-rotation scale from the stepper; the fast
    oscillation survives in the dissipator coefficients, which is what
    produces the angular averaging of the diffusion channel.
    """
    h = epsilon_over_hbar * mz + zeta * mz ** 2
    dh_band = h[1:] - h[:-1]
    # dephasing channel is diagonal in this basis and commutes with H
    deph = r.gamma_p * (
        np.outer(mz, mz) - (mz[:, None] ** 2 + mz[None, :] ** 2) / 2.0
    )

    def rhs(rho_i, time):
        return _dicke_rhs(rho_i, time, deph, r.gamma_s, jx_band, dh_band)

    dt = tau / n_steps
    for step in range(n_steps):
        time = step * dt
        k1 = rhs(rho, time)
        k2 = rhs(rho + 0.5 * dt * k1, time + 0.5 * dt)
        k3 = rhs(rho + 0.5 * dt * k2, time + 0.5 * dt)
        k4 = rhs(rho + dt * k3, time + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # back to the lab frame
    phase = np.exp(-1j * (h[:, None] - h[None, :]) * tau)
    return phase * rho


def dicke_evolve(n_atoms: int, r: Rates, zeta: float,
                 epsilon_over_hbar: float, initial: DickeState, t: float,
                 n_steps: int, echo: bool = False) -> DickeState:
    """Fixed-step 4th-order integration of the collective-spin master equation.

    d(rho)/dt = -i [eps/hbar J_z + zeta J_z^2, rho]
                + Gamma_P (J_z rho J_z - {J_z^2, rho}/2)
                + Gamma_S (J_x rho J_x - {J_x^2, rho}/2)

    Each RK4 stage costs O(N^2): the Hamiltonian is applied as exact
    diagonal phases and J_x enters only through its tridiagonal band (see
    ``_dicke_rhs``), which needs the initial state to be Hermitian.
    Intended as an oracle for N <= 200.  The steps follow the schedule of
    ``Protocol.legs``: the echo flag flips the sign of zeta at t/2.  For
    accuracy the step must resolve the J_x coefficient oscillation:
    (eps/hbar) * t / n_steps should stay below roughly 0.5.  For stability
    the fastest dephasing rate needs Gamma_P * N^2 * dt / 2 <~ 2.8 (RK4's
    real stability limit); past it ``DickeState.check`` raises a
    FloatingPointError.
    """
    if n_atoms > 200:
        raise ValueError("Dicke oracle limited to N <= 200")
    if r.gamma_p < 0 or r.gamma_s < 0:
        raise ValueError("rates must be nonnegative")
    legs = Protocol(t=t, zeta=zeta, echo=echo).legs(n_steps)

    mz, cp = _spin_bands(n_atoms)
    jx_band = cp / 2.0

    rho = initial.rho.astype(complex).copy()
    for zeta_k, tau, steps in legs:
        rho = _evolve_segment(rho, mz, jx_band, r, zeta_k, epsilon_over_hbar,
                              tau, steps)

    state = DickeState(n_atoms, rho)
    state.check()
    return state


def _expect(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(np.trace(op @ rho)))


def dicke_phase_variance(state: DickeState):
    """Phase moments extracted from collective-spin expectation values.

    In the frame rotated about z so that <J_y> = 0, the estimator is
    sigma_phi^2 = Var(J_y') / (<J_x>^2 + <J_y>^2).  Valid for states
    sharply localized on the equator (sigma_phi << 1); a contrast below
    half the maximal spin length flags a biased estimate.
    """
    jx, jy, jz = spin_operators(state.n_atoms)
    rho = state.rho
    ex, ey = _expect(jx, rho), _expect(jy, rho)
    if ex ** 2 + ey ** 2 <= 0.0:
        raise ValueError("state has no transverse spin component")
    alpha = math.atan2(ey, ex)
    jyp = -math.sin(alpha) * jx + math.cos(alpha) * jy
    var_jyp = _expect(jyp @ jyp, rho) - _expect(jyp, rho) ** 2
    contrast = math.hypot(ex, ey) / (state.n_atoms / 2.0)
    if contrast < 0.5:
        warnings.warn(
            f"contrast {contrast:.2f} < 0.5: phase-variance estimator biased",
            stacklevel=2,
        )
    return PhaseMoments(alpha, var_jyp / (ex ** 2 + ey ** 2), math.nan)
