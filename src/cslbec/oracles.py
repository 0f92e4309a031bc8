"""Independent numerical ground truth for the analytic dynamics.

Two oracles that share none of the Gaussian propagation of
:mod:`cslbec.dynamics`, only its ``Rates`` and ``PhaseMoments`` types and,
for the sampler, the closed-form rates at a CSL point (``rates``):

* an Euler-Maruyama sampler for the phase-space Fokker-Planck equation
  (drift d(phi) = zeta*n dt, diffusions Gamma_P in phi and N^2 Gamma_S / 2
  in n, reproducing the Fokker-Planck coefficients Gamma_P/2 and
  N^2 Gamma_S/4);

* a Dicke-basis integrator for the full collective-spin master equation
  with J_z dephasing and J_x diffusion Lindblad channels.  The Hamiltonian
  and the dephasing are diagonal there and applied as one exact factor;
  RK4 steps only the J_x channel, on its tridiagonal band, so each step
  costs O(N^2) and writes into work arrays allocated once per leg.  A leg
  without the J_x channel (Gamma_S = 0) is that factor alone.
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from dataclasses import dataclass

from .core import (CslPoint, ExperimentSpec, Protocol, _check_count,
                   _check_finite, _check_nonnegative, _check_seed, _lazy_numpy)
from .dynamics import PhaseMoments, Rates, rates

np = _lazy_numpy()

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
_BIAS_SE = 0.1  # sde_sample warns past this many standard errors of bias
_TOL_TRACE = 1e-9  # DickeState.check: trace and Hermiticity tolerance
_TOL_POS = 1e-8    # DickeState.check: most negative eigenvalue allowed


@dataclass(frozen=True)
class SdeMoments:
    """Empirical phase moments from a trajectory ensemble.

    ``euler_bias`` (rad^2) is the exact error of the Euler-Maruyama
    scheme's phi-variance against the continuous-time SDE: the sum over
    the legs of -D tau c (a + c (3m - 1) / 6), for m steps of per-step
    shear c = zeta tau / m followed by a tail shear a, with
    D = N^2 Gamma_S / 2.  It does not depend on the sample;
    ``sde_sample`` warns when |euler_bias| > 0.1 ``stderr_variance``.
    """

    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    t: float
    n_traj: int
    seed: int
    euler_bias: float


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _euler_bias(legs: tuple, diff_n: float) -> float:
    """Exact phi-variance error of the Euler scheme over ``legs``.

    A number increment shears into phi through every later step, so the
    scheme sums diff_n dt T_j^2 over the discrete tail shears T_j where the
    SDE integrates diff_n T(s)^2 ds; summed over a leg, the difference is
    the term below, with ``tail`` the shear of the later legs.  The
    initial (phi, n) and the summed phi noise are exact, so this is the
    whole error.
    """
    bias, tail = 0.0, 0.0
    for zeta, tau, steps in reversed(legs):
        c = zeta * tau / steps
        bias -= diff_n * tau * c * (tail + c * (3 * steps - 1) / 6.0)
        tail += zeta * tau
    return bias


def _sde_block(spec: ExperimentSpec, seed: int, block: int, m: int,
               legs: tuple, sig_phi: float, diff_n: float) -> np.ndarray:
    """Final phi of one block of m trajectories.

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
    return phi


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
    worker count.

    The drift is linear, so the scheme's variance error has a closed form,
    reported as ``SdeMoments.euler_bias``; it is exactly 0 where
    Gamma_S = 0.  A UserWarning asks for more steps when |bias| exceeds
    0.1 ``stderr_variance``, where the bias would begin to show against
    the sampling error.  n_traj and n_steps must be ints >= 1000, and a
    bool is not an int.
    """
    _check_count("n_traj", n_traj, 1000)
    _check_count("n_steps", n_steps, 1000)
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
    np.random  # a lazy numpy loads here, not at once in the workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(run_block, range(len(starts))))
    phi_all = np.concatenate(blocks)

    mean = float(np.mean(phi_all))
    var = float(np.var(phi_all, ddof=1))
    stderr_var = var * math.sqrt(2.0 / (n_traj - 1))
    bias = _euler_bias(legs, diff_n)
    if abs(bias) > _BIAS_SE * stderr_var:
        warnings.warn(
            f"Euler bias {bias:.3g} rad^2 of the phase variance exceeds "
            f"{_BIAS_SE:g} of its standard error; increase n_steps",
            stacklevel=2,
        )
    return SdeMoments(
        mean=mean,
        variance=var,
        stderr_mean=math.sqrt(var / n_traj),
        stderr_variance=stderr_var,
        t=p.t,
        n_traj=n_traj,
        seed=seed,
        euler_bias=bias,
    )


# --- Dicke-basis master equation --------------------------------------------

class PositivityError(ArithmeticError):
    """Density matrix left the positive cone beyond tolerance."""


@dataclass(frozen=True)
class DickeState:
    """Density matrix in the J_z eigenbasis of the J = N/2 spin block.

    Basis ordering is m = -J ... +J.
    """

    n_atoms: int
    rho: np.ndarray

    def check(self) -> tuple[float, float]:
        """Validate rho; return (|tr rho - 1|, smallest eigenvalue).

        Raises FloatingPointError on a non-finite entry, ValueError past
        the trace or Hermiticity tolerance and PositivityError below the
        eigenvalue tolerance.
        """
        if not np.isfinite(self.rho).all():
            raise FloatingPointError(
                "density matrix is not finite: an RK4 step is stable only "
                "for Gamma_S * N^2 * dt / 2 <~ 2.8; increase n_steps")
        trace_error = float(abs(np.trace(self.rho) - 1.0))
        if trace_error > _TOL_TRACE:
            raise ValueError(f"trace deviates from 1 by {trace_error:.2e}")
        if np.max(np.abs(self.rho - self.rho.conj().T)) > _TOL_TRACE:
            raise ValueError("density matrix is not Hermitian")
        min_eig = float(np.linalg.eigvalsh(self.rho)[0])
        if min_eig < -_TOL_POS:
            raise PositivityError(
                f"smallest eigenvalue {min_eig:.3e} below -{_TOL_POS:.0e}"
            )
        return trace_error, min_eig


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
    """Coherent spin state |theta, phi>, theta in [0, pi]; the default
    points along +x."""
    _check_count("n_atoms", n_atoms, 1)
    _check_finite("theta", theta)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta!r}")
    _check_finite("phi", phi)
    j = n_atoms / 2.0
    m, _ = _spin_bands(n_atoms)
    log_binom = np.array([
        0.5 * (math.lgamma(n_atoms + 1) - math.lgamma(j + mk + 1)
               - math.lgamma(j - mk + 1))
        for mk in m
    ])
    # log-domain binomial amplitudes keep N ~ 200 well-conditioned; the
    # clamps guard log(0) at the poles alone
    amp = np.exp(
        log_binom
        + (j + m) * math.log(max(math.cos(theta / 2.0), 1e-300))
        + (j - m) * math.log(max(math.sin(theta / 2.0), 1e-300))
    ) * np.exp(-1j * m * phi)
    amp /= np.linalg.norm(amp)
    return DickeState(n_atoms, np.outer(amp, amp.conj()))


def _band_into(coef: np.ndarray, x: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> None:
    """out = B x for the symmetric tridiagonal B with zero diagonal.

    ``coef`` holds B[k+1, k] = B[k, k+1], materialised along the rows of
    an (N, N+1) array so that both shifted row products are plain
    elementwise passes; ``tmp`` is an (N, N+1) scratch array.
    """
    np.multiply(coef, x[:-1], out=out[1:])
    out[0] = 0.0
    np.multiply(coef, x[1:], out=tmp)
    np.add(out[:-1], tmp, out=out[:-1])


def _jx_dissipator(rho: np.ndarray, band: np.ndarray, out: np.ndarray,
                   x: np.ndarray, c: np.ndarray) -> None:
    """out = Gamma_S D[J_x] rho on the band of J_x, allocating nothing.

    D[A]rho = -[A, [A, rho]] / 2, taken as X = S rho, C = X^H - X,
    Y = S C, D = Y + Y^H with S = sqrt(Gamma_S / 2) J_x, which assumes a
    Hermitian rho: C = -[S, rho] carries the sign, so one band serves
    both products.  ``band`` is S's band (see ``_jx_coefficients``);
    ``x`` and ``c`` are scratch arrays shaped like rho, and none of the
    four arrays may be rho itself.
    """
    _band_into(band, rho, x, c[1:])
    np.conjugate(x.T, out=c)
    np.subtract(c, x, out=c)
    _band_into(band, c, x, out[1:])
    np.conjugate(x.T, out=out)
    np.add(out, x, out=out)


def _jx_coefficients(jx_band: np.ndarray, gamma_s: float) -> np.ndarray:
    """Band coefficients sqrt(Gamma_S / 2) J_x[k+1, k] for
    ``_jx_dissipator``, as a full (N, N+1) complex array."""
    n = jx_band.size
    band = np.empty((n, n + 1), dtype=complex)
    band[...] = (math.sqrt(0.5 * gamma_s) * jx_band)[:, None]
    return band


def _evolve_segment(rho, mz, jx_band, r: Rates, zeta: float,
                    epsilon_over_hbar: float, tau: float, n_steps: int):
    """Integrating-factor (Lawson) RK4 over one leg of constant zeta.

    The Hamiltonian eps/hbar J_z + zeta J_z^2 and the J_z dephasing act
    elementwise in the Dicke basis, rho_mm' -> g_mm' rho_mm' with
    g_mm' = -i (h_m - h_m') - Gamma_P (m - m')^2 / 2.  Each step applies
    exp(g dt/2) exactly, and RK4 integrates only the time-independent J_x
    dissipator in between (Lawson, SIAM J. Numer. Anal. 4, 372 (1967)).
    Pure dephasing and free rotation are therefore exact at any step, and
    a leg with Gamma_S = 0 is the single factor exp(g tau).

    The work arrays (stage slope, stage input, RK4 accumulator and two
    dissipator scratch arrays) are allocated once per leg, and every
    step writes into them, so a step allocates nothing.  ``rho`` is
    overwritten; the returned array is ``rho`` or one of this leg's work
    arrays.
    """
    h = epsilon_over_hbar * mz + zeta * mz ** 2
    g = (-1j * (h[:, None] - h[None, :])
         - 0.5 * r.gamma_p * (mz[:, None] - mz[None, :]) ** 2)
    if r.gamma_s == 0.0:
        return rho * np.exp(g * tau)
    dt = tau / n_steps
    half = np.exp(g * (0.5 * dt))
    band = _jx_coefficients(jx_band, r.gamma_s)
    k, y, acc, x, c = (np.empty_like(rho) for _ in range(5))
    for _ in range(n_steps):
        _jx_dissipator(rho, band, k, x, c)      # k1
        np.multiply(k, dt / 6.0, out=acc)
        acc += rho
        acc *= half
        np.multiply(k, 0.5 * dt, out=y)
        y += rho
        y *= half
        _jx_dissipator(y, band, k, x, c)        # k2
        rho *= half
        np.multiply(k, 0.5 * dt, out=y)
        y += rho
        k *= dt / 3.0
        acc += k
        _jx_dissipator(y, band, k, x, c)        # k3
        np.multiply(k, dt, out=y)
        y += rho
        y *= half
        k *= dt / 3.0
        acc += k
        _jx_dissipator(y, band, k, x, c)        # k4
        acc *= half
        k *= dt / 6.0
        acc += k
        rho, acc = acc, rho
    return rho


def dicke_evolve(n_atoms: int, r: Rates, zeta: float,
                 epsilon_over_hbar: float, initial: DickeState, t: float,
                 n_steps: int, echo: bool = False) -> DickeState:
    """Fixed-step 4th-order integration of the collective-spin master equation.

    d(rho)/dt = -i [eps/hbar J_z + zeta J_z^2, rho]
                + Gamma_P (J_z rho J_z - {J_z^2, rho}/2)
                + Gamma_S (J_x rho J_x - {J_x^2, rho}/2)

    The Hamiltonian and the dephasing are applied as one exact diagonal
    factor, and RK4 integrates the J_x channel on its tridiagonal band
    (see ``_evolve_segment``), so each stage costs O(N^2) and the initial
    state must be Hermitian; with Gamma_S = 0 the result is exact at any
    n_steps.  ``initial`` is copied, never written.  Intended as an
    oracle for N <= 200: one step took about 0.6, 3 and 20 ms at N = 100,
    200 and 400 (min of 5, 2-vCPU Xeon, numpy 2.4), so 1000 steps at
    N = 400 would take 20 s.  The steps follow the schedule of
    ``Protocol.legs``: the echo flag flips the sign of zeta at t/2.  For
    accuracy the step must resolve the phases the diagonal factor puts
    between the J_x stages: (eps/hbar) * t / n_steps should stay below
    roughly 0.5.  For stability the J_x double commutator, whose spectral
    radius is Gamma_S N^2 / 2, needs Gamma_S * N^2 * dt / 2 <~ 2.8 (RK4's
    real stability limit); past it ``DickeState.check`` raises a
    FloatingPointError.  Dephasing sets no step limit.  A non-finite
    argument, a negative t or rate, or a count that is not an int >= 1
    (a bool is not an int) raises a ValueError that names it.
    """
    _check_count("n_atoms", n_atoms, 1)
    if n_atoms > 200:
        raise ValueError("Dicke oracle limited to N <= 200")
    if initial.n_atoms != n_atoms:
        raise ValueError(
            f"initial state has n_atoms = {initial.n_atoms}, but "
            f"n_atoms = {n_atoms} was asked for")
    _check_finite("zeta", zeta)
    _check_finite("epsilon_over_hbar", epsilon_over_hbar)
    for name, value in (("t", t), ("r.gamma_p", r.gamma_p),
                        ("r.gamma_s", r.gamma_s)):
        _check_nonnegative(name, value)
    _check_count("n_steps", n_steps, 1)
    legs = Protocol(t=t, zeta=zeta, echo=echo).legs(n_steps)

    mz, cp = _spin_bands(n_atoms)
    jx_band = cp / 2.0

    rho = np.array(initial.rho, dtype=complex)
    for zeta_k, tau, steps in legs:
        rho = _evolve_segment(rho, mz, jx_band, r, zeta_k, epsilon_over_hbar,
                              tau, steps)

    state = DickeState(n_atoms, rho)
    state.check()
    return state


def dicke_phase_variance(state: DickeState):
    """Phase moments extracted from collective-spin expectation values.

    In the frame rotated about z so that <J_y> = 0, the estimator is
    sigma_phi^2 = Var(J_y') / (<J_x>^2 + <J_y>^2).  Valid for states
    sharply localized on the equator (sigma_phi << 1); a contrast below
    half the maximal spin length flags a biased estimate.

    Every moment is read off the bands of rho: with J_+ = c_k on its
    sub-diagonal, <J_+> = sum c_k rho[k, k+1] and
    <J_+^2> = sum c_k c_{k+1} rho[k, k+2], and <J_z^2> from the diagonal.
    With alpha = arg <J_+>, Var(J_y') = (j(j+1) - <J_z^2>
    - Re(e^{-2i alpha} <J_+^2>)) / 2, since <J_y'> = 0.
    """
    m, cp = _spin_bands(state.n_atoms)
    rho = state.rho
    jp = np.dot(cp, np.diagonal(rho, 1))
    ex, ey = float(jp.real), float(jp.imag)
    if ex ** 2 + ey ** 2 <= 0.0:
        raise ValueError("state has no transverse spin component")
    alpha = math.atan2(ey, ex)
    jp2 = np.dot(cp[:-1] * cp[1:], np.diagonal(rho, 2))
    jz2 = float(np.dot(m ** 2, np.diagonal(rho).real))
    j = state.n_atoms / 2.0
    var_jyp = 0.5 * (j * (j + 1) - jz2
                     - float((np.exp(-2j * alpha) * jp2).real))
    contrast = math.hypot(ex, ey) / j
    if contrast < 0.5:
        warnings.warn(
            f"contrast {contrast:.2f} < 0.5: phase-variance estimator biased",
            stacklevel=2,
        )
    return PhaseMoments(alpha, var_jyp / (ex ** 2 + ey ** 2), math.nan)
