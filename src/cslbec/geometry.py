"""Geometry factors f_P and f_S for the two interferometer configurations.

f_P weights the squared mode-population imbalance of the momentum-displacement
overlaps and controls dephasing; f_S weights the mode-exchange overlaps and
controls diffusion.  Both are Gaussian-weighted 2D integrals over the wave
vector q:

    f_P(r_C) = (r_C^2 / 2pi) * int d^2q  exp(-q^2 r_C^2) |W_aa(q) - W_bb(q)|^2
    f_S(r_C) = (r_C^2 / 2pi) * int d^2q  exp(-q^2 r_C^2) |W_ab(q) + W_ba(q)|^2

Both modes of either geometry share the transverse Gaussian factor
exp(-q_y^2 w_y^2 / 2), so each integral is a q_x integral times one shared
q_y integral.  Closed forms exist for both geometries at any widths; the
numerical quadrature here is their independent cross-check.  Each closed
form is written once, one function per factor: ``f_closed`` runs both,
and the inference runs only those its mode reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import MziGeometry, SwiGeometry

__all__ = [
    "OverlapMatrix",
    "GeometryFactors",
    "QuadratureError",
    "overlap_mzi",
    "overlap_swi",
    "f_closed",
    "f_quadrature",
    "optimal_rc",
]


class QuadratureError(RuntimeError):
    """Quadrature self-consistency check failed."""


@dataclass(frozen=True)
class OverlapMatrix:
    """Momentum-displacement overlaps W_jk(qx, qy) = w_jk(qx) exp(-qy^2 w_y^2/2).

    The callables ``w_aa``, ``w_bb``, ``w_ab`` and ``w_ba`` are the qx
    factors: they accept numpy arrays and return complex values satisfying
    w_jk(qx) = conj(w_kj(-qx)), |w_jk| <= 1 and w_aa(0) = w_bb(0) = 1.
    ``w_diff`` is w_aa - w_bb in a form free of cancellation.
    ``w_y`` is the transverse width of the Gaussian factor all five share.

    ``scale_x`` gives the Gaussian decay length of the qx envelope
    (|w|^2 ~ exp(-qx^2 scale_x^2)); ``osc_x`` bounds the length scale of any
    oscillatory phase along qx (0 if none).  The quadrature uses them to pick
    node placement, nothing else.
    """

    w_aa: callable
    w_bb: callable
    w_ab: callable
    w_ba: callable
    w_diff: callable
    scale_x: float
    w_y: float
    osc_x: float = 0.0


def overlap_mzi(geometry: MziGeometry) -> OverlapMatrix:
    """Overlaps for two identical Gaussian modes displaced by delta_x.

    The mode functions do not overlap spatially, so the exchange elements
    W_ab and W_ba vanish identically.
    """
    wx, dx = geometry.w_x, geometry.delta_x

    def w_aa(qx):
        return np.exp(-(qx ** 2) * wx ** 2 / 2) + 0j

    def w_bb(qx):
        return w_aa(qx) * np.exp(1j * qx * dx)

    def zero(qx):
        return np.zeros(np.shape(qx), dtype=complex)

    return OverlapMatrix(w_aa, w_bb, zero, zero,
                         lambda qx: w_aa(qx) - w_bb(qx),
                         scale_x=wx, w_y=geometry.w_y, osc_x=dx)


def overlap_swi(geometry: SwiGeometry) -> OverlapMatrix:
    """Overlaps for harmonic ground and first excited mode in one well."""
    x0 = geometry.x0

    def w_aa(qx):
        return np.exp(-(qx ** 2) * x0 ** 2 / 2) + 0j

    def w_bb(qx):
        return (1.0 - qx ** 2 * x0 ** 2) * w_aa(qx)

    def w_ab(qx):
        return 1j * qx * x0 * w_aa(qx)

    # w_aa - w_bb without the cancellation of 1 - (1 - qx^2 x0^2)
    return OverlapMatrix(w_aa, w_bb, w_ab, w_ab,
                         lambda qx: qx ** 2 * x0 ** 2 * w_aa(qx),
                         scale_x=x0, w_y=geometry.w_y)


@dataclass(frozen=True)
class GeometryFactors:
    """f_P and f_S at rc.

    ``error`` is the quadrature's error estimate, the larger relative
    difference of f_P and f_S between the working and the refined rule;
    None for the closed forms.
    """

    f_p: float
    f_s: float
    rc: float
    error: float | None = None


# keeps 4 rc^2, the largest multiple of rc^2 the factors form, finite
_RC_MAX = math.sqrt(np.finfo(float).max) / 2.0


def _checked_rc(rc) -> np.ndarray:
    """rc as a float array, at least 1-D; ValueError outside (0, _RC_MAX]."""
    r = np.atleast_1d(np.asarray(rc, dtype=float))
    bad = ~((r > 0) & (r <= _RC_MAX))
    if bad.any():
        raise ValueError(f"rc must be finite and > 0, at most {_RC_MAX:.3g} m,"
                         f" got {float(r[bad][0])!r}")
    return r


# --- closed forms: one function per factor formula ------------------------
# Each takes rc^2 as a checked array (``_checked_rc``).  The MZI's f_S is 0:
# its displaced modes do not overlap.


def _mzi_f_p(geometry: MziGeometry, r2):
    """MZI f_P at rc^2 = ``r2``."""
    wx, wy, dx = geometry.w_x, geometry.w_y, geometry.delta_x
    # the transverse ratio is exactly 1.0 for w_x = w_y
    wx2_r2 = wx ** 2 + r2
    return (-np.expm1(-dx ** 2 / (4.0 * wx2_r2))) * (r2 / wx2_r2) \
        * np.sqrt(wx2_r2 / (wy ** 2 + r2))


def _swi_radii(geometry: SwiGeometry, r2):
    """(root, s2, s) = (sqrt(rc^2 + w_y^2), rc^2 + x0^2, sqrt(s2)), the
    passes both single-well factors share.  Each divides by one factor of
    s2 at a time: root * s2 ** 2.5 overflows for rc above about 1.7e51 m.
    """
    s2 = r2 + geometry.x0 ** 2
    return np.sqrt(r2 + geometry.w_y ** 2), s2, np.sqrt(s2)


def _swi_f_s(geometry: SwiGeometry, r2, radii):
    """Single-well f_S at rc^2 = ``r2``, from ``_swi_radii``."""
    root, s2, s = radii
    return r2 * geometry.x0 ** 2 / root / s2 / s


def _swi_f_p(geometry: SwiGeometry, r2, radii):
    """Single-well f_P at rc^2 = ``r2``, from ``_swi_radii``."""
    root, s2, s = radii
    return 3.0 * r2 * geometry.x0 ** 4 / (8.0 * root) / s2 / s2 / s


def f_closed(geometry, rc) -> GeometryFactors:
    """Closed-form geometry factors at localization length rc.

    ``rc`` may be an array, giving array factors; a scalar gives floats.
    Scalars run through the same array arithmetic, so both agree bit for
    bit.  Each factor's formula is written once, in the ``_mzi_*`` and
    ``_swi_*`` functions above, which the inference also calls when its
    mode reads only one factor.
    """
    r = _checked_rc(rc)
    r2 = r ** 2
    if isinstance(geometry, MziGeometry):
        f_p = _mzi_f_p(geometry, r2)
        f_s = np.zeros_like(f_p)
    elif isinstance(geometry, SwiGeometry):
        radii = _swi_radii(geometry, r2)
        f_s = _swi_f_s(geometry, r2, radii)
        f_p = _swi_f_p(geometry, r2, radii)
    else:
        raise TypeError("geometry must be MziGeometry or SwiGeometry")
    if np.ndim(rc) == 0:
        return GeometryFactors(f_p=float(f_p[0]), f_s=float(f_s[0]), rc=rc)
    return GeometryFactors(f_p=f_p, f_s=f_s, rc=r)


# --- quadrature -------------------------------------------------------------

_GH_NODES = 80
_TRUNC = 8.5  # half-width of the truncated panel rule, in envelope units


def _frozen(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _hermgauss(n: int):
    """Read-only Gauss-Hermite nodes and weights, computed once per n."""
    return _frozen(np.polynomial.hermite.hermgauss(n))


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Read-only Gauss-Legendre nodes and weights, computed once per n."""
    return _frozen(np.polynomial.legendre.leggauss(n))


def _axis_rule(total_scale: float, osc: float, refine: bool):
    """1D nodes/weights for int dv exp(-v^2) g(v) on one scaled axis.

    Gauss-Hermite when g is non-oscillatory; otherwise a composite
    Gauss-Legendre rule truncated at |v| <= _TRUNC with panel density set by
    the oscillation count, with the exp(-v^2) weight folded into the weights.
    """
    n_osc = osc / total_scale  # oscillations per unit of scaled coordinate
    if n_osc <= 2.0:
        return _hermgauss(_GH_NODES + (16 if refine else 0))
    panels = int(max(32, math.ceil(1.5 * n_osc * _TRUNC / math.pi)))
    if refine:
        panels = 2 * panels
    x, w = _leggauss(8)
    edges = np.linspace(-_TRUNC, _TRUNC, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel() * np.exp(-nodes ** 2)
    return nodes, weights


def _quad_once(overlaps: OverlapMatrix, rc: float, refine: bool):
    """f_P and f_S as (qx sum) * (shared qy sum), each a 1D rule."""
    sx = math.sqrt(rc ** 2 + overlaps.scale_x ** 2)
    sy = math.sqrt(rc ** 2 + overlaps.w_y ** 2)
    vx, wx = _axis_rule(sx, overlaps.osc_x, refine)
    vy, wy = _axis_rule(sy, 0.0, refine)

    qx = vx / sx
    qy = vy / sy
    # residual Gaussian weight after pulling exp(-v^2) into the rule
    wwx = wx * np.exp(-(qx ** 2) * (rc ** 2 - sx ** 2))
    wwy = wy * np.exp(-(qy ** 2) * (rc ** 2 - sy ** 2))
    y_sum = np.sum(wwy * np.exp(-(qy ** 2) * overlaps.w_y ** 2))

    d = overlaps.w_diff(qx)
    e = overlaps.w_ab(qx) + overlaps.w_ba(qx)
    f_p = np.sum(wwx * (d.real ** 2 + d.imag ** 2))
    f_s = np.sum(wwx * (e.real ** 2 + e.imag ** 2))
    pref = rc ** 2 / (2.0 * math.pi * sx * sy) * y_sum
    return float(pref * f_p), float(pref * f_s)


def f_quadrature(overlaps: OverlapMatrix, rc: float,
                 rel_tol: float = 1e-8) -> GeometryFactors:
    """Numerically integrate the defining f_P/f_S integrals.

    Computes each axis with the working rule and a refined rule; raises
    QuadratureError if the two disagree beyond ``rel_tol`` relatively, and
    otherwise returns the larger disagreement as ``error``.
    """
    _checked_rc(rc)
    f_p, f_s = _quad_once(overlaps, rc, refine=False)
    f_p2, f_s2 = _quad_once(overlaps, rc, refine=True)
    error = 0.0
    for a, b, label in ((f_p, f_p2, "f_p"), (f_s, f_s2, "f_s")):
        scale = max(abs(a), abs(b))
        if scale == 0:
            continue
        rel = abs(a - b) / scale
        if rel > rel_tol:
            raise QuadratureError(
                f"{label} quadrature error estimate "
                f"{rel:.2e} exceeds {rel_tol:.0e} at rc={rc:g}"
            )
        error = max(error, rel)
    return GeometryFactors(f_p=f_p2, f_s=f_s2, rc=rc, error=error)


def optimal_rc(geometry: SwiGeometry) -> float:
    """Localization length maximizing the diffusion factor f_S.

    With s = rc^2, d ln f_S / ds = 0 is the quadratic

        2 s^2 - (x0^2 - w_y^2) s - 2 x0^2 w_y^2 = 0,

    whose single positive root is the maximum: rc = x0/sqrt(2) for
    w_y -> 0, sqrt(2/3) x0 at w_y = x0/sqrt(6), sqrt(2) x0 for w_y -> inf.
    For x0 < w_y the root is taken in the form free of cancellation.
    """
    x0_sq, wy_sq = geometry.x0 ** 2, geometry.w_y ** 2
    a = x0_sq - wy_sq
    disc = math.hypot(a, 4.0 * geometry.x0 * geometry.w_y)
    if a >= 0.0:
        s = (a + disc) / 4.0
    else:
        s = 4.0 * x0_sq * wy_sq / (disc - a)
    return math.sqrt(s)
