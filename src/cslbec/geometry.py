"""Geometry factors f_P and f_S for the two interferometer configurations.

f_P weights the squared mode-population imbalance of the momentum-displacement
overlaps and controls dephasing; f_S weights the mode-exchange overlaps and
controls diffusion.  Both are Gaussian-weighted 2D integrals over the wave
vector q:

    f_P(r_C) = (r_C^2 / 2pi) * int d^2q  exp(-q^2 r_C^2) |W_aa(q) - W_bb(q)|^2
    f_S(r_C) = (r_C^2 / 2pi) * int d^2q  exp(-q^2 r_C^2) |W_ab(q) + W_ba(q)|^2

Closed forms exist for both geometries; the numerical quadrature here serves
as their independent cross-check and as the authoritative path for MZI modes
with unequal transverse widths.
"""

from __future__ import annotations

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
    """Momentum-displacement overlaps W_jk(qx, qy) of the two modes.

    The callables accept numpy arrays and return complex values satisfying
    W_jk(q) = conj(W_kj(-q)), |W_jk| <= 1 and W_aa(0) = W_bb(0) = 1.

    ``scale_x``/``scale_y`` give the Gaussian decay lengths of the integrand
    envelope (|W|^2 ~ exp(-q^2 scale^2)); ``osc_x`` bounds the length scale of
    any oscillatory phase along qx (0 if none).  The quadrature uses them to
    pick node placement, nothing else.
    """

    w_aa: callable
    w_bb: callable
    w_ab: callable
    w_ba: callable
    scale_x: float
    scale_y: float
    osc_x: float = 0.0
    exchange_is_zero: bool = False


def overlap_mzi(geometry: MziGeometry) -> OverlapMatrix:
    """Overlaps for two identical Gaussian modes displaced by delta_x.

    The mode functions do not overlap spatially, so the exchange elements
    W_ab and W_ba vanish identically.
    """
    wx, wy, dx = geometry.w_x, geometry.w_y, geometry.delta_x

    def w_aa(qx, qy):
        return np.exp(-(qx ** 2) * wx ** 2 / 2 - (qy ** 2) * wy ** 2 / 2) + 0j

    def w_bb(qx, qy):
        return w_aa(qx, qy) * np.exp(1j * qx * dx)

    def zero(qx, qy):
        return np.zeros(np.broadcast(qx, qy).shape, dtype=complex)

    return OverlapMatrix(w_aa, w_bb, zero, zero,
                         scale_x=wx, scale_y=wy, osc_x=dx,
                         exchange_is_zero=True)


def overlap_swi(geometry: SwiGeometry) -> OverlapMatrix:
    """Overlaps for harmonic ground and first excited mode in one well."""
    x0, wy = geometry.x0, geometry.w_y

    def w_aa(qx, qy):
        return np.exp(-(qy ** 2) * wy ** 2 / 2 - (qx ** 2) * x0 ** 2 / 2) + 0j

    def w_bb(qx, qy):
        return (1.0 - qx ** 2 * x0 ** 2) * w_aa(qx, qy)

    def w_ab(qx, qy):
        return 1j * qx * x0 * w_aa(qx, qy)

    return OverlapMatrix(w_aa, w_bb, w_ab, w_ab,
                         scale_x=x0, scale_y=wy)


@dataclass(frozen=True)
class GeometryFactors:
    f_p: float
    f_s: float
    rc: float


def _checked_rc(rc) -> np.ndarray:
    """rc as a float array, at least 1-D; ValueError unless finite and > 0."""
    r = np.atleast_1d(np.asarray(rc, dtype=float))
    bad = ~(np.isfinite(r) & (r > 0))
    if bad.any():
        raise ValueError(f"rc must be finite and > 0, got {float(r[bad][0])!r}")
    return r


def f_closed(geometry, rc) -> GeometryFactors:
    """Closed-form geometry factors at localization length rc.

    ``rc`` may be an array, giving array factors; a scalar gives floats.
    Scalars run through the same array arithmetic, so both agree bit for bit.
    """
    r = _checked_rc(rc)
    if isinstance(geometry, MziGeometry):
        if not math.isclose(geometry.w_x, geometry.w_y, rel_tol=1e-12):
            raise ValueError(
                "closed form for MZI requires w_x = w_y; use f_quadrature"
            )
        wx, dx = geometry.w_x, geometry.delta_x
        f_p = (-np.expm1(-dx ** 2 / (4.0 * (wx ** 2 + r ** 2)))) \
            / (1.0 + wx ** 2 / r ** 2)
        f_s = np.zeros_like(f_p)
    elif isinstance(geometry, SwiGeometry):
        x0, wy = geometry.x0, geometry.w_y
        root = np.sqrt(r ** 2 + wy ** 2)
        f_s = r ** 2 * x0 ** 2 / (root * (r ** 2 + x0 ** 2) ** 1.5)
        f_p = 3.0 * r ** 2 * x0 ** 4 / (8.0 * root * (r ** 2 + x0 ** 2) ** 2.5)
    else:
        raise TypeError("geometry must be MziGeometry or SwiGeometry")
    if np.ndim(rc) == 0:
        return GeometryFactors(f_p=float(f_p[0]), f_s=float(f_s[0]), rc=rc)
    return GeometryFactors(f_p=f_p, f_s=f_s, rc=r)


# --- quadrature -------------------------------------------------------------

_GH_NODES = 80
_TRUNC = 8.5  # half-width of the truncated panel rule, in envelope units


def _axis_rule(total_scale: float, osc: float, refine: bool):
    """1D nodes/weights for int dv exp(-v^2) g(v) on one scaled axis.

    Gauss-Hermite when g is non-oscillatory; otherwise a composite
    Gauss-Legendre rule truncated at |v| <= _TRUNC with panel density set by
    the oscillation count, with the exp(-v^2) weight folded into the weights.
    """
    n_osc = osc / total_scale  # oscillations per unit of scaled coordinate
    if n_osc <= 2.0:
        n = _GH_NODES + (16 if refine else 0)
        return np.polynomial.hermite.hermgauss(n)
    panels = int(max(32, math.ceil(1.5 * n_osc * _TRUNC / math.pi)))
    if refine:
        panels = 2 * panels
    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-_TRUNC, _TRUNC, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel() * np.exp(-nodes ** 2)
    return nodes, weights


def _quad_once(overlaps: OverlapMatrix, rc: float, refine: bool):
    sx = math.sqrt(rc ** 2 + overlaps.scale_x ** 2)
    sy = math.sqrt(rc ** 2 + overlaps.scale_y ** 2)
    vx, wx = _axis_rule(sx, overlaps.osc_x, refine)
    vy, wy = _axis_rule(sy, 0.0, refine)

    qx = (vx / sx)[:, None]
    qy = (vy / sy)[None, :]
    # residual Gaussian weight after pulling exp(-v^2) into the rule
    env = np.exp(-(qx ** 2) * (rc ** 2 - sx ** 2) - (qy ** 2) * (rc ** 2 - sy ** 2))
    ww = wx[:, None] * wy[None, :] * env

    d = overlaps.w_aa(qx, qy) - overlaps.w_bb(qx, qy)
    f_p = np.sum(ww * (d.real ** 2 + d.imag ** 2))
    if overlaps.exchange_is_zero:
        f_s = 0.0
    else:
        e = overlaps.w_ab(qx, qy) + overlaps.w_ba(qx, qy)
        f_s = np.sum(ww * (e.real ** 2 + e.imag ** 2))
    pref = rc ** 2 / (2.0 * math.pi * sx * sy)
    return pref * f_p, pref * f_s


def f_quadrature(overlaps: OverlapMatrix, rc: float,
                 rel_tol: float = 1e-8) -> GeometryFactors:
    """Numerically integrate the defining f_P/f_S integrals.

    Computes each axis with the working rule and a refined rule; raises
    QuadratureError if the two disagree beyond ``rel_tol`` relatively.
    """
    _checked_rc(rc)
    f_p, f_s = _quad_once(overlaps, rc, refine=False)
    f_p2, f_s2 = _quad_once(overlaps, rc, refine=True)
    for a, b, label in ((f_p, f_p2, "f_p"), (f_s, f_s2, "f_s")):
        scale = max(abs(a), abs(b))
        if scale > 0 and abs(a - b) / scale > rel_tol:
            raise QuadratureError(
                f"{label} quadrature error estimate "
                f"{abs(a - b) / scale:.2e} exceeds {rel_tol:.0e} at rc={rc:g}"
            )
    return GeometryFactors(f_p=f_p2, f_s=f_s2, rc=rc)


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
