"""Geometry factors f_P and f_S for the two interferometer configurations.

f_P weights the squared mode-population imbalance of the momentum-displacement
overlaps and controls dephasing; f_S weights the mode-exchange overlaps and
controls diffusion.  Both are Gaussian-weighted 2D integrals over the wave
vector q:

    f_P(r_C) = (r_C^2 / 2pi) * int d^2q  exp(-q^2 r_C^2) |W_aa(q) - W_bb(q)|^2
    f_S(r_C) = (r_C^2 / 2pi) * int d^2q  exp(-q^2 r_C^2) |W_ab(q) + W_ba(q)|^2

Both modes of either geometry share the transverse Gaussian factor
exp(-q_y^2 w_y^2 / 2), so each integral is a q_x integral times one shared
q_y integral, which is exact: sqrt(pi / (r_C^2 + w_y^2)).  Closed forms
exist for both geometries at any widths; the numerical quadrature here is
their independent cross-check.  Each closed form is written once: the
MZI's f_P, and the single-well f_S, whose f_P follows from the exact ratio
f_P / f_S = 3 x0^2 / (8 (r_C^2 + x0^2)).
``f_closed`` runs both, and the inference runs only those its mode reads.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

from .core import MziGeometry, SwiGeometry, _lazy_numpy

np = _lazy_numpy()

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


class QuadratureError(ArithmeticError):
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
    error: float | None = None


# keeps 4 rc^2, the largest multiple of rc^2 the factors form, finite
_RC_MAX = math.sqrt(sys.float_info.max) / 2.0


def _checked_rc(rc):
    """rc as a float for a scalar (a real number or a 0-d array), else as
    a float array of at least one dimension; ValueError outside
    (0, _RC_MAX], and for a bool, which is no length.  A real number
    touches no numpy.
    """
    if isinstance(rc, bool):
        raise _rc_bool_error(rc)
    if not isinstance(rc, numbers.Real):
        r = _rc_array(rc)
        if r.ndim == 0:
            return _checked_rc(float(r))
        bad = ~((r > 0) & (r <= _RC_MAX))
        if bad.any():
            raise _rc_error(float(r[bad][0]))
        return r
    r = float(rc)
    if not 0.0 < r <= _RC_MAX:
        raise _rc_error(r)
    return r


def _rc_error(r: float) -> ValueError:
    return ValueError(f"rc must be finite and > 0, at most {_RC_MAX:.3g} m, "
                      f"got {r!r}")


def _rc_bool_error(rc) -> ValueError:
    return ValueError(f"rc must be a real number, not a bool, got {rc!r}")


def _rc_array(rc):
    """rc as a float array, as numpy reads it; ValueError for a bool array,
    numpy's bool scalar included."""
    r = np.asarray(rc)
    if r.dtype == bool:
        raise _rc_bool_error(rc)
    return r.astype(float, copy=False)


def _checked_r2(rc):
    """rc^2 of a checked rc (``_checked_rc``): r * r for a float, where
    ``**`` would go through C pow and can round apart from numpy, and
    numpy's square for an array, which is r * r in one faster loop.
    """
    r = _checked_rc(rc)
    return r * r if isinstance(r, float) else np.square(r)


# --- closed forms: one function per formula --------------------------------
# Each takes rc^2 of a checked rc (``_checked_r2``), a float or an array,
# and reads sqrt and expm1 from math or numpy to match (``_lib``).
# The MZI's f_S is 0: its displaced modes do not overlap.


def _lib(r2):
    """math for a float ``r2``, numpy for an array."""
    return math if isinstance(r2, float) else np


def _mzi_f_p(geometry: MziGeometry, r2):
    """MZI f_P at rc^2 = ``r2``."""
    lib = _lib(r2)
    wx, wy, dx = geometry.w_x, geometry.w_y, geometry.delta_x
    # the transverse ratio is exactly 1.0 for w_x = w_y
    wx2_r2 = wx ** 2 + r2
    return (-lib.expm1(-dx ** 2 / (4.0 * wx2_r2))) * (r2 / wx2_r2) \
        * lib.sqrt(wx2_r2 / (wy ** 2 + r2))


def _swi_f_s(geometry: SwiGeometry, r2):
    """Single-well f_S at rc^2 = ``r2``.  The ratio r2 / s2 <= 1 comes
    last, so no intermediate leaves the normal float range while ``r2``
    and the result are normal.
    """
    sqrt = _lib(r2).sqrt
    x0_sq = geometry.x0 ** 2
    s2 = r2 + x0_sq
    return x0_sq / sqrt(r2 + geometry.w_y ** 2) / sqrt(s2) * (r2 / s2)


def f_closed(geometry, rc) -> GeometryFactors:
    """Closed-form geometry factors at localization length rc.

    ``rc`` may be an array, giving array factors; a scalar gives floats
    and loads no numpy.  Each formula is written once, in ``_mzi_f_p`` and
    ``_swi_f_s`` above, which the inference also calls when its mode reads
    only one factor.  A scalar and the same rc in an array agree bit for
    bit for a single well; the MZI's f_P takes its expm1 from math for a
    scalar and from numpy for an array, and the two differ by at most one
    ulp.  The single-well f_P is f_S times the exact ratio
    f_P / f_S = 3 x0^2 / (8 (rc^2 + x0^2)).
    """
    r2 = _checked_r2(rc)
    if isinstance(geometry, MziGeometry):
        f_p = _mzi_f_p(geometry, r2)
        f_s = 0.0 if isinstance(r2, float) else np.zeros_like(f_p)
    elif isinstance(geometry, SwiGeometry):
        x0_sq = geometry.x0 ** 2
        f_s = _swi_f_s(geometry, r2)
        f_p = f_s * (3.0 / 8.0 * x0_sq / (r2 + x0_sq))
    else:
        raise TypeError("geometry must be MziGeometry or SwiGeometry")
    return GeometryFactors(f_p=f_p, f_s=f_s)


# --- quadrature -------------------------------------------------------------

_GH_NODES = 80
_TRUNC = 8.5  # half-width of the truncated panel rule, in envelope units
_REL_TOL = 1e-8  # largest working-versus-refined relative difference


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
    """f_P and f_S as a qx sum, one 1D rule, times the shared qy integral,
    which is exact: int dqy exp(-qy^2 sy^2) = sqrt(pi) / sy."""
    sx = math.sqrt(rc ** 2 + overlaps.scale_x ** 2)
    sy = math.sqrt(rc ** 2 + overlaps.w_y ** 2)
    vx, wx = _axis_rule(sx, overlaps.osc_x, refine)

    qx = vx / sx
    # residual Gaussian weight after pulling exp(-v^2) into the rule
    wwx = wx * np.exp(-(qx ** 2) * (rc ** 2 - sx ** 2))

    d = overlaps.w_diff(qx)
    e = overlaps.w_ab(qx) + overlaps.w_ba(qx)
    f_p = np.sum(wwx * (d.real ** 2 + d.imag ** 2))
    f_s = np.sum(wwx * (e.real ** 2 + e.imag ** 2))
    pref = rc ** 2 / (2.0 * math.sqrt(math.pi) * sx * sy)
    return float(pref * f_p), float(pref * f_s)


def f_quadrature(overlaps: OverlapMatrix, rc: float) -> GeometryFactors:
    """Numerically integrate the defining f_P/f_S integrals.

    Sums qx with the working and a refined rule (qy is exact); raises
    QuadratureError if the two disagree beyond ``_REL_TOL`` relatively, and
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
        if rel > _REL_TOL:
            raise QuadratureError(
                f"{label} quadrature error estimate "
                f"{rel:.2e} exceeds {_REL_TOL:.0e} at rc={rc:g}"
            )
        error = max(error, rel)
    return GeometryFactors(f_p=f_p2, f_s=f_s2, error=error)


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
