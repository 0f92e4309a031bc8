import decimal
import math

import numpy as np
import pytest
from scipy import integrate

from cslbec import geometry
from cslbec.core import MziGeometry, SwiGeometry
from cslbec.geometry import (
    f_closed,
    f_quadrature,
    optimal_rc,
    overlap_mzi,
    overlap_swi,
)
from cslbec.scenarios import SCENARIOS

MZI = MziGeometry(delta_x=10e-6, w_x=100e-9)
MZI_UNEQUAL = MziGeometry(delta_x=10e-6, w_x=100e-9, w_y=300e-9)
SWI = SwiGeometry(x0=0.5e-6)

RC_GRID = np.geomspace(1e-9, 1e-3, 50)


def brute_force_factors(overlaps, rc):
    """Independent oracle: adaptive 2D quadrature of the defining integrals."""
    lx = 40.0 / math.hypot(rc, overlaps.scale_x)
    ly = 40.0 / math.hypot(rc, overlaps.w_y)

    def term(builder):
        def integrand(qy, qx):
            val = builder(np.array(qx)) \
                * math.exp(-qy * qy * overlaps.w_y ** 2 / 2)
            return math.exp(-(qx * qx + qy * qy) * rc * rc) * abs(val) ** 2

        res, _ = integrate.dblquad(integrand, -lx, lx, -ly, ly,
                                   epsabs=1e-16, epsrel=1e-10)
        return rc * rc / (2.0 * math.pi) * res

    f_p = term(lambda qx: overlaps.w_aa(qx) - overlaps.w_bb(qx))
    f_s = term(lambda qx: overlaps.w_ab(qx) + overlaps.w_ba(qx))
    return f_p, f_s


def tensor_quad_once(overlaps, rc, refine):
    """Reference: the 2D tensor-product rule over (qx, qy) nodes.

    Same axis rules and overlaps as geometry._quad_once, but summing the
    full 2D integrand instead of factoring out the shared qy integral.
    """
    sx = math.sqrt(rc ** 2 + overlaps.scale_x ** 2)
    sy = math.sqrt(rc ** 2 + overlaps.w_y ** 2)
    vx, wx = geometry._axis_rule(sx, overlaps.osc_x, refine)
    vy, wy = geometry._axis_rule(sy, 0.0, refine)

    qx = (vx / sx)[:, None]
    qy = (vy / sy)[None, :]
    env = np.exp(-(qx ** 2) * (rc ** 2 - sx ** 2) - (qy ** 2) * (rc ** 2 - sy ** 2))
    ww = wx[:, None] * wy[None, :] * env
    y = np.exp(-(qy ** 2) * overlaps.w_y ** 2 / 2)

    d = overlaps.w_diff(qx) * y
    e = (overlaps.w_ab(qx) + overlaps.w_ba(qx)) * y
    f_p = np.sum(ww * (d.real ** 2 + d.imag ** 2))
    f_s = np.sum(ww * (e.real ** 2 + e.imag ** 2))
    pref = rc ** 2 / (2.0 * math.pi * sx * sy)
    return pref * f_p, pref * f_s


class TestOverlapMzi:
    def test_normalization_at_zero(self):
        ov = overlap_mzi(MZI)
        assert ov.w_aa(0.0) == pytest.approx(1.0)
        assert ov.w_bb(0.0) == pytest.approx(1.0)

    def test_exchange_vanishes(self):
        ov = overlap_mzi(MZI)
        q = np.linspace(-1e8, 1e8, 7)
        assert np.all(ov.w_ab(q) == 0.0)
        assert np.all(ov.w_ba(q) == 0.0)

    def test_population_difference_algebra(self):
        # |w_aa - w_bb|^2 = 2 exp(-qx^2 wx^2) (1 - cos(qx dx))
        ov = overlap_mzi(MZI)
        rng = np.random.default_rng(3)
        qx = rng.uniform(-5e7, 5e7, 100)
        lhs = np.abs(ov.w_aa(qx) - ov.w_bb(qx)) ** 2
        rhs = 2.0 * np.exp(-qx ** 2 * MZI.w_x ** 2) \
            * (1.0 - np.cos(qx * MZI.delta_x))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(ov.w_diff(qx),
                                      ov.w_aa(qx) - ov.w_bb(qx))

    def test_hermiticity(self):
        ov = overlap_mzi(MZI)
        qx = 3e6
        assert ov.w_aa(qx) == pytest.approx(np.conj(ov.w_aa(-qx)), rel=1e-14)
        assert ov.w_bb(qx) == pytest.approx(np.conj(ov.w_bb(-qx)), rel=1e-14)


class TestOverlapSwi:
    def test_normalization_at_zero(self):
        ov = overlap_swi(SWI)
        assert ov.w_aa(0.0) == pytest.approx(1.0)
        assert ov.w_bb(0.0) == pytest.approx(1.0)
        assert ov.w_ab(0.0) == 0.0

    def test_excited_mode_zero_crossing(self):
        ov = overlap_swi(SWI)
        assert abs(ov.w_bb(1.0 / SWI.x0)) < 1e-15

    def test_population_difference_without_cancellation(self):
        # w_aa - w_bb = qx^2 x0^2 w_aa; the subtraction loses every digit
        # as qx x0 -> 0, the direct form none
        ov = overlap_swi(SWI)
        qx = np.geomspace(1e-9, 3.0, 40) / SWI.x0
        exact = (qx * SWI.x0) ** 2 * np.exp(-(qx * SWI.x0) ** 2 / 2)
        np.testing.assert_allclose(ov.w_diff(qx).real, exact, rtol=1e-14)
        assert np.all(ov.w_diff(qx).imag == 0.0)
        big = qx * SWI.x0 > 0.1
        np.testing.assert_allclose(ov.w_diff(qx[big]),
                                   ov.w_aa(qx[big]) - ov.w_bb(qx[big]),
                                   rtol=1e-13)

    def test_exchange_algebra(self):
        # |w_ab + w_ba|^2 = 4 qx^2 x0^2 exp(-qx^2 x0^2)
        ov = overlap_swi(SWI)
        rng = np.random.default_rng(4)
        qx = rng.uniform(-5e6, 5e6, 50)
        lhs = np.abs(ov.w_ab(qx) + ov.w_ba(qx)) ** 2
        rhs = 4.0 * qx ** 2 * SWI.x0 ** 2 * np.exp(-qx ** 2 * SWI.x0 ** 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestClosedForms:
    def test_mzi_plateau_value(self):
        f = f_closed(MZI, 1e-6)
        assert f.f_p == pytest.approx(0.9900990098833777, rel=1e-12)
        assert f.f_s == 0.0

    def test_mzi_unequal_widths_match_quadrature(self):
        ov = overlap_mzi(MZI_UNEQUAL)
        f = f_closed(MZI_UNEQUAL, RC_GRID)
        q = np.array([f_quadrature(ov, rc).f_p for rc in RC_GRID])
        np.testing.assert_allclose(q, f.f_p, rtol=1e-12)
        assert np.all(f.f_s == 0.0)
        # a wider transverse mode lowers f_P at every rc
        assert np.all(f.f_p < f_closed(MZI, RC_GRID).f_p)

    @pytest.mark.filterwarnings("error")
    def test_mzi_unequal_widths_finite_at_tiny_rc(self):
        # rc^2 underflows to 0 here, silently, for equal widths too
        for geom in (MZI_UNEQUAL, MZI):
            f = f_closed(geom, np.array([1e-200, 5e-324]))
            assert np.all(f.f_p == 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("geom", [MZI, MZI_UNEQUAL],
                             ids=["equal", "unequal"])
    def test_mzi_f_p_at_subnormal_rc_squared(self, geom):
        # rc^2 is a subnormal here; w_x^2/rc^2 overflowed and gave f_P = 0
        rc = np.linspace(2.2e-162, 3e-162, 9)
        f_p = f_closed(geom, rc).f_p
        assert np.all(f_p > 0.0)
        # f_P -> (1 - exp(-dx^2/4w_x^2)) (w_x/w_y) rc^2/w_x^2, where the
        # first factor is 1.0; both sides round rc^2 to the same subnormal
        limit = rc ** 2 / geom.w_x ** 2 * (geom.w_x / geom.w_y)
        np.testing.assert_allclose(f_p, limit, rtol=1e-10)

    def test_swi_optimum_values(self):
        x0 = SWI.x0
        rc = math.sqrt(2.0 / 3.0) * x0
        f = f_closed(SWI, rc)
        assert f.f_s == pytest.approx(math.sqrt(288.0 / 625.0) / 2.0,
                                      rel=1e-12)
        assert f.f_s / f.f_p == pytest.approx(120.0 / 27.0, rel=1e-12)

    def test_rejects_nonpositive_rc(self):
        with pytest.raises(ValueError):
            f_closed(SWI, 0.0)

    @pytest.mark.parametrize("rc", [math.nan, math.inf, -math.inf, -1e-6])
    @pytest.mark.parametrize("evaluate", [
        lambda rc: f_closed(SWI, rc),
        lambda rc: f_closed(MZI, np.array([1e-6, rc])),
        lambda rc: f_quadrature(overlap_swi(SWI), rc),
    ], ids=["closed", "closed-array", "quadrature"])
    def test_rejects_nonfinite_rc(self, evaluate, rc):
        with pytest.raises(ValueError, match="rc must be finite and > 0"):
            evaluate(rc)

    # a bool was read as an r_C of 1 m, also beside floats in a list
    @pytest.mark.parametrize("rc", [True, np.True_, np.array([True, False]),
                                    [False], [True, 1e-6], [np.True_, 1e-6],
                                    [[1e-6, True]], (1e-6, False)],
                             ids=["bool", "numpy-bool", "array", "list",
                                  "mixed-list", "mixed-numpy-bool",
                                  "nested-list", "mixed-tuple"])
    @pytest.mark.parametrize("evaluate", [
        lambda rc: f_closed(SWI, rc),
        lambda rc: f_closed(MZI, rc),
        lambda rc: f_quadrature(overlap_swi(SWI), rc),
    ], ids=["swi", "mzi", "quadrature"])
    def test_rejects_a_bool_rc(self, evaluate, rc):
        with pytest.raises(ValueError, match="^rc must be a real number, "
                                             "not a bool, got "):
            evaluate(rc)

    @pytest.mark.parametrize("geom", [MZI, SWI], ids=["mzi", "swi"])
    def test_zero_dim_array_is_a_scalar(self, geom):
        f = f_closed(geom, np.array(1e-6))
        assert type(f.f_p) is float and type(f.f_s) is float
        assert f == f_closed(geom, 1e-6)

    def test_rejects_an_unknown_geometry(self):
        with pytest.raises(TypeError,
                           match="^geometry must be MziGeometry or "
                                 "SwiGeometry$"):
            f_closed(object(), 1e-6)

    def test_largest_rc_gives_finite_factors(self):
        # past 7.7e153 the single-well f_P formed 3 rc^2 = inf, then inf/inf
        with np.errstate(over="ignore"):
            f = [f_closed(g, geometry._RC_MAX) for g in (MZI, SWI)]
        assert np.isfinite([(x.f_p, x.f_s) for x in f]).all()

    @pytest.mark.filterwarnings("error")
    def test_swi_huge_rc_matches_quadrature(self):
        # root * (rc^2 + x0^2) ** 2.5 would overflow past rc = 1.7e51 m
        grid = np.geomspace(1e-9, 1e150, 160)
        f = f_closed(SWI, grid)
        ov = overlap_swi(SWI)
        q = [f_quadrature(ov, rc) for rc in grid]
        # relative where the factors are normal floats; f_P ends subnormal
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(f.f_p, [x.f_p for x in q], rtol=1e-6,
                                   atol=tiny)
        np.testing.assert_allclose(f.f_s, [x.f_s for x in q], rtol=1e-6,
                                   atol=tiny)

    @pytest.mark.parametrize("geom", [MZI, SWI, MZI_UNEQUAL],
                             ids=["mzi", "swi", "mzi-unequal"])
    def test_array_matches_scalar(self, geom):
        # 1e-160 reaches the underflow region where f vanishes
        grid = np.concatenate([RC_GRID, np.geomspace(1e-160, 1e2, 301)])
        f = f_closed(geom, grid)
        assert f.f_p.shape == f.f_s.shape == grid.shape
        scalar = [f_closed(geom, rc) for rc in grid]
        assert all(type(s.f_p) is float and type(s.f_s) is float
                   for s in scalar)
        np.testing.assert_array_equal(f.f_p, [s.f_p for s in scalar])
        np.testing.assert_array_equal(f.f_s, [s.f_s for s in scalar])

    # 40,000 r_C from the smallest whose rc^2 is a normal float to _RC_MAX:
    # half log-spaced, half log-uniform at random
    WIDE_RC = np.concatenate([
        np.geomspace(1.5e-154, 6.7e153, 20_000),
        np.exp(np.random.default_rng(28).uniform(
            math.log(1.5e-154), math.log(6.7e153), 20_000))])

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scalar_agrees_with_the_grid_over_the_whole_range(self, name):
        # a scalar rc runs on floats and math, a grid on numpy arrays
        geom = SCENARIOS[name].spec.geometry
        grid = f_closed(geom, self.WIDE_RC)
        scalar = [f_closed(geom, rc) for rc in self.WIDE_RC.tolist()]
        f_p = np.array([s.f_p for s in scalar])
        np.testing.assert_array_equal(grid.f_s, [s.f_s for s in scalar])
        if isinstance(geom, SwiGeometry):
            np.testing.assert_array_equal(grid.f_p, f_p)
        else:
            # math.expm1 and numpy's vectorised expm1 may round apart; the
            # factors are positive floats, so their bit patterns count ulps
            assert (f_p > 0).all()
            ulps = np.abs(grid.f_p.view(np.int64) - f_p.view(np.int64))
            assert ulps.max() <= 1

    @staticmethod
    def exact_factors(geom, rc):
        """(f_P, f_S) from the defining closed forms in 400-digit decimals."""
        D = decimal.Decimal
        r2 = D(rc) ** 2
        if isinstance(geom, MziGeometry):
            a = D(geom.w_x) ** 2 + r2
            dephase = 1 - (-D(geom.delta_x) ** 2 / (4 * a)).exp()
            return dephase * r2 / a * (a / (D(geom.w_y) ** 2 + r2)).sqrt(), 0
        x0_sq = D(geom.x0) ** 2
        s2 = r2 + x0_sq
        denom = (r2 + D(geom.w_y) ** 2).sqrt() * s2 * s2.sqrt()
        return 3 * r2 * x0_sq ** 2 / (8 * denom * s2), r2 * x0_sq / denom

    @pytest.mark.parametrize("geom", [
        SwiGeometry(x0=SWI.x0, w_y=1e-3 * SWI.x0), SWI,
        SwiGeometry(x0=SWI.x0, w_y=SWI.x0),
        SwiGeometry(x0=SWI.x0, w_y=1e3 * SWI.x0), MZI, MZI_UNEQUAL,
    ], ids=["swi-narrow", "swi", "swi-equal", "swi-wide", "mzi",
            "mzi-unequal"])
    def test_matches_high_precision_reference(self, geom):
        # from the smallest rc whose rc^2 is a normal float to _RC_MAX,
        # wherever the exact factor is a normal float too
        grid = np.concatenate([np.geomspace(1.5e-154, 6.7e153, 1001),
                               np.geomspace(1e-3, 1e3, 61) * SWI.x0])
        closed = f_closed(geom, grid)
        tiny = decimal.Decimal(np.finfo(float).tiny)
        with decimal.localcontext(decimal.Context(prec=400)):
            for rc, f_p, f_s in zip(grid, closed.f_p, closed.f_s):
                for got, exact in zip((f_p, f_s),
                                      self.exact_factors(geom, rc)):
                    if exact == 0:
                        assert got == 0.0
                    elif exact >= tiny:
                        rel = abs(decimal.Decimal(got) - exact) / exact
                        assert rel <= 4e-15, (rc, got, exact)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("geom,make_ov", [
        (MZI, overlap_mzi), (SWI, overlap_swi)])
    def test_closed_vs_quadrature_grid(self, geom, make_ov):
        ov = make_ov(geom)
        for rc in RC_GRID:
            c = f_closed(geom, rc)
            q = f_quadrature(ov, rc)
            assert q.f_p == pytest.approx(c.f_p, rel=1e-6, abs=0)
            if c.f_s > 0:
                assert q.f_s == pytest.approx(c.f_s, rel=1e-6, abs=0)
            else:
                assert q.f_s == 0.0

    def test_swi_large_rc(self):
        # where q_x x0 is small across the whole Gaussian weight
        ov = overlap_swi(SWI)
        for rc in np.geomspace(1e-3, 1.0, 4):
            c = f_closed(SWI, rc)
            q = f_quadrature(ov, rc)
            assert q.f_p == pytest.approx(c.f_p, rel=1e-9, abs=0)
            assert q.f_s == pytest.approx(c.f_s, rel=1e-9, abs=0)

    @pytest.mark.parametrize("rc", [3e-8, 4e-7, 5e-6])
    def test_against_adaptive_oracle_swi(self, rc):
        ov = overlap_swi(SWI)
        f_p, f_s = brute_force_factors(ov, rc)
        q = f_quadrature(ov, rc)
        assert q.f_p == pytest.approx(f_p, rel=1e-7)
        assert q.f_s == pytest.approx(f_s, rel=1e-7)

    def test_against_adaptive_oracle_mzi(self):
        rc = 1e-6
        ov = overlap_mzi(MZI)
        f_p, _ = brute_force_factors(ov, rc)
        assert f_quadrature(ov, rc).f_p == pytest.approx(f_p, rel=1e-7)
        assert f_p == pytest.approx(0.9900990098833777, rel=1e-7)

    def test_identical_modes_give_zero(self):
        ov = overlap_mzi(MZI)
        same = type(ov)(ov.w_aa, ov.w_aa, ov.w_ab, ov.w_ba,
                        lambda qx: ov.w_aa(qx) - ov.w_aa(qx),
                        scale_x=ov.scale_x, w_y=ov.w_y, osc_x=ov.osc_x)
        q = f_quadrature(same, 1e-7)
        assert q.f_p == 0.0 and q.f_s == 0.0

    def test_unequal_widths_quadrature_path(self):
        geom = MziGeometry(delta_x=10e-6, w_x=100e-9, w_y=250e-9)
        ov = overlap_mzi(geom)
        f_p, _ = brute_force_factors(ov, 1e-6)
        assert f_quadrature(ov, 1e-6).f_p == pytest.approx(f_p, rel=1e-7)

    def test_translation_invariance(self):
        # shifting both modes by the same displacement leaves f unchanged
        ov = overlap_swi(SWI)
        d = 3.7e-6

        def shift(f):
            return lambda qx: f(qx) * np.exp(1j * qx * d)

        shifted = type(ov)(shift(ov.w_aa), shift(ov.w_bb),
                           shift(ov.w_ab), shift(ov.w_ba), shift(ov.w_diff),
                           scale_x=ov.scale_x, w_y=ov.w_y)
        for rc in (1e-7, 5e-7, 3e-6):
            a = f_quadrature(ov, rc)
            b = f_quadrature(shifted, rc)
            assert b.f_p == pytest.approx(a.f_p, rel=1e-9)
            assert b.f_s == pytest.approx(a.f_s, rel=1e-9)


class TestSeparableQuadrature:
    @pytest.mark.parametrize("geom,make_ov", [
        (MZI, overlap_mzi), (SWI, overlap_swi),
        (SCENARIOS["rb-swi-echo"].spec.geometry, overlap_swi),
        (MZI_UNEQUAL, overlap_mzi),
    ], ids=["mzi", "swi", "rb-swi-echo", "mzi-unequal"])
    def test_matches_tensor_rule(self, geom, make_ov):
        ov = make_ov(geom)
        for rc in RC_GRID:
            q = f_quadrature(ov, rc)
            t_p, t_s = tensor_quad_once(ov, rc, refine=True)
            assert q.f_p == pytest.approx(t_p, rel=1e-10, abs=0.0)
            assert q.f_s == pytest.approx(t_s, rel=1e-10, abs=0.0)

    def test_error_estimate_returned(self):
        ov = overlap_swi(SWI)
        q = f_quadrature(ov, 1e-6)
        w_p, w_s = geometry._quad_once(ov, 1e-6, refine=False)
        expected = max(abs(w_p - q.f_p) / max(abs(w_p), abs(q.f_p)),
                       abs(w_s - q.f_s) / max(abs(w_s), abs(q.f_s)))
        assert q.error == expected
        assert 0.0 <= q.error <= 1e-8
        assert f_closed(SWI, 1e-6).error is None

    def test_error_estimate_exceeding_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "_REL_TOL", 1e-300)
        with pytest.raises(geometry.QuadratureError, match="f_p quadrature"):
            f_quadrature(overlap_swi(SWI), 1e-6)

    def test_gauss_rules_computed_once(self, monkeypatch):
        calls = []
        hermgauss = np.polynomial.hermite.hermgauss

        def counting(n):
            calls.append(n)
            return hermgauss(n)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counting)
        geometry._hermgauss.cache_clear()
        try:
            for ov in (overlap_swi(SWI), overlap_mzi(MZI)):
                for rc in RC_GRID[::2]:
                    f_quadrature(ov, rc)
        finally:
            geometry._hermgauss.cache_clear()
        assert sorted(calls) == [80, 96]
        for arrays in (geometry._hermgauss(80), geometry._leggauss(8)):
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0


class TestLimits:
    def test_mzi_large_rc_scaling(self):
        # f_p ~ (dx/rc)^2 for rc >> dx: ratio constant across one decade
        ratios = []
        for rc in np.geomspace(3e-4, 3e-3, 8):
            f = f_closed(MZI, rc)
            ratios.append(f.f_p * (rc / MZI.delta_x) ** 2)
        ratios = np.array(ratios)
        assert np.all(np.abs(ratios / ratios[0] - 1.0) < 0.05)

    def test_mzi_small_rc_scaling(self):
        # f_p ~ (rc/wx)^2 for rc << wx
        ratios = []
        for rc in np.geomspace(1e-10, 1e-9, 8):
            f = f_closed(MZI, rc)
            ratios.append(f.f_p * (MZI.w_x / rc) ** 2)
        ratios = np.array(ratios)
        assert np.all(np.abs(ratios / ratios[0] - 1.0) < 0.05)

    def test_swi_f_s_vanishes_in_both_limits(self):
        peak = f_closed(SWI, optimal_rc(SWI)).f_s
        assert f_closed(SWI, 1e-10).f_s < 1e-4 * peak
        assert f_closed(SWI, 1e-2).f_s < 1e-4 * peak

    def test_swi_single_interior_maximum(self):
        grid = np.geomspace(1e-9, 1e-3, 400)
        fs = np.array([f_closed(SWI, rc).f_s for rc in grid])
        d = np.diff(fs)
        # sign changes of the discrete derivative: exactly one (+ to -)
        assert np.sum((d[:-1] > 0) & (d[1:] < 0)) == 1


class TestOptimalRc:
    def test_matches_analytic_optimum(self):
        assert optimal_rc(SWI) == pytest.approx(
            math.sqrt(2.0 / 3.0) * SWI.x0, rel=1e-4, abs=0)

    def test_scaled_geometry(self):
        g = SwiGeometry(x0=100e-9)
        assert optimal_rc(g) == pytest.approx(81.6496580928e-9, rel=1e-4,
                                              abs=0)

    def test_local_maximum_property(self):
        rc = optimal_rc(SWI)
        best = f_closed(SWI, rc).f_s
        assert best >= f_closed(SWI, 0.99 * rc).f_s
        assert best >= f_closed(SWI, 1.01 * rc).f_s

    @pytest.mark.parametrize("ratio", [0.0, 0.1, 1.0 / math.sqrt(6.0), 1.0,
                                       50.0])
    def test_argmax_of_closed_form(self, ratio):
        # w_y/x0 on both sides of 1 exercises both forms of the root
        g = SwiGeometry(x0=SWI.x0, w_y=ratio * SWI.x0)
        lo, hi = 1e-2 * g.x0, 1e2 * g.x0
        for _ in range(4):
            grid = np.geomspace(lo, hi, 201)
            i = int(np.argmax([f_closed(g, rc).f_s for rc in grid]))
            lo, hi = grid[max(i - 2, 0)], grid[min(i + 2, grid.size - 1)]
        assert optimal_rc(g) == pytest.approx(grid[i], rel=1e-6, abs=0)

    @pytest.mark.parametrize("name", ["rb-swi", "rb-swi-echo"])
    def test_scenario_rc_is_the_optimum(self, name):
        # each single-well scenario works at sqrt(2/3) x0, which the root
        # optimal_rc computes reaches to within rounding
        sc = SCENARIOS[name]
        assert sc.rc == pytest.approx(optimal_rc(sc.spec.geometry),
                                      rel=4.5e-16, abs=0)

    def test_general_w_y_numerical_optimum(self):
        g = SwiGeometry(x0=0.5e-6, w_y=0.3e-6)
        rc = optimal_rc(g)
        best = f_closed(g, rc).f_s
        assert best >= f_closed(g, 0.99 * rc).f_s
        assert best >= f_closed(g, 1.01 * rc).f_s
