"""Oracle and property tests for the model asymmetry curves."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from flavourasym.models import (AsymmetryBand, FlavourClass, MarginalGrid,
                                ModelParams, _ps_lower_joint, _ps_upper_joint,
                                asym_decohered, asym_qm, asym_sd_joint,
                                asym_sd_marginal, curve_rows, marginalize,
                                ps_band_edges, ps_bounds_joint,
                                ps_bounds_marginal, rate_qm)

P = ModelParams()


def split_marginal(dt, p):
    """Oracle for the marginal band: (lower, upper) by adaptive quadrature
    of each joint edge over t_min in [0, 40 tau], split at its kinks
    (alpha + pi/2 + n pi) / dm, so every piece is smooth."""
    umax = 40.0 * p.tau
    c, s = np.cos(p.dm * dt), np.sin(p.dm * dt)
    den = p.tau / 2.0 * -np.expm1(-2.0 * umax / p.tau)
    out = []
    for joint, alpha in ((_ps_lower_joint, np.arctan2(-s, 1.0 + c)),
                         (_ps_upper_joint, np.arctan2(s, 1.0 - c))):
        n = np.arange(-1, np.ceil(umax * p.dm / np.pi) + 1)
        kinks = (alpha + np.pi / 2 + n * np.pi) / p.dm
        pts = np.concatenate([[0.0], kinks[(kinks > 0) & (kinks < umax)],
                              [umax]])
        num = sum(integrate.quad(
            lambda u: joint(u, dt, p.dm) * np.exp(-2.0 * u / p.tau),
            a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            for a, b in zip(pts[:-1], pts[1:]))
        out.append(num / den)
    return tuple(out)


class TestParams:
    def test_defaults(self):
        assert P.dm == 0.507
        assert P.tau == 1.53
        assert P.zeta == 0.0

    @pytest.mark.parametrize("kw", [
        {"dm": 0.0}, {"dm": -1.0}, {"tau": 0.0}, {"tau": -2.0},
        {"zeta": -0.1}, {"zeta": 1.5},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ModelParams(**kw)


class TestRates:
    def test_asymmetry_is_rate_ratio(self):
        # A = (R_OF - R_SF) / (R_OF + R_SF) must give back cos(dm dt)
        dt = np.linspace(0.0, 20.0, 401)
        r_of = rate_qm(dt, FlavourClass.OF, P)
        r_sf = rate_qm(dt, FlavourClass.SF, P)
        np.testing.assert_allclose((r_of - r_sf) / (r_of + r_sf),
                                   asym_qm(dt, P), atol=1e-12)

    def test_rate_normalization(self):
        # OF + SF integrates to 1/2 over dt >= 0 (one time ordering)
        from scipy import integrate
        total, _ = integrate.quad(
            lambda t: rate_qm(t, FlavourClass.OF, P)
            + rate_qm(t, FlavourClass.SF, P), 0.0, 200.0)
        assert total == pytest.approx(0.5, abs=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rate_qm(-0.1, FlavourClass.OF, P)
        with pytest.raises(ValueError):
            asym_qm([-1.0, 2.0], P)
        with pytest.raises(ValueError):
            ps_band_edges([1.0, -0.5], P)


class TestSDMarginal:
    def test_value_at_zero(self):
        # 1/2 [1 + 1/(1 + (dm tau)^2)] at the default parameters
        x = P.dm * P.tau
        expected = 0.5 * (1.0 + 1.0 / (1.0 + x * x))
        assert asym_sd_marginal(0.0, P) == pytest.approx(expected, abs=1e-12)
        assert asym_sd_marginal(0.0, P) == pytest.approx(0.8122, abs=5e-5)

    def test_closed_form_vs_quadrature(self):
        # the closed form must agree with the generic marginalization of the
        # joint SD asymmetry evaluated at (t_min, t_min + dt)
        joint = lambda u, d: asym_sd_joint(u, u + d, P)
        for dt in np.arange(0.0, 20.0 + 1e-9, 0.1):
            assert marginalize(joint, float(dt), P) == pytest.approx(
                float(asym_sd_marginal(dt, P)), abs=1e-9)

    def test_marginalize_constant(self):
        assert marginalize(lambda u, d: 0.73, 1.0, P) == pytest.approx(
            0.73, abs=1e-9)

    def test_qm_marginal_is_unchanged(self):
        # the QM joint depends on dt only, so marginalizing is a no-op
        joint = lambda u, d: np.cos(P.dm * d)
        for dt in (0.0, 1.7, 6.2, 15.0):
            assert marginalize(joint, dt, P) == pytest.approx(
                np.cos(P.dm * dt), abs=1e-9)


class TestPSBand:
    def test_lower_identity(self):
        # 1 - min(2 + psi, 2 - psi) == |psi| - 1 for any psi
        rng = np.random.default_rng(4)
        t_min = rng.uniform(0.0, 30.0, 10000)
        dt = rng.uniform(0.0, 20.0, 10000)
        c, s = np.cos(P.dm * dt), np.sin(P.dm * dt)
        psi = (1.0 + c) * np.cos(P.dm * t_min) - s * np.sin(P.dm * t_min)
        np.testing.assert_allclose(np.minimum(2.0 + psi, 2.0 - psi),
                                   2.0 - np.abs(psi), atol=1e-12)
        np.testing.assert_allclose(_ps_lower_joint(t_min, dt, P.dm),
                                   np.abs(psi) - 1.0, atol=1e-12)

    def test_joint_band_ordered_and_bounded(self):
        rng = np.random.default_rng(11)
        for t_min, dt in zip(rng.uniform(0, 30, 10000),
                             rng.uniform(0, 20, 10000)):
            band = ps_bounds_joint(t_min, dt, P)
            assert -1.0 - 1e-12 <= band.lower <= band.upper <= 1.0 + 1e-12

    def test_qm_inside_band_at_tmin_zero(self):
        # at t_min = 0 the band upper edge touches 1 at dt = 0
        band = ps_bounds_joint(0.0, 0.0, P)
        assert band.upper == pytest.approx(1.0, abs=1e-12)
        assert band.contains(asym_qm(0.0, P))

    def test_marginal_band_at_zero(self):
        # dt = 0: upper edge is exactly 1, lower is the exponential-weighted
        # average of 2|cos(dm u)| - 1
        band = ps_bounds_marginal(0.0, P)
        assert band.upper == pytest.approx(1.0, abs=1e-9)
        lower = marginalize(
            lambda u, d: 2.0 * np.abs(np.cos(P.dm * u)) - 1.0, 0.0, P)
        assert band.lower == pytest.approx(lower, abs=1e-9)

    def test_grid_matches_quadrature(self):
        # the band integrands have kinks in t_min, so the fixed-node rule
        # converges only polynomially: ~1e-5 at 400 nodes at these dt, and
        # the documented worst case ~1.1e-4 over a fine dt grid
        g = MarginalGrid(P.tau)
        for dt in (0.0, 0.5, 2.5, 6.2, 11.0, 19.5):
            band = ps_bounds_marginal(dt, P)
            assert float(g.ps_lower(dt, P.dm)) == pytest.approx(band.lower,
                                                                abs=5e-5)
            assert float(g.ps_upper(dt, P.dm)) == pytest.approx(band.upper,
                                                                abs=5e-5)
        dt = np.arange(0.0, 20.0 + 1e-9, 0.05)
        lo, up = ps_band_edges(dt, P)
        assert np.abs(g.ps_lower(dt, P.dm) - lo).max() < 1.2e-4
        assert np.abs(g.ps_upper(dt, P.dm) - up).max() < 1.2e-4

    def test_grid_blocks_match_one_array(self):
        # block-wise evaluation gives the sums of one (..., nodes) array
        # bit for bit, for any dt shape and across block boundaries
        g = MarginalGrid(P.tau)
        rng = np.random.default_rng(2)
        for dt in (rng.uniform(0, 20, (11, 64)), rng.uniform(0, 20, 130),
                   np.float64(3.3)):
            for joint, edge in ((_ps_lower_joint, g.ps_lower),
                                (_ps_upper_joint, g.ps_upper)):
                whole = (joint(g.u, dt[..., None], 0.45) * g.w).sum(axis=-1)
                np.testing.assert_array_equal(edge(dt, 0.45), whole)

    def test_marginal_band_invariants(self):
        dt = np.linspace(0.0, 20.0, 2001)
        for p in (P, ModelParams(dm=0.2, tau=0.5), ModelParams(dm=0.9, tau=3.0)):
            lo, up = ps_band_edges(dt, p)
            assert up[0] == 1.0
            assert np.all(lo <= up)
            assert np.all((-1.0 <= lo) & (up <= 1.0))

    def test_qm_exits_band_at_intermediate_dt(self):
        # the cosine leaves the band away from dt = 0, which is what makes
        # the models distinguishable
        dt = np.linspace(0.0, 20.0, 201)
        lo, up = ps_band_edges(dt, P)
        a = asym_qm(dt, P)
        assert up[0] == pytest.approx(1.0, abs=1e-9)
        assert np.any(a > up + 0.05) or np.any(a < lo - 0.05)
        # the band never collapses
        assert np.all(up - lo > 0.01)


class TestBand:
    def test_distance(self):
        band = AsymmetryBand(-0.25, 0.5)
        np.testing.assert_allclose(band.distance([-1.0, 0.0, 0.75]),
                                   [0.75, 0.0, 0.25])

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            AsymmetryBand(0.5, -0.5)


class TestDecohered:
    def test_limits(self):
        dt = np.linspace(0, 20, 50)
        p0 = ModelParams(zeta=0.0)
        p1 = ModelParams(zeta=1.0)
        np.testing.assert_allclose(asym_decohered(dt, p0), asym_qm(dt, p0))
        np.testing.assert_allclose(asym_decohered(dt, p1),
                                   asym_sd_marginal(dt, p1))

    def test_linearity_in_zeta(self):
        p = ModelParams(zeta=0.3)
        dt = 4.0
        expected = 0.7 * asym_qm(dt, p) + 0.3 * asym_sd_marginal(dt, p)
        assert asym_decohered(dt, p) == pytest.approx(expected, abs=1e-12)


class TestCurveRows:
    def test_shape_and_columns(self):
        grid = np.arange(0.0, 20.0 + 1e-9, 0.1)
        rows = curve_rows(grid, P)
        assert rows.shape == (201, 5)
        np.testing.assert_allclose(rows[:, 0], grid)
        np.testing.assert_allclose(rows[:, 1], asym_qm(grid, P))
        np.testing.assert_allclose(rows[:, 2], asym_sd_marginal(grid, P))
        assert np.all(rows[:, 3] <= rows[:, 4] + 1e-12)

    def test_ps_columns_are_the_closed_form(self):
        grid = np.arange(0.0, 20.0 + 1e-9, 0.1)
        lo, up = ps_band_edges(grid, P)
        rows = curve_rows(grid, P)
        np.testing.assert_array_equal(rows[:, 3], lo)
        np.testing.assert_array_equal(rows[:, 4], up)


@given(dm=st.floats(0.2, 0.9), tau=st.floats(0.5, 3.0),
       t_min=st.floats(0.0, 30.0), dt=st.floats(0.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_joint_band_property(dm, tau, t_min, dt):
    p = ModelParams(dm=dm, tau=tau)
    band = ps_bounds_joint(t_min, dt, p)
    # ordering may be violated by one ulp where the edges touch
    assert -1.0 - 1e-9 <= band.lower <= band.upper + 1e-12
    assert band.upper <= 1.0 + 1e-9


@given(dm=st.floats(0.2, 0.9), tau=st.floats(0.5, 3.0),
       dt=st.floats(0.0, 20.0))
@example(dm=0.9, tau=3.0, dt=3.25)   # the unsplit quadrature raised here
@settings(max_examples=100, deadline=None)
def test_marginal_band_matches_split_quadrature(dm, tau, dt):
    p = ModelParams(dm=dm, tau=tau)
    band = ps_bounds_marginal(dt, p)
    lower, upper = split_marginal(dt, p)
    assert band.lower == pytest.approx(lower, abs=1e-12)
    assert band.upper == pytest.approx(upper, abs=1e-12)


@given(dm=st.floats(0.2, 0.9), tau=st.floats(0.5, 3.0),
       dt=st.floats(0.0, 20.0), zeta=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_curves_bounded_property(dm, tau, dt, zeta):
    p = ModelParams(dm=dm, tau=tau, zeta=zeta)
    for f in (asym_qm, asym_sd_marginal, asym_decohered):
        assert -1.0 - 1e-9 <= float(f(dt, p)) <= 1.0 + 1e-9
