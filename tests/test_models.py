"""Oracle and property tests for the model asymmetry curves."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import marginalize

from flavourasym.analysis import Binning
from flavourasym.fitkit import BinPredictor
from flavourasym.models import (MarginalGrid, ModelParams, _ps_lower_joint,
                                _ps_upper_joint, asym_qm, asym_sd_marginal,
                                curve_rows, ps_band_edges)

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
        joint = lambda u, d: np.cos(P.dm * u) * np.cos(P.dm * (u + d))
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
        t_min, dt = rng.uniform(0, 30, 10000), rng.uniform(0, 20, 10000)
        lower = _ps_lower_joint(t_min, dt, P.dm)
        upper = _ps_upper_joint(t_min, dt, P.dm)
        assert np.all(-1.0 - 1e-12 <= lower)
        assert np.all(lower <= upper)
        assert np.all(upper <= 1.0 + 1e-12)

    def test_qm_inside_band_at_tmin_zero(self):
        # at t_min = 0 the band upper edge touches 1 at dt = 0
        upper = _ps_upper_joint(0.0, 0.0, P.dm)
        assert upper == pytest.approx(1.0, abs=1e-12)
        assert _ps_lower_joint(0.0, 0.0, P.dm) <= asym_qm(0.0, P) <= upper

    def test_marginal_band_at_zero(self):
        # dt = 0: upper edge is exactly 1, lower is the exponential-weighted
        # average of 2|cos(dm u)| - 1
        lo, up = ps_band_edges(0.0, P)
        assert up == pytest.approx(1.0, abs=1e-9)
        lower = marginalize(
            lambda u, d: 2.0 * np.abs(np.cos(P.dm * u)) - 1.0, 0.0, P)
        assert lo == pytest.approx(lower, abs=1e-9)

    def test_grid_matches_quadrature(self):
        # the band integrands have kinks in t_min, so the fixed-node rule
        # converges only polynomially: ~1e-5 at 400 nodes at these dt, and
        # the documented worst case ~1.1e-4 over a fine dt grid
        g = MarginalGrid(P.tau)
        for dt in (0.0, 0.5, 2.5, 6.2, 11.0, 19.5):
            lo, up = ps_band_edges(dt, P)
            assert float(g.ps_lower(dt, P.dm)) == pytest.approx(lo, abs=5e-5)
            assert float(g.ps_upper(dt, P.dm)) == pytest.approx(up, abs=5e-5)
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


class TestDecohered:
    # the one decoherence curve: BinPredictor's mixture of the bin averages
    PRED = BinPredictor(Binning(), tau=P.tau)

    def test_limits(self):
        for dm in (0.3, 0.507, 0.8):
            np.testing.assert_array_equal(
                self.PRED.predict("DECOHERED", dm, 0.0),
                self.PRED.predict("QM", dm))
            np.testing.assert_array_equal(
                self.PRED.predict("DECOHERED", dm, 1.0),
                self.PRED.predict("SD", dm))

    def test_linearity_in_zeta(self):
        expected = (0.7 * self.PRED.predict("QM", P.dm)
                    + 0.3 * self.PRED.predict("SD", P.dm))
        np.testing.assert_allclose(self.PRED.predict("DECOHERED", P.dm, 0.3),
                                   expected, rtol=0, atol=1e-12)


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


@given(dm=st.floats(0.2, 0.9), t_min=st.floats(0.0, 30.0),
       dt=st.floats(0.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_joint_band_property(dm, t_min, dt):
    lower = _ps_lower_joint(t_min, dt, dm)
    upper = _ps_upper_joint(t_min, dt, dm)
    # ordering may be violated by one ulp where the edges touch
    assert -1.0 - 1e-9 <= lower <= upper + 1e-12
    assert upper <= 1.0 + 1e-9


@given(dm=st.floats(0.2, 0.9), tau=st.floats(0.5, 3.0),
       dt=st.floats(0.0, 20.0))
@example(dm=0.9, tau=3.0, dt=3.25)   # the unsplit quadrature raised here
@settings(max_examples=100, deadline=None)
def test_marginal_band_matches_split_quadrature(dm, tau, dt):
    p = ModelParams(dm=dm, tau=tau)
    lo, up = ps_band_edges(dt, p)
    lower, upper = split_marginal(dt, p)
    assert lo == pytest.approx(lower, abs=1e-12)
    assert up == pytest.approx(upper, abs=1e-12)


@given(dm=st.floats(0.2, 0.9), tau=st.floats(0.5, 3.0),
       dt=st.floats(0.0, 20.0), zeta=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_curves_bounded_property(dm, tau, dt, zeta):
    p = ModelParams(dm=dm, tau=tau)
    for f in (asym_qm, asym_sd_marginal):
        assert -1.0 - 1e-9 <= float(f(dt, p)) <= 1.0 + 1e-9
    # the decohered mixture, bin-averaged over a narrow bin at dt
    pred = BinPredictor(Binning((dt, dt + 0.01)), tau=tau)
    assert -1.0 - 1e-9 <= pred.predict("DECOHERED", dm, zeta)[0] <= 1.0 + 1e-9


def test_negative_time_rejected():
    for f in (asym_qm, asym_sd_marginal, ps_band_edges, curve_rows):
        with pytest.raises(ValueError):
            f([1.0, -0.5], P)
