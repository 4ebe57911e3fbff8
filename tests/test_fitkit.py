"""Fit machinery tests: bin predictions, recovery on exact inputs, and
significances."""

import numpy as np
import pytest

from flavourasym.analysis import AsymmetrySpectrum, Binning
from flavourasym.fitkit import (BinPredictor, Constraint, FitResult, chi2,
                                fit_model, fit_zeta, significance)
from flavourasym.models import ModelParams, asym_qm

TAU = 1.53
C = Constraint()


class TestBinPredictor:
    def test_constant_curve(self):
        pred = BinPredictor(Binning())
        np.testing.assert_allclose(pred.average(lambda t: np.ones_like(t)),
                                   1.0, atol=1e-12)

    def test_narrow_bin_is_pointlike(self):
        pred = BinPredictor(Binning((4.0, 4.001)))
        val = pred.predict("QM", 0.507)
        assert val[0] == pytest.approx(np.cos(0.507 * 4.0005), abs=1e-6)

    def test_first_bin_analytic(self):
        # rate-weighted average of cos(dm t) over [0, 0.5] has a closed form
        dm = 0.507
        lam = 1.0 / TAU
        hi = 0.5

        def antider(t):
            # integral of exp(-lam t) cos(dm t)
            return (np.exp(-lam * t)
                    * (dm * np.sin(dm * t) - lam * np.cos(dm * t))
                    / (lam ** 2 + dm ** 2))

        num = antider(hi) - antider(0.0)
        den = (1.0 - np.exp(-lam * hi)) / lam
        pred = BinPredictor(Binning())
        assert pred.predict("QM", dm)[0] == pytest.approx(num / den,
                                                          abs=1e-10)

    def test_band_ordered(self):
        pred = BinPredictor(Binning())
        lo, up = pred.band(0.507)
        assert np.all(lo <= up + 1e-12)

    def test_band_edges_as_generation_models(self):
        pred = BinPredictor(Binning())
        lo, up = pred.band(0.507)
        np.testing.assert_array_equal(pred.predict("PS_BOUNDARY_MIN", 0.507),
                                      lo)
        np.testing.assert_array_equal(pred.predict("PS_BOUNDARY_MAX", 0.507),
                                      up)
        with pytest.raises(ValueError):
            pred.predict("PS", 0.507)

    def test_decohered_limits(self):
        pred = BinPredictor(Binning())
        np.testing.assert_allclose(pred.predict("DECOHERED", 0.507, 0.0),
                                   pred.predict("QM", 0.507), atol=1e-12)
        np.testing.assert_allclose(pred.predict("DECOHERED", 0.507, 1.0),
                                   pred.predict("SD", 0.507), atol=1e-12)


def exact_spectrum(model="QM", dm=0.507, err=0.02):
    pred = BinPredictor(Binning())
    return AsymmetrySpectrum(Binning(), pred.predict(model, dm),
                             np.full(11, err))


class TestChi2:
    def test_exact_model_zero_residual(self):
        spec = exact_spectrum("QM", dm=C.mean)
        assert chi2(spec, "QM", C.mean, C) == pytest.approx(0.0, abs=1e-18)

    def test_constraint_pull(self):
        spec = exact_spectrum("QM", dm=0.507)
        # at dm = 0.507 the data term vanishes; only the pull remains
        expected = ((0.507 - C.mean) / C.sigma) ** 2
        assert chi2(spec, "QM", 0.507, C) == pytest.approx(expected,
                                                           abs=1e-12)

    def test_ps_residual_clipped(self):
        pred = BinPredictor(Binning())
        lo, up = pred.band(0.507)
        inside = AsymmetrySpectrum(Binning(), 0.5 * (lo + up),
                                   np.full(11, 0.02))
        expected = ((0.507 - C.mean) / C.sigma) ** 2
        assert chi2(inside, "PS", 0.507, C, pred) == pytest.approx(
            expected, abs=1e-12)
        above = AsymmetrySpectrum(Binning(), up + 0.04, np.full(11, 0.02))
        assert chi2(above, "PS", 0.507, C, pred) == pytest.approx(
            expected + 11 * 4.0, abs=1e-9)

    def test_nonpositive_errors_rejected(self):
        spec = AsymmetrySpectrum(Binning(), np.zeros(11), np.zeros(11))
        with pytest.raises(ValueError):
            chi2(spec, "QM", 0.5, C)


class TestFitModel:
    def test_recovers_exact_dm(self):
        # tiny errors make the data term dominate the external pull
        spec = exact_spectrum("QM", dm=0.507, err=1e-4)
        fit = fit_model(spec, "QM", C)
        assert fit.theta_hat == pytest.approx(0.507, abs=1e-4)
        assert fit.dof == 11

    def test_error_from_crossing(self):
        # with exact data the error is set by the curvature; halving the
        # per-bin errors halves the fitted error
        f1 = fit_model(exact_spectrum("QM", err=0.04), "QM", C)
        f2 = fit_model(exact_spectrum("QM", err=0.02), "QM", C)
        assert f2.theta_err < f1.theta_err
        assert f1.theta_err > 0

    def test_sd_recovery(self):
        spec = exact_spectrum("SD", dm=0.507, err=1e-4)
        fit = fit_model(spec, "SD", C)
        assert fit.theta_hat == pytest.approx(0.507, abs=1e-4)

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            fit_model(exact_spectrum(), "XX", C)


class TestSignificance:
    def test_antisymmetry(self):
        a = FitResult("QM", 0.5, 0.01, 5.0, 11, np.array([]))
        b = FitResult("SD", 0.5, 0.01, 30.0, 11, np.array([]))
        assert significance(a, b) == pytest.approx(5.0)
        assert significance(b, a) == pytest.approx(-5.0)

    def test_equal_fits(self):
        a = FitResult("QM", 0.5, 0.01, 5.0, 11, np.array([]))
        assert significance(a, a) == 0.0


class TestFitZeta:
    def test_zero_on_pure_qm(self):
        spec = exact_spectrum("QM", dm=C.mean, err=0.01)
        fit = fit_zeta(spec, C)
        assert fit.theta_hat == pytest.approx(0.0, abs=5e-3)
        assert fit.theta_err > 0

    def test_recovers_injected_fraction(self):
        pred = BinPredictor(Binning())
        spec = AsymmetrySpectrum(
            Binning(), pred.predict("DECOHERED", C.mean, 0.25),
            np.full(11, 0.01))
        fit = fit_zeta(spec, C)
        assert fit.theta_hat == pytest.approx(0.25, abs=0.01)
        assert fit.extra["dm"] == pytest.approx(C.mean, abs=0.01)


@pytest.fixture(scope="module")
def fits():
    from flavourasym.cli import reproduce_fixture
    return reproduce_fixture()


class TestFixtureFits:
    """Fits of the shipped published spectrum; tolerances mirror the
    reproduction report."""

    def test_qm(self, fits):
        _, values = fits
        assert values[("QM", "theta_hat")] == pytest.approx(0.501, abs=0.005)
        assert values[("QM", "chi2")] == pytest.approx(5.2, abs=1.0)

    def test_sd(self, fits):
        _, values = fits
        assert values[("SD", "theta_hat")] == pytest.approx(0.419, abs=0.010)
        assert values[("SD", "chi2")] == pytest.approx(174.0, abs=10.0)

    def test_ps(self, fits):
        _, values = fits
        assert values[("PS", "theta_hat")] == pytest.approx(0.447, abs=0.015)
        assert values[("PS", "chi2")] == pytest.approx(31.3, abs=5.0)

    def test_zeta(self, fits):
        _, values = fits
        assert values[("DECOHERED", "theta_hat")] == pytest.approx(
            0.029, abs=0.02)
        assert values[("DECOHERED", "theta_err")] == pytest.approx(
            0.057, abs=0.01)
