"""Fit machinery tests: bin predictions, recovery on exact inputs, and
significances."""

import numpy as np
import pytest

from flavourasym import fitkit, models
from flavourasym.analysis import AsymmetrySpectrum, Binning, read_spectrum
from flavourasym.cli import fixture_path
from flavourasym.config import default_config_text, load_config
from flavourasym.fitkit import (BinPredictor, Constraint, FitResult, chi2,
                                fit_model, fit_zeta, significance)
from flavourasym.models import (MarginalGrid, ModelParams, asym_qm,
                                asym_sd_marginal)
from flavourasym.pipeline import analyze_counts, build_training_responses
from flavourasym.toygen import generate_ensemble
from flavourasym.unfold import dsvd_unfold, unfolded_asymmetry, unfolding_map
from oracles import zeta_interval

TAU = 1.53
C = Constraint()
PRED = BinPredictor(Binning())


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

    def test_grid_built_by_first_band_call_only(self, monkeypatch):
        def refuse(tau):
            raise AssertionError("point predictions need no t_min grid")

        monkeypatch.setattr(fitkit, "MarginalGrid", refuse)
        pred = BinPredictor(Binning())
        for model in ("QM", "SD", "DECOHERED"):
            assert np.all(np.isfinite(pred.predict(model, 0.507, 0.3)))
        built = []

        def counting(tau):
            built.append(tau)
            return MarginalGrid(tau)

        monkeypatch.setattr(fitkit, "MarginalGrid", counting)
        first = pred.band(0.507)
        np.testing.assert_array_equal(pred.band(0.507), first)
        assert built == [pred.tau]

    def test_point_models_are_curve_averages(self):
        # one cos/sin pair per call gives, to the bit, the rate-weighted
        # bin averages of the model curves and of their zeta mixture
        pred = BinPredictor(Binning())
        for dm in (0.2, 0.4515, 0.507, 0.9):
            p = ModelParams(dm=dm, tau=pred.tau)
            np.testing.assert_array_equal(
                pred.predict("QM", dm), pred.average(lambda t: asym_qm(t, p)))
            np.testing.assert_array_equal(
                pred.predict("SD", dm),
                pred.average(lambda t: asym_sd_marginal(t, p)))
            for zeta in (-0.3, 0.0, 0.035, 0.5, 1.0):
                np.testing.assert_array_equal(
                    pred.predict("DECOHERED", dm, zeta),
                    pred.average(lambda t: (1 - zeta) * asym_qm(t, p)
                                 + zeta * asym_sd_marginal(t, p)))
        for dm in (0.0, -0.5):
            with pytest.raises(ValueError, match="dm must be positive"):
                pred.predict("QM", dm)
        with pytest.raises(ValueError, match="no point prediction"):
            pred.predict("PS", 0.507)

    def test_decohered_limits(self):
        pred = BinPredictor(Binning())
        np.testing.assert_allclose(pred.predict("DECOHERED", 0.507, 0.0),
                                   pred.predict("QM", 0.507), atol=1e-12)
        np.testing.assert_allclose(pred.predict("DECOHERED", 0.507, 1.0),
                                   pred.predict("SD", 0.507), atol=1e-12)

    def test_rules_are_built_once_and_read_only(self, monkeypatch):
        # two predictors and their t_min grids share one rule per node count
        fresh = np.polynomial.legendre.leggauss
        built = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: built.append(n) or fresh(n))
        models._leggauss.cache_clear()
        a, b = BinPredictor(Binning()), BinPredictor(Binning())
        for pred in (a, b):
            pred.band(0.507)
        assert built == [fitkit.BIN_NODES, models._TMIN_NODES]
        assert a._grid is not b._grid
        for n in built:
            for rule in models._leggauss(n):
                with pytest.raises(ValueError, match="read-only"):
                    rule[0] = 0.0

    def test_cached_rules_predict_as_fresh_ones(self, monkeypatch):
        cached = BinPredictor(Binning())
        cached.band(0.507)                  # its grid too, before the patch
        for mod in (fitkit, models):
            monkeypatch.setattr(mod, "_leggauss",
                                np.polynomial.legendre.leggauss)
        fresh = BinPredictor(Binning())
        for model in ("QM", "SD", "DECOHERED", "PS_BOUNDARY_MIN",
                      "PS_BOUNDARY_MAX"):
            np.testing.assert_array_equal(
                cached.predict(model, 0.507, 0.3),
                fresh.predict(model, 0.507, 0.3))


    @pytest.mark.parametrize("tau", [-1.0, 0.0, np.nan, np.inf])
    def test_tau_checked_at_construction(self, tau):
        with pytest.raises(ValueError, match=f"^tau must be positive and "
                                             f"finite, got {tau}$"):
            BinPredictor(Binning(), tau=tau)

    @pytest.mark.parametrize("dm", [-0.5, 0.0, np.nan, np.inf])
    def test_dm_checked_by_every_prediction(self, dm):
        # also right after a valid dm, whose cos and sin the predictor keeps
        pred = BinPredictor(Binning())
        calls = [lambda: pred.band(dm)] + [
            lambda m=m: pred.predict(m, dm, 0.3)
            for m in ("QM", "SD", "DECOHERED", "PS_BOUNDARY_MIN",
                      "PS_BOUNDARY_MAX")]
        for call in calls:
            pred.predict("SD", 0.507)
            with pytest.raises(ValueError, match=f"^dm must be positive and "
                                                 f"finite, got {dm}$"):
                call()

    def test_prediction_independent_of_earlier_calls(self):
        # one predictor through a shuffled sequence of every model, with
        # repeated and alternating dm and band calls in between, gives the
        # bits of a fresh predictor for each call
        calls = [(m, dm, zeta) for dm in (0.2, 0.4515, 0.507, 0.9)
                 for m, zeta in [("QM", 0.0), ("SD", 0.0),
                                 ("PS_BOUNDARY_MIN", 0.0),
                                 ("PS_BOUNDARY_MAX", 0.0), ("band", 0.0)]
                 + [("DECOHERED", z) for z in (-0.3, 0.0, 0.035, 0.5, 1.0)]]
        calls = calls * 2
        np.random.default_rng(30).shuffle(calls)
        calls += [("QM", 0.507, 0.0), ("DECOHERED", 0.4515, 0.3),
                  ("SD", 0.507, 0.0), ("DECOHERED", 0.507, 0.3),
                  ("SD", 0.507, 0.0), ("QM", 0.507, 0.0)]
        run = lambda pred, m, dm, zeta: (pred.band(dm) if m == "band"
                                         else (pred.predict(m, dm, zeta),))
        shared = BinPredictor(Binning())
        for m, dm, zeta in calls:
            for got, want in zip(run(shared, m, dm, zeta),
                                 run(BinPredictor(Binning()), m, dm, zeta)):
                np.testing.assert_array_equal(got, want)


def exact_spectrum(model="QM", dm=0.507, err=0.02):
    pred = BinPredictor(Binning())
    return AsymmetrySpectrum(Binning(), pred.predict(model, dm),
                             np.full(11, err))


class TestChi2:
    def test_exact_model_zero_residual(self):
        spec = exact_spectrum("QM", dm=C.mean)
        assert chi2(spec, "QM", C.mean, C, PRED) == pytest.approx(
            0.0, abs=1e-18)

    def test_constraint_pull(self):
        spec = exact_spectrum("QM", dm=0.507)
        # at dm = 0.507 the data term vanishes; only the pull remains
        expected = ((0.507 - C.mean) / C.sigma) ** 2
        assert chi2(spec, "QM", 0.507, C, PRED) == pytest.approx(
            expected, abs=1e-12)

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
        # the spectrum checks its errors once; every chi2 call still raises
        for bad in (0.0, np.nan):
            err = np.full(11, 0.02)
            err[10] = bad
            spec = AsymmetrySpectrum(Binning(), np.zeros(11), err)
            for model in ("QM", "QM", "PS", "DECOHERED"):
                with pytest.raises(ValueError):
                    chi2(spec, model, 0.5, C, PRED)


class TestFitModel:
    def test_recovers_exact_dm(self):
        # tiny errors make the data term dominate the external pull
        spec = exact_spectrum("QM", dm=0.507, err=1e-4)
        fit = fit_model(spec, "QM", C, PRED)
        assert fit.theta_hat == pytest.approx(0.507, abs=1e-4)
        assert fit.dof == 11

    def test_error_from_crossing(self):
        # with exact data the error is set by the curvature; halving the
        # per-bin errors halves the fitted error
        f1 = fit_model(exact_spectrum("QM", err=0.04), "QM", C,
                       PRED)
        f2 = fit_model(exact_spectrum("QM", err=0.02), "QM", C,
                       PRED)
        assert f2.theta_err < f1.theta_err
        assert f1.theta_err > 0

    def test_sd_recovery(self):
        spec = exact_spectrum("SD", dm=0.507, err=1e-4)
        fit = fit_model(spec, "SD", C, PRED)
        assert fit.theta_hat == pytest.approx(0.507, abs=1e-4)

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            fit_model(exact_spectrum(), "XX", C, PRED)


class TestSignificance:
    def test_antisymmetry(self):
        a = FitResult("QM", 0.5, lambda: (0.01, []), 5.0, 11, np.array([]))
        b = FitResult("SD", 0.5, lambda: (0.01, []), 30.0, 11, np.array([]))
        assert significance(a, b) == pytest.approx(5.0)
        assert significance(b, a) == pytest.approx(-5.0)

    def test_equal_fits(self):
        a = FitResult("QM", 0.5, lambda: (0.01, []), 5.0, 11, np.array([]))
        assert significance(a, a) == 0.0


def eager_errors(spectrum, model, c, fit):
    """(theta_err, flags) as the fits computed them with their minimum:
    the minimum's flag, then the interval's. zeta's interval is the union,
    over the dm stretch inside the profile's chi2_min + 1, of
    zeta_hat(dm) +- sqrt((chi2_min + 1 - chi2_prof(dm)) / sum d^2)."""
    dm = fit.extra.get("dm", fit.theta_hat)
    lo, hi = fitkit.DM_SEARCH
    flags = (["minimum at the edge of the search interval"]
             if min(dm - lo, hi - dm) < 5 * fitkit.DM_XTOL else [])
    if model == "DECOHERED":
        def profile(m):
            r = (spectrum.a - PRED.predict("QM", m)) / spectrum.total_err
            d = r - (spectrum.a - PRED.predict("SD", m)) / spectrum.total_err
            z = float(r @ d / (d @ d))
            return z, chi2(spectrum, model, m, c, PRED, z), d @ d

        lo, hi, more = fitkit._one_sigma_interval(
            lambda m: profile(m)[1], dm, fit.chi2, "zeta")

        def end(s):
            def f(m):
                z, c2, dd = profile(m)
                return -s * z - np.sqrt(max(fit.chi2 + 1.0 - c2, 0.0) / dd)
            inner = fitkit.minimize_bounded(f, (lo, hi), 1e-7)[1]
            return -s * float(min(f(lo), f(hi), inner))

        return fitkit._half_width(fit.theta_hat, end(-1.0), end(1.0), "zeta",
                                  flags + more)
    lo, hi, more = fitkit._one_sigma_interval(
        lambda m: chi2(spectrum, model, m, c, PRED), dm, fit.chi2, "dm")
    return fitkit._half_width(dm, lo, hi, "dm", flags + more)


def _fit(spectrum, model, c):
    return (fit_zeta(spectrum, c, PRED) if model == "DECOHERED"
            else fit_model(spectrum, model, c, PRED))


LOOSE = Constraint(0.496, 10.0)
ERROR_CASES = {
    # no flags
    "fixture": (lambda: read_spectrum(fixture_path()), C),
    # dm: the edge flag, then the interval's; zeta: the edge flag
    "edge": (lambda: exact_spectrum("QM", dm=0.95, err=0.01), LOOSE),
    # dm: two missing crossings and an asymmetric interval; zeta: two
    # missing crossings, the dm stretch being all of DM_SEARCH, and an
    # asymmetric interval
    "flat": (lambda: exact_spectrum("QM", dm=0.5, err=5.0), LOOSE),
}


class TestErrorOnRead:
    """The error and flags of a fit are computed when first read, with the
    values and flag order of a fit that computes them with its minimum."""

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    @pytest.mark.parametrize("model", ["QM", "SD", "PS", "DECOHERED"])
    def test_read_gives_the_eager_values(self, case, model):
        make, c = ERROR_CASES[case]
        spec = make()
        fit = _fit(spec, model, c)
        err, flags = eager_errors(spec, model, c, fit)
        assert fit.flags == flags
        assert fit.theta_err == err
        assert fit.flags is fit.flags       # computed once

    def test_significance_searches_no_interval(self, monkeypatch):
        spec = read_spectrum(fixture_path())

        def refuse(*a, **k):
            raise AssertionError("an interval was searched")

        monkeypatch.setattr(fitkit, "brentq", refuse)
        qm, sd = (fit_model(spec, m, C, PRED) for m in ("QM", "SD"))
        sig = significance(qm, sd)
        assert sig == pytest.approx(13.0, abs=0.5)
        with pytest.raises(AssertionError, match="interval"):
            qm.theta_err
        monkeypatch.undo()
        for fit in (qm, sd):
            assert (fit.theta_err, fit.flags) == eager_errors(
                spec, fit.model, C, fit)

    def test_zeta_fit_probes_its_profile_on_read(self, monkeypatch):
        spec = read_spectrum(fixture_path())
        calls = []
        counted = lambda *a: calls.append(a) or chi2(*a)
        monkeypatch.setattr(fitkit, "chi2", counted)
        fit = fit_zeta(spec, C, PRED)
        n_fit = len(calls)
        assert fit.chi2 > 0 and len(calls) == n_fit
        # the profile's crossings in dm and the interval's two ends
        fit.flags
        n_err = len(calls) - n_fit
        assert n_err > 0
        fit.theta_err
        assert len(calls) - n_fit == n_err

    @pytest.mark.parametrize("err", [0.0, -0.01])
    def test_non_positive_computed_error_raises_on_read(self, err):
        fit = FitResult("QM", 0.5, lambda: (err, ["x"]), 5.0, 11,
                        np.array([]))
        assert significance(fit, fit) == 0.0
        for attr in ("theta_err", "flags"):
            with pytest.raises(ValueError, match="positive"):
                getattr(fit, attr)


ZETA_SPECTRA = {
    "fixture": (lambda: read_spectrum(fixture_path()), C),
    "pure-qm": (lambda: exact_spectrum("QM", dm=C.mean, err=0.01), C),
    "injected": (lambda: AsymmetrySpectrum(
        Binning(), PRED.predict("DECOHERED", C.mean, 0.25),
        np.full(11, 0.01)), C),
    # the dm stretch stops at the upper end of DM_SEARCH
    "search-edge": (lambda: AsymmetrySpectrum(
        Binning(), PRED.predict("DECOHERED", 0.95, 0.3),
        np.full(11, 0.01)), LOOSE),
}


class TestFitZeta:
    def test_zero_on_pure_qm(self):
        spec = exact_spectrum("QM", dm=C.mean, err=0.01)
        fit = fit_zeta(spec, C, PRED)
        assert fit.theta_hat == pytest.approx(0.0, abs=5e-3)
        assert fit.theta_err > 0

    def test_recovers_injected_fraction(self):
        pred = BinPredictor(Binning())
        spec = AsymmetrySpectrum(
            Binning(), pred.predict("DECOHERED", C.mean, 0.25),
            np.full(11, 0.01))
        fit = fit_zeta(spec, C, PRED)
        assert fit.theta_hat == pytest.approx(0.25, abs=0.01)
        assert fit.extra["dm"] == pytest.approx(C.mean, abs=0.01)

    def test_minimum_at_search_edge(self):
        # a decohered spectrum at dm = 0.95, beyond the search interval,
        # with a loose constraint: the fit stops at the upper edge
        spec = AsymmetrySpectrum(Binning(),
                                 PRED.predict("DECOHERED", 0.95, 0.3),
                                 np.full(11, 0.01))
        loose = Constraint(0.496, 10.0)
        fit = fit_zeta(spec, loose, PRED)
        assert fitkit.DM_SEARCH[0] <= fit.extra["dm"] <= fitkit.DM_SEARCH[1]
        assert fit.extra["dm"] > fitkit.DM_SEARCH[1] - 5 * fitkit.DM_XTOL
        assert "minimum at the edge of the search interval" in fit.flags

    def test_degrees_of_freedom(self):
        # 11 bins plus the dm constraint: 11 dof for the one-parameter
        # fit, 10 for the two-parameter (dm, zeta) fit
        spec = exact_spectrum("QM", dm=C.mean, err=0.01)
        assert fit_model(spec, "QM", C, PRED).dof == 11
        assert fit_zeta(spec, C, PRED).dof == 10

    @pytest.mark.parametrize("case", sorted(ZETA_SPECTRA))
    def test_error_is_the_exact_interval(self, case):
        make, c = ZETA_SPECTRA[case]
        spec = make()
        fit = fit_zeta(spec, c, PRED)
        lo, hi = zeta_interval(spec, c, PRED, fit.chi2)
        assert fit.theta_err == pytest.approx(0.5 * (hi - lo), abs=1e-8)

    def test_seed7_chain_error(self, tmp_path):
        # the paper-scale chain of `init-config --seed 7`, generate,
        # analyze and unfold, built in memory. Its zeta profile has a
        # second dm basin (chi2 ~ 340 near dm = 0.37); the error is the
        # interval around the fitted basin, about +-0.0757, whose dm
        # stretch ends inside DM_SEARCH
        path = tmp_path / "run.cfg"
        path.write_text(default_config_text(seed=7))
        run = load_config(path)
        cfg = run.pipeline
        events = generate_ensemble(run.model, cfg.params, cfg.detector,
                                   cfg.backgrounds, cfg.n_signal,
                                   master_seed=cfg.seed)
        counts, _ = analyze_counts(events, cfg)
        lin = unfolding_map(*build_training_responses(cfg), cfg.unfold)
        a, err = unfolded_asymmetry(*dsvd_unfold(counts, lin))
        spec = AsymmetrySpectrum(counts.binning, a, err)
        pred = BinPredictor(spec.binning, cfg.params.tau)
        fit = fit_zeta(spec, cfg.constraint, pred)
        lo, hi = zeta_interval(spec, cfg.constraint, pred, fit.chi2)
        assert fit.theta_err == pytest.approx(0.5 * (hi - lo), abs=1e-3)
        assert not any("crossing" in f for f in fit.flags)


@pytest.fixture(scope="module")
def fits():
    from flavourasym.cli import reproduce_fixture
    return reproduce_fixture()


def test_shared_predictor_fits_as_fresh_ones(fits):
    # the fixture's fits share one predictor; each fit with a predictor of
    # its own gives the same values, flags and residuals
    from flavourasym.pipeline import PipelineConfig
    spec, cfg = read_spectrum(fixture_path()), PipelineConfig()
    for m, shared in fits[0].items():
        pred = BinPredictor(spec.binning, cfg.params.tau)
        alone = (fit_zeta(spec, cfg.constraint, pred) if m == "DECOHERED"
                 else fit_model(spec, m, cfg.constraint, pred))
        for f in (lambda f: f.theta_hat, lambda f: f.theta_err,
                  lambda f: f.chi2, lambda f: f.flags, lambda f: f.extra,
                  lambda f: f.residuals.tolist()):
            assert repr(f(shared)) == repr(f(alone)), m


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
