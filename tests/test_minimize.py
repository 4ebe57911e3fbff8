"""The fits' two routines against scipy, the routines they port: every
evaluated point, root, minimum and Δm fit result must be the same double
(`==`, no tolerance). The ζ fit, which solves ζ in closed form at each Δm,
is checked against the scipy Nelder-Mead fit it replaced, within that
simplex's own tolerance, and its error against the exact interval at the
simplex's minimum. scipy is the oracle here only; the package does not
import it."""

import numpy as np
import pytest
from scipy import optimize

from flavourasym import _minimize, fitkit
from flavourasym.analysis import AsymmetrySpectrum, Binning, read_spectrum
from flavourasym.cli import fixture_path, reproduce_fixture
from flavourasym.fitkit import (DM_SEARCH, DM_XTOL, BinPredictor, Constraint,
                                chi2, fit_model, fit_zeta)
from oracles import zeta_interval

C = Constraint()
PRED = BinPredictor(Binning())


def _random_spectrum(kind: str, seed: int) -> AsymmetrySpectrum:
    """A seeded pseudo-measurement of a generation model."""
    rng = np.random.default_rng(seed)
    truth = PRED.predict(kind, rng.uniform(0.35, 0.7), rng.uniform(0.0, 0.5))
    err = rng.uniform(0.02, 0.2, 11)
    return AsymmetrySpectrum(Binning(), truth + rng.normal(size=11) * err,
                             err)


SPECTRA = {"fixture": lambda: read_spectrum(fixture_path())} | {
    f"{kind}-{seed}": (lambda k=kind, s=seed: _random_spectrum(k, s))
    for kind in ("QM", "SD", "PS_BOUNDARY_MAX", "DECOHERED")
    for seed in (1, 2)}


@pytest.fixture(scope="module", params=sorted(SPECTRA))
def spectrum(request):
    return SPECTRA[request.param]()


def recorded(f):
    """f, and the list of calls it gets: the argument's type and bytes and
    the value's bytes (so that NaN equals NaN)."""
    calls = []

    def g(x):
        v = f(x)
        calls.append((type(x), np.copy(x).tobytes(), np.float64(v).tobytes()))
        return v
    return g, calls


def scipy_bounded(fun, bounds, xatol):
    r = optimize.minimize_scalar(fun, bounds=bounds, method="bounded",
                                 options={"xatol": xatol})
    return float(r.x), float(r.fun)


def assert_same(port, oracle, f, *args, **kw):
    """port and oracle evaluate f at the same points and return the same,
    or raise the same error."""
    f1, calls1 = recorded(f)
    f2, calls2 = recorded(f)
    try:
        want = oracle(f1, *args, **kw)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            port(f2, *args, **kw)
        assert str(got.value) == str(e)
    else:
        assert port(f2, *args, **kw) == want
    assert calls2 == calls1


@pytest.mark.parametrize("model", ["QM", "SD", "PS"])
def test_bounded_minimum(spectrum, model):
    fun = lambda dm: chi2(spectrum, model, dm, C, PRED)
    assert_same(_minimize.minimize_bounded, scipy_bounded, fun, DM_SEARCH,
                DM_XTOL)


def test_bounded_zeta_profile(spectrum):
    for z in (-0.5, 0.0, 0.4):
        fun = lambda dm: chi2(spectrum, "DECOHERED", dm, C, PRED, z)
        assert_same(_minimize.minimize_bounded, scipy_bounded, fun,
                    DM_SEARCH, DM_XTOL)


def test_minimum_at_search_edge():
    # an exact QM spectrum at dm = 1.2 with a loose constraint pulls the
    # minimum onto the upper end of the search interval
    spec = AsymmetrySpectrum(Binning(), PRED.predict("QM", 1.2),
                             np.full(11, 0.01))
    loose = Constraint(0.496, 10.0)
    fun = lambda dm: chi2(spec, "QM", dm, loose, PRED)
    assert_same(_minimize.minimize_bounded, scipy_bounded, fun, DM_SEARCH,
                DM_XTOL)
    fit = fit_model(spec, "QM", loose, PRED)
    assert "minimum at the edge of the search interval" in fit.flags


@pytest.mark.parametrize("model", ["QM", "SD", "PS"])
def test_brentq_crossings(spectrum, model):
    fun = lambda dm: chi2(spectrum, model, dm, C, PRED)
    dm_hat, c2 = _minimize.minimize_bounded(fun, DM_SEARCH, DM_XTOL)
    f = lambda x: fun(x) - (c2 + 1.0)
    for lo, hi in ((DM_SEARCH[0], dm_hat), (dm_hat, DM_SEARCH[1])):
        assert_same(_minimize.brentq, optimize.brentq, f, lo, hi, xtol=1e-7)


def test_brentq_missing_crossing():
    # errors so large that chi2 stays within 1 of its minimum everywhere:
    # both ends of the interval have the sign of the minimum
    spec = AsymmetrySpectrum(Binning(), PRED.predict("QM", 0.5),
                             np.full(11, 50.0))
    loose = Constraint(0.496, 10.0)
    fun = lambda dm: chi2(spec, "QM", dm, loose, PRED)
    dm_hat, c2 = _minimize.minimize_bounded(fun, DM_SEARCH, DM_XTOL)
    f = lambda x: fun(x) - (c2 + 1.0)
    for lo, hi in ((DM_SEARCH[0], dm_hat), (dm_hat, DM_SEARCH[1])):
        with pytest.raises(ValueError, match="different signs"):
            _minimize.brentq(f, lo, hi, xtol=1e-7)
        assert_same(_minimize.brentq, optimize.brentq, f, lo, hi, xtol=1e-7)
    flags = fit_model(spec, "QM", loose, PRED).flags
    assert "dm: no lower crossing inside the search range" in flags
    assert "dm: no upper crossing inside the search range" in flags


def test_brentq_nan_raises():
    f = lambda x: np.nan if x > 0.6 else x - 0.7
    with pytest.raises(ValueError, match="NaN"):
        _minimize.brentq(f, 0.2, 0.9)
    assert_same(_minimize.brentq, optimize.brentq, f, 0.2, 0.9)
    g = lambda x: x - 0.7 if x < 0.5 else float("nan")
    assert_same(_minimize.brentq, optimize.brentq, g, 0.2, 0.9)


def test_brentq_root_at_endpoint(spectrum):
    fun = lambda dm: chi2(spectrum, "QM", dm, C, PRED)
    for end in DM_SEARCH:
        f = lambda x: fun(x) - fun(end)     # exactly zero at `end`
        assert _minimize.brentq(f, *DM_SEARCH) == end
        assert_same(_minimize.brentq, optimize.brentq, f, *DM_SEARCH)


def nelder_mead_zeta_fit(spectrum):
    """(dm, zeta, error, chi2) of the simplex fit over (dm, zeta) that the
    closed-form zeta replaced; the error is the half-width of the exact
    chi2_min + 1 interval at that minimum, from `oracles.zeta_interval`."""
    c2 = lambda dm, z: chi2(spectrum, "DECOHERED", dm, C, PRED, z)
    r = optimize.minimize(lambda p: c2(*p), x0=[C.mean, 0.0],
                          method="Nelder-Mead",
                          options={"xatol": 1e-5, "fatol": 1e-10,
                                   "maxiter": 2000})
    (dm_hat, z_hat), c2_min = (float(v) for v in r.x), float(r.fun)
    lo, hi = zeta_interval(spectrum, C, PRED, c2_min)
    return dm_hat, z_hat, 0.5 * (hi - lo), c2_min


def test_zeta_fit_as_nelder_mead(spectrum):
    fit = fit_zeta(spectrum, C, PRED)
    dm_hat, z_hat, err, c2_min = nelder_mead_zeta_fit(spectrum)
    assert fit.theta_hat == pytest.approx(z_hat, abs=2e-5)
    assert fit.extra["dm"] == pytest.approx(dm_hat, abs=2e-5)
    assert fit.chi2 == pytest.approx(c2_min, abs=1e-6)
    assert fit.theta_err == pytest.approx(err, abs=1e-8)
    # each spectrum's dm stretch lies inside DM_SEARCH, and each interval
    # is far from the 20 % asymmetry that is flagged
    assert fit.flags == []
    # zeta is the minimum of the parabola at the fitted dm
    dm, z = fit.extra["dm"], fit.theta_hat
    at_min = chi2(spectrum, "DECOHERED", dm, C, PRED, z)
    assert at_min == fit.chi2
    for step in (-1e-3, 1e-3):
        assert chi2(spectrum, "DECOHERED", dm, C, PRED, z + step) > at_min


def _use_scipy(monkeypatch):
    """Drive fitkit by scipy's own routines."""
    monkeypatch.setattr(fitkit, "minimize_bounded", scipy_bounded)
    monkeypatch.setattr(fitkit, "brentq", optimize.brentq)


def _summary(fit):
    return (fit.theta_hat, fit.theta_err, fit.chi2, fit.dof,
            fit.residuals.tobytes(), fit.flags, fit.extra)


def test_fits_as_with_scipy(spectrum, monkeypatch):
    def fits():
        return ([_summary(fit_model(spectrum, m, C, PRED))
                 for m in ("QM", "SD", "PS")]
                + [_summary(fit_zeta(spectrum, C, PRED))])

    ours = fits()
    _use_scipy(monkeypatch)
    assert ours == fits()


def test_reproduce_fixture_as_with_scipy(monkeypatch):
    ours = reproduce_fixture()
    _use_scipy(monkeypatch)
    theirs = reproduce_fixture()
    assert ours[1] == theirs[1]
    assert ({m: _summary(f) for m, f in ours[0].items()}
            == {m: _summary(f) for m, f in theirs[0].items()})
