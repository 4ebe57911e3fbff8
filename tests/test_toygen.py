"""Toy generator tests: determinism, closure against the model curves,
detector effects, and background injection."""

import numpy as np
import pytest

from flavourasym.analysis import Binning, asymmetry, bin_events
from flavourasym.fitkit import BinPredictor
from flavourasym.models import ModelParams
from flavourasym.toygen import (BETA_GAMMA, C_UM_PER_PS, CATEGORY_CODE,
                                CLASS_NAMES, CLS_OF, EVENT_DTYPE,
                                BackgroundConfig, BackgroundShape,
                                CategoryYield, DetectorConfig, EventCategory,
                                GenModel, apply_detector, generate_ensemble,
                                inject_backgrounds, make_signal_events,
                                read_events, sample_pair, stream_rng,
                                write_events)

P = ModelParams()
NO_SMEAR = DetectorConfig(resolution_sigma=0.0, extra_smear_sigma=0.0,
                          mistag_fraction=0.0)


class TestDeterminism:
    def test_same_seed_identical_files(self, tmp_path, assert_same_lines):
        b = BackgroundConfig.paper_scale()
        for name in ("a", "b"):
            ev = generate_ensemble(GenModel.QM, P, DetectorConfig(), b,
                                   2000, master_seed=42)
            write_events(ev, tmp_path / name)
        assert_same_lines((tmp_path / "a").read_bytes(),
                          (tmp_path / "b").read_bytes())

    def test_different_seed_differs(self):
        ev1 = generate_ensemble(GenModel.QM, P, DetectorConfig(),
                                BackgroundConfig(), 500, master_seed=1)
        ev2 = generate_ensemble(GenModel.QM, P, DetectorConfig(),
                                BackgroundConfig(), 500, master_seed=2)
        assert not np.array_equal(ev1["t1_ps"], ev2["t1_ps"])

    def test_background_config_does_not_move_signal(self):
        ev_nobkg = generate_ensemble(GenModel.QM, P, DetectorConfig(),
                                     BackgroundConfig(), 500, master_seed=5)
        ev_bkg = generate_ensemble(GenModel.QM, P, DetectorConfig(),
                                   BackgroundConfig.paper_scale(), 500,
                                   master_seed=5)
        sig = ev_bkg[ev_bkg["category"] == CATEGORY_CODE[EventCategory.SIGNAL]]
        assert len(sig) == 500
        np.testing.assert_array_equal(sig["t1_ps"], ev_nobkg["t1_ps"])
        np.testing.assert_array_equal(sig["cls_assigned"],
                                      ev_nobkg["cls_assigned"])

    def test_stream_rngs_are_independent(self):
        a = stream_rng(7, 0).random(100)
        b = stream_rng(7, 1).random(100)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, stream_rng(7, 0).random(100))


class TestSampling:
    def test_exponential_marginals(self):
        rng = stream_rng(3, 0)
        t1, t2, _ = sample_pair(GenModel.QM, P, rng, size=200000)
        assert t1.mean() == pytest.approx(P.tau, rel=0.02)
        assert t2.mean() == pytest.approx(P.tau, rel=0.02)
        assert np.all(t1 >= 0) and np.all(t2 >= 0)

    def test_qm_closure_against_rates(self):
        # binned truth asymmetry must track the QM rate prediction
        ev = make_signal_events(GenModel.QM, P, 400000, NO_SMEAR,
                                stream_rng(11, 0))
        binning = Binning()
        counts = bin_events(ev, binning, which_dt="true", which_cls="true")
        spec = asymmetry(counts)
        # OF/SF rates are exp(-dt/tau) (1 +- cos(dm dt)), so the per-bin
        # rate ratio is the rate-weighted bin average of cos(dm dt)
        expected = BinPredictor(binning, tau=P.tau).predict("QM", P.dm)
        pulls = (spec.a - expected) / spec.stat_err
        assert np.all(np.abs(pulls) < 4.0)
        assert np.mean(pulls ** 2) < 2.5

    def test_sd_of_fraction_at_small_times(self):
        # SD pairs with both decays immediate are almost always OF
        rng = stream_rng(13, 0)
        t1, t2, is_of = sample_pair(GenModel.SD, P, rng, size=100000)
        early = (t1 < 0.2) & (t2 < 0.2)
        assert is_of[early].mean() > 0.95


class TestDetector:
    def test_zero_smearing_preserves_dt(self):
        ev = make_signal_events(GenModel.QM, P, 1000, NO_SMEAR,
                                stream_rng(1, 0))
        np.testing.assert_allclose(ev["dt_rec_ps"], ev["dt_true_ps"],
                                   atol=1e-12)
        np.testing.assert_array_equal(ev["cls_assigned"], ev["cls_true"])

    def test_apply_detector_fills_in_place(self):
        ev = make_signal_events(GenModel.QM, P, 100, NO_SMEAR,
                                stream_rng(3, 0))
        d = DetectorConfig(mistag_fraction=0.4)
        assert apply_detector(ev, d, stream_rng(3, 1)) is ev
        assert np.any(ev["dt_rec_ps"] != ev["dt_true_ps"])
        assert np.any(ev["cls_assigned"] != ev["cls_true"])

    def test_smearing_width(self):
        d = DetectorConfig()  # 100 and 46 um combine to ~110 um
        assert d.total_sigma == pytest.approx(np.hypot(100.0, 46.0))
        ev = make_signal_events(GenModel.QM, P, 200000, d, stream_rng(2, 0))
        resid = ev["dz_rec_um"] - BETA_GAMMA * C_UM_PER_PS * ev["dt_true_ps"]
        assert resid.std() == pytest.approx(d.total_sigma, rel=0.02)
        # in dt units that is about 0.86 ps
        assert d.total_sigma / (BETA_GAMMA * C_UM_PER_PS) == pytest.approx(
            0.864, abs=0.01)

    def test_smear_keeps_the_draws_of_generator_normal(self):
        # sigma * standard_normal() equals rng.normal(0, sigma) bit for bit,
        # so the smeared record keeps its values and the event files theirs
        d = DetectorConfig()
        ev = make_signal_events(GenModel.QM, P, 10000, d, stream_rng(4, 0))
        rng = stream_rng(4, 0)
        t1, t2, _ = sample_pair(GenModel.QM, P, rng, 10000)
        dz = (BETA_GAMMA * C_UM_PER_PS * np.abs(t1 - t2)
              + rng.normal(0.0, d.total_sigma, 10000))
        np.testing.assert_array_equal(ev["dz_rec_um"], dz)
        np.testing.assert_array_equal(
            ev["dt_rec_ps"], np.abs(dz) / (BETA_GAMMA * C_UM_PER_PS))

    def test_folding_non_negative(self):
        ev = make_signal_events(GenModel.QM, P, 50000, DetectorConfig(),
                                stream_rng(8, 0))
        assert np.all(ev["dt_rec_ps"] >= 0)

    def test_mistag_dilution(self):
        w = 0.1
        d = DetectorConfig(resolution_sigma=0.0, extra_smear_sigma=0.0,
                           mistag_fraction=w)
        ev = make_signal_events(GenModel.QM, P, 400000, d, stream_rng(21, 0))
        counts_true = bin_events(ev, Binning(), which_dt="true",
                                 which_cls="true")
        counts_tag = bin_events(ev, Binning(), which_dt="true",
                                which_cls="assigned")
        a_true = asymmetry(counts_true)
        a_tag = asymmetry(counts_tag)
        # average dilution over the well-populated bins
        sel = slice(0, 8)
        ratio = a_tag.a[sel] / a_true.a[sel]
        assert np.average(ratio) == pytest.approx(1.0 - 2.0 * w, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(resolution_sigma=-1.0)
        with pytest.raises(ValueError):
            DetectorConfig(mistag_fraction=0.6)


class TestBackgrounds:
    def test_fixed_counts_exact(self):
        b = BackgroundConfig(yields={
            EventCategory.WRONG_COMBINATION: CategoryYield(78.0, 237.0),
        }, fixed_counts=True)
        sig = make_signal_events(GenModel.QM, P, 100, DetectorConfig(),
                                 stream_rng(1, 0))
        ev = inject_backgrounds(sig, b, DetectorConfig(), stream_rng(1, 1))
        n = np.sum(ev["category"]
                   == CATEGORY_CODE[EventCategory.WRONG_COMBINATION])
        assert n == 315
        assert len(ev) == 100 + 315

    def test_poisson_counts_scale(self):
        b = BackgroundConfig.paper_scale()
        sig = make_signal_events(GenModel.QM, P, 10, DetectorConfig(),
                                 stream_rng(2, 0))
        signal = CATEGORY_CODE[EventCategory.SIGNAL]
        totals = []
        for k in range(1, 30):
            cat = inject_backgrounds(sig, b, DetectorConfig(),
                                     stream_rng(2, k))["category"]
            assert np.sum(cat == signal) == len(sig)
            totals.append(np.sum(cat != signal))
        assert np.mean(totals) == pytest.approx(b.total(), rel=0.05)

    def test_empty_config_is_noop(self):
        sig = make_signal_events(GenModel.QM, P, 50, DetectorConfig(),
                                 stream_rng(9, 0))
        out = inject_backgrounds(sig, BackgroundConfig(), DetectorConfig(),
                                 stream_rng(9, 1))
        assert out is sig

    def test_shape_fractions_normalize(self):
        edges = Binning().array
        for shape in (BackgroundShape("exp", 1.53), BackgroundShape("flat")):
            assert shape.bin_fractions(edges).sum() == pytest.approx(
                1.0, abs=1e-12)

    def test_exp_shape_mean(self):
        shape = BackgroundShape("exp", 1.53)
        dt = shape.sample(200000, stream_rng(4, 0))
        assert np.all((dt >= 0) & (dt <= 20))
        # truncated-exponential mean, slightly below tau
        expected = 1.53 - 20.0 * np.exp(-20.0 / 1.53) / (
            1.0 - np.exp(-20.0 / 1.53))
        assert dt.mean() == pytest.approx(expected, rel=0.02)

    def test_background_never_retagged(self):
        b = BackgroundConfig(yields={
            EventCategory.DSS_CHARGED: CategoryYield(1000.0, 0.0),
        }, fixed_counts=True)
        sig = make_signal_events(GenModel.QM, P, 10, DetectorConfig(),
                                 stream_rng(5, 0))
        ev = inject_backgrounds(sig, b, DetectorConfig(mistag_fraction=0.4),
                                stream_rng(5, 1))
        bkg = ev[ev["category"] == CATEGORY_CODE[EventCategory.DSS_CHARGED]]
        assert len(bkg) == 1000
        np.testing.assert_array_equal(bkg["cls_assigned"], bkg["cls_true"])
        assert set(bkg["cls_true"].tolist()) == {CLS_OF}


class TestEnvelope:
    def test_ps_boundary_models_generate(self):
        for model in (GenModel.PS_BOUNDARY_MAX, GenModel.PS_BOUNDARY_MIN):
            t1, t2, is_of = sample_pair(model, P, stream_rng(6, 0), 10000)
            assert 0.0 < is_of.mean() < 1.0

    def test_decohered_interpolates(self):
        p = ModelParams(zeta=0.5)
        t1, t2, is_of = sample_pair(GenModel.DECOHERED, p, stream_rng(7, 0),
                                    200000)
        # OF fraction lies between the pure-model values
        of_qm = sample_pair(GenModel.QM, P, stream_rng(7, 1), 200000)[2].mean()
        of_sd = sample_pair(GenModel.SD, P, stream_rng(7, 2), 200000)[2].mean()
        lo, hi = sorted((of_qm, of_sd))
        assert lo - 0.01 <= is_of.mean() <= hi + 0.01


class TestEventIO:
    def test_round_trip(self, tmp_path):
        ev = generate_ensemble(GenModel.SD, P, DetectorConfig(),
                               BackgroundConfig.paper_scale(), 300,
                               master_seed=12)
        path = tmp_path / "events.csv"
        write_events(ev, path)
        back = read_events(path)
        assert len(back) == len(ev)
        for col in ("cls_true", "cls_assigned", "category"):
            np.testing.assert_array_equal(back[col], ev[col])
        for col in ("t1_ps", "t2_ps", "dt_true_ps", "dz_rec_um", "dt_rec_ps"):
            np.testing.assert_allclose(back[col], ev[col], rtol=1e-8)

    def test_bytes_match_row_by_row_formatting(self, tmp_path,
                                               assert_same_lines):
        # reference: the row-by-row loop the chunked column writer replaced,
        # with the in-memory codes mapped to the names the file carries
        ev = generate_ensemble(GenModel.QM, P, DetectorConfig(),
                               BackgroundConfig.paper_scale(), 9000,
                               master_seed=13)
        names = {"cls_true": CLASS_NAMES, "cls_assigned": CLASS_NAMES,
                 "category": [c.value for c in EventCategory]}
        fmt = {"f": "%.9g", "i": "%d"}
        cols = ev.dtype.names

        def cell(row, c):
            if c in names:
                return names[c][row[c]]
            return fmt[ev.dtype[c].kind] % row[c]

        ref = ",".join(cols) + "\n" + "".join(
            ",".join(cell(row, c) for c in cols) + "\n" for row in ev)
        path = tmp_path / "events.csv"
        write_events(ev, path)
        assert_same_lines(path.read_text(), ref)
        assert "wrong_combination" in ref and ",SF," in ref

    def test_record_has_no_string_fields(self):
        # numpy compares an integer field with a str elementwise and warns
        # nothing (codes != "signal" is all True), so a string field left
        # in the record would let such a test pass silently
        kinds = {EVENT_DTYPE[c].kind for c in EVENT_DTYPE.names}
        assert not kinds & {"U", "S", "O"}
        assert EVENT_DTYPE.itemsize <= 51
        assert CATEGORY_CODE[EventCategory.SIGNAL] == 0
        assert CLASS_NAMES[CLS_OF] == "OF"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValueError):
            read_events(path)
