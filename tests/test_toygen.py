"""Toy generator tests: determinism, closure against the model curves,
detector effects, and background injection."""

import contextlib
import hashlib
import io
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import one_shot_sample_pair, ps_sample_pair, signal_record

from flavourasym import toygen
from flavourasym._table import (CHUNK_ROWS, _fmt, _number_cells,
                                code_field, read_table, write_table)
from flavourasym.analysis import (AsymmetrySpectrum, BinnedCounts, Binning,
                                  asymmetry, bin_events, read_counts,
                                  read_spectrum, write_counts, write_spectrum)
from flavourasym.cli import EXIT_OK, main
from flavourasym.config import load_config
from flavourasym.fitkit import BinPredictor
from flavourasym.models import ModelParams, curve_rows
from flavourasym.toygen import (_BLOCK, BETA_GAMMA, C_UM_PER_PS,
                                CATEGORY_CODE, CLASS_NAMES, CLS_OF,
                                EVENT_DTYPE, BackgroundConfig, BackgroundShape,
                                CategoryYield, DetectorConfig, EventCategory,
                                GenModel, generate_ensemble,
                                make_signal_events, _joint_asymmetry,
                                read_events, sample_pair, stream_rng,
                                write_events)
from flavourasym.unfold import ResponseMatrix, read_response, write_response

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


# sha256 of the full event records and of their file, pinned so that the
# generator keeps its draws and the file its bytes
PINNED_EVENTS = {
    "qm_paper_scale": (
        GenModel.QM, P, BackgroundConfig.paper_scale(), 11, 3749,
        "220ced03bfd1884783a2b8a43a48dada386b559339550e3507f567b244bf009c",
        "317c48397c88d06eb4d550f295a6f61023db1798ad9acb9ab5c55440040244d5"),
    "decohered_fixed_counts": (
        GenModel.DECOHERED, ModelParams(zeta=0.3),
        replace(BackgroundConfig.paper_scale(), fixed_counts=True), 12, 3751,
        "0b6540336d4f4e66496abf07b9be48dd88dc90c13d55a05584ad9edcda59d3cb",
        "5afbba2ae4da1531bafca16c8ae5178843bdd5323bb4e3965b24bb1042c68e45"),
}


# sha256 of the files downstream of the console-script smoke chain's
# events (init-config --seed 3, 20 000 events): they come from elementwise
# and integer arithmetic only, so a slip in the class axis or the binning
# changes them
PINNED_CHAIN = {
    "spectrum.csv":
        "21bf51789b56c4a401373b3356106dc3a40433a2229888ed70457dbb9d394acd",
    "spectrum.counts.csv":
        "7ec6eb74f84bdf6102757385c05d06e5aad7080f3bac516fbb785a210adfb4c6",
    "unfolded.resp_of.csv":
        "bcee6d16799f8979504f08cc9394728506e8e761ece8b579b87f738787ac51a8",
    "unfolded.resp_sf.csv":
        "4272ffab190e00f65468a3ae4b55cb96c9435e8dc66c0f29628a8853d4ea9efa",
}


def _sub_dtype(*names):
    return np.dtype([(n, EVENT_DTYPE[n]) for n in names])


class TestRecordFields:
    @pytest.mark.parametrize("case", list(PINNED_EVENTS))
    def test_full_records_keep_their_bytes(self, tmp_path, case):
        model, p, b, seed, n, records, file = PINNED_EVENTS[case]
        ev = generate_ensemble(model, p, DetectorConfig(), b, 3000,
                               master_seed=seed)
        write_events(ev, tmp_path / "events.csv")
        assert len(ev) == n
        assert hashlib.sha256(ev.tobytes()).hexdigest() == records
        assert hashlib.sha256(
            (tmp_path / "events.csv").read_bytes()).hexdigest() == file

    def test_smoke_chain_files_keep_their_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        path = lambda name: str(tmp_path / name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["init-config", "--out", str(cfg),
                         "--seed", "3"]) == EXIT_OK
            text = cfg.read_text()
            assert "n_signal = 7815\n" in text
            cfg.write_text(text.replace("n_signal = 7815\n",
                                        "n_signal = 20000\n"))
            for args in (["generate", "--out", path("events.csv")],
                         ["analyze", path("events.csv"),
                          "--out", path("spectrum.csv")],
                         ["unfold", path("spectrum.counts.csv"),
                          "--out", path("unfolded.csv")]):
                assert main(args + ["--config", str(cfg)]) == EXIT_OK
        assert {name: hashlib.sha256((tmp_path / name).read_bytes())
                .hexdigest() for name in PINNED_CHAIN} == PINNED_CHAIN

    @pytest.mark.parametrize("case", list(PINNED_EVENTS))
    @pytest.mark.parametrize("names", [
        ("dt_rec_ps", "cls_assigned"), ("cls_assigned", "dt_rec_ps"),
        ("index", "category", "stream"), EVENT_DTYPE.names[::-1]])
    def test_field_subset_holds_the_full_records_values(self, case, names):
        model, p, b, seed, *_ = PINNED_EVENTS[case]
        full = generate_ensemble(model, p, DetectorConfig(), b, 3000,
                                 master_seed=seed)
        dtype = _sub_dtype(*names)
        ev = generate_ensemble(model, p, DetectorConfig(), b, 3000,
                               master_seed=seed, dtype=dtype)
        assert ev.dtype == dtype and ev.dtype.itemsize == dtype.itemsize
        for name in names:
            assert ev[name].tobytes() == full[name].tobytes()

    @pytest.mark.parametrize("dtype", [EVENT_DTYPE,
                                       _sub_dtype("dt_rec_ps", "cls_assigned")])
    @pytest.mark.parametrize("models", [
        (GenModel.SD,), (GenModel.PS_BOUNDARY_MIN, GenModel.QM, GenModel.SD),
        (GenModel.QM, GenModel.PS_BOUNDARY_MAX),
        (GenModel.DECOHERED, GenModel.SD, GenModel.PS_BOUNDARY_MIN,
         GenModel.QM)], ids=len)
    def test_model_columns_hold_each_model_alone(self, models, dtype):
        """A tuple of models gives one column of records per model, each
        the records of that model generated alone, bit for bit."""
        b, p = BackgroundConfig.paper_scale(), ModelParams(zeta=0.3)
        ev = generate_ensemble(models, p, DetectorConfig(), b, 3000,
                               master_seed=11, dtype=dtype)
        assert ev.dtype == dtype and ev.shape[1] == len(models)
        for model, column in zip(models, ev.T):
            alone = generate_ensemble(model, p, DetectorConfig(), b, 3000,
                                      master_seed=11, dtype=dtype)
            assert column.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("dtype", [EVENT_DTYPE,
                                       _sub_dtype("dt_rec_ps", "cls_assigned")])
    @pytest.mark.parametrize("zeta, pure", [(0.0, GenModel.QM),
                                            (1.0, GenModel.SD)])
    def test_decohered_at_the_ends_is_the_pure_model(self, tmp_path, zeta,
                                                     pure, dtype):
        """DECOHERED at zeta = 0 gives QM's records and event file, at
        zeta = 1 SD's, byte for byte: (1 - zeta) A_QM + zeta A_SD is then
        one of its terms exactly."""
        b, p = BackgroundConfig.paper_scale(), ModelParams(zeta=zeta)
        ev = {m: generate_ensemble(m, p, DetectorConfig(), b, 3000,
                                   master_seed=12, dtype=dtype)
              for m in (GenModel.DECOHERED, pure)}
        assert ev[GenModel.DECOHERED].tobytes() == ev[pure].tobytes()
        if dtype == EVENT_DTYPE:
            for m, e in ev.items():
                write_events(e, tmp_path / f"{m.value}.csv")
            assert ((tmp_path / "DECOHERED.csv").read_bytes()
                    == (tmp_path / f"{pure.value}.csv").read_bytes())

    @pytest.mark.parametrize("dtype", [
        _sub_dtype("dt_rec_ps").descr + [("weight", "f8")],
        [("dt_rec_ps", "f4")],
        [("cls_assigned", "i1")],     # a code column without its names
        "f8"])
    def test_other_fields_refused(self, dtype):
        with pytest.raises(ValueError, match="fields of EVENT_DTYPE"):
            generate_ensemble(GenModel.QM, P, DetectorConfig(),
                              BackgroundConfig(), 10, master_seed=1,
                              dtype=dtype)


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
        counts = bin_events(ev["dt_true_ps"], ev["cls_true"], binning)
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

    def test_no_normals_drawn_at_zero_sigma(self):
        # the mistag uniforms follow the pairs' draws directly
        d = DetectorConfig(resolution_sigma=0.0, extra_smear_sigma=0.0,
                           mistag_fraction=0.2)
        ev = make_signal_events(GenModel.QM, P, 1000, d, stream_rng(3, 0))
        rng = stream_rng(3, 0)
        *_, is_of = sample_pair(GenModel.QM, P, rng, 1000)
        np.testing.assert_array_equal(
            ev["cls_assigned"], ~is_of ^ (rng.random(1000) < 0.2))

    def test_folding_non_negative(self):
        ev = make_signal_events(GenModel.QM, P, 50000, DetectorConfig(),
                                stream_rng(8, 0))
        assert np.all(ev["dt_rec_ps"] >= 0)

    def test_mistag_dilution(self):
        w = 0.1
        d = DetectorConfig(resolution_sigma=0.0, extra_smear_sigma=0.0,
                           mistag_fraction=w)
        ev = make_signal_events(GenModel.QM, P, 400000, d, stream_rng(21, 0))
        counts_true = bin_events(ev["dt_true_ps"], ev["cls_true"], Binning())
        counts_tag = bin_events(ev["dt_true_ps"], ev["cls_assigned"],
                                Binning())
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
        for seed in (1, 2):
            ev = generate_ensemble(GenModel.QM, P, DetectorConfig(), b, 100,
                                   master_seed=seed)
            n = np.sum(ev["category"]
                       == CATEGORY_CODE[EventCategory.WRONG_COMBINATION])
            assert n == 315
            assert len(ev) == 100 + 315
            # indexed on from the signal, in the background stream
            np.testing.assert_array_equal(ev["index"], np.arange(415))
            np.testing.assert_array_equal(ev["stream"][100:], 1)

    def test_poisson_counts_scale(self):
        b = BackgroundConfig.paper_scale()
        signal = CATEGORY_CODE[EventCategory.SIGNAL]
        totals = []
        for k in range(1, 30):
            cat = generate_ensemble(GenModel.QM, P, DetectorConfig(), b, 10,
                                    master_seed=k)["category"]
            assert np.sum(cat == signal) == 10
            totals.append(np.sum(cat != signal))
        assert np.mean(totals) == pytest.approx(
            sum(y.n_of + y.n_sf for y in b.yields.values()), rel=0.05)

    @pytest.mark.parametrize("sigma", [0.0, 100.0])
    def test_background_draw_sequence(self, sigma):
        # per category: the dt shape, the class uniforms, the normals (none
        # at sigma 0), then the mistag uniforms, drawn although w is 0
        b = BackgroundConfig(yields={
            EventCategory.DSTAR_FAKE: CategoryYield(30.0, 20.0),
            EventCategory.DSS_CHARGED: CategoryYield(10.0, 40.0),
        }, fixed_counts=True)
        d = DetectorConfig(resolution_sigma=sigma, extra_smear_sigma=0.0)
        ev = generate_ensemble(GenModel.QM, P, d, b, 0, master_seed=4)
        rng = stream_rng(4, 1)
        for cat, y in b.yields.items():
            got = ev[ev["category"] == CATEGORY_CODE[cat]]
            np.testing.assert_array_equal(got["dt_true_ps"],
                                          y.shape.sample(50, rng))
            np.testing.assert_array_equal(
                got["cls_true"], rng.random(50) >= y.n_of / 50)
            if sigma > 0:
                rng.standard_normal(50)
            rng.random(50)
            np.testing.assert_array_equal(got["cls_assigned"],
                                          got["cls_true"])

    def test_empty_config_is_noop(self):
        # no background configured, or none left after rounding: the
        # events are the signal sample alone
        sig = make_signal_events(GenModel.QM, P, 50, DetectorConfig(),
                                 stream_rng(9, 0))
        for b in (BackgroundConfig(), BackgroundConfig(yields={
                EventCategory.DSTAR_FAKE: CategoryYield(0.2, 0.2)},
                fixed_counts=True)):
            out = generate_ensemble(GenModel.QM, P, DetectorConfig(), b, 50,
                                    master_seed=9)
            assert out.tobytes() == sig.tobytes()

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
        ev = generate_ensemble(GenModel.QM, P,
                               DetectorConfig(mistag_fraction=0.4), b, 10,
                               master_seed=5)
        bkg = ev[ev["category"] == CATEGORY_CODE[EventCategory.DSS_CHARGED]]
        assert len(bkg) == 1000
        np.testing.assert_array_equal(bkg["cls_assigned"], bkg["cls_true"])
        assert set(bkg["cls_true"].tolist()) == {CLS_OF}


class TestEnvelope:
    def test_nan_asymmetry_is_refused(self, monkeypatch):
        # a NaN fails the envelope check instead of making every pair SF
        monkeypatch.setattr(toygen, "_joint_asymmetry",
                            lambda *args: np.full(len(args[1]), np.nan))
        with pytest.raises(ArithmeticError, match="envelope"):
            sample_pair(GenModel.QM, P, stream_rng(6, 0), 100)

    def test_ps_boundary_models_generate(self):
        for model in (GenModel.PS_BOUNDARY_MAX, GenModel.PS_BOUNDARY_MIN):
            *_, is_of = sample_pair(model, P, stream_rng(6, 0), 10000)
            assert 0.0 < is_of.mean() < 1.0

    def test_ps_draws_match_per_edge_formulas(self):
        # the shared edge formula gives the per-edge formulas' asymmetries
        # and so the same draws, to the bit
        for model in (GenModel.PS_BOUNDARY_MAX, GenModel.PS_BOUNDARY_MIN):
            upper = model is GenModel.PS_BOUNDARY_MAX
            got = sample_pair(model, P, stream_rng(6, 0), 100000)
            t1, t2, is_of, a = ps_sample_pair(upper, P, stream_rng(6, 0),
                                              100000)
            for g, w in zip(got, (t1, t2, is_of)):
                np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(
                _joint_asymmetry(model, t1, t2, np.abs(t1 - t2), P), a)

    def test_decohered_interpolates(self):
        p = ModelParams(zeta=0.5)
        *_, is_of = sample_pair(GenModel.DECOHERED, p, stream_rng(7, 0),
                                200000)
        # OF fraction lies between the pure-model values
        of_qm = sample_pair(GenModel.QM, P, stream_rng(7, 1), 200000)[2].mean()
        of_sd = sample_pair(GenModel.SD, P, stream_rng(7, 2), 200000)[2].mean()
        lo, hi = sorted((of_qm, of_sd))
        assert lo - 0.01 <= is_of.mean() <= hi + 0.01

    def test_decohered_closure_against_the_mixture(self):
        # the binned truth asymmetry of DECOHERED pairs tracks the bin
        # averages of (1 - zeta) QM + zeta SD: 5 seeds x 11 bins, 55 dof
        p, binning = ModelParams(zeta=0.3), Binning()
        expected = BinPredictor(binning, tau=p.tau).predict(
            "DECOHERED", p.dm, p.zeta)
        total = 0.0
        for seed in range(1, 6):
            t1, t2, is_of = sample_pair(GenModel.DECOHERED, p,
                                        stream_rng(seed, 0), 10 ** 6)
            spec = asymmetry(bin_events(np.abs(t1 - t2),
                                        (~is_of).view(np.int8), binning))
            total += np.sum(((spec.a - expected) / spec.stat_err) ** 2)
        assert total < 90.0


# every generation model: they all share one draw sequence
SHARED_MODELS = tuple(GenModel)


class TestBlocks:
    """The block loops of `_draw_pairs` keep the one-shot draw order: all
    of t1, all of t2, then the class uniforms, with the times kept or, for
    QM, with t2 folded into dt block by block."""

    @pytest.mark.parametrize("model", list(GenModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      2 * _BLOCK + 3])
    def test_sample_pair_matches_one_shot_draws(self, model, size):
        p = ModelParams(zeta=0.3)
        rng, ref_rng = stream_rng(8, 0), stream_rng(8, 0)
        t1, t2, is_of = sample_pair(model, p, rng, size)
        r1, r2, _, r_of = one_shot_sample_pair(model, p, ref_rng, size)
        for got, want in ((t1, r1), (t2, r2), (is_of, r_of)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        # and the stream is left where the one-shot draws leave it
        np.testing.assert_array_equal(rng.random(3), ref_rng.random(3))

    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      2 * _BLOCK + 3])
    def test_dt_only_draws_match_one_shot_draws(self, size):
        rng, ref_rng = stream_rng(8, 0), stream_rng(8, 0)
        t1, t2, dt, (is_of,) = toygen._draw_pairs((GenModel.QM,), P, rng,
                                                  size, times=False)
        _, _, r_dt, r_of = one_shot_sample_pair(GenModel.QM, P, ref_rng,
                                                size)
        assert t1 is None and t2 is None
        for got, want in ((dt, r_dt), (is_of, r_of)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rng.random(3), ref_rng.random(3))

    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      2 * _BLOCK + 3])
    def test_shared_draws_match_each_model_alone(self, size):
        """Several models draw one sequence; each row of classes is that
        model's alone, and the stream ends where one model's draws end.
        The times are drawn whole, as the models but QM read them, even
        when the caller keeps none."""
        rng = stream_rng(8, 0)
        t1, t2, dt, is_of = toygen._draw_pairs(SHARED_MODELS, P, rng, size,
                                               times=False)
        assert is_of.shape == (len(SHARED_MODELS), size)
        for model, row in zip(SHARED_MODELS, is_of):
            ref_rng = stream_rng(8, 0)
            r1, r2, r_dt, r_of = one_shot_sample_pair(model, P, ref_rng, size)
            for got, want in ((t1, r1), (t2, r2), (dt, r_dt), (row, r_of)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rng.random(3), ref_rng.random(3))

    @pytest.mark.parametrize("size", [1, _BLOCK, 2 * _BLOCK + 3])
    def test_response_sample_is_views_of_the_one_shot_dt(self, size):
        # with no smearing no normals are drawn: the blocks are the pairs
        rng, ref_rng = stream_rng(8, 0), stream_rng(8, 0)
        blocks = list(toygen.response_sample(GenModel.QM, P, size, [0.0],
                                             rng))
        _, _, r_dt, r_of = one_shot_sample_pair(GenModel.QM, P, ref_rng,
                                                size)
        dts, classes, _ = zip(*blocks)
        assert all(b.base is dts[0].base for b in dts)
        np.testing.assert_array_equal(np.concatenate(dts), r_dt)
        np.testing.assert_array_equal(np.concatenate(classes),
                                      (~r_of).view(np.int8))
        np.testing.assert_array_equal(rng.random(3), ref_rng.random(3))

    @pytest.mark.parametrize("model", list(GenModel), ids=lambda m: m.value)
    def test_signal_events_match_one_shot_record(self, model):
        p, n = ModelParams(zeta=0.3), 2 * _BLOCK + 3
        got = make_signal_events(model, p, n, DetectorConfig(),
                                 stream_rng(9, 0))
        want = signal_record(model, p, n, DetectorConfig(), stream_rng(9, 0))
        assert got.tobytes() == want.tobytes()


FILE_FORMATS = ["events", "spectrum", "counts", "response", "curves"]


def _cell_by_cell(header, rows, preamble=()):
    """File text from already formatted cells, one line per row."""
    lines = [*preamble] + ([",".join(header)] if header else [])
    return "".join(line + "\n" for line in
                   lines + [",".join(cells) for cells in rows])


def _format_case(kind):
    """(write a file, read it, write what was read, reference text) for
    one file format, on values that need all 9 printed digits."""
    rng = np.random.default_rng(13)
    binning = Binning((0.0, 0.3, 1.7, 4.123456789, 9.87654321, 20.0))
    edges, nb = binning.array, binning.n_bins

    def numbers(n=nb):
        return rng.uniform(0.1, 1.0, n) * 10.0 ** rng.integers(-6, 6, n)

    def bin_cells(i, *values):
        return ["%d" % (i + 1), "%.9g" % edges[i], "%.9g" % edges[i + 1],
                *("%.9g" % v for v in values)]

    if kind == "events":
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

        ref = _cell_by_cell(cols, ([cell(row, c) for c in cols]
                                   for row in ev))
        return (partial(write_events, ev), read_events, write_events, ref)
    if kind == "spectrum":
        s = AsymmetrySpectrum(binning, numbers() - 0.5, numbers(),
                              {"wrong_tags": numbers(),
                               "deconvolution": numbers()})
        ref = _cell_by_cell(
            ["bin", "lo_ps", "hi_ps", "a", "stat", "syst_total",
             "deconvolution", "wrong_tags"],
            (bin_cells(i, s.a[i], s.stat_err[i], s.syst_err[i],
                       s.syst_breakdown["deconvolution"][i],
                       s.syst_breakdown["wrong_tags"][i]) for i in range(nb)))
        return (partial(write_spectrum, s), read_spectrum, write_spectrum,
                ref)
    if kind == "counts":
        c = BinnedCounts(binning, [numbers(), numbers()],
                         [numbers(), numbers()])
        ref = _cell_by_cell(
            ["bin", "lo_ps", "hi_ps", "n_of", "var_of", "n_sf", "var_sf"],
            (bin_cells(i, c.n[0, i], c.var[0, i], c.n[1, i], c.var[1, i])
             for i in range(nb)))
        return (partial(write_counts, c), read_counts, write_counts, ref)
    if kind == "response":
        m = rng.uniform(0.2, 1.0, (nb, nb)) * 1000.0 + np.diag(numbers())
        r = ResponseMatrix(binning, m, m.sum(axis=0) / 0.7, cls="SF")
        # the binning digest is that of the edges as the file records them
        recorded = ["%.9g" % e for e in edges]
        digest = hashlib.sha256(np.array(recorded, float).tobytes())
        preamble = [f"# class=SF binning={digest.hexdigest()[:12]} edges="
                    + ",".join(recorded),
                    "# truth_totals=" + ",".join("%.9g" % t
                                                 for t in r.truth_totals)]
        ref = _cell_by_cell(None, (["%.9g" % v for v in row] for row in m),
                            preamble)
        return (partial(write_response, r), read_response, write_response,
                ref)
    # curves: the command writes the file, the table layer reads it back
    header = ["dt", "A_QM", "A_SD", "PS_min", "PS_max"]
    rows = curve_rows(np.arange(0.0, 20.0 + 0.5 * 0.05, 0.05), P)
    ref = _cell_by_cell(header, (["%.9g" % v for v in row] for row in rows))

    def write(path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["curves", "--step", "0.05",
                         "--out", str(path)]) == EXIT_OK

    return (write, lambda path: read_table(path, [(n, "f8")
                                                  for n in header])[1],
            lambda rows, path: write_table(path, rows), ref)


class TestEventIO:
    def test_round_trip(self, tmp_path):
        # the file `generate` writes, read back, against the records it is
        # written from: codes and integers exact, the %.9g time columns
        # within half a unit of their 9th digit
        cfg, path = tmp_path / "run.cfg", tmp_path / "events.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["init-config", "--out", str(cfg),
                         "--seed", "4"]) == EXIT_OK
            assert main(["generate", "--config", str(cfg),
                         "--out", str(path)]) == EXIT_OK
        run = load_config(cfg)
        c = run.pipeline
        ev = generate_ensemble(run.model, c.params, c.detector, c.backgrounds,
                               c.n_signal, master_seed=c.seed)
        back = read_events(path)
        assert back.dtype == ev.dtype and len(back) == len(ev)
        for col in ("cls_true", "cls_assigned", "category", "stream",
                    "index"):
            np.testing.assert_array_equal(back[col], ev[col])
        for col, tol in [("t1_ps", 5e-8), ("t2_ps", 5e-8),
                         ("dt_true_ps", 5e-8), ("dt_rec_ps", 5e-8),
                         ("dz_rec_um", 5e-6)]:
            assert np.abs(back[col] - ev[col]).max() <= tol, col

    @pytest.mark.parametrize("kind", FILE_FORMATS)
    def test_bytes_match_row_by_row_formatting(self, tmp_path, kind,
                                               assert_same_lines):
        # reference: the row-by-row loop the chunked writer replaced, one
        # `%` per cell, with the in-memory codes mapped to the names the
        # file carries; then read -> write gives the same bytes again
        write, read, rewrite, ref = _format_case(kind)
        path, again = tmp_path / "first.csv", tmp_path / "again.csv"
        write(path)
        assert_same_lines(path.read_text(), ref)
        rewrite(read(path), again)
        assert_same_lines(again.read_bytes(), path.read_bytes())
        if kind == "events":
            assert "wrong_combination" in ref and ",SF," in ref

    def test_write_peak_memory(self, tmp_path):
        """A chunk's number columns are formatted in one call of at most
        CHUNK_ROWS cells, so the writer's temporaries do not grow with the
        columns: about 15 B per event, below the reader's 140 B. A call of
        every number column of CHUNK_ROWS rows would hold about 7 times
        the cells. tracemalloc counts numpy's buffers, so the bound holds
        on any machine."""
        ev = generate_ensemble(GenModel.QM, P, DetectorConfig(),
                               BackgroundConfig.paper_scale(), 100_000,
                               master_seed=5)
        tracemalloc.start()
        try:
            write_events(ev, tmp_path / "events.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(ev) < 48.0

    @staticmethod
    def _edited(tmp_path, column, value, row=2):
        """An events file whose data row `row` (from 1) has `value` in
        `column` (None appends one more field to the row)."""
        path = tmp_path / "events.csv"
        write_events(generate_ensemble(GenModel.QM, P, DetectorConfig(),
                                       BackgroundConfig(), 5,
                                       master_seed=3), path)
        lines = path.read_text().splitlines()
        fields = lines[row].split(",")
        if column is None:
            fields.append("0")
        else:
            fields[lines[0].split(",").index(column)] = value
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("column", ["stream", "index"])
    @pytest.mark.parametrize("value", ["4294967297", "2147483648"])
    def test_integer_out_of_field_range_rejected(self, tmp_path, column,
                                                 value):
        # 4294967297 used to wrap into int32 and read back as 1
        with pytest.raises(ValueError):
            read_events(self._edited(tmp_path, column, value))

    @pytest.mark.parametrize("row", [1, 2])
    def test_errors_count_data_rows_from_one(self, tmp_path, row):
        # loadtxt counts rows from 0 in a conversion error and from 1 in a
        # wrong-width error; both are reported as the data row from 1
        with pytest.raises(ValueError, match=f"data row {row}, column 10: "
                           "could not convert string '4294967297' to int32"):
            read_events(self._edited(tmp_path, "index", "4294967297", row))
        with pytest.raises(ValueError,
                           match=f"data row {row} has 11 fields, expected 10"):
            read_events(self._edited(tmp_path, None, None, row))

    def test_cut_name_not_shown_as_cell_value(self, tmp_path):
        # cls_true is a 3-character field, so loadtxt reads signalX as sig
        with pytest.raises(ValueError) as e:
            read_events(self._edited(tmp_path, "cls_true", "signalX"))
        assert "column 4: unknown values ['sig...']" in str(e.value)
        assert "may have been cut" in str(e.value)
        with pytest.raises(ValueError) as e:
            read_events(self._edited(tmp_path, "cls_true", "XX"))
        assert str(e.value).endswith("unknown values ['XX']")

    def test_non_latin1_name_refused_with_its_row(self, tmp_path):
        # refused as an unknown name, as a Latin-1 one is, with its row
        path = self._edited(tmp_path, "category", "Δt", row=3)
        with pytest.raises(ValueError) as e:
            read_events(path)
        assert str(e.value) == (
            f"{path}: data row 3, column 8: unknown values ['Δt']")

    @pytest.mark.parametrize("into", [0, 7])      # a row's start, a cell
    def test_undecodable_byte_named_by_row_and_offset(self, tmp_path, into):
        # the decoder counts from the start of the block it read; the
        # message counts data rows from 1, past an empty line, and gives
        # the byte's offset in the file
        path, _ = self._tiled(tmp_path, 12, blank=1)
        data = path.read_bytes()
        # the header, the empty line and data rows 1-4 come before row 5
        at = sum(len(line) + 1 for line in data.split(b"\n")[:6]) + into
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(ValueError) as e:
            read_events(path)
        assert str(e.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in data row 5 "
            f"at file offset {at}: invalid start byte")

    def test_unknown_latin1_name_shown_as_written(self, tmp_path):
        with pytest.raises(ValueError) as e:
            read_events(self._edited(tmp_path, "category", "sïgnal"))
        assert str(e.value).endswith("column 8: unknown values ['sïgnal']")

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

    @staticmethod
    def _tiled(tmp_path, n, blank=0):
        """(an events file of n data rows, the rows of a 5-event file in
        turn, after `blank` empty lines; the 5 events read back)."""
        path = tmp_path / "events.csv"
        write_events(generate_ensemble(GenModel.QM, P, DetectorConfig(),
                                       BackgroundConfig(), 5,
                                       master_seed=3), path)
        five = read_events(path)
        head, *rows = path.read_text().splitlines()
        lines = [head] + [""] * blank + [rows[i % 5] for i in range(n)]
        path.write_text("\n".join(lines) + "\n")
        return path, five

    @pytest.mark.parametrize("n, blank", [
        (CHUNK_ROWS, 0), (CHUNK_ROWS + 1, 0), (2 * CHUNK_ROWS, 0),
        (3, CHUNK_ROWS), (CHUNK_ROWS, 7)])
    def test_read_in_chunks(self, tmp_path, n, blank):
        # files of one and more of the writer's chunks, and files with a
        # chunk's worth of empty lines, are read without a warning
        path, five = self._tiled(tmp_path, n, blank)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_events(path)
        np.testing.assert_array_equal(back, np.resize(five, n))

    @pytest.mark.parametrize("blank", [0, 3])
    def test_errors_count_data_rows_across_chunks(self, tmp_path, blank):
        # empty lines are not data rows, before or past the writer's first
        # chunk
        path, _ = self._tiled(tmp_path, CHUNK_ROWS + 5, blank)
        lines = path.read_text().splitlines()
        row = CHUNK_ROWS + 2
        lines[blank + row] += ",0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"data row {row} has 11 "
                           "fields, expected 10"):
            read_events(path)
        fields = lines[blank + row].split(",")[:-1]
        fields[9] = "4294967297"
        lines[blank + row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"data row {row}, column 10: "):
            read_events(path)

    def test_read_peak_memory(self, tmp_path):
        """The names are parsed as bytes, so the parsed rows (72 B per
        event) and the records (51 B) peak together at about 140 B per
        event, where names parsed as 4-byte characters peak at 212 B.
        tracemalloc counts numpy's buffers, so the bound holds on any
        machine."""
        n = 8 * CHUNK_ROWS
        path, _ = self._tiled(tmp_path, n)
        tracemalloc.start()
        try:
            read_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 150.0

    def test_empty_lines_only_rejected(self, tmp_path):
        path, _ = self._tiled(tmp_path, 0, CHUNK_ROWS + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                read_events(path)


def _texts(cells):
    """The text of each row of NUL-padded cells."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


def _cells(col):
    """The cells the table writer makes of one number column."""
    return _number_cells([col], [_fmt(col)])[0]


_POWERS = [float("1e%d" % k) for k in range(-20, 21)]
EDGE_FLOATS = [
    0.0, 5e-324, 2.2250738585072014e-308, np.finfo(float).max,
    1e-5, 9.999999994e-05, 9.999999995e-5, 1e-4, 999999999.4, 999999999.5,
    999999999.4999999, 12345678.25,
    0.5, 100.0, *_POWERS, *np.nextafter(_POWERS, 0.0).tolist(),
    *np.nextafter(_POWERS, np.inf).tolist()]


class TestTableWriter:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64))
    def test_float_cells_are_percent_9g(self, values):
        # subnormals and both signs included
        assert _texts(_cells(np.array(values))) == [
            "%.9g" % v for v in values]

    def test_edge_floats_and_their_fallback(self):
        values = EDGE_FLOATS + [-v for v in EDGE_FLOATS]
        x = np.array(values)
        assert _texts(_cells(x)) == ["%.9g" % v for v in values]
        # a marked fallback format shows which cells Python's `%` wrote:
        # the exact ties, the subnormals and every cell in exponent form
        # are among them, on either side of the switch from fixed form
        texts = _texts(_number_cells([x], ["<%.9g>"])[0])
        slow = [v for v, t in zip(values, texts) if t == "<%.9g>" % v]
        assert {12345678.25, 999999999.5, 5e-324} <= set(slow)
        assert {v for v in values if "e" in "%.9g" % v} <= set(slow)
        assert "%.9g" % 9.999999994e-05 == "9.99999999e-05"
        assert "%.9g" % 999999999.4 == "999999999"
        assert 999999999.4 not in slow
        assert all(t == "%.9g" % v for v, t in zip(values, texts)
                   if v not in slow)

    def test_each_column_keeps_its_fallback_format(self):
        # one call on a float and an int column, each with cells that take
        # the fallback, in the same rows and in others
        x = np.array([12345678.25, 1.5, -1.23456789e-300, 2.0])
        k = np.array([-2 ** 31, 7, 10 ** 9, 3], np.int64)
        got_x, got_k = _number_cells([x, k], ["<%.9g>", "[%d]"])
        assert _texts(got_x) == ["<12345678.2>", "1.5", "<-1.23456789e-300>",
                                 "2"]
        assert _texts(got_k) == ["[-2147483648]", "7", "[1000000000]", "3"]

    @pytest.mark.parametrize("dtype", ["i1", "i4", "i8"])
    def test_int_cells_are_percent_d(self, dtype):
        info = np.iinfo(dtype)
        values = [info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max]
        if info.max > 10 ** 9:
            values += [s * (10 ** 9 + d) for s in (1, -1) for d in (-1, 0, 1)]
        assert _texts(_cells(np.array(values, dtype))) == [
            "%d" % v for v in values]

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS,
                                   CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, n, assert_same_lines):
        # the last row is the only negative and the widest, so the chunks
        # that lack it are laid out narrower than the one that has it
        rng = np.random.default_rng(n)
        names = ("OF", "signal", "SF")
        rows = np.zeros(n, [("x", "f8"), ("k", "i4"),
                            ("name", code_field(names))])
        rows["x"] = rng.uniform(0.0, 20.0, n)
        rows["k"] = rng.integers(0, 10 ** 6, n)
        rows["name"] = rng.integers(0, 2, n)
        if n:
            rows[-1] = (-1.23456789e-300, -2 ** 31, 2)
        path = tmp_path / "table.csv"
        write_table(path, rows)
        assert_same_lines(path.read_text(), _cell_by_cell(
            rows.dtype.names, (["%.9g" % x, "%d" % k, names[c]]
                               for x, k, c in rows.tolist())))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_before_the_file_exists(self, tmp_path, bad):
        rows = np.ones(CHUNK_ROWS + 1, [("x", "f8")])
        rows["x"][-1] = bad
        path = tmp_path / "table.csv"
        with pytest.raises(ArithmeticError):
            write_table(path, rows)
        assert not path.exists()

    def test_non_ascii_names_refused(self):
        # the reader parses a code column's names as bytes
        with pytest.raises(ValueError, match="must be ASCII"):
            code_field(["OF", "Δt"])


class TestTableReader:
    """The one reader, on a headerless table with a preamble (the layout of
    a response file) longer than one of the writer's chunks."""

    @staticmethod
    def _long(tmp_path, n=CHUNK_ROWS + 5):
        # 6 decimals: the %.9g cells read back exactly
        rows = np.round(np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3)), 6)
        path = tmp_path / "long.csv"
        write_table(path, rows, header=False, preamble=["# a", "# b"])
        return path, rows

    def test_read_back_equal_across_chunks(self, tmp_path):
        path, rows = self._long(tmp_path)
        pre, back = read_table(path, float, header=False, preamble=2)
        assert pre == ["# a", "# b"]
        np.testing.assert_array_equal(back, rows)

    @pytest.mark.parametrize("edit, error", [
        (lambda line: line + ",0", "has 4 fields, expected 3"),
        (lambda line: "x" + line, ", column 1: could not convert")])
    def test_error_in_second_chunk_names_its_data_row(self, tmp_path, edit,
                                                      error):
        path, _ = self._long(tmp_path)
        lines = path.read_text().splitlines()
        row = CHUNK_ROWS + 3
        lines[1 + row] = edit(lines[1 + row])   # after the 2 preamble lines
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"data row {row}\\b.*{error}"):
            read_table(path, float, header=False, preamble=2)

    def test_second_chunk_of_another_width_refused(self, tmp_path):
        path, _ = self._long(tmp_path)
        lines = path.read_text().splitlines()
        lines[2 + CHUNK_ROWS:] = [line + ",0" for line in
                                  lines[2 + CHUNK_ROWS:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"data row {CHUNK_ROWS + 1} has "
                           "4 fields, expected 3"):
            read_table(path, float, header=False, preamble=2)
