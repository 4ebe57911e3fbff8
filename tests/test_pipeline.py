"""Pipeline tests: response training and its peak memory, the split
replica steps, ensembles whose models share each seed's draws, one
unfolding map per response pair, and the smear systematic."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flavourasym import pipeline, toygen, unfold
from flavourasym.analysis import (Binning, bin_events, mistag_correct_counts,
                                  subtract_background)
from flavourasym.models import ModelParams
from flavourasym.pipeline import (PipelineConfig, build_training_responses,
                                  corrected_counts, replica_counts,
                                  run_ensemble, run_replica, smear_systematic,
                                  train_responses)
from flavourasym.toygen import (EVENT_DTYPE, BackgroundConfig, DetectorConfig,
                                GenModel)
from flavourasym.unfold import dsvd_unfold, unfolded_asymmetry, unfolding_map
from oracles import (ensemble_alone, one_shot_unfold, record_responses,
                     smear_alone)


CFG = PipelineConfig.paper_scale(seed=7, n_response_mc=100_000)


def test_run_replica_composes_the_two_steps():
    lin = unfolding_map(*build_training_responses(CFG), CFG.unfold)
    a, cov = run_replica(GenModel.SD, CFG, lin, 2)
    a2, cov2 = unfolded_asymmetry(*dsvd_unfold(
        replica_counts(GenModel.SD, CFG, 2), lin))
    np.testing.assert_array_equal(a, a2)
    np.testing.assert_array_equal(cov, cov2)


def test_prebuilt_map_unfolds_as_the_one_shot_path():
    resp = build_training_responses(CFG)
    lin = unfolding_map(*resp, CFG.unfold)
    for r in range(3):
        counts = replica_counts(GenModel.QM, CFG, r)
        a, cov = unfolded_asymmetry(*dsvd_unfold(counts, lin))
        a1, cov1 = unfolded_asymmetry(*one_shot_unfold(counts, *resp,
                                                       CFG.unfold))
        np.testing.assert_array_equal(a, a1)
        np.testing.assert_array_equal(cov, cov1)


_DECO = replace(CFG, params=ModelParams(zeta=0.3))
REPLICA_CASES = {m.value: (m, _DECO) for m in GenModel} | {
    "no_smear": (GenModel.QM, replace(CFG, detector=DetectorConfig(
        resolution_sigma=0.0, extra_smear_sigma=0.0))),
    "fixed_counts": (GenModel.QM, replace(CFG, backgrounds=replace(
        CFG.backgrounds, fixed_counts=True))),
    "no_backgrounds": (GenModel.SD, replace(CFG,
                                            backgrounds=BackgroundConfig())),
}


@pytest.mark.parametrize("case", list(REPLICA_CASES))
def test_replica_records_count_as_full_records(case, monkeypatch):
    """A replica's two-field records give the counts of the full event
    records, bit for bit."""
    model, cfg = REPLICA_CASES[case]
    made = []

    def generate(*args, **kw):
        made.append(toygen.generate_ensemble(*args, **kw))
        return made[-1]

    monkeypatch.setattr(pipeline, "generate_ensemble", generate)
    replicas = [replica_counts(model, cfg, r) for r in range(2)]
    assert [ev.dtype.names for ev in made] == [("dt_rec_ps",
                                                "cls_assigned")] * 2
    assert all(ev.itemsize == 9 for ev in made)

    def full_records(*args, dtype, **kw):
        return generate(*args, **kw)

    monkeypatch.setattr(pipeline, "generate_ensemble", full_records)
    for r, got in enumerate(replicas):
        want = replica_counts(model, cfg, r)
        assert made[-1].dtype == EVENT_DTYPE
        assert len(made[-1]) == len(made[r])
        for a, b in ((got.n, want.n), (got.var, want.var)):
            assert a.dtype == b.dtype and np.all(a == b)
        assert got.overflow == want.overflow


_QM_SD_PS = (GenModel.QM, GenModel.SD, GenModel.PS_BOUNDARY_MAX)
ENSEMBLE_CASES = {
    "qm_sd_ps_max": (_QM_SD_PS, CFG, 3),
    "with_decohered": ((GenModel.PS_BOUNDARY_MIN, GenModel.DECOHERED,
                        GenModel.QM), _DECO, 3),
    "above_block": (_QM_SD_PS, replace(CFG, n_signal=70_000), 2),
    "no_smear": (_QM_SD_PS, REPLICA_CASES["no_smear"][1], 3),
    "fixed_counts": (_QM_SD_PS, REPLICA_CASES["fixed_counts"][1], 3),
}


@pytest.mark.parametrize("case", list(ENSEMBLE_CASES))
def test_shared_seeds_match_each_model_alone(case):
    """An ensemble generates each seed once for its models; every output
    equals that of replicas generated for one model alone, bit for bit,
    and so does the smear systematic."""
    models, cfg, n = ENSEMBLE_CASES[case]
    got, want = run_ensemble(models, n, cfg), ensemble_alone(models, n, cfg)
    assert got.keys() == want.keys()
    for key, ref in want.items():
        if isinstance(ref, dict):
            assert list(got[key]) == list(ref) == [m.value for m in models]
            for m, rows in ref.items():
                assert got[key][m].dtype == rows.dtype
                np.testing.assert_array_equal(got[key][m], rows)
        else:
            np.testing.assert_array_equal(got[key], ref)
    np.testing.assert_array_equal(
        smear_systematic(cfg, delta_um=35.0, n_replicas=n),
        smear_alone(cfg, 35.0, n))


def test_corrected_counts_subtract_the_configured_backgrounds():
    """The expectation a config computes once is that of
    `subtract_background`."""
    ev = toygen.generate_ensemble(GenModel.QM, CFG.params, CFG.detector,
                                  CFG.backgrounds, CFG.n_signal,
                                  master_seed=5)
    raw = bin_events(ev["dt_rec_ps"], ev["cls_assigned"], CFG.binning)
    sub, syst = subtract_background(raw, CFG.backgrounds)
    want = mistag_correct_counts(sub, CFG.detector.mistag_fraction)
    got, got_syst = corrected_counts(ev, CFG)
    for a, b in ((got.n, want.n), (got.var, want.var), (got_syst, syst)):
        np.testing.assert_array_equal(a, b)
    assert not CFG.expected_background[0].flags.writeable


def test_run_ensemble_refuses_a_repeated_model():
    with pytest.raises(ValueError, match="QM given twice"):
        run_ensemble(_QM_SD_PS + (GenModel.QM,), 2, CFG)


def test_ensemble_and_smear_systematic_repeat_to_the_bit():
    # an ensemble, whose models share each seed's draws, and the smear
    # systematic give the same bits when run again
    a, b = (run_ensemble(_QM_SD_PS, 5, CFG) for _ in range(2))
    for key in ("unfolded", "errors", "truth"):
        assert list(a[key]) == list(b[key]) == [m.value for m in _QM_SD_PS]
        for m in a[key]:
            assert a[key][m].tobytes() == b[key][m].tobytes(), (key, m)
    for key in ("correction", "deconvolution_systematic"):
        assert a[key].tobytes() == b[key].tobytes(), key
    assert (smear_systematic(CFG, n_replicas=3).tobytes()
            == smear_systematic(CFG, n_replicas=3).tobytes())


def test_truncated_solver_runs_twice_per_response_pair(monkeypatch):
    calls = []
    solver = unfold.truncated_solver

    def counted(*args):
        calls.append(args)
        return solver(*args)

    monkeypatch.setattr(unfold, "truncated_solver", counted)
    run_ensemble((GenModel.QM, GenModel.SD, GenModel.PS_BOUNDARY_MAX), 4, CFG)
    assert len(calls) == 2          # one response pair
    calls.clear()
    smear_systematic(CFG, delta_um=35.0, n_replicas=3)
    assert len(calls) == 6          # the nominal pair and two variants


def test_smear_systematic_matches_per_variant_loop():
    got = smear_systematic(CFG, delta_um=35.0, n_replicas=3)
    ref = smear_alone(CFG, 35.0, 3)
    assert np.all(ref > 0)
    np.testing.assert_array_equal(got, ref)


def test_smear_systematic_is_zero_without_a_smear_shift():
    # at delta 0 both variants train the nominal detector, so their maps
    # are the nominal one and every shift is exactly zero
    got = smear_systematic(CFG, delta_um=0.0, n_replicas=2)
    np.testing.assert_array_equal(got, np.zeros(CFG.binning.n_bins))


def _assert_same_responses(pair, ref):
    for r, (m, totals) in zip(pair, ref):
        assert r.m.dtype == m.dtype and r.truth_totals.dtype == totals.dtype
        np.testing.assert_array_equal(r.m, m)
        np.testing.assert_array_equal(r.truth_totals, totals)


# a binning off the 0.5 ps lattice, with both outer edges inside the sample
OFF_LATTICE = Binning((0.1, 0.3, 1.1, 2.7, 3.3, 13.0 / 3, 5.05, 9.3, 17.2))


@pytest.mark.parametrize("binning", [Binning(), OFF_LATTICE],
                         ids=["default", "off_lattice"])
def test_columnar_training_matches_record_training(binning):
    """One shared truth sample gives, for every detector, the responses of
    a record-based training on that detector alone, bit for bit."""
    cfg = replace(CFG, binning=binning)
    d, s = cfg.detector, cfg.detector.extra_smear_sigma
    # nominal, the two smear variants of smear_systematic, and no smear
    dets = [d, replace(d, extra_smear_sigma=float(np.hypot(s, 35.0))),
            DetectorConfig(0.0, 0.0, d.mistag_fraction),
            replace(d, extra_smear_sigma=float(np.sqrt(s ** 2 - 35.0 ** 2)))]
    refs = [record_responses(cfg, det) for det in dets]
    for pair, ref in zip(train_responses(cfg, dets), refs):
        _assert_same_responses(pair, ref)
    _assert_same_responses(build_training_responses(cfg), refs[0])
    # alone, the zero-smear detector draws no normals at all
    _assert_same_responses(train_responses(cfg, dets[2:3])[0], refs[2])


def test_training_peak_memory():
    """Only dt and the classes span the training sample, 9 B per event:
    no time is kept, and every other column lives one block at a time.
    tracemalloc counts numpy's buffers, so the bound holds on any machine
    (about 12 B per event; 21 B with t1 and t2 whole, 49 B with every
    column whole)."""
    n = 1_000_000
    cfg = replace(CFG, n_response_mc=n)
    tracemalloc.start()
    try:
        build_training_responses(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 13.0
