"""Pipeline tests: response training, the split replica steps and the smear
systematic."""

from dataclasses import replace

import numpy as np
import pytest

from flavourasym.analysis import Binning
from flavourasym.pipeline import (PipelineConfig, build_training_responses,
                                  replica_counts, run_replica,
                                  smear_systematic, train_responses,
                                  unfold_replica)
from flavourasym.toygen import DetectorConfig, GenModel
from oracles import record_responses


def _smear_per_variant(cfg, delta_um, n_replicas):
    """Reference: the per-variant loop that regenerated every replica for
    the nominal and for the variant unfold."""
    s = cfg.detector.extra_smear_sigma
    up = float(np.sqrt(s ** 2 + delta_um ** 2))
    dn = float(np.sqrt(max(s ** 2 - delta_um ** 2, 0.0)))
    nominal = build_training_responses(cfg)
    variants = [build_training_responses(
        cfg, detector=replace(cfg.detector, extra_smear_sigma=v))
        for v in (up, dn)]
    shifts = []
    for r_var in variants:
        diffs = []
        for r in range(n_replicas):
            a_nom, _ = run_replica(GenModel.QM, cfg, *nominal, r)
            a_var, _ = run_replica(GenModel.QM, cfg, *r_var, r)
            diffs.append(a_var - a_nom)
        shifts.append(np.abs(np.mean(diffs, axis=0)))
    return np.max(shifts, axis=0)


CFG = PipelineConfig.paper_scale(seed=7, n_response_mc=100_000)


def test_run_replica_composes_the_two_steps():
    resp = build_training_responses(CFG)
    a, cov = run_replica(GenModel.SD, CFG, *resp, 2)
    a2, cov2 = unfold_replica(replica_counts(GenModel.SD, CFG, 2), CFG, *resp)
    np.testing.assert_array_equal(a, a2)
    np.testing.assert_array_equal(cov, cov2)


def test_smear_systematic_matches_per_variant_loop():
    got = smear_systematic(CFG, delta_um=35.0, n_replicas=3)
    ref = _smear_per_variant(CFG, 35.0, 3)
    assert np.all(ref > 0)
    np.testing.assert_array_equal(got, ref)


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
