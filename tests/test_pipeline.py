"""Pipeline tests: the split replica steps and the smear systematic."""

from dataclasses import replace

import numpy as np

from flavourasym.pipeline import (PipelineConfig, build_training_responses,
                                  replica_counts, run_replica,
                                  smear_systematic, unfold_replica)
from flavourasym.toygen import GenModel


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
