"""End-to-end chain: toy generation, binned analysis, unfolding, fits.

Everything here is deterministic given (config, seed); pseudo-experiment
ensembles spawn one child stream per replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (AsymmetrySpectrum, Binning, asymmetry, bin_events,
                       mistag_correct_counts, mistag_systematic,
                       subtract_background)
from .fitkit import BinPredictor, Constraint, fit_model, significance
from .models import ModelParams
# make_signal_events is not called here; perfbench/tests looks the name up
# on this module
from .toygen import (BackgroundConfig, DetectorConfig, GenModel,
                     generate_ensemble, make_signal_events, response_sample,
                     stream_rng)
from .unfold import (ResponseMatrix, UnfoldConfig, bias_correct,
                     build_response, dsvd_unfold, unfolded_asymmetry)

__all__ = [
    "PipelineConfig",
    "corrected_counts",
    "analyze_counts",
    "train_responses",
    "build_training_responses",
    "replica_counts",
    "unfold_replica",
    "run_replica",
    "run_ensemble",
    "ensemble_pulls",
    "qm_over_sd_significances",
    "smear_systematic",
]

RESPONSE_STREAM = 900000    # stream of the response-training sample


@dataclass(frozen=True)
class PipelineConfig:
    params: ModelParams = field(default_factory=ModelParams)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    backgrounds: BackgroundConfig = field(default_factory=BackgroundConfig)
    binning: Binning = field(default_factory=Binning)
    unfold: UnfoldConfig = field(default_factory=UnfoldConfig)
    constraint: Constraint = field(default_factory=Constraint)
    n_signal: int = 7815
    n_response_mc: int = 400000
    seed: int = 1

    @classmethod
    def paper_scale(cls, seed: int = 1, **over):
        p = ModelParams()
        return cls(params=p,
                   backgrounds=BackgroundConfig.paper_scale(tau=p.tau),
                   seed=seed, **over)


def corrected_counts(events: np.ndarray, cfg: PipelineConfig):
    """Binned, background-subtracted, mistag-corrected counts.

    Ordering follows the chain: subtraction first, then the tag correction.
    Returns the counts and the per-bin subtraction systematic on the
    asymmetry.
    """
    raw = bin_events(events, cfg.binning, which_dt="reconstructed",
                     which_cls="assigned")
    sub, bkg_syst = subtract_background(raw, cfg.backgrounds)
    corrected = mistag_correct_counts(sub, cfg.detector.mistag_fraction)
    return corrected, bkg_syst


def analyze_counts(events: np.ndarray, cfg: PipelineConfig):
    """Corrected counts plus the measured asymmetry spectrum with systematics."""
    corrected, bkg_syst = corrected_counts(events, cfg)
    spec = asymmetry(corrected)
    spec = spec.with_syst("background_subtraction", bkg_syst)
    w = cfg.detector.mistag_fraction
    if w > 0:
        spec = spec.with_syst("wrong_tags", mistag_systematic(spec, w))
    return corrected, spec


def train_responses(cfg: PipelineConfig, detectors):
    """One (OF, SF) response pair per detector, all trained on one
    high-statistics QM sample from the response stream.

    Truth flavour indexes the matrices: the measured counts are
    mistag-corrected before unfolding, so the response must not fold the
    tag flip back in. The detectors share the truth pairs and the standard
    normals, so each pair equals a training on that detector alone.
    """
    dt_true, cls_true, dt_recs = response_sample(
        GenModel.QM, cfg.params, cfg.n_response_mc,
        [d.total_sigma for d in detectors],
        stream_rng(cfg.seed, RESPONSE_STREAM))
    return [build_response(dt_true, dt_rec, cls_true, cfg.binning)
            for dt_rec in dt_recs]


def build_training_responses(cfg: PipelineConfig, detector=None):
    """The (OF, SF) response pair of `train_responses` for one detector,
    `cfg.detector` by default."""
    return train_responses(cfg, [detector or cfg.detector])[0]


def replica_counts(model: GenModel, cfg: PipelineConfig, replica_seed: int):
    """One pseudo-experiment's corrected counts: generate and analyze."""
    events = generate_ensemble(model, cfg.params, cfg.detector,
                               cfg.backgrounds, cfg.n_signal,
                               master_seed=cfg.seed * 1000003 + replica_seed)
    counts, _ = corrected_counts(events, cfg)
    return counts


def unfold_replica(counts, cfg: PipelineConfig, resp_of: ResponseMatrix,
                   resp_sf: ResponseMatrix):
    """Unfold corrected counts and form the asymmetry and its covariance."""
    return unfolded_asymmetry(*dsvd_unfold(counts, resp_of, resp_sf,
                                           cfg.unfold))


def run_replica(model: GenModel, cfg: PipelineConfig,
                resp_of: ResponseMatrix, resp_sf: ResponseMatrix,
                replica_seed: int):
    """One pseudo-experiment: generate, analyze, unfold, form the asymmetry."""
    return unfold_replica(replica_counts(model, cfg, replica_seed), cfg,
                          resp_of, resp_sf)


def run_ensemble(models, n_replicas: int, cfg: PipelineConfig):
    """Pseudo-experiment ensembles for several models, with bias correction.

    Returns a dict with per-model unfolded asymmetries, per-replica errors,
    truth vectors, the model-averaged correction, and the residual-bias
    deconvolution systematic.
    """
    resp_of, resp_sf = build_training_responses(cfg)
    p = cfg.params
    pred = BinPredictor(cfg.binning, tau=p.tau)
    unfolded, errors, truths = {}, {}, {}
    for model in models:
        rows, errs = [], []
        for r in range(n_replicas):
            a, cov = run_replica(model, cfg, resp_of, resp_sf, r)
            rows.append(a)
            errs.append(np.sqrt(np.diag(cov)))
        unfolded[model.value] = np.array(rows)
        errors[model.value] = np.array(errs)
        truths[model.value] = pred.predict(model.value, p.dm, p.zeta)
    correction, syst = bias_correct(unfolded, truths)
    return {
        "unfolded": unfolded,
        "errors": errors,
        "truth": truths,
        "correction": correction,
        "deconvolution_systematic": syst,
    }


def ensemble_pulls(result: dict, model: GenModel,
                   include_systematic: bool = True):
    """Per-replica, per-bin pulls of the bias-corrected asymmetry.

    The denominator is the per-replica statistical error, combined in
    quadrature with the residual-bias deconvolution systematic unless
    `include_systematic` is disabled.
    """
    a = result["unfolded"][model.value] - result["correction"]
    err = result["errors"][model.value]
    if include_systematic:
        err = np.sqrt(err ** 2 + result["deconvolution_systematic"] ** 2)
    return (a - result["truth"][model.value]) / err


def qm_over_sd_significances(result: dict, cfg: PipelineConfig) -> np.ndarray:
    """QM-over-SD significance of each bias-corrected QM replica of a
    `run_ensemble` result, with the deconvolution systematic attached."""
    pred = BinPredictor(cfg.binning, tau=cfg.params.tau)
    c = cfg.constraint
    sigs = []
    for a, err in zip(result["unfolded"][GenModel.QM.value],
                      result["errors"][GenModel.QM.value]):
        spec = AsymmetrySpectrum(cfg.binning, a - result["correction"], err)
        spec = spec.with_syst("deconvolution",
                              result["deconvolution_systematic"])
        sigs.append(significance(fit_model(spec, "QM", c, pred),
                                 fit_model(spec, "SD", c, pred)))
    return np.array(sigs)


def smear_systematic(cfg: PipelineConfig, delta_um: float = 35.0,
                     n_replicas: int = 50):
    """Deconvolution systematic from varying the MC-tuning smear term.

    The extra smearing is moved to sqrt(s^2 +/- delta^2) in the response
    training only; each toy is generated once and unfolded with the
    nominal and with each variant's responses, and the larger of the two
    absolute mean per-bin asymmetry shifts is returned.
    """
    if delta_um == 0:
        return np.zeros(cfg.binning.n_bins)
    s = cfg.detector.extra_smear_sigma
    up = float(np.sqrt(s ** 2 + delta_um ** 2))
    dn = float(np.sqrt(max(s ** 2 - delta_um ** 2, 0.0)))
    nominal, *variants = train_responses(
        cfg, [cfg.detector] + [replace(cfg.detector, extra_smear_sigma=v)
                               for v in (up, dn)])
    diffs = [[] for _ in variants]
    for r in range(n_replicas):
        counts = replica_counts(GenModel.QM, cfg, r)
        a_nom, _ = unfold_replica(counts, cfg, *nominal)
        for d, r_var in zip(diffs, variants):
            a_var, _ = unfold_replica(counts, cfg, *r_var)
            d.append(a_var - a_nom)
    shifts = [np.abs(np.mean(d, axis=0)) for d in diffs]
    return np.max(shifts, axis=0)
