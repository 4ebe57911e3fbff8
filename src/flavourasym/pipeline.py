"""End-to-end chain: toy generation, binned analysis, unfolding, fits.

Everything here is deterministic given (config, seed); pseudo-experiment
ensembles spawn one child stream per replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .analysis import (AsymmetrySpectrum, BinnedCounts, Binning,
                       _subtract_expected, asymmetry, bin_events,
                       expected_background_counts, mistag_correct_counts,
                       mistag_systematic)
from .fitkit import BinPredictor, Constraint, fit_model, significance
from .models import ModelParams
# make_signal_events is not called here; perfbench/tests looks the name up
# on this module
from .toygen import (EVENT_DTYPE, BackgroundConfig, DetectorConfig, GenModel,
                     generate_ensemble, make_signal_events, response_sample,
                     stream_rng)
from .unfold import (UnfoldConfig, bias_correct, dsvd_unfold,
                     response_histogram, response_pair, unfolded_asymmetry,
                     unfolding_map)

__all__ = [
    "PipelineConfig",
    "corrected_counts",
    "analyze_counts",
    "train_responses",
    "build_training_responses",
    "replica_counts",
    "run_replica",
    "run_ensemble",
    "ensemble_pulls",
    "qm_over_sd_significances",
    "smear_systematic",
]

RESPONSE_STREAM = 900000    # stream of the response-training sample
# a replica's records: the only fields that `corrected_counts` reads
_REPLICA_DTYPE = np.dtype([(n, EVENT_DTYPE[n])
                           for n in ("dt_rec_ps", "cls_assigned")])


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

    def __post_init__(self):
        for name in ("n_signal", "n_response_mc", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, "
                                 f"got {getattr(self, name)}")

    @classmethod
    def paper_scale(cls, seed: int = 1, **over):
        return cls(backgrounds=BackgroundConfig.paper_scale(), seed=seed,
                   **over)

    @cached_property
    def expected_background(self):
        """`expected_background_counts` of the backgrounds in the binning,
        read-only, computed once per config: every replica subtracts it."""
        exp, var = expected_background_counts(self.backgrounds, self.binning)
        exp.flags.writeable = var.flags.writeable = False
        return exp, var


def _correct(raw, cfg: PipelineConfig):
    """Binned counts background-subtracted, then mistag-corrected, and the
    per-bin subtraction systematic on the asymmetry."""
    sub, bkg_syst = _subtract_expected(raw, *cfg.expected_background)
    return mistag_correct_counts(sub, cfg.detector.mistag_fraction), bkg_syst


def corrected_counts(events: np.ndarray, cfg: PipelineConfig):
    """Binned, background-subtracted, mistag-corrected counts.

    Ordering follows the chain: subtraction first, then the tag correction.
    Returns the counts and the per-bin subtraction systematic on the
    asymmetry.
    """
    return _correct(bin_events(events["dt_rec_ps"], events["cls_assigned"],
                               cfg.binning), cfg)


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
    normals, so each pair equals a training on that detector alone. The
    sample comes in blocks; each block's truth bins are indexed once for
    all detectors, each detector's integer counts are summed over the
    blocks and turned into matrices once.
    """
    n = cfg.binning.n_bins + 2
    counts = np.zeros((len(detectors), 2, n, n), dtype=np.intp)
    for dt_true, cls_true, dt_recs in response_sample(
            GenModel.QM, cfg.params, cfg.n_response_mc,
            [d.total_sigma for d in detectors],
            stream_rng(cfg.seed, RESPONSE_STREAM)):
        counts += response_histogram(dt_true, dt_recs, cls_true, cfg.binning)
    return [response_pair(c, cfg.binning) for c in counts]


def build_training_responses(cfg: PipelineConfig):
    """The (OF, SF) response pair of `train_responses` for `cfg.detector`."""
    return train_responses(cfg, [cfg.detector])[0]


def replica_counts(models: tuple, cfg: PipelineConfig, replica_seed: int):
    """One pseudo-experiment seed's corrected counts for each of `models`,
    which share the seed's draws (see `generate_ensemble`): a stack of
    shape (models, 2, n_bins) whose row j equals models[j]'s replica alone.
    The seed is generated once, as records of the two fields the analysis
    reads, whose values are those of the full records."""
    events = generate_ensemble(models, cfg.params, cfg.detector,
                               cfg.backgrounds, cfg.n_signal,
                               master_seed=cfg.seed * 1000003 + replica_seed,
                               dtype=_REPLICA_DTYPE)
    return _correct(bin_events(events["dt_rec_ps"][:, 0],
                               events["cls_assigned"].T, cfg.binning), cfg)[0]


def run_replica(models: tuple, cfg: PipelineConfig, lin: np.ndarray,
                replica_seed: int):
    """One pseudo-experiment seed for each of `models`: generate, analyze,
    unfold through `lin` and form the asymmetry. Returns (a, err), each of
    shape (models, n_bins)."""
    return unfolded_asymmetry(*dsvd_unfold(
        replica_counts(models, cfg, replica_seed), lin))


def _check_replicas(n_replicas: int) -> None:
    """Refuse an ensemble of no replica, whose means would be NaN."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be at least 1, got {n_replicas}")


def run_ensemble(models, n_replicas: int, cfg: PipelineConfig):
    """Pseudo-experiment ensembles for several models, with bias correction.

    Each replica seed is generated once for all the models, which draw the
    same numbers; every model's replicas equal those of its ensemble alone.
    Returns a dict with per-model unfolded asymmetries, per-replica errors,
    truth vectors, the model-averaged correction, and the residual-bias
    deconvolution systematic.
    """
    _check_replicas(n_replicas)
    models = tuple(models)
    for i, m in enumerate(models):
        if m in models[:i]:
            raise ValueError(f"generation model {m.value} given twice")
    lin = unfolding_map(*build_training_responses(cfg), cfg.unfold)
    p = cfg.params
    pred = BinPredictor(cfg.binning, tau=p.tau)
    rows, errs = ({m: [] for m in models} for _ in range(2))
    for r in range(n_replicas):
        for m, a, err in zip(models, *run_replica(models, cfg, lin, r)):
            rows[m].append(a)
            errs[m].append(err)
    unfolded, errors, truths = {}, {}, {}
    for model in models:
        unfolded[model.value] = np.array(rows[model])
        errors[model.value] = np.array(errs[model])
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
    training only. Each response pair's unfolding map is built once; the
    toys are generated once, as one stack, each map unfolds the stack
    once, and the larger of the two absolute mean per-bin asymmetry shifts
    is returned.
    """
    _check_replicas(n_replicas)
    s = cfg.detector.extra_smear_sigma
    up = float(np.sqrt(s ** 2 + delta_um ** 2))
    dn = float(np.sqrt(max(s ** 2 - delta_um ** 2, 0.0)))
    detectors = [cfg.detector] + [replace(cfg.detector, extra_smear_sigma=v)
                                  for v in (up, dn)]
    maps = [unfolding_map(*pair, cfg.unfold)
            for pair in train_responses(cfg, detectors)]
    reps = [replica_counts((GenModel.QM,), cfg, r) for r in range(n_replicas)]
    counts = BinnedCounts(cfg.binning, np.concatenate([c.n for c in reps]),
                          np.concatenate([c.var for c in reps]))
    a_nom, *a_var = (unfolded_asymmetry(*dsvd_unfold(counts, lin))[0]
                     for lin in maps)
    return np.max([np.abs(np.mean(a - a_nom, axis=0)) for a in a_var], axis=0)
