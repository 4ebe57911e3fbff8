#!/usr/bin/env python3
"""Pseudo-experiment calibration of the unfolding chain, at the settings of
the acceptance test: 200 replicas per model (QM, SD, PS upper boundary),
master seed 7, 2M response events.

Prints the model-averaged bias correction, the deconvolution systematic,
the residual per-model biases, the pooled pull means and widths (with and
without the systematic), and the fraction of bias-corrected QM replicas
that prefer QM over SD at more than 5 sigma.
"""

import numpy as np

from flavourasym.pipeline import (PipelineConfig, ensemble_pulls,
                                  qm_over_sd_significances, run_ensemble)
from flavourasym.toygen import GenModel

MODELS = (GenModel.QM, GenModel.SD, GenModel.PS_BOUNDARY_MAX)


def main():
    np.set_printoptions(precision=3, suppress=True, linewidth=150)
    cfg = PipelineConfig.paper_scale(seed=7, n_response_mc=2_000_000)
    res = run_ensemble(MODELS, 200, cfg)
    print("bias correction      ", res["correction"])
    print("deconvolution syst   ", res["deconvolution_systematic"])
    for m in MODELS:
        bias = res["unfolded"][m.value].mean(axis=0) - res["truth"][m.value]
        print(f"residual bias {m.value:16s}", bias - res["correction"])
    for label, syst in (("", True), (" (stat only)", False)):
        pulls = np.concatenate([ensemble_pulls(res, m, syst) for m in MODELS])
        print(f"pooled pull mean{label:12s}", pulls.mean(axis=0))
        print(f"pooled pull width{label:11s}", pulls.std(axis=0))
    sigs = qm_over_sd_significances(res, cfg)
    n_pref = int(np.sum(sigs > 5.0))
    print(f"QM-over-SD significance: median {np.median(sigs):.2f}, "
          f"min {sigs.min():.2f}; > 5 sigma in {n_pref}/{len(sigs)} "
          f"replicas ({100.0 * n_pref / len(sigs):.1f}%)")


if __name__ == "__main__":
    main()
