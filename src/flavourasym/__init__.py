"""Time-dependent flavour-asymmetry toolkit.

Model predictions for entangled, disentangled, and local-realistic B-pair
decays; seeded toy generation with detector effects and backgrounds; binned
asymmetry analysis; SVD-regularized deconvolution; and constrained model
fits with chi-square discrimination.
"""

__version__ = "0.1.0"

from .analysis import (AsymmetrySpectrum, BinnedCounts, Binning, asymmetry,
                       bin_events, mistag_correct_counts, read_spectrum,
                       subtract_background, write_spectrum)
from .fitkit import (BinPredictor, Constraint, FitResult, chi2, fit_model,
                     fit_zeta, significance)
from .models import (MarginalGrid, ModelParams, asym_qm, asym_sd_marginal,
                     curve_rows, ps_band_edges)
from .pipeline import PipelineConfig, analyze_counts, run_ensemble
from .toygen import (BackgroundConfig, BackgroundShape, CategoryYield,
                     DetectorConfig, EventCategory, GenModel,
                     generate_ensemble, read_events, write_events)
from .unfold import (ResponseMatrix, UnfoldConfig, bias_correct, dsvd_unfold,
                     read_response, unfolded_asymmetry, unfolding_map,
                     write_response)

__all__ = [
    "__version__",
    "ModelParams", "MarginalGrid", "asym_qm", "asym_sd_marginal",
    "ps_band_edges", "curve_rows",
    "GenModel", "EventCategory", "DetectorConfig", "BackgroundShape",
    "CategoryYield", "BackgroundConfig", "generate_ensemble",
    "write_events", "read_events",
    "Binning", "BinnedCounts", "AsymmetrySpectrum", "bin_events",
    "subtract_background", "asymmetry", "mistag_correct_counts",
    "write_spectrum", "read_spectrum",
    "ResponseMatrix", "UnfoldConfig", "unfolding_map",
    "dsvd_unfold",
    "unfolded_asymmetry", "bias_correct", "write_response", "read_response",
    "Constraint", "FitResult", "BinPredictor", "chi2", "fit_model",
    "fit_zeta", "significance",
    "PipelineConfig", "analyze_counts", "run_ensemble",
]
