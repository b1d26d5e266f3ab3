"""Batch pre-processing for 1-D banded intensity traces.

Detection of band apexes, piecewise-linear reference alignment across
batches, Bayesian spatial dewarping onto a landmark grid, exact
peak-to-landmark alignment, and hierarchical clustering with quantitative
quality measures.  The simulate module generates synthetic batches with
known ground truth; the cli module chains the stages into a pipeline.
"""

from .cluster import (
    Dendrogram,
    DistanceMatrix,
    adjusted_rand,
    adjusted_rand_rows,
    average_silhouette,
    bootstrap_confidence,
    cut,
    cut_rows,
    distance_matrix,
    hclust_complete,
    posterior_clustering_summary,
    to_newick,
)
from .core import (
    GelTrace,
    GelwarpWarning,
    IntensityGrid,
    Lane,
    LandmarkGrid,
    Standardizer,
    read_manifest,
    read_traces_csv,
    standardize_intensities,
    write_manifest,
    write_traces_csv,
)
from .dewarp import (
    MCMCResult,
    ModelConfig,
    run_mcmc,
    signatures,
)
from .exactalign import exact_align, invert_warp, lane_map, repair_assignment
from .peakdetect import Peak, PeakConfig, PeakTable, detect_peaks, local_score, local_scores
from .refalign import PiecewiseLinearMap, apply_map, build_map, reference_align
from .simulate import SimSpec, random_signatures, simulate_gels
from .spline import WarpField, eval_warp, eval_warp_grid, identity_warp, make_basis

__version__ = "0.1.0"

__all__ = [
    "Dendrogram",
    "DistanceMatrix",
    "GelTrace",
    "GelwarpWarning",
    "IntensityGrid",
    "Lane",
    "LandmarkGrid",
    "MCMCResult",
    "ModelConfig",
    "Peak",
    "PeakConfig",
    "PeakTable",
    "PiecewiseLinearMap",
    "SimSpec",
    "Standardizer",
    "WarpField",
    "adjusted_rand",
    "adjusted_rand_rows",
    "apply_map",
    "average_silhouette",
    "bootstrap_confidence",
    "build_map",
    "cut",
    "cut_rows",
    "detect_peaks",
    "distance_matrix",
    "eval_warp",
    "eval_warp_grid",
    "exact_align",
    "hclust_complete",
    "identity_warp",
    "invert_warp",
    "lane_map",
    "local_score",
    "local_scores",
    "make_basis",
    "posterior_clustering_summary",
    "random_signatures",
    "read_manifest",
    "read_traces_csv",
    "reference_align",
    "repair_assignment",
    "run_mcmc",
    "signatures",
    "simulate_gels",
    "standardize_intensities",
    "to_newick",
    "write_manifest",
    "write_traces_csv",
]
