"""perfcast: predict program execution times on machines they never ran on.

The data model is a sparse "programs x machines" matrix of observed
execution times. Missing cells are predicted by per-cell ridge regression,
correlation-clique scaling, low-rank factorization, or an averaging
ensemble (by default of cliques and factorization, with ridge for the
cells neither predicts); an evaluation harness scores the predictions and a
small application layer turns a completed matrix into placement decisions.
"""

from .cliques import Grouping, build_graph, correlations, find_cliques
from .config import RunConfig, read_config_file
from .evaluation import (AlgorithmResult, EvalReport, complete_matrix,
                         leave_one_out, masking_sweep, outlier_sweep,
                         report_to_json, write_reports_csv,
                         write_reports_json)
from .factorization import (FactorModel, UnfactorableError, als_fit,
                            model_from_json, model_to_json, rank_machines,
                            svd_fit)
from .matrix import (MaskInfeasibleError, MaskSpec, Observation, PCMatrix,
                     build_matrix, density, inject_outliers, mask_random,
                     read_matrix_csv, read_observations_csv, write_matrix_csv)
from .placement import PlacementDecision, greedy_place, schedule_batch
from .ridge import NoBasisError

__version__ = "0.1.0"

__all__ = [
    "AlgorithmResult", "EvalReport", "FactorModel", "Grouping",
    "MaskInfeasibleError", "MaskSpec", "NoBasisError", "Observation",
    "PCMatrix", "PlacementDecision", "RunConfig", "UnfactorableError",
    "als_fit", "build_graph", "build_matrix", "complete_matrix",
    "correlations", "density", "find_cliques", "greedy_place",
    "inject_outliers", "leave_one_out", "mask_random", "masking_sweep",
    "model_from_json", "model_to_json", "outlier_sweep", "rank_machines",
    "read_config_file", "read_matrix_csv", "read_observations_csv",
    "report_to_json", "schedule_batch", "svd_fit", "write_matrix_csv",
    "write_reports_csv", "write_reports_json",
]
