"""Reference completion: every missing cell predicted on its own.

The oracle for `perfcast.evaluation.complete_matrix`, which predicts all
the missing cells through the block kernels at once. Here ridge and the
clique estimates come from the per-cell references (`ridge_reference`,
`cliques_reference`), a factorization is fit once and `predict`s one cell
at a time, and the ensemble is `ensemble_predict` over the members that
produced a value, in `cfg.ensemble` order.
"""

import numpy as np
from cliques_reference import clique_predict
from ridge_reference import ridge_predict

from perfcast import factorization
from perfcast.cliques import ColdRowError, build_graph, find_cliques
from perfcast.config import Algorithm, CliqueProtocol, RunConfig
from perfcast.evaluation import ensemble_predict
from perfcast.factorization import UnfactorableError, als_fit, svd_fit
from perfcast.ridge import NoBasisError


def complete_matrix(m, cfg: RunConfig = RunConfig()):
    """Fill every missing cell with cfg.algorithm (cliques under
    cfg.protocol); returns (completed values, fills), a fill being
    (row, col, predicted, mechanism) in row-major order. The first cell
    that cannot be predicted raises its reason."""
    algorithm = Algorithm(cfg.algorithm)
    protocol = CliqueProtocol(cfg.protocol)
    members = (list(map(Algorithm, cfg.ensemble))
               if algorithm is Algorithm.ENSEMBLE else [algorithm])
    grouping = find_cliques(build_graph(m, cfg.clique_threshold,
                                        cfg.clique_min_overlap))
    models = {}
    for alg in (Algorithm.ALS, Algorithm.SVD):
        if alg in members:
            try:
                models[alg] = (als_fit(m, cfg.als) if alg is Algorithm.ALS
                               else svd_fit(m, cfg.svd_k, cfg.svd_max_outer))
            except UnfactorableError as exc:
                models[alg] = exc

    def predict_one(alg, row, col):
        """(value, mechanism) of one base algorithm, or its error."""
        if alg is Algorithm.RIDGE or (alg is Algorithm.CLIQUES and protocol
                                      is CliqueProtocol.REGRESSION):
            return ridge_predict(m, row, col, cfg.ridge), "ridge"
        if alg is Algorithm.CLIQUES:
            fallback = protocol is CliqueProtocol.IN_GROUPS_PLUS_REGRESSION
            return clique_predict(m, grouping, row, col, cfg.ridge, fallback)
        if isinstance(models[alg], UnfactorableError):
            raise models[alg]
        return factorization.predict(models[alg], row, col), alg.value

    values = np.array(m.values)
    fills = []
    for row, col in np.argwhere(~m.present_mask).tolist():
        if algorithm is not Algorithm.ENSEMBLE:
            value, mechanism = predict_one(algorithm, row, col)
        else:
            got = []
            for mem in members:
                try:
                    got.append((mem.value, predict_one(mem, row, col)[0]))
                except (NoBasisError, ColdRowError, UnfactorableError):
                    pass
            if not got:
                raise ValueError(f"no ensemble member could predict cell "
                                 f"({m.row_label(row)}, {m.col_keys[col]})")
            value = ensemble_predict([v for _, v in got])
            mechanism = "ensemble:" + "+".join(name for name, _ in got)
        values[row, col] = value
        fills.append((row, col, value, mechanism))
    return values, fills
