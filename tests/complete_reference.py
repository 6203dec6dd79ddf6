"""Reference completion: every missing cell predicted on its own.

The oracle for `perfcast.evaluation.complete_matrix`, which predicts all
the missing cells through the block kernels at once. Here ridge and the
clique estimates come from the per-cell references (`ridge_reference`,
`cliques_reference`), ALS is fit once and `predict`s one cell at a
time, and the ensemble is `ensemble_predict` over the members that
produced a value by their own mechanism (a clique member's ridge fallback
is left out), in `cfg.ensemble` order; `predict` and
`ensemble_predict` are `loo_reference`'s per-cell definitions.
"""

import numpy as np
from cliques_reference import clique_predict
from loo_reference import ensemble_predict, predict
from ridge_reference import ridge_predict

from perfcast.cliques import build_graph, find_cliques
from perfcast.config import Algorithm, CliqueProtocol, RunConfig
from perfcast.evaluation import ColdRowError
from perfcast.factorization import UnfactorableError, als_fit
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
    model = None
    if Algorithm.ALS in members:
        try:
            model = als_fit(m, cfg)
        except UnfactorableError as exc:
            model = exc

    def predict_one(alg, row, col):
        """(value, mechanism) of one base algorithm, or its error."""
        if alg is Algorithm.RIDGE:
            return ridge_predict(m, row, col, cfg), "ridge"
        if alg is Algorithm.CLIQUES:
            fallback = protocol is CliqueProtocol.IN_GROUPS_PLUS_REGRESSION
            return clique_predict(m, grouping, row, col, cfg, fallback)
        if isinstance(model, UnfactorableError):
            raise model
        return predict(model, row, col), alg.value

    values = np.array(m.values)
    fills = []
    for row, col in np.argwhere(~m.present_mask).tolist():
        if algorithm is not Algorithm.ENSEMBLE:
            value, mechanism = predict_one(algorithm, row, col)
        else:
            got = []
            for mem in members:
                try:
                    value, mechanism = predict_one(mem, row, col)
                except (NoBasisError, ColdRowError, UnfactorableError):
                    continue
                if mechanism == mem.value:
                    got.append((mem.value, value))
            if not got:
                raise ValueError(f"no ensemble member could predict cell "
                                 f"({m.row_label(row)}, {m.col_keys[col]})")
            value = ensemble_predict([v for _, v in got])
            mechanism = "ensemble:" + "+".join(name for name, _ in got)
        values[row, col] = value
        fills.append((row, col, value, mechanism))
    return values, fills
