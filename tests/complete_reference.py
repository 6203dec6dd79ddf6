"""Reference completion: every missing cell predicted on its own.

The oracle for `perfcast.evaluation.complete_matrix`, which predicts all
the missing cells through the block kernels at once. Here ridge and the
clique estimates come from the per-cell references (`ridge_reference`,
`cliques_reference`), ALS is fit once and `predict`s one cell at a
time, and the ensemble is `ensemble_predict` over the members that
produced a value by their own mechanism (a clique member's ridge fallback
is left out), in `cfg.ensemble` order; a cell no member predicts
takes ridge's value, unless ridge is a member. Ridge names a column mean
"ridge:column_mean". `predict` and `ensemble_predict` are
`loo_reference`'s per-cell definitions.
"""

import contextlib

import numpy as np
from cliques_reference import clique_predict
from loo_reference import ensemble_predict, predict
from ridge_reference import predict_with_mechanism

from perfcast.cliques import build_graph, find_cliques
from perfcast.config import RunConfig
from perfcast.evaluation import ColdRowError
from perfcast.factorization import UnfactorableError, als_fit
from perfcast.ridge import NoBasisError


def complete_matrix(m, cfg: RunConfig = RunConfig()):
    """Fill every missing cell with cfg.algorithm (cliques under
    cfg.protocol); returns (completed values, fills), a fill being
    (row, col, predicted, mechanism) in row-major order. The first cell
    that cannot be predicted raises its reason."""
    algorithm, protocol = cfg.algorithm, cfg.protocol
    members = (list(cfg.ensemble) if algorithm == "ensemble"
               else [algorithm])
    grouping = find_cliques(build_graph(m, cfg.clique_threshold,
                                        cfg.clique_min_overlap))
    model = None
    if "als" in members:
        try:
            model = als_fit(m, cfg)
        except UnfactorableError as exc:
            model = exc

    def predict_one(alg, row, col):
        """(value, mechanism) of one base algorithm, or its error."""
        if alg == "ridge":
            return predict_with_mechanism(m, row, col, cfg)
        if alg == "cliques":
            fallback = protocol == "in_groups_plus_regression"
            return clique_predict(m, grouping, row, col, cfg, fallback)
        if isinstance(model, UnfactorableError):
            raise model
        return predict(model, row, col), alg

    values = np.array(m.values)
    fills = []
    for row, col in np.argwhere(~m.present_mask).tolist():
        if algorithm != "ensemble":
            value, mechanism = predict_one(algorithm, row, col)
        else:
            got = []
            for mem in members:
                try:
                    value, mechanism = predict_one(mem, row, col)
                except (NoBasisError, ColdRowError, UnfactorableError):
                    continue
                if mechanism.partition(":")[0] == mem:
                    got.append((mem, value))
            fallback = None
            if not got and "ridge" not in members:
                with contextlib.suppress(NoBasisError):
                    fallback = predict_one("ridge", row, col)
            if got:
                value = ensemble_predict([v for _, v in got])
                mechanism = "ensemble:" + "+".join(name for name, _ in got)
            elif fallback:
                value, mechanism = fallback
            else:
                raise ValueError(f"no ensemble member could predict cell "
                                 f"({m.row_label(row)}, {m.col_keys[col]})")
        values[row, col] = value
        fills.append((row, col, value, mechanism))
    return values, fills
