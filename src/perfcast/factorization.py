"""Low-rank completion: rank-K embeddings whose inner product is a time.

Alternating least squares is the workhorse: holding one side fixed, each
program (then each machine) factor is the exact solution of a small ridge
problem over that row's (column's) observed cells, and one batched solve
answers all of them, for every K. The kernel runs a stack of fits that
share one mask: leave-one-out refits many at once, each leaving out its
own cell, with its own initial scale, RMSE, stop and coverage, as a cold
fit without that cell would; a plain fit is the stack of one. Rank 1 is
the default and has a useful side effect: positive scalar embeddings put
a total performance order on machines. A simpler impute-and-decompose SVD
variant is included for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import PREDICTION_FLOOR

# fits x observed cells per ALS stack: bounds its (fits, cells) arrays
_STACK = 2 ** 15


class UnfactorableError(ValueError):
    """A fully empty row or column leaves a factor unconstrained."""


@dataclass(frozen=True)
class ALSConfig:
    k: int = 1
    lam: float = 1e-2
    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"rank must be positive, got {self.k}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("max_iters must be >= 1 and tol > 0")


@dataclass(frozen=True, eq=False)
class FactorModel:
    k: int
    row_keys: tuple[tuple[str, str], ...]
    col_keys: tuple[str, ...]
    row_factors: np.ndarray  # N x K
    col_factors: np.ndarray  # K x M
    train_rmse_history: tuple[float, ...]
    config: dict

    def __post_init__(self):
        rf = np.array(self.row_factors, dtype=np.float64)
        # column-major, whatever the source: each column's K factors are
        # contiguous, so a BLAS dot sums them in one order on every path
        cf = np.array(self.col_factors, dtype=np.float64, order="F")
        if rf.shape != (len(self.row_keys), self.k):
            raise ValueError(f"row factor shape {rf.shape} does not match "
                             f"{len(self.row_keys)} rows x rank {self.k}")
        if cf.shape != (self.k, len(self.col_keys)):
            raise ValueError(f"column factor shape {cf.shape} does not match "
                             f"rank {self.k} x {len(self.col_keys)} columns")
        rf.flags.writeable = False
        cf.flags.writeable = False
        object.__setattr__(self, "row_factors", rf)
        object.__setattr__(self, "col_factors", cf)


_EMPTY_ROW = "unfactorable matrix: a row has no observations"
_EMPTY_COL = "unfactorable matrix: a column has no observations"


def _check_factorable(mask):
    if not mask.any(axis=1).all():
        raise UnfactorableError(_EMPTY_ROW)
    if not mask.any(axis=0).all():
        raise UnfactorableError(_EMPTY_COL)


def _sign_normalize(U, V):
    """Flip latent dimensions so every column-factor dimension has positive
    mean; predictions are unchanged because both sides flip together."""
    for k in range(V.shape[0]):
        if V[k].mean() < 0:
            V[k] *= -1.0
            U[:, k] *= -1.0


def _half_step(F, M, X0, lam, skipped=None):
    """Exact regularized least-squares solve for every row of every fit.

    F is (fits, K, cols): each fit's factors, held fixed. Row i of fit b
    minimizes sum_j M[i, j] * (X0[i, j] - u . F[b, :, j])**2 + lam * |u|**2.
    All K x K Gram matrices, every fit's, come from one matmul against the
    stacked outer products of F's columns. skipped, when given, is the
    (rows, cols) pair of index arrays of the cell each fit leaves out: that
    row's system is rebuilt from M and X0 with the cell zeroed, since
    subtracting the cell's term from the full sum cancels badly. With
    lam == 0 a row observed fewer than K times is singular; the
    pseudo-inverse gives its minimum-norm solution.
    """
    fits, k, cols = F.shape
    FF = (F[:, :, None, :] * F[:, None, :, :]).reshape(fits, k * k, cols)
    # Kept (rows, fits, ...) as the matmuls lay them out, which the solve
    # reads without a copy; the result is returned as (fits, rows, K).
    A = (M @ FF.reshape(-1, cols).T).reshape(-1, fits, k, k)
    b = (X0 @ F.reshape(-1, cols).T).reshape(-1, fits, k)
    if skipped is not None:
        rows, skip = skipped
        stack = np.arange(fits)
        m_row, x_row = M[rows], X0[rows]
        m_row[stack, skip] = 0.0
        x_row[stack, skip] = 0.0
        A[rows, stack] = (m_row[:, None] @ FF.swapaxes(1, 2)).reshape(-1, k, k)
        b[rows, stack] = (x_row[:, None] @ F.swapaxes(1, 2))[:, 0]
    A = A + lam * np.eye(k)
    if lam == 0:
        x = (np.linalg.pinv(A) @ b[..., None])[..., 0]
    elif k == 1:  # the 1 x 1 solve, without a LAPACK call per row
        x = b / A[..., 0]
    else:
        x = np.linalg.solve(A, b[..., None])[..., 0]
    return x.swapaxes(0, 1)


def _fit_stack(m, cfg: ALSConfig, left_out=None) -> list[FactorModel]:
    """Run a stack of ALS fits that share m's mask, each to its own stop.

    left_out is None for the one fit on every observed cell, or an index
    array into the row-major observed cells: fit b then leaves out cell
    left_out[b], as a cold fit on m without it would. Each fit starts from
    the same seeded draws scaled by its own mean, and its RMSE and tol
    stop are over its own cells. A fit that stops leaves the stack and the
    rest go on. Every fit must be factorable.
    """
    mask = m.present_mask
    values = m.values
    n, mm = values.shape
    k = cfg.k

    # same cells and order as values[mask], far cheaper to gather
    observed = np.flatnonzero(mask)
    obs_rows, obs_cols = np.divmod(observed, mm)
    targets = values.ravel()[observed]
    X0 = np.where(mask, values, 0.0)
    M = mask.astype(np.float64)
    fits = 1 if left_out is None else len(left_out)
    # A fit's sums run over every observed cell with its left-out cell's
    # term zeroed, and divide by the fit's own cell count.
    resid = np.empty((fits, observed.size))
    resid[:] = targets
    skipped, count = None, observed.size
    if left_out is not None:
        skipped, count = (obs_rows[left_out], obs_cols[left_out]), count - 1
        resid[np.arange(fits), left_out] = 0.0
    scale = np.sqrt(resid.sum(axis=1) / count / k)

    rng = np.random.default_rng(cfg.seed)
    rng.uniform(0.5, 1.5, (n, k))  # row draws: the first half-step sets U
    V = rng.uniform(0.5, 1.5, (k, mm)) * scale[:, None, None]

    config = {"algorithm": "als", "k": cfg.k, "lambda": cfg.lam,
              "max_iters": cfg.max_iters, "tol": cfg.tol, "seed": cfg.seed}
    live = np.arange(fits)  # stack position -> fit
    histories: list[list[float]] = [[] for _ in live]
    models: list = [None] * fits
    factor = np.empty_like(resid)
    for it in range(cfg.max_iters):
        U = _half_step(V, M, X0, cfg.lam, skipped)
        V = _half_step(U.swapaxes(1, 2), M.T, X0.T, cfg.lam,
                       None if skipped is None else skipped[::-1])
        V = V.swapaxes(1, 2)
        # In place, since arrays this size cost more to allocate than to
        # fill; mode "clip" skips take's bounds check and buffered copy.
        r, f = resid[:len(live)], factor[:len(live)]
        if k == 1:  # one product per cell, without forming U @ V
            np.take(U[..., 0], obs_rows, axis=1, out=r, mode="clip")
            r *= np.take(V[:, 0], obs_cols, axis=1, out=f, mode="clip")
        else:
            np.take((U @ V).reshape(len(live), -1), observed, axis=1,
                    out=r, mode="clip")
        r -= targets
        r *= r
        if skipped is not None:
            r[np.arange(len(live)), left_out[live]] = 0.0
        rmse = np.sqrt(r.sum(axis=1) / count)
        stopped = []
        for i, (b, e) in enumerate(zip(live.tolist(), rmse.tolist())):
            h = histories[b]
            prev = h[-1] if h else None
            h.append(e)
            if it + 1 == cfg.max_iters or prev is not None and (
                    prev == 0.0 or abs(prev - e) / prev < cfg.tol):
                stopped.append(i)
                _sign_normalize(U[i], V[i])  # views; this fit is done
                models[b] = FactorModel(k, m.row_keys, m.col_keys, U[i],
                                        V[i], tuple(h), config)
        if len(stopped) == len(live):
            break
        if stopped:
            going = np.ones(len(live), dtype=bool)
            going[stopped] = False
            live, V = live[going], V[going]
            if skipped is not None:
                skipped = (skipped[0][going], skipped[1][going])
    return models


def als_fit(m, cfg: ALSConfig = ALSConfig()) -> FactorModel:
    """Factor the observed cells of the matrix into rank-K embeddings.

    Alternates exact regularized solves (rows, then columns), each
    half-step one batched solve shared by every K, until the relative
    change in training RMSE drops below tol or max_iters is hit.
    Initialization is seeded uniform noise in (0.5, 1.5) scaled so initial
    predictions land near the mean observed time. This is the stack of one
    fit that leaves no cell out.
    """
    _check_factorable(m.present_mask)
    return _fit_stack(m, cfg)[0]


def als_refits(m, cells, cfg: ALSConfig = ALSConfig()):
    """For each observed (row, col) in cells, in order, yield what
    als_fit(m.with_cell_missing(row, col), cfg) gives: its FactorModel, or
    the UnfactorableError it raises.

    The fits run in stacks whose (fits, cells) arrays stay near _STACK
    elements: _STACK // (observed cells) fits, or at K > 1, where each fit
    forms its full U @ V, _STACK // (all cells).
    """
    mask = m.present_mask
    observed = np.flatnonzero(mask)
    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    if not mask[rows, cols].all():
        raise ValueError("als_refits leaves out observed cells only")
    row_counts, col_counts = mask.sum(axis=1), mask.sum(axis=0)
    # without its cell, a fit has an empty row or column
    no_row = (row_counts == 0).any() | (row_counts[rows] == 1)
    no_col = (col_counts == 0).any() | (col_counts[cols] == 1)
    covered = np.flatnonzero(~(no_row | no_col))
    left_out = np.searchsorted(observed, rows * m.n_cols + cols)

    def fits():
        per_stack = max(1, _STACK // (observed.size if cfg.k == 1
                                      else mask.size))
        for stack in np.array_split(covered, -(-covered.size // per_stack)):
            yield from _fit_stack(m, cfg, left_out[stack])

    fitted = fits()
    for row_empty, col_empty in zip(no_row.tolist(), no_col.tolist()):
        if row_empty:
            yield UnfactorableError(_EMPTY_ROW)
        elif col_empty:
            yield UnfactorableError(_EMPTY_COL)
        else:
            yield next(fitted)


def svd_fit(m, k: int, max_outer: int = 50) -> FactorModel:
    """Impute-and-decompose completion: fill missing cells with row means,
    truncate an SVD to rank k, refill from the reconstruction, repeat.

    The rank-k truncation X P P^T needs only P, the top-k right singular
    vectors (left ones when X is wide), and those are the top-k
    eigenvectors of the smaller Gram matrix X^T X (X X^T): one small eigh
    per step in place of a full SVD. Squaring the spectrum costs accuracy:
    P's error grows like eps * s_1**2 / (s_k**2 - s_{k+1}**2), so where
    the k-th and (k+1)-th singular values are within rounding of each
    other, the rank-k subspace, and a full SVD's answer, are fixed by
    rounding alone. The factors are X P / sqrt(s) and sqrt(s) P^T (their
    roles swapped when X is wide), with s the norms of X P's columns, and
    zero where s is 0, as when k is above X's rank.

    Deterministic. Stops early once imputed cells settle.
    """
    mask = m.present_mask
    _check_factorable(mask)
    if not (1 <= k <= min(m.n_rows, m.n_cols)):
        raise ValueError(f"rank must be in [1, {min(m.n_rows, m.n_cols)}], got {k}")
    if max_outer < 1:
        raise ValueError("max_outer must be >= 1")
    values = m.values

    row_means = np.where(mask, values, 0.0).sum(axis=1) / mask.sum(axis=1)
    X = np.where(mask, values, row_means[:, None])
    # flat indices, in values[mask]'s order: only imputed cells are rewritten
    observed = np.flatnonzero(mask)
    missing = np.flatnonzero(~mask)
    targets = values.ravel()[observed]
    flat = X.ravel()  # a view, as is A: X or X^T, whichever has fewer columns
    wide = m.n_rows < m.n_cols
    A = X.T if wide else X
    history: list[float] = []
    for _ in range(max_outer):
        P = np.linalg.eigh(A.T @ A)[1][:, :-k - 1:-1]  # top k, descending
        AP = A @ P
        recon = AP @ P.T
        if wide:
            recon = recon.T
        resid = recon.take(observed) - targets
        history.append(float(np.sqrt(np.mean(resid * resid))))
        if not missing.size:
            break
        old = flat[missing]
        new = recon.take(missing)
        flat[missing] = new
        if np.all(np.abs(new - old) <= 1e-12 * (np.abs(old) + 1e-30)):
            break

    s = np.linalg.norm(AP, axis=0)
    root = np.sqrt(s)
    left = np.divide(AP, root, out=np.zeros_like(AP), where=s > 0)
    right = root[:, None] * P.T
    Uf, Vf = (right.T, left.T) if wide else (left, right)
    _sign_normalize(Uf, Vf)
    config = {"algorithm": "svd", "k": k, "max_outer": max_outer}
    return FactorModel(k, m.row_keys, m.col_keys, Uf, Vf, tuple(history), config)


def predict(model: FactorModel, row: int, col: int) -> float:
    """Inner product of the two embeddings, floored at a positive epsilon."""
    return max(float(model.row_factors[row] @ model.col_factors[:, col]),
               PREDICTION_FLOOR)


def predict_cells(model: FactorModel, rows, cols) -> np.ndarray:
    """predict for every cell (rows[i], cols[i]), as one stack of
    (1 x K) @ (K x 1) products; measured with OpenBLAS, these equal
    predict's bit for bit."""
    U = model.row_factors[rows][:, None, :]
    return np.maximum((U @ model.col_factors[:, cols].T[:, :, None])[:, 0, 0],
                      PREDICTION_FLOOR)


def predict_refits(fits, rows, cols):
    """predict for each cell (rows[i], cols[i]) from its own fit, as
    (values, reasons); fits yields, per cell, a FactorModel or the
    UnfactorableError that says why there is none, as als_refits does."""
    values, reasons = np.full(len(rows), np.nan), {}
    for i, (fit, r, c) in enumerate(zip(fits, rows, cols)):
        if isinstance(fit, UnfactorableError):
            reasons[i] = fit
        else:
            values[i] = fit.row_factors[r] @ fit.col_factors[:, c]
    return np.maximum(values, PREDICTION_FLOOR), reasons


def predict_all(model: FactorModel) -> np.ndarray:
    """Full reconstruction with the same positive floor as predict."""
    return np.maximum(model.row_factors @ model.col_factors, PREDICTION_FLOOR)


def rank_machines(model: FactorModel) -> list[str]:
    """Machines ordered fastest first by their scalar embedding (K=1 only);
    ties fall back to machine id."""
    if model.k != 1:
        raise ValueError("ordering defined only for K=1")
    emb = model.col_factors[0]
    order = sorted(range(len(model.col_keys)),
                   key=lambda j: (emb[j], model.col_keys[j]))
    return [model.col_keys[j] for j in order]


def model_to_json(model: FactorModel) -> dict:
    return {
        "k": model.k,
        "config": model.config,
        "train_rmse_history": list(model.train_rmse_history),
        "programs": [
            {"program": p, "args": a, "factors": model.row_factors[i].tolist()}
            for i, (p, a) in enumerate(model.row_keys)
        ],
        "machines": [
            {"machine": c, "factors": model.col_factors[:, j].tolist()}
            for j, c in enumerate(model.col_keys)
        ],
    }


def model_from_json(data: dict) -> FactorModel:
    k = int(data["k"])
    row_keys = tuple((p["program"], p["args"]) for p in data["programs"])
    col_keys = tuple(c["machine"] for c in data["machines"])
    U = np.array([p["factors"] for p in data["programs"]], dtype=np.float64)
    V = np.array([c["factors"] for c in data["machines"]], dtype=np.float64).T
    return FactorModel(k, row_keys, col_keys, U.reshape(len(row_keys), k),
                       V.reshape(k, len(col_keys)),
                       tuple(data.get("train_rmse_history", ())),
                       dict(data.get("config", {})))
