"""Low-rank completion: rank-K embeddings whose inner product is a time.

Alternating least squares is the workhorse: holding one side fixed, each
program (then each machine) factor is the exact solution of a small ridge
problem over that row's (column's) observed cells, and one batched solve
answers all of them, for every K. The kernel runs a stack of fits that
share one mask: leave-one-out refits many at once, each leaving out its
own cell, with its own initial scale, RMSE, stop and coverage, as a cold
fit without that cell would; a plain fit is the stack of one. A refit's
RMSE comes from sums the column half-step already holds, unless those
sums cancel down to rounding, and a refit yields only the prediction of
its left-out cell; the plain fit gathers its residuals and becomes a
FactorModel. Rank 1 is the default and has a useful side effect:
positive scalar embeddings put a total performance order on machines. A
simpler impute-and-decompose SVD variant is included for comparison.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .matrix import PREDICTION_FLOOR

# elements per ALS stack: bounds its stacked per-row and per-column
# systems, and each chunk of gathered residuals
_STACK = 2 ** 15
# below this share of its sum of squared targets, a refit's SSE from sums
# is recomputed from its gathered residuals (see _fit_stack)
_EXACT = 1e-5


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
        if not self.lam > 0:  # at 0, a row seen fewer than K times is singular
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not np.isfinite(self.lam):  # at inf, every factor is 0
            raise ValueError(f"lambda must be finite, got {self.lam}")
        if self.max_iters < 1 or not 0 < self.tol < np.inf:
            raise ValueError(f"max_iters must be >= 1 and tol positive and "
                             f"finite, got {self.max_iters} and {self.tol}")


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
    subtracting the cell's term from the full sum cancels badly.

    Returns (x, b), both (fits, rows, K): the solutions and the right-hand
    sides sum_j M[i, j] * X0[i, j] * F[b, :, j] they solve for.
    """
    fits, k, cols = F.shape
    FF = (F[:, :, None, :] * F[:, None, :, :]).reshape(fits, k * k, cols)
    # Kept (rows, fits, ...) as the matmuls lay them out, which the solve
    # reads without a copy; the results are returned as (fits, rows, K).
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
    A += lam * np.eye(k)
    if k == 1:  # the 1 x 1 solve, over A, without a LAPACK call per row
        x = np.divide(b, A[..., 0], out=A[..., 0])
    else:
        x = np.linalg.solve(A, b[..., None])[..., 0]
    return x.swapaxes(0, 1), b.swapaxes(0, 1)


def _gathered_sse(U, V, obs_rows, obs_cols, targets, left_out=None):
    """Each fit's sum of squared residuals over its observed cells, from
    the gathered predictions: the cells (obs_rows[j], obs_cols[j]) with
    targets[j], fit b's left-out cell left_out[b] counted as zero.

    The fits go in chunks of at most _STACK gathered elements: at K = 1
    one product per cell, without forming U @ V, and at K > 1 each fit's
    full U @ V.
    """
    fits, n, k = U.shape
    cols = V.shape[2]
    observed = obs_rows * cols + obs_cols
    step = max(1, _STACK // (observed.size if k == 1 else n * cols))
    sse = np.empty(fits)
    for s in range(0, fits, step):
        if k == 1:
            r = U[s:s + step, obs_rows, 0] * V[s:s + step, 0, obs_cols]
        else:
            r = (U[s:s + step] @ V[s:s + step]).reshape(-1, n * cols)
            r = r[:, observed]
        r -= targets
        r *= r
        if left_out is not None:
            r[np.arange(len(r)), left_out[s:s + step]] = 0.0
        sse[s:s + step] = r.sum(axis=1)
    return sse


def _fit_stack(m, cfg: ALSConfig, left_out=None):
    """Run a stack of ALS fits that share m's mask, each to its own stop.

    left_out is None for the one fit on every observed cell, or an index
    array into the row-major observed cells: fit b then leaves out cell
    left_out[b], as a cold fit on m without it would. Each fit starts from
    the same seeded draws scaled by its own mean, and its RMSE and tol
    stop are over its own cells. A fit that stops leaves the stack and the
    rest go on. Every fit must be factorable.

    The one fit's RMSE is gathered from its residuals. A refit's comes
    from the column half-step's sums instead: since (A_c + lam I) v_c =
    b_c for each column c, its SSE is sum x**2 - sum_c v_c . b_c -
    lam |V|**2 over its own cells. That difference cancels as the fit
    closes in on its targets, so a refit whose SSE falls below _EXACT of
    its sum x**2 is gathered too.

    Returns (U, V, iters, trail): each fit's final factors, (fits, rows,
    K) and (fits, K, cols), its iteration count, and per iteration the
    RMSE of the fits still running, in stack order.
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
    if left_out is None:
        fits, skipped, count = 1, None, observed.size
        total = targets.sum(keepdims=True)
    else:
        fits, count = len(left_out), observed.size - 1
        skipped = (obs_rows[left_out], obs_cols[left_out])
        x_left = targets[left_out]
        total = targets.sum() - x_left
        sumsq = targets @ targets - x_left * x_left
    scale = np.sqrt(total / count / k)

    rng = np.random.default_rng(cfg.seed)
    rng.uniform(0.5, 1.5, (n, k))  # row draws: the first half-step sets U
    V = rng.uniform(0.5, 1.5, (k, mm)) * scale[:, None, None]

    live = np.arange(fits)  # stack position -> fit
    U_out, V_out = np.empty((fits, n, k)), np.empty((fits, k, mm))
    iters = np.empty(fits, dtype=np.intp)
    trail, prev = [], None
    for it in range(1, cfg.max_iters + 1):
        U, _ = _half_step(V, M, X0, cfg.lam, skipped)
        Vt, b = _half_step(U.swapaxes(1, 2), M.T, X0.T, cfg.lam,
                           None if skipped is None else skipped[::-1])
        V = Vt.swapaxes(1, 2)
        if skipped is None:
            sse = _gathered_sse(U, V, obs_rows, obs_cols, targets)
        else:
            fit_sumsq = sumsq[live]
            sse = (fit_sumsq - np.einsum("fck,fck->f", Vt, b)
                   - cfg.lam * np.einsum("fck,fck->f", Vt, Vt))
            near = np.flatnonzero(sse < _EXACT * fit_sumsq)
            if near.size:
                sse[near] = _gathered_sse(U[near], V[near], obs_rows,
                                          obs_cols, targets,
                                          left_out[live[near]])
        # A rounded difference can dip below zero; sqrt would warn.
        rmse = np.sqrt(np.maximum(sse, 0.0) / count)
        trail.append(rmse)
        if it == cfg.max_iters:
            done = np.ones(len(live), dtype=bool)
        elif prev is None:
            done = np.zeros(len(live), dtype=bool)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                done = (prev == 0.0) | (np.abs(prev - rmse) / prev < cfg.tol)
        stopped = live[done]
        U_out[stopped], V_out[stopped], iters[stopped] = U[done], V[done], it
        if done.all():
            break
        going = ~done
        live, V, prev = live[going], V[going], rmse[going]
        if skipped is not None:
            skipped = (skipped[0][going], skipped[1][going])
    return U_out, V_out, iters, trail


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
    U, V, _, trail = _fit_stack(m, cfg)
    U, V = U[0], V[0]
    _sign_normalize(U, V)
    config = {"algorithm": "als", "k": cfg.k, "lambda": cfg.lam,
              "max_iters": cfg.max_iters, "tol": cfg.tol, "seed": cfg.seed}
    return FactorModel(cfg.k, m.row_keys, m.col_keys, U, V,
                       tuple(rmse.item() for rmse in trail), config)


def als_refits(m, rows, cols, cfg: ALSConfig = ALSConfig()):
    """Predict each observed cell (rows[i], cols[i]) from its own fit, as
    predict(als_fit(m.with_cell_missing(rows[i], cols[i]), cfg), rows[i],
    cols[i]) would; returns (values, reasons, iters): values[i] the
    floored prediction, NaN where the fit raises, reasons mapping each
    such i to its UnfactorableError, and iters[i] the fit's iteration
    count, 0 where the fit raises.

    The fits run in stacks of about _STACK elements of their per-row and
    per-column systems: _STACK // ((rows + cols) * (K**2 + 2K)) fits.
    """
    mask = m.present_mask
    observed = np.flatnonzero(mask)
    if not mask[rows, cols].all():
        raise ValueError("als_refits leaves out observed cells only")
    row_counts, col_counts = mask.sum(axis=1), mask.sum(axis=0)
    # without its cell, a fit has an empty row or column
    no_row = (row_counts == 0).any() | (row_counts[rows] == 1)
    no_col = (col_counts == 0).any() | (col_counts[cols] == 1)
    reasons = {i: UnfactorableError(_EMPTY_ROW if no_row[i] else _EMPTY_COL)
               for i in np.flatnonzero(no_row | no_col).tolist()}
    covered = np.flatnonzero(~(no_row | no_col))
    left_out = np.searchsorted(observed, rows * m.n_cols + cols)

    values = np.full(len(rows), np.nan)
    iters = np.zeros(len(rows), dtype=np.intp)
    k = cfg.k
    per_stack = max(1, _STACK // ((m.n_rows + m.n_cols) * (k * k + 2 * k)))
    for start in range(0, covered.size, per_stack):
        stack = covered[start:start + per_stack]
        U, V, iters[stack], _ = _fit_stack(m, cfg, left_out[stack])
        fit = np.arange(stack.size)
        values[stack] = (U[fit, rows[stack]][:, None, :]
                         @ V[fit, :, cols[stack]][:, :, None])[:, 0, 0]
    return np.maximum(values, PREDICTION_FLOOR), reasons, iters


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
    """predict_cells for the one cell (row, col)."""
    return float(predict_cells(model, [row], [col])[0])


def predict_cells(model: FactorModel, rows, cols) -> np.ndarray:
    """Inner product of the two embeddings of every cell (rows[i],
    cols[i]), floored at a positive epsilon, as one stack of (1 x K) @
    (K x 1) products."""
    U = model.row_factors[rows][:, None, :]
    return np.maximum((U @ model.col_factors[:, cols].T[:, :, None])[:, 0, 0],
                      PREDICTION_FLOOR)


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
    """Inverse of model_to_json; ValueError names a missing key, a value of
    the wrong type, a rank k that is not an integer of at least 1, a
    factor list whose length is not the rank, or a factor that is not
    finite."""
    if not isinstance(data, dict):
        raise ValueError(f"model JSON must be an object, "
                         f"not {type(data).__name__}")
    try:
        k = data["k"]
        keys = [(p["program"], p["args"]) for p in data["programs"]]
        keys += [c["machine"] for c in data["machines"]]
        factors = [e["factors"] for e in data["programs"] + data["machines"]]
    except KeyError as exc:
        raise ValueError(f"model JSON lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"model JSON is malformed: {exc}") from None
    if type(k) is not int or k < 1:  # bool is not int here
        raise ValueError(f"model JSON k is {k!r}, not an integer of at "
                         f"least 1")
    for key, f in zip(keys, factors):
        if not (isinstance(f, list) and
                all(type(x) in (int, float) for x in f)):
            raise ValueError(f"factors of {key!r} are {f!r}, not a list "
                             f"of numbers")
        if len(f) != k:
            raise ValueError(f"factors of {key!r} have length {len(f)}, "
                             f"not rank {k}")
        # false for NaN, the infinities and an int no float can hold
        if not all(abs(x) <= sys.float_info.max for x in f):
            raise ValueError(f"factors of {key!r} are {f!r}, not finite")
    history = data.get("train_rmse_history", [])
    if not (isinstance(history, list) and
            all(type(x) in (int, float) for x in history)):
        raise ValueError(f"model JSON train_rmse_history is {history!r}, "
                         f"not a list of numbers")
    config = data.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"model JSON config is {config!r}, not an object")
    n = len(data["programs"])
    F = np.array(factors, dtype=np.float64).reshape(len(keys), k)
    return FactorModel(k, tuple(keys[:n]), tuple(keys[n:]), F[:n], F[n:].T,
                       tuple(history), dict(config))
