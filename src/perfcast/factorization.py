"""Low-rank completion: rank-K embeddings whose inner product is a time.

Alternating least squares is the workhorse: holding one side fixed, each
program (then each machine) factor is the exact solution of a small
ridge problem over that row's (column's) observed cells, and one K-major
Gaussian elimination, unpivoted as the systems are positive definite,
answers all of them (at K = 1, one divide); factors that overflow are
refused. The kernel runs a stack of fits that share one mask: a plain
fit is the stack of one, from seeded draws.
Leave-one-out fits the full matrix once that way, then refits every cell
without it, each refit started from the full fit's column factors (one
cell away from its own answer) and run to its own RMSE, stop and
coverage. The refits are one queue through a stack of slots: what every
fit of a matrix reads (observed cells, zero-filled times and mask,
seeded initial draws) is made once per matrix, the mask and times side
by side once per queue, and a refit's row and column without its
left-out cell, gathered from those, when it takes a slot. An iteration
runs the two half-steps and the RMSEs; where fits stop, the caller
reads them by slot from the stack's factors, and the next fits of the
queue take their slots. A refit's RMSE comes from sums the column
half-step already holds, unless those sums cancel down to rounding, and
a refit yields only the prediction of its left-out cell; the plain fit
gathers its residuals and becomes a FactorModel. Rank 1 is the default
and has a useful side effect: positive scalar embeddings put a total
performance order on machines. ALS reads `als_k`, `als_lambda`,
`als_max_iters`, `als_tol` and `seed` from the `RunConfig` it is given.
A simpler impute-and-decompose SVD, with its rank and step cap as
arguments, is a baseline that only sweeps score.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .matrix import PREDICTION_FLOOR

# elements per ALS stack, counted as (rows + cols) * (K + 2) per slot
# (see _fit_stack), and per chunk of gathered residuals
_STACK = 2 ** 16
# below this share of its sum of squared targets, a refit's SSE from sums
# is recomputed from its gathered residuals (see _fit_stack)
_EXACT = 1e-5


class UnfactorableError(ValueError):
    """A row or column with no observations, or factors that overflow."""


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Rank-k factors, row_factors C-ordered (rows, k), col_factors F-ordered
    (k, cols): each row's and column's k factors in one piece, summed by a
    BLAS dot in one order on every path."""

    k: int
    row_keys: tuple[tuple[str, str], ...]
    col_keys: tuple[str, ...]
    row_factors: np.ndarray  # N x K
    col_factors: np.ndarray  # K x M
    train_rmse_history: tuple[float, ...]
    config: dict

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"factor model rank must be at least 1, "
                             f"got {self.k}")
        if not self.row_keys or not self.col_keys:  # as a PCMatrix's
            raise ValueError("factor model needs at least one program and "
                             "one machine")
        rf = np.array(self.row_factors, dtype=np.float64, order="C")
        cf = np.array(self.col_factors, dtype=np.float64, order="F")
        if rf.shape != (len(self.row_keys), self.k):
            raise ValueError(f"row factor shape {rf.shape} does not match "
                             f"{len(self.row_keys)} rows x rank {self.k}")
        if cf.shape != (self.k, len(self.col_keys)):
            raise ValueError(f"column factor shape {cf.shape} does not match "
                             f"rank {self.k} x {len(self.col_keys)} columns")
        for keys in (self.row_keys, self.col_keys):  # as a PCMatrix's are
            if len(set(keys)) < len(keys):
                repeat = next(k for i, k in enumerate(keys) if k in keys[:i])
                raise ValueError(f"factor model repeats key {repeat!r}")
        rf.flags.writeable = False
        cf.flags.writeable = False
        object.__setattr__(self, "row_factors", rf)
        object.__setattr__(self, "col_factors", cf)


_EMPTY_ROW = "unfactorable matrix: a row has no observations"
_EMPTY_COL = "unfactorable matrix: a column has no observations"
_OVERFLOW = "unfactorable matrix: the fit's factors overflow to inf or nan"


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


class _Problem(NamedTuple):
    """What every ALS fit on one matrix reads, made once per matrix: its
    observed cells in row-major order (flat indices, rows, columns and
    times), the mask M as 0.0/1.0, the times X0 with 0.0 where unobserved,
    and the seeded initial column factors (K, cols) before the full fit's
    scale."""

    observed: np.ndarray
    obs_rows: np.ndarray
    obs_cols: np.ndarray
    targets: np.ndarray
    M: np.ndarray
    X0: np.ndarray
    draws: np.ndarray


def _problem(m, cfg: RunConfig) -> _Problem:
    mask = m.present_mask
    values = m.values
    # same cells and order as values[mask], far cheaper to gather
    observed = np.flatnonzero(mask)
    obs_rows, obs_cols = np.divmod(observed, m.n_cols)
    rng = np.random.default_rng(cfg.seed)
    # row draws: the first half-step sets U
    rng.uniform(0.5, 1.5, (m.n_rows, cfg.als_k))
    return _Problem(observed, obs_rows, obs_cols, values.ravel()[observed],
                    mask.astype(np.float64), np.where(mask, values, 0.0),
                    rng.uniform(0.5, 1.5, (cfg.als_k, m.n_cols)))


def _half_step(F, M, X0, lam, left=None):
    """Exact regularized least-squares solve for every row of every fit.

    F is (K, fits, cols): each fit's factors, held fixed. Row i of fit b
    minimizes sum_j M[i, j] * (X0[i, j] - u . F[:, b, j])**2 + lam * |u|**2,
    so solves (A + lam I) u = r. One matmul against the stacked outer
    products of F's columns gives every A, and one against F every r, laid
    out K-major: (K, K, fits, rows) and (K, fits, rows). left, when given,
    is (rows, M_rows, X0_rows): fit b leaves out a cell of row rows[b], and
    M_rows[b] and X0_rows[b] are that row of M and X0 without the cell.
    The system of that row is rebuilt from them, since subtracting the
    cell's term from the full sum cancels badly.

    Gaussian elimination over K and back substitution solve every system
    at once, each step one operation over all fits and rows (at K = 1, one
    divide). lam > 0 makes A + lam I symmetric positive definite: its
    pivots stay positive, and elimination is stable without pivoting.

    Returns (x, r), both (K, fits, rows): the solutions, which are the next
    half-step's F, and the right-hand sides.
    """
    k, fits, cols = F.shape
    FF = (F[:, None] * F).reshape(-1, cols)  # (K, K, fits) outer products
    if k == 1:  # (rows, fits) as the matmuls lay them out, seen K-major
        A, r = (M @ FF.T).T[None, None], (X0 @ F[0].T).T[None]
    else:
        A = (FF @ M.T).reshape(k, k, fits, -1)
        r = (F.reshape(-1, cols) @ X0.T).reshape(k, fits, -1)
    if left is not None:
        rows, m_rows, x_rows = left
        stack = np.arange(fits)
        FF = FF.reshape(-1, fits, cols).transpose(1, 2, 0)
        A[..., stack, rows] = (m_rows[:, None] @ FF)[:, 0].T.reshape(k, k, -1)
        r[..., stack, rows] = (x_rows[:, None] @ F.transpose(1, 2, 0))[:, 0].T
    for j in range(k):
        A[j, j] += lam
    if k == 1:
        return np.divide(r, A[0], out=A[0]), r
    x = r.copy()
    for j in range(1, k):  # clear column j - 1 below the diagonal
        f = A[j:, j - 1] / A[j - 1, j - 1]
        A[j:, j:] -= f[:, None] * A[j - 1, j:]
        x[j:] -= f * x[j - 1]
    for j in reversed(range(k)):
        x[j] /= A[j, j]
        x[:j] -= A[:j, j] * x[j]
    return x, r


def _gathered_sse(U, V, p: _Problem, left_out=None):
    """Each fit's sum of squared residuals over p's observed cells, from
    the gathered predictions, fit b's left-out cell left_out[b] (an index
    into p.observed) counted as zero.

    The fits go in chunks of at most _STACK gathered elements: at K = 1
    one product per cell, without forming U @ V, and at K > 1 each fit's
    full U @ V.
    """
    fits, n, k = U.shape
    cols = V.shape[2]
    step = max(1, _STACK // (p.observed.size if k == 1 else n * cols))
    sse = np.empty(fits)
    for s in range(0, fits, step):
        if k == 1:
            r = U[s:s + step, p.obs_rows, 0] * V[s:s + step, 0, p.obs_cols]
        else:
            r = (U[s:s + step] @ V[s:s + step]).reshape(-1, n * cols)
            r = r[:, p.observed]
        r -= p.targets
        r *= r
        if left_out is not None:
            r[np.arange(len(r)), left_out[s:s + step]] = 0.0
        sse[s:s + step] = r.sum(axis=1)
    return sse


def _fit_stack(p: _Problem, cfg: RunConfig, start, left_out=None):
    """Run ALS fits on one matrix, each to its own stop, from the column
    factors start (K, cols); a generator.

    p is _problem(m, cfg) for the matrix m. left_out is None for the one
    fit on every observed cell, or an index array into p.observed, a
    queue of refits: fit b leaves out cell left_out[b], and its RMSE and
    tol stop are over its own cells. The queue runs in a stack of
    _STACK // ((rows + cols) * (K + 2)) slots of per-row and per-column
    systems, (rows + cols) * (K**2 + 2K) elements each: every elimination
    step has a fixed cost, which more fits per stack amortize as K grows.
    When fits stop, the next fits of the queue take their slots; the stack
    shrinks once the queue is empty. Each fit's left-out row and column,
    and its sum x**2, come from arrays made once per queue: a fit that
    takes a slot gathers its row of the mask and times side by side,
    (rows, 2 cols), and its column of their transpose, and zeroes its
    cell in both. Every fit must be factorable; one with a NaN RMSE
    stops.

    The one fit's RMSE is gathered from its residuals. A refit's comes
    from the column half-step's sums instead: since (A_c + lam I) v_c =
    b_c for each column c, its SSE is sum x**2 - sum_c v_c . b_c -
    lam |V|**2 over its own cells. That difference cancels as the fit
    closes in on its targets, so a refit whose SSE falls below _EXACT of
    its sum x**2 is gathered too.

    Yields, per iteration, (rmse, fits, iters, slots, Ut, V): the RMSE of
    each fit in the stack, in stack order, then the fits that stopped
    (their indices into left_out, [0] for the one fit), their iteration
    counts and their slots in the stack's factors Ut (K, stack, rows) and
    V (K, stack, cols), which hold until the generator resumes.
    """
    M, X0, targets = p.M, p.X0, p.targets
    n, mm = M.shape
    k, lam = cfg.als_k, cfg.als_lambda
    refit = left_out is not None
    if refit:
        queue, count = len(left_out), targets.size - 1
        slots = min(queue, max(1, _STACK // ((n + mm) * (k + 2))))
        cell_rows, cell_cols = p.obs_rows[left_out], p.obs_cols[left_out]
        cell_sumsq = targets @ targets - targets[left_out] ** 2
        # the mask and times side by side: (rows, 2 cols), (cols, 2 rows)
        row_mx = np.concatenate((M, X0), axis=1)
        col_mx = np.concatenate((M.T, X0.T), axis=1)
        held_r, held_c = np.empty((slots, 2 * mm)), np.empty((slots, 2 * n))
    else:
        queue = slots = 1
        by_row = by_col = None
        count = targets.size
    live = np.empty(slots, dtype=np.intp)  # stack slot -> fit
    age = np.empty(slots, dtype=np.intp)
    prev = np.full(slots, np.nan)  # no RMSE yet: no stop
    V = np.empty((k, slots, mm))  # (K, stack, cols)
    loaded, fill = 0, np.arange(slots)  # every slot takes a fit
    while live.size:
        if fill.size:  # the next fits of the queue take slots fill
            fits = np.arange(loaded, loaded + fill.size)
            loaded += fill.size
            live[fill], age[fill], V[:, fill] = fits, 0, start[:, None]
            if refit:  # their left-out rows and columns, without the cells
                r, c = cell_rows[fits], cell_cols[fits]
                held_r[fill], held_c[fill] = row_mx[r], col_mx[c]
                held_r[fill[:, None], c[:, None] + (0, mm)] = 0.0
                held_c[fill[:, None], r[:, None] + (0, n)] = 0.0
        if refit:
            rows, cols = cell_rows[live], cell_cols[live]
            by_row = rows, held_r[:, :mm], held_r[:, mm:]
            by_col = cols, held_c[:, :n], held_c[:, n:]
            sumsq = cell_sumsq[live]
        Ut, _ = _half_step(V, M, X0, lam, by_row)
        V, b = _half_step(Ut, M.T, X0.T, lam, by_col)
        if refit:
            sse = (sumsq - np.einsum("kfc,kfc->f", V, b)
                   - lam * np.einsum("kfc,kfc->f", V, V))
            near = (sse < _EXACT * sumsq).nonzero()[0]
            if near.size:
                sse[near] = _gathered_sse(Ut.transpose(1, 2, 0)[near],
                                          V.swapaxes(0, 1)[near], p,
                                          left_out[live[near]])
        else:
            sse = _gathered_sse(Ut.transpose(1, 2, 0), V.swapaxes(0, 1), p)
        # A rounded difference can dip below zero; sqrt would warn.
        rmse = np.sqrt(np.maximum(sse, 0.0) / count)
        age += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            done = ((age == cfg.als_max_iters) | (prev == 0.0) | np.isnan(rmse)
                    | (np.abs(prev - rmse) / prev < cfg.als_tol))
        # C-ordered, as the solve lays it out at K > 1: the next row
        # half-step hands BLAS the same operands wherever fits stopped
        V = np.ascontiguousarray(V)
        stop = done.nonzero()[0]
        yield rmse, live[stop], age[stop], stop, Ut, V
        if not refit and stop.size:  # the one fit stopped
            return
        # a stopped slot is refilled, with no RMSE yet, or dropped
        fill, prev = stop[:queue - loaded], np.where(done, np.nan, rmse)
        if fill.size < stop.size:  # the queue is empty
            keep = ~done
            keep[fill] = True
            live, age, prev, V = live[keep], age[keep], prev[keep], V[:, keep]
            held_r, held_c = held_r[keep], held_c[keep]
            fill = np.cumsum(keep)[fill] - 1  # where those slots moved


def _full_fit(p: _Problem, cfg: RunConfig):
    """The one fit on every observed cell, from the seeded draws scaled so
    that initial predictions land near the mean observed time: its row
    factors (rows, K), column factors (K, cols) and RMSE per iteration."""
    t = p.targets
    trail = []
    with np.errstate(all="ignore"):  # callers check
        for rmse, _, _, _, Ut, V in _fit_stack(
                p, cfg, p.draws * np.sqrt(t.sum() / t.size / cfg.als_k)):
            trail.append(rmse.item())
    return Ut[:, 0].T, V[:, 0], trail


def als_fit(m, cfg: RunConfig = RunConfig()) -> FactorModel:
    """Factor the observed cells of the matrix into rank-K embeddings.

    Alternates exact regularized solves (rows, then columns), each
    half-step one batched solve shared by every K, until the relative
    change in training RMSE drops below tol or max_iters is hit.
    Initialization is seeded uniform noise in (0.5, 1.5) scaled so initial
    predictions land near the mean observed time. This is the stack of one
    fit that leaves no cell out.
    """
    _check_factorable(m.present_mask)
    U, V, trail = _full_fit(_problem(m, cfg), cfg)
    if not (np.isfinite(U).all() and np.isfinite(V).all()):
        raise UnfactorableError(_OVERFLOW)
    _sign_normalize(U, V)
    config = {"algorithm": "als", "k": cfg.als_k, "lambda": cfg.als_lambda,
              "max_iters": cfg.als_max_iters, "tol": cfg.als_tol,
              "seed": cfg.seed}
    return FactorModel(cfg.als_k, m.row_keys, m.col_keys, U, V,
                       tuple(trail), config)


def als_refits(m, rows, cols, cfg: RunConfig = RunConfig()):
    """Predict each observed cell (rows[i], cols[i]) from its own fit on
    m without that cell, started from the column factors of als_fit(m,
    cfg); returns (values, reasons, iters): values[i] the floored
    prediction, NaN where the fit raises, reasons mapping each such i to
    its UnfactorableError, and iters[i] the fit's iteration count, 0
    where the fit raises.

    The full matrix is fit once, as als_fit fits it; every refit then
    starts from its column factors, one cell away from the refit's own
    answer, and runs to its own stop. The refits are one queue through
    _fit_stack's stack of slots.
    """
    mask = m.present_mask
    if not mask[rows, cols].all():
        raise ValueError("als_refits leaves out observed cells only")
    row_counts, col_counts = mask.sum(axis=1), mask.sum(axis=0)
    # without its cell, a fit has an empty row or column
    no_row = (row_counts == 0).any() | (row_counts[rows] == 1)
    no_col = (col_counts == 0).any() | (col_counts[cols] == 1)
    reasons = {i: UnfactorableError(_EMPTY_ROW if no_row[i] else _EMPTY_COL)
               for i in np.flatnonzero(no_row | no_col).tolist()}
    covered = np.flatnonzero(~(no_row | no_col))
    values = np.full(len(rows), np.nan)
    iters = np.zeros(len(rows), dtype=np.intp)
    if covered.size:  # then m has no empty row or column
        p = _problem(m, cfg)
        _, start, _ = _full_fit(p, cfg)
        left_out = np.searchsorted(p.observed, rows[covered] * m.n_cols
                                   + cols[covered])
        with np.errstate(all="ignore"):  # checked below
            for _, fits, n_iters, stop, Ut, V in _fit_stack(p, cfg, start,
                                                            left_out):
                cells = covered[fits]
                iters[cells] = n_iters
                # each cell's factors, K contiguous: one BLAS dot apiece
                u = Ut.transpose(1, 2, 0)[stop, rows[cells]]
                v = V.swapaxes(0, 1)[stop, :, cols[cells]]
                values[cells] = (u[:, None] @ v[:, :, None])[:, 0, 0]
        over = covered[~np.isfinite(values[covered])]  # the fit overflowed
        reasons |= dict.fromkeys(over.tolist(), UnfactorableError(_OVERFLOW))
        values[over], iters[over] = np.nan, 0
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
    old = flat[missing]
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
        new = recon.take(missing)
        flat[missing] = new
        # one cell first: the full test runs once that cell has settled
        if (abs(new[0] - old[0]) <= 1e-12 * (abs(old[0]) + 1e-30) and
                np.all(np.abs(new - old) <= 1e-12 * (np.abs(old) + 1e-30))):
            break
        old = new

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
    factor list whose length is not the rank, a factor that is not
    finite, or a key not made of strings or given twice."""
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
        if not all(type(x) is str for x in
                   (key if isinstance(key, tuple) else (key,))):
            raise ValueError(f"key {key!r} is not made of strings")
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
