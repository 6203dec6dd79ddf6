"""Low-rank completion: rank-K embeddings whose inner product is a time.

Alternating least squares is the workhorse: holding one side fixed, each
program (then each machine) factor is the exact solution of a small ridge
problem over that row's (column's) observed cells, and one batched solve
answers all of them, for every K. Rank 1 is the default and has a useful
side effect: positive scalar embeddings put a total performance order on
machines. A simpler impute-and-decompose SVD variant is included for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import PREDICTION_FLOOR


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
        cf = np.array(self.col_factors, dtype=np.float64)
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


def _check_factorable(mask):
    if not mask.any(axis=1).all():
        raise UnfactorableError("unfactorable matrix: a row has no observations")
    if not mask.any(axis=0).all():
        raise UnfactorableError("unfactorable matrix: a column has no observations")


def _sign_normalize(U, V):
    """Flip latent dimensions so every column-factor dimension has positive
    mean; predictions are unchanged because both sides flip together."""
    for k in range(V.shape[0]):
        if V[k].mean() < 0:
            V[k] *= -1.0
            U[:, k] *= -1.0


def _half_step(F, M, X0, lam):
    """Exact regularized least-squares solve for every row at once.

    With F (K x cols) held fixed, row i of the result minimizes
    sum_j M[i, j] * (X0[i, j] - u . F[:, j])**2 + lam * |u|**2. All rows'
    K x K Gram matrices come from one matmul against the stacked outer
    products of F's columns. With lam == 0 a row observed fewer than K
    times is singular; the pseudo-inverse gives its minimum-norm solution.
    """
    k = len(F)
    FF = (F[:, None, :] * F[None, :, :]).reshape(k * k, -1)
    A = (M @ FF.T).reshape(-1, k, k) + lam * np.eye(k)
    b = X0 @ F.T
    if lam > 0:
        return np.linalg.solve(A, b[..., None])[..., 0]
    return (np.linalg.pinv(A) @ b[..., None])[..., 0]


def als_fit(m, cfg: ALSConfig = ALSConfig()) -> FactorModel:
    """Factor the observed cells of the matrix into rank-K embeddings.

    Alternates exact regularized solves (rows, then columns), each
    half-step one batched solve shared by every K, until the relative
    change in training RMSE drops below tol or max_iters is hit.
    Initialization is seeded uniform noise in (0.5, 1.5) scaled so initial
    predictions land near the mean observed time.
    """
    mask = m.present_mask
    _check_factorable(mask)
    values = m.values
    n, mm = values.shape
    k = cfg.k

    # same cells and order as values[mask], far cheaper to gather
    observed = np.flatnonzero(mask)
    targets = values.ravel()[observed]
    X0 = np.where(mask, values, 0.0)
    M = mask.astype(np.float64)

    rng = np.random.default_rng(cfg.seed)
    scale = np.sqrt(targets.mean() / k)
    U = rng.uniform(0.5, 1.5, (n, k)) * scale
    V = rng.uniform(0.5, 1.5, (k, mm)) * scale

    history: list[float] = []
    prev = None
    for _ in range(cfg.max_iters):
        U = _half_step(V, M, X0, cfg.lam)
        V = _half_step(U.T, M.T, X0.T, cfg.lam).T
        resid = (U @ V).ravel()[observed] - targets
        rmse = float(np.sqrt(np.mean(resid * resid)))
        history.append(rmse)
        if prev is not None and (prev == 0.0 or abs(prev - rmse) / prev < cfg.tol):
            break
        prev = rmse

    _sign_normalize(U, V)
    config = {"algorithm": "als", "k": cfg.k, "lambda": cfg.lam,
              "max_iters": cfg.max_iters, "tol": cfg.tol, "seed": cfg.seed}
    return FactorModel(k, m.row_keys, m.col_keys, U, V, tuple(history), config)


def svd_fit(m, k: int, max_outer: int = 50, seed: int = 0) -> FactorModel:
    """Impute-and-decompose completion: fill missing cells with row means,
    truncate an SVD to rank k, refill from the reconstruction, repeat.

    Deterministic; the seed is only echoed into the model config. Stops
    early once imputed cells settle.
    """
    mask = m.present_mask
    _check_factorable(mask)
    if not (1 <= k <= min(m.n_rows, m.n_cols)):
        raise ValueError(f"rank must be in [1, {min(m.n_rows, m.n_cols)}], got {k}")
    if max_outer < 1:
        raise ValueError("max_outer must be >= 1")
    values = m.values

    row_means = np.array([values[i, mask[i]].mean() for i in range(m.n_rows)])
    X = np.where(mask, values, row_means[:, None])
    missing = ~mask
    history: list[float] = []
    U = s = Vt = None
    for _ in range(max_outer):
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        recon = (U[:, :k] * s[:k]) @ Vt[:k]
        resid = recon[mask] - values[mask]
        history.append(float(np.sqrt(np.mean(resid * resid))))
        if not missing.any():
            break
        old = X[missing]
        new = recon[missing]
        X = np.where(mask, values, recon)
        if np.all(np.abs(new - old) <= 1e-12 * (np.abs(old) + 1e-30)):
            break

    root = np.sqrt(s[:k])
    Uf = U[:, :k] * root
    Vf = root[:, None] * Vt[:k]
    _sign_normalize(Uf, Vf)
    config = {"algorithm": "svd", "k": k, "max_outer": max_outer, "seed": seed}
    return FactorModel(k, m.row_keys, m.col_keys, Uf, Vf, tuple(history), config)


def predict(model: FactorModel, row: int, col: int) -> float:
    """Inner product of the two embeddings, floored at a positive epsilon."""
    return max(float(model.row_factors[row] @ model.col_factors[:, col]),
               PREDICTION_FLOOR)


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
