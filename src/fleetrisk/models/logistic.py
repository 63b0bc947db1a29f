"""L2-regularized logistic regression, fitted by full-batch descent.

The objective is mean negative log-likelihood plus (lambda/2)||w||^2 with
the intercept left out of the penalty. Each step is backtracked until it
decreases the objective enough. The default solver takes damped Newton
steps, which converge in a handful of iterations on the well-conditioned
matrices produced by standardization; "gd" takes plain gradient steps.

A Newton step eliminates the widest one-hot group whose rows store at
most one of its columns (`vehicle_id` at default features): its Hessian
block is diagonal, so only the other m columns and the intercept, held
once per fit as one dense n x (m+1) array, meet in an (m+1)-square solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from ..errors import InvalidConfigError, NonFiniteFeatureError, SingleClassLabelsError
from ..features import FeatureMatrix, Fitted, onehot_groups

BACKTRACK_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
ROW_CHUNK = 4096  # rows per cache-sized slice of the Newton step's dense product


@dataclass(frozen=True)
class LogisticHyper:
    l2_lambda: float = 1e-4
    max_iters: int = 500
    tol: float = 1e-8
    solver: str = "newton"  # "newton" | "gd"

    def __post_init__(self):
        # nan fails both comparisons; an infinite l2_lambda or tol gives nan weights or the origin
        for name in ("l2_lambda", "max_iters", "tol"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InvalidConfigError(f"{name} must be finite and >= 0")
        if self.solver not in ("gd", "newton"):
            raise InvalidConfigError(f"unknown solver {self.solver!r}")


@dataclass
class LogisticModel(Fitted):
    weights: np.ndarray    # per-column coefficients
    intercept: float
    # how the fit went; not saved with the model
    n_iters: int = field(default=0, metadata={"fit_stat": True})
    converged: bool = field(default=False, metadata={"fit_stat": True})

    kind = "logistic"

    def decision_scores(self, X) -> np.ndarray:
        return X @ self.weights + self.intercept

    def predict_proba(self, X) -> np.ndarray:
        return expit(self.decision_scores(X))


def _nll(z: np.ndarray, y: np.ndarray) -> float:
    # mean over rows of log(1 + exp(-z)) for y=1 and log(1 + exp(z)) for y=0,
    # both via logaddexp so large |z| cannot overflow
    signed = np.where(y == 1, -z, z)
    return float(np.mean(np.logaddexp(0.0, signed)))


def _objective(z: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    return _nll(z, y) + 0.5 * lam * float(w @ w)


def fit_logistic(matrix: FeatureMatrix, hyper: LogisticHyper = LogisticHyper()) -> LogisticModel:
    X = matrix.values
    y = np.asarray(matrix.labels, dtype=np.float64)
    n, p = X.shape

    if not np.all(np.isfinite(X.data)):
        raise NonFiniteFeatureError("design matrix contains non-finite values")
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    lam = hyper.l2_lambda
    layout = _layout(X, matrix.columns) if hyper.solver == "newton" else None
    w = np.zeros(p)
    b = 0.0
    z = np.zeros(n)

    def grads(q):
        r = (q - y) / n
        return X.T @ r + lam * w, float(r.sum())

    obj = _objective(z, y, w, lam)
    # n_iters counts the steps taken; the gradient is checked before each and after the last
    for n_iters in range(hyper.max_iters + 1):
        q = expit(z)  # once per iteration: the gradient and the Newton step share it
        gw, gb = grads(q)
        converged = float(np.sqrt(gw @ gw + gb * gb)) <= hyper.tol
        if converged or n_iters == hyper.max_iters:
            break

        if hyper.solver == "newton":
            step_w, step_b = _newton_step(layout, q, gw, gb, lam, n)
        else:
            step_w, step_b = -gw, -gb

        # backtracking: shrink until the Armijo decrease condition holds
        descent = float(gw @ step_w + gb * step_b)
        step = 1.0
        for _ in range(60):
            w_try = w + step * step_w
            b_try = b + step * step_b
            z_try = X @ w_try + b_try
            obj_try = _objective(z_try, y, w_try, lam)
            if obj_try <= obj + ARMIJO_SLOPE * step * descent:
                break
            step *= BACKTRACK_SHRINK
        w, b, z, obj = w_try, b_try, z_try, obj_try

    return LogisticModel.of(matrix, weights=w, intercept=b, n_iters=n_iters, converged=converged)


def _layout(X, columns):
    """The block's column indices and columns transposed; the other indices, and their columns dense beside ones."""
    block = next((group[0] for group in onehot_groups(X, columns)), np.empty(0, dtype=np.intp))  # the widest
    rest = np.setdiff1d(np.arange(X.shape[1]), block)
    dense = np.ones((X.shape[0], len(rest) + 1), order="F")  # column-major, for the per-column products
    X[:, rest].toarray(out=dense[:, :-1])
    return block, X[:, block].T.tocsr(), rest, dense


def _newton_step(layout, q, gw, gb, lam, n):
    """Solve [[D, B], [B', C]] step = -gradient at probabilities q, D the block's diagonal, through
    C - B' D^-1 B. Levenberg damping on every diagonal entry keeps collinear columns solvable."""
    block, G, rest, dense = layout
    d = q * (1.0 - q) / n
    D = G.power(2) @ d + lam + 1e-10
    B = np.column_stack([G @ (d * column) for column in dense.T])
    C = np.diag(np.append(np.full(len(rest), lam), 0.0) + 1e-10)  # the penalty spares the intercept
    for rows in (slice(lo, lo + ROW_CHUNK) for lo in range(0, n, ROW_CHUNK)):
        C += dense[rows].T @ (d[rows, None] * dense[rows])
    try:
        step_rest = np.linalg.solve(C - B.T @ (B / D[:, None]), B.T @ (gw[block] / D) - np.append(gw[rest], gb))
    except np.linalg.LinAlgError:
        return -gw, -gb
    step = np.empty_like(gw)
    step[block] = -(gw[block] + B @ step_rest) / D
    step[rest] = step_rest[:-1]
    return step, step_rest[-1]
