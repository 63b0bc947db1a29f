"""L2-regularized logistic regression, fitted by full-batch descent.

The objective is mean negative log-likelihood plus (lambda/2)||w||^2 with
the intercept left out of the penalty. Each step is backtracked until it
decreases the objective enough. The default solver takes damped Newton
steps, which converge in a handful of iterations on the well-conditioned
matrices produced by standardization; "gd" takes plain gradient steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from ..errors import NonFiniteFeatureError, SingleClassLabelsError
from ..features import FeatureMatrix, Fitted

BACKTRACK_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4


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
                raise ValueError(f"{name} must be finite and >= 0")
        if self.solver not in ("gd", "newton"):
            raise ValueError(f"unknown solver {self.solver!r}")


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
    Xt = X.T.tocsr()  # X's columns as CSR rows, for the gradient and Hessian products
    y = np.asarray(matrix.labels, dtype=np.float64)
    n, p = X.shape

    if not np.all(np.isfinite(X.data)):
        raise NonFiniteFeatureError("design matrix contains non-finite values")
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    lam = hyper.l2_lambda
    w = np.zeros(p)
    b = 0.0
    z = np.zeros(n)

    def grads(z):
        r = (expit(z) - y) / n
        return Xt @ r + lam * w, float(r.sum())

    obj = _objective(z, y, w, lam)
    # n_iters counts the steps taken; the gradient is checked before each and after the last
    for n_iters in range(hyper.max_iters + 1):
        gw, gb = grads(z)
        converged = float(np.sqrt(gw @ gw + gb * gb)) <= hyper.tol
        if converged or n_iters == hyper.max_iters:
            break

        if hyper.solver == "newton":
            step_w, step_b = _newton_step(X, Xt, z, gw, gb, lam, n)
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


def _newton_step(X, Xt, z, gw, gb, lam, n):
    q = expit(z)
    d = q * (1.0 - q) / n
    p = len(gw)
    Xd = X.copy()
    Xd.data *= np.repeat(d, np.diff(X.indptr))  # row i times d[i]
    H_full = np.empty((p + 1, p + 1))
    H_full[:p, :p] = (Xt @ Xd).toarray() + lam * np.eye(p)
    H_full[:p, p] = H_full[p, :p] = Xt @ d
    H_full[p, p] = d.sum()
    # levenberg damping keeps the system solvable when columns are collinear
    H_full[np.diag_indices(p + 1)] += 1e-10
    g = np.concatenate([gw, [gb]])
    try:
        step = np.linalg.solve(H_full, -g)
    except np.linalg.LinAlgError:
        return -gw, -gb
    return step[:p], step[p]
