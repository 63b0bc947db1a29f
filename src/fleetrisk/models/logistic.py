"""L2-regularized logistic regression, fitted by full-batch descent.

The objective is mean negative log-likelihood plus (lambda/2)||w||^2 with
the intercept left out of the penalty. Gradient descent with a
backtracking line search is the default solver; "newton" switches to
damped Newton steps, which converge in a handful of iterations on the
well-conditioned matrices produced by standardization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ..errors import NonFiniteFeatureError, SingleClassLabelsError
from ..features import Column, FeatureMatrix

BACKTRACK_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4


@dataclass(frozen=True)
class LogisticHyper:
    l2_lambda: float = 1e-4
    max_iters: int = 500
    tol: float = 1e-8
    solver: str = "gd"  # "gd" | "newton"

    def __post_init__(self):
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.solver not in ("gd", "newton"):
            raise ValueError(f"unknown solver {self.solver!r}")


@dataclass
class LogisticModel:
    weights: np.ndarray    # per-column coefficients
    intercept: float
    columns: list[Column]
    scale: np.ndarray
    standardized: bool
    n_iters: int = 0
    converged: bool = False

    kind = "logistic"

    def decision_scores(self, X) -> np.ndarray:
        z = X @ self.weights
        if sp.issparse(X):
            z = np.asarray(z).ravel()
        return z + self.intercept

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

    if sp.issparse(X):
        if not np.all(np.isfinite(X.data)):
            raise NonFiniteFeatureError("design matrix contains non-finite values")
    elif not np.all(np.isfinite(X)):
        raise NonFiniteFeatureError("design matrix contains non-finite values")
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    lam = hyper.l2_lambda
    w = np.zeros(p)
    b = 0.0
    z = np.zeros(n)

    def grads(z):
        r = (expit(z) - y) / n
        gw = X.T @ r
        if sp.issparse(X):
            gw = np.asarray(gw).ravel()
        return gw + lam * w, float(r.sum())

    n_iters = 0
    converged = False
    obj = _objective(z, y, w, lam)
    for n_iters in range(1, hyper.max_iters + 1):
        gw, gb = grads(z)
        grad_norm = float(np.sqrt(gw @ gw + gb * gb))
        if grad_norm <= hyper.tol:
            n_iters -= 1
            converged = True
            break

        if hyper.solver == "newton":
            step_w, step_b = _newton_step(X, z, w, b, gw, gb, lam, n)
        else:
            step_w, step_b = -gw, -gb

        # backtracking: shrink until the Armijo decrease condition holds
        descent = float(gw @ step_w + gb * step_b)
        step = 1.0
        for _ in range(60):
            w_try = w + step * step_w
            b_try = b + step * step_b
            z_try = X @ w_try
            if sp.issparse(X):
                z_try = np.asarray(z_try).ravel()
            z_try = z_try + b_try
            obj_try = _objective(z_try, y, w_try, lam)
            if obj_try <= obj + ARMIJO_SLOPE * step * descent:
                break
            step *= BACKTRACK_SHRINK
        w, b, z, obj = w_try, b_try, z_try, obj_try
    else:
        gw, gb = grads(z)
        converged = float(np.sqrt(gw @ gw + gb * gb)) <= hyper.tol

    return LogisticModel(
        weights=w,
        intercept=b,
        columns=list(matrix.columns),
        scale=np.asarray(matrix.scale, dtype=np.float64),
        standardized=matrix.standardized,
        n_iters=n_iters,
        converged=converged,
    )


def _newton_step(X, z, w, b, gw, gb, lam, n):
    q = expit(z)
    d = q * (1.0 - q) / n
    p = len(w)
    if sp.issparse(X):
        Xd = X.multiply(d[:, None])
        H = np.asarray((X.T @ Xd).todense())
    else:
        H = X.T @ (X * d[:, None])
    H_full = np.empty((p + 1, p + 1))
    H_full[:p, :p] = H + lam * np.eye(p)
    Xd_sum = np.asarray(X.T @ d).ravel()
    H_full[:p, p] = Xd_sum
    H_full[p, :p] = Xd_sum
    H_full[p, p] = d.sum()
    # levenberg damping keeps the system solvable when columns are collinear
    H_full[np.diag_indices(p + 1)] += 1e-10
    g = np.concatenate([gw, [gb]])
    try:
        step = np.linalg.solve(H_full, -g)
    except np.linalg.LinAlgError:
        return -gw, -gb
    return step[:p], step[p]
