"""Logistic solver behavior: recovery, regularization, solver agreement."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit, logit

from fleetrisk.errors import NonFiniteFeatureError, SingleClassLabelsError
from fleetrisk.features import Column, FeatureMatrix
from fleetrisk.models.logistic import LogisticHyper, _layout, _newton_step, fit_logistic


def matrix_from(X, y, standardized=False):
    X = np.asarray(X, dtype=np.float64) if not sp.issparse(X) else X
    cols = [Column(name=f"x{j}", kind="numeric") for j in range(X.shape[1])]
    return FeatureMatrix(
        columns=cols,
        values=X,
        labels=np.asarray(y, dtype=np.int8),
        scale=np.ones(X.shape[1]),
        standardized=standardized,
    )


def logistic_sample(n, w, b, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, len(w)))
    y = (rng.random(n) < expit(X @ np.asarray(w) + b)).astype(np.int8)
    return X, y


def test_recovers_known_coefficients():
    true_w = [1.0, -2.0, 0.5]
    X, y = logistic_sample(20_000, true_w, -1.0, seed=1)
    model = fit_logistic(matrix_from(X, y), LogisticHyper(l2_lambda=1e-6, solver="newton"))
    assert model.converged
    np.testing.assert_allclose(model.weights, true_w, atol=0.1)
    assert abs(model.intercept - (-1.0)) < 0.1


def test_gd_and_newton_agree():
    X, y = logistic_sample(500, [0.8, -0.5], 0.2, seed=2)
    m = matrix_from(X, y)
    gd = fit_logistic(m, LogisticHyper(l2_lambda=1e-2, solver="gd", max_iters=5000))
    newton = fit_logistic(m, LogisticHyper(l2_lambda=1e-2, solver="newton"))
    assert gd.converged and newton.converged
    np.testing.assert_allclose(gd.weights, newton.weights, atol=1e-5)
    assert abs(gd.intercept - newton.intercept) < 1e-5


def test_l2_shrinks_weights():
    X, y = logistic_sample(800, [1.5, -1.0], 0.0, seed=3)
    m = matrix_from(X, y)
    loose = fit_logistic(m, LogisticHyper(l2_lambda=1e-8, solver="newton"))
    tight = fit_logistic(m, LogisticHyper(l2_lambda=1.0, solver="newton"))
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_intercept_not_penalized():
    X, y = logistic_sample(2000, [1.0], 1.3, seed=4)
    model = fit_logistic(matrix_from(X, y), LogisticHyper(l2_lambda=1e6, solver="newton"))
    # the penalty flattens the weights but the intercept still finds the base rate
    np.testing.assert_allclose(model.weights, 0.0, atol=1e-4)
    assert abs(model.intercept - logit(y.mean())) < 1e-4


def test_sparse_and_dense_agree():
    X, y = logistic_sample(400, [0.7, -0.3, 1.1], -0.5, seed=5)
    hyper = LogisticHyper(l2_lambda=1e-3, solver="gd", max_iters=3000)
    dense = fit_logistic(matrix_from(X, y), hyper)
    sparse = fit_logistic(matrix_from(sp.csr_matrix(X), y), hyper)
    np.testing.assert_allclose(dense.weights, sparse.weights, atol=1e-6)
    assert abs(dense.intercept - sparse.intercept) < 1e-6


def test_fit_lowers_log_loss_from_origin():
    X, y = logistic_sample(600, [1.0, 1.0], 0.0, seed=6)
    model = fit_logistic(matrix_from(X, y), LogisticHyper())
    z = model.decision_scores(X)
    nll = np.mean(np.logaddexp(0.0, np.where(y == 1, -z, z)))
    assert nll < np.log(2.0)


def test_predict_proba_matches_decision_scores():
    X, y = logistic_sample(100, [0.5], 0.0, seed=7)
    model = fit_logistic(matrix_from(X, y), LogisticHyper())
    p = model.predict_proba(X)
    assert np.all((p > 0) & (p < 1))
    np.testing.assert_allclose(p, expit(model.decision_scores(X)), atol=0)


def test_extreme_features_do_not_overflow():
    X = np.array([[1000.0], [-1000.0], [500.0], [-500.0]])
    y = np.array([1, 0, 1, 0])
    model = fit_logistic(matrix_from(X, y), LogisticHyper(max_iters=50))
    assert np.all(np.isfinite(model.predict_proba(X)))


def test_zero_iterations_returns_origin():
    X, y = logistic_sample(50, [1.0], 0.0, seed=8)
    model = fit_logistic(matrix_from(X, y), LogisticHyper(max_iters=0))
    np.testing.assert_array_equal(model.weights, [0.0])
    assert model.intercept == 0.0
    assert model.n_iters == 0
    assert not model.converged


def test_single_class_rejected():
    X = np.ones((10, 2))
    with pytest.raises(SingleClassLabelsError):
        fit_logistic(matrix_from(X, np.zeros(10)))


def test_non_finite_rejected():
    X = np.array([[1.0], [np.nan]])
    with pytest.raises(NonFiniteFeatureError):
        fit_logistic(matrix_from(X, np.array([0, 1])))
    Xs = sp.csr_matrix(np.array([[np.inf], [1.0]]))
    with pytest.raises(NonFiniteFeatureError):
        fit_logistic(matrix_from(Xs, np.array([0, 1])))


def test_hyper_validation():
    with pytest.raises(ValueError):
        LogisticHyper(l2_lambda=-1.0)
    for bad in ({"l2_lambda": np.nan}, {"l2_lambda": np.inf}, {"tol": np.inf}, {"tol": np.nan}, {"tol": -1.0}, {"max_iters": -5}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be"):
            LogisticHyper(**bad)
    assert LogisticHyper(l2_lambda=0.0, max_iters=0, tol=0.0).max_iters == 0
    with pytest.raises(ValueError):
        LogisticHyper(solver="sgd")


def test_model_carries_fit_metadata():
    X, y = logistic_sample(200, [1.0], 0.0, seed=9)
    m = matrix_from(X, y, standardized=True)
    model = fit_logistic(m, LogisticHyper(solver="newton"))
    assert model.kind == "logistic"
    assert np.array_equal(model.scale, m.scale)
    assert [c.name for c in model.columns] == ["x0"]
    assert 0 < model.n_iters <= 500


def dense_newton_step(X, z, gw, gb, lam, n):
    """The reference: the damped Newton step solved on the dense (p+1)-square Hessian."""
    Xt = X.T.tocsr()
    q = expit(z)
    d = q * (1.0 - q) / n
    p = len(gw)
    Xd = X.copy()
    Xd.data *= np.repeat(d, np.diff(X.indptr))  # row i times d[i]
    H_full = np.empty((p + 1, p + 1))
    H_full[:p, :p] = (Xt @ Xd).toarray() + lam * np.eye(p)
    H_full[:p, p] = H_full[p, :p] = Xt @ d
    H_full[p, p] = d.sum()
    H_full[np.diag_indices(p + 1)] += 1e-10
    step = np.linalg.solve(H_full, -np.concatenate([gw, [gb]]))
    return step[:p], step[p]


def grouped_matrix(rng, n, groups, n_numeric):
    """A matrix of one-hot groups, then numeric columns. Each group is
    (name, levels, levels stored per row, share of rows storing none); a
    group's last level is "<unknown>" and no row stores it. A level stores
    one positive value, as a standardized column does."""
    blocks, columns = [], []
    for name, levels, per_row, none in groups:
        part = np.zeros((n, levels + 1))
        for _ in range(per_row):
            part[np.arange(n), rng.integers(0, levels, n)] = 1.0
        part[rng.random(n) < none] = 0.0
        blocks.append(part / rng.uniform(0.2, 0.5, levels + 1))
        columns += [Column(f"{name}={j}", "onehot", name, str(j)) for j in range(levels)]
        columns.append(Column(f"{name}=<unknown>", "onehot", name, "<unknown>"))
    blocks.append(rng.standard_normal((n, n_numeric)))
    columns += [Column(f"x{j}", "numeric") for j in range(n_numeric)]
    return sp.csr_matrix(np.hstack(blocks)), columns


@pytest.mark.parametrize(
    "groups, n_numeric, lam, block_width",
    [
        ([("v", 40, 1, 0.1), ("t", 3, 1, 0.0)], 2, 1e-3, 41),
        ([("v", 12, 2, 0.0)], 2, 1e-3, 0),
        ([("v", 30, 1, 0.1)], 1, 0.0, 31),
        ([], 1, 1e-4, 0),
    ],
    ids=["wide-group", "two-levels-a-row", "empty-unknown-no-penalty", "one-numeric"],
)
def test_the_block_newton_step_matches_the_dense_hessian_step(groups, n_numeric, lam, block_width):
    rng = np.random.default_rng(12)
    n = 600
    X, columns = grouped_matrix(rng, n, groups, n_numeric)
    w = rng.normal(0.0, 0.3, X.shape[1])
    z = X @ w - 1.0
    y = (rng.random(n) < expit(z)).astype(np.float64)
    r = (expit(z) - y) / n
    gw, gb = X.T @ r + lam * w, float(r.sum())

    layout = _layout(X, columns)
    assert len(layout[0]) == block_width
    step_w, step_b = _newton_step(layout, expit(z), gw, gb, lam, n)
    ref_w, ref_b = dense_newton_step(X, z, gw, gb, lam, n)
    step, ref = np.append(step_w, step_b), np.append(ref_w, ref_b)
    assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)


def test_the_block_is_the_first_of_the_widest_groups_whose_rows_store_one_level():
    """A wider group whose rows store two levels does not qualify; of two
    equally wide groups that do, the first in column order is the block."""
    X, columns = grouped_matrix(np.random.default_rng(14), 200, [("w", 6, 2, 0.0), ("a", 3, 1, 0.1), ("b", 3, 1, 0.1)], 1)
    block = _layout(X, columns)[0]
    assert [columns[j].group for j in block] == ["a"] * 4
    assert block.tolist() == [7, 8, 9, 10]


def test_a_newton_fit_allocates_less_than_one_width_squared_array():
    """20k rows and a 2,000-level group: the fit never holds a p x p float64 array."""
    rng = np.random.default_rng(13)
    n = 20_000
    X, columns = grouped_matrix(rng, n, [("v", 2_000, 1, 0.0)], 2)
    y = (rng.random(n) < expit(X[:, -2:] @ [1.0, -0.5] - 2.0)).astype(np.int8)
    matrix = FeatureMatrix(columns=columns, values=X, labels=y, scale=np.ones(X.shape[1]))
    tracemalloc.start()
    try:
        model = fit_logistic(matrix, LogisticHyper(max_iters=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_iters == 3
    p = X.shape[1]
    assert peak < p * p * 8, f"fit peaked at {peak / 1e6:.1f} MB"
