"""Tree growth against brute-force split search, plus forest, boosting,
dispatch, and model serialization."""

import io
import json

import numpy as np
import pytest

from fleetrisk.errors import ModelFormatError, NonFiniteFeatureError, SingleClassLabelsError, WidthMismatchError
from fleetrisk.features import Column, FeatureMatrix
from fleetrisk.models import (
    ForestHyper,
    ForestModel,
    GbtHyper,
    GbtModel,
    LogisticHyper,
    LogisticModel,
    default_hyper,
    fit_gbt,
    fit_logistic,
    fit_model,
    fit_random_forest,
    fit_tree,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_proba,
    save_model,
)
from fleetrisk.models.tree import ZERO_REDUCTION, RegressionTree


def matrix_from(X, y, standardized=False):
    cols = [Column(name=f"x{j}", kind="numeric") for j in range(X.shape[1])]
    return FeatureMatrix(
        columns=cols,
        values=np.asarray(X, dtype=np.float64),
        labels=np.asarray(y),
        scale=np.ones(X.shape[1]),
        standardized=standardized,
    )


def brute_force_root_split(X, y, min_leaf):
    """O(n^2) scan over every feature and midpoint, same tie rules."""
    n, p = X.shape
    total_sse = ((y - y.mean()) ** 2).sum()
    best = (ZERO_REDUCTION, -1, 0.0)
    for f in range(p):
        levels = np.unique(X[:, f])
        for lo, hi in zip(levels[:-1], levels[1:]):
            t = 0.5 * (lo + hi)
            mask = X[:, f] <= t
            nl, nr = mask.sum(), (~mask).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = ((y[mask] - y[mask].mean()) ** 2).sum() + ((y[~mask] - y[~mask].mean()) ** 2).sum()
            gain = total_sse - sse
            if gain > best[0] + 1e-9 * max(1.0, abs(best[0])):
                best = (gain, f, t)
    return best[1], best[2]


def leaf_assignment(tree, X):
    idx = np.zeros(X.shape[0], dtype=np.int32)
    active = tree.feature[idx] >= 0
    while np.any(active):
        rows = np.nonzero(active)[0]
        nodes = idx[rows]
        go_left = X[rows, tree.feature[nodes]] <= tree.threshold[nodes]
        idx[rows] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        active = tree.feature[idx] >= 0
    return idx


def reference_tree(X, y, max_depth, min_leaf, max_features=None, rng=None):
    """Per-node, per-feature float argsort: the split search that the
    rank-code kernel replaces. Trees must match it bit for bit. A midpoint
    that rounds up to the upper value falls back to the lower one."""
    n, p = X.shape
    nodes = [[-1, 0.0, -1, -1, np.nan]]  # feature, threshold, left, right, value
    stack = [(0, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        y_rows = y[rows]
        m = len(rows)
        if depth >= max_depth or m < 2 * min_leaf or m < 2:
            nodes[node][4] = float(y_rows.mean())
            continue
        if max_features is not None and max_features < p:
            candidates = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            candidates = np.arange(p)
        total = y_rows.sum()
        base = total * total / m
        best = (ZERO_REDUCTION, -1, 0.0)
        for f in candidates:
            order = np.argsort(X[rows, f], kind="stable")
            col, prefix = X[rows, f][order], np.cumsum(y_rows[order])[:-1]
            n_left = np.arange(1, m)
            gains = prefix**2 / n_left + (total - prefix) ** 2 / (m - n_left) - base
            valid = (col[:-1] < col[1:]) & (n_left >= min_leaf) & (m - n_left >= min_leaf)
            if valid.any():
                k = int(np.argmax(np.where(valid, gains, -np.inf)))
                if gains[k] > best[0]:
                    t = 0.5 * (col[k] + col[k + 1])
                    best = (gains[k], int(f), t if t < col[k + 1] else col[k])
        _, f, t = best
        if f < 0:
            nodes[node][4] = float(y_rows.mean())
            continue
        go_left = X[rows, f] <= t
        nodes[node][:4] = [f, t, len(nodes), len(nodes) + 1]
        nodes += [[-1, 0.0, -1, -1, np.nan], [-1, 0.0, -1, -1, np.nan]]
        stack += [(len(nodes) - 1, rows[~go_left], depth + 1), (len(nodes) - 2, rows[go_left], depth + 1)]
    f, t, lc, rc, v = zip(*nodes)
    return RegressionTree(
        feature=np.array(f, dtype=np.int32),
        threshold=np.array(t, dtype=np.float64),
        left=np.array(lc, dtype=np.int32),
        right=np.array(rc, dtype=np.int32),
        value=np.array(v, dtype=np.float64),
    )


def tree_bytes(tree):
    return [a.tobytes() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)]


def test_perfectly_separable_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
    y = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 6.5
    np.testing.assert_array_equal(tree.predict(X), y)


def test_root_split_matches_brute_force():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.random((60, 3))
        y = rng.random(60) + (X[:, seed % 3] > 0.5)
        tree = fit_tree(X, y, max_depth=1, min_leaf=5)
        f, t = brute_force_root_split(X, y, min_leaf=5)
        assert tree.feature[0] == f, f"seed {seed}"
        assert tree.threshold[0] == pytest.approx(t, abs=1e-12), f"seed {seed}"


def test_leaves_predict_training_means():
    rng = np.random.default_rng(42)
    X = rng.random((200, 4))
    y = rng.random(200)
    tree = fit_tree(X, y, max_depth=4, min_leaf=5)
    leaves = leaf_assignment(tree, X)
    preds = tree.predict(X)
    for leaf in np.unique(leaves):
        mask = leaves == leaf
        assert preds[mask][0] == pytest.approx(y[mask].mean(), abs=1e-12)


def test_min_leaf_respected():
    rng = np.random.default_rng(7)
    X = rng.random((120, 2))
    y = rng.random(120)
    tree = fit_tree(X, y, max_depth=12, min_leaf=9)
    counts = np.bincount(leaf_assignment(tree, X), minlength=tree.n_nodes)
    leaf_nodes = tree.feature == -1
    assert np.all(counts[leaf_nodes] >= 9)


def test_depth_zero_is_global_mean():
    rng = np.random.default_rng(1)
    X = rng.random((30, 2))
    y = rng.random(30)
    tree = fit_tree(X, y, max_depth=0)
    assert tree.n_nodes == 1
    np.testing.assert_allclose(tree.predict(X), y.mean())


def test_constant_target_never_splits():
    rng = np.random.default_rng(2)
    X = rng.random((40, 3))
    tree = fit_tree(X, np.full(40, 0.7), max_depth=5, min_leaf=1)
    assert tree.n_nodes == 1
    np.testing.assert_allclose(tree.predict(X), 0.7)


def test_split_tie_prefers_lower_feature_index():
    col = np.array([0.0, 0, 1, 1, 2, 2, 3, 3])
    X = np.column_stack([col, col])
    y = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    assert tree.feature[0] == 0


@pytest.mark.parametrize("adjacent", [False, True], ids=["spaced", "adjacent-doubles"])
@pytest.mark.parametrize("min_leaf,max_features", [(1, None), (5, None), (3, 2), (1, 3)])
def test_trees_match_the_float_sort_reference_bit_for_bit(min_leaf, max_features, adjacent):
    rng = np.random.default_rng(min_leaf * 10 + (max_features or 0))
    X = rng.random((400, 5))
    X[:, 1] = np.round(X[:, 1] * 4)            # five levels, heavy ties
    X[:, 2] = (X[:, 2] > 0.7).astype(float)    # a dummy column
    # six levels one ulp apart, or 0.01 apart
    X[:, 3] = 1.0 + rng.integers(0, 6, 400) * (np.finfo(float).eps if adjacent else 0.01)
    y = rng.random(400) + X[:, 1] * 0.2
    got = fit_tree(X, y, max_depth=8, min_leaf=min_leaf, max_features=max_features, rng=np.random.default_rng(1))
    want = reference_tree(X, y, 8, min_leaf, max_features, np.random.default_rng(1))
    assert tree_bytes(got) == tree_bytes(want)


def test_root_split_matches_brute_force_on_tie_heavy_columns():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X = rng.integers(0, 4, (80, 3)).astype(float)
        y = rng.random(80) + 0.5 * (X[:, seed % 3] >= 2)
        tree = fit_tree(X, y, max_depth=1, min_leaf=3)
        f, t = brute_force_root_split(X, y, min_leaf=3)
        assert (tree.feature[0], tree.threshold[0]) == (f, t), f"seed {seed}"


def adjacent_doubles(k):
    """1.0 and the next k - 1 doubles above it."""
    out = [1.0]
    for _ in range(k - 1):
        out.append(np.nextafter(out[-1], 2.0))
    return np.array(out)


def test_root_split_on_adjacent_doubles_matches_brute_force_and_routes_by_threshold():
    levels = adjacent_doubles(6)
    col = np.repeat(levels, 10)
    y = np.repeat([0.0, 0, 0, 1, 1, 1], 10) + np.tile(np.linspace(0, 0.1, 10), 6)
    X = col[:, None]
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    f, t = brute_force_root_split(X, y, min_leaf=1)
    assert (tree.feature[0], tree.threshold[0]) == (f, t)
    assert tree.threshold[0] == levels[2]  # the midpoint of levels 2 and 3 rounds down
    left = col <= tree.threshold[0]
    np.testing.assert_array_equal(tree.predict(X), np.where(left, y[left].mean(), y[~left].mean()))


def test_a_midpoint_that_rounds_up_splits_at_the_lower_value():
    levels = adjacent_doubles(4)
    col = np.repeat(levels, 5)
    y = np.repeat([0.0, 0, 1, 1], 5)
    tree = fit_tree(col[:, None], y, max_depth=2, min_leaf=1)
    # the best cut lies between levels 1 and 2, whose midpoint rounds up to
    # level 2; splitting there would send level 2 left and leave the right
    # child of a later split empty
    assert 0.5 * (levels[1] + levels[2]) == levels[2]
    assert tree.threshold[0] == levels[1]
    assert not np.isnan(tree.value[tree.feature == -1]).any()
    np.testing.assert_array_equal(tree.predict(col[:, None]), y)


def test_tree_fits_reject_non_finite_features():
    rng = np.random.default_rng(6)
    X = rng.random((50, 3))
    y = (rng.random(50) < 0.5).astype(np.int8)
    for bad in (np.nan, np.inf, -np.inf):
        Xb = X.copy()
        Xb[7, 1] = bad
        with pytest.raises(NonFiniteFeatureError):
            fit_tree(Xb, y.astype(float))
        with pytest.raises(NonFiniteFeatureError):
            fit_random_forest(matrix_from(Xb, y), ForestHyper(n_estimators=2))
        with pytest.raises(NonFiniteFeatureError):
            fit_gbt(matrix_from(Xb, y), GbtHyper(n_estimators=2))


def test_deeper_trees_fit_no_worse():
    rng = np.random.default_rng(3)
    X = rng.random((300, 3))
    y = np.sin(6 * X[:, 0]) + 0.3 * rng.standard_normal(300)
    sse = []
    for depth in (0, 1, 3, 6):
        tree = fit_tree(X, y, max_depth=depth, min_leaf=5)
        sse.append(((tree.predict(X) - y) ** 2).sum())
    assert sse == sorted(sse, reverse=True) or all(
        later <= earlier + 1e-9 for earlier, later in zip(sse, sse[1:])
    )


def test_feature_subsampling_is_deterministic():
    rng_data = np.random.default_rng(4)
    X = rng_data.random((80, 6))
    y = rng_data.random(80)
    t1 = fit_tree(X, y, max_depth=4, min_leaf=5, max_features=2, rng=np.random.default_rng(11))
    t2 = fit_tree(X, y, max_depth=4, min_leaf=5, max_features=2, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(t1.feature, t2.feature)
    np.testing.assert_array_equal(t1.threshold, t2.threshold)


def forest_training_matrix(n=300, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = (rng.random(n) < 0.2 + 0.6 * (X[:, 0] > 0.5)).astype(np.int8)
    return matrix_from(X, y)


def test_forest_deterministic_and_bounded():
    m = forest_training_matrix()
    f1 = fit_random_forest(m, ForestHyper(n_estimators=20, seed=9))
    f2 = fit_random_forest(m, ForestHyper(n_estimators=20, seed=9))
    p1 = f1.predict_proba(m.values)
    np.testing.assert_array_equal(p1, f2.predict_proba(m.values))
    assert np.all((p1 >= 0) & (p1 <= 1))


def test_forest_seed_changes_trees():
    m = forest_training_matrix()
    f1 = fit_random_forest(m, ForestHyper(n_estimators=10, seed=0))
    f2 = fit_random_forest(m, ForestHyper(n_estimators=10, seed=1))
    assert not np.array_equal(f1.predict_proba(m.values), f2.predict_proba(m.values))


def test_forest_separates_classes_on_train():
    m = forest_training_matrix()
    f = fit_random_forest(m, ForestHyper(n_estimators=30, seed=2))
    p = f.predict_proba(m.values)
    y = np.asarray(m.labels)
    assert p[y == 1].mean() > p[y == 0].mean()


def test_forest_single_class_rejected():
    rng = np.random.default_rng(0)
    m = matrix_from(rng.random((20, 2)), np.zeros(20, dtype=np.int8))
    with pytest.raises(SingleClassLabelsError):
        fit_random_forest(m, ForestHyper(n_estimators=2))


def test_forest_hyper_validation():
    for bad in ({"n_estimators": 0}, {"max_features": 0}, {"max_depth": 0}, {"min_leaf": 0}):
        with pytest.raises(ValueError):
            ForestHyper(**bad)


def test_gbt_zero_rounds_is_base_rate():
    m = forest_training_matrix()
    g = fit_gbt(m, GbtHyper(n_estimators=0))
    y = np.asarray(m.labels, dtype=np.float64)
    np.testing.assert_allclose(g.predict_proba(m.values), y.mean(), atol=1e-12)


def test_gbt_more_rounds_lower_train_loss():
    m = forest_training_matrix()
    y = np.asarray(m.labels, dtype=np.float64)

    def nll(model):
        p = model.predict_proba(m.values)
        return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

    losses = [nll(fit_gbt(m, GbtHyper(n_estimators=k))) for k in (0, 10, 50)]
    assert losses[0] > losses[1] > losses[2]


def test_gbt_deterministic():
    m = forest_training_matrix()
    g1 = fit_gbt(m, GbtHyper(n_estimators=15))
    g2 = fit_gbt(m, GbtHyper(n_estimators=15))
    np.testing.assert_array_equal(g1.predict_proba(m.values), g2.predict_proba(m.values))


def test_gbt_hyper_validation():
    for bad in ({"learning_rate": 0.0}, {"learning_rate": 1.5}, {"n_estimators": -1}, {"max_depth": 0}, {"min_leaf": 0}):
        with pytest.raises(ValueError):
            GbtHyper(**bad)


def test_gbt_tie_across_feature_blocks_picks_the_earlier_feature():
    rng = np.random.default_rng(13)
    X = rng.random((200, 11))
    X[:, 10] = X[:, 2]  # the same column in the second block of eight
    y = (rng.random(200) < 0.15 + 0.7 * (X[:, 2] > 0.5)).astype(np.int8)
    model = fit_gbt(matrix_from(X, y), GbtHyper(n_estimators=5, max_depth=2))
    assert model.trees[0].feature[0] == 2
    assert all(10 not in tree.feature for tree in model.trees)


def per_tree_sum(trees, X, start, weight):
    """The per-tree loop that `sum_leaves` replaces."""
    out = np.full(X.shape[0], start)
    for tree in trees:
        out += weight * tree.value[leaf_assignment(tree, X)]
    return out


def test_stacked_prediction_equals_the_per_tree_loop_bit_for_bit():
    m = forest_training_matrix(n=700, seed=14)  # crosses row-block edges
    X = np.random.default_rng(15).random((700, 4)) * 1.2 - 0.1
    stump = RegressionTree(
        feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32), value=np.array([0.3]),
    )
    forest = fit_random_forest(m, ForestHyper(n_estimators=6, seed=4, min_leaf=1))
    forest.trees.insert(2, stump)
    want = np.clip(per_tree_sum(forest.trees, X, 0.0, 1.0) / len(forest.trees), 0.0, 1.0)
    assert forest.predict_proba(X).tobytes() == want.tobytes()

    gbt = fit_gbt(m, GbtHyper(n_estimators=8, max_depth=4))
    gbt.trees.append(stump)
    want = per_tree_sum(gbt.trees, X, gbt.init_score, gbt.learning_rate)
    assert gbt.decision_scores(X).tobytes() == want.tobytes()

    empty = fit_gbt(m, GbtHyper(n_estimators=0))
    assert empty.decision_scores(X).tobytes() == np.full(700, empty.init_score).tobytes()


def test_fit_model_dispatch():
    m = forest_training_matrix()
    assert isinstance(fit_model("logistic", m), LogisticModel)
    assert isinstance(fit_model("forest", m, ForestHyper(n_estimators=2)), ForestModel)
    assert isinstance(fit_model("gbt", m, GbtHyper(n_estimators=2)), GbtModel)
    with pytest.raises(ValueError):
        fit_model("svm", m)
    with pytest.raises(ValueError):
        default_hyper("svm")
    assert isinstance(default_hyper("logistic"), LogisticHyper)


def test_predict_proba_checks_width():
    m = forest_training_matrix()
    model = fit_model("logistic", m)
    with pytest.raises(WidthMismatchError):
        predict_proba(model, m.values[:, :2])
    p = predict_proba(model, m.values)
    assert p.shape == (m.n_rows,)


@pytest.mark.parametrize("kind,hyper", [
    ("logistic", LogisticHyper(max_iters=100)),
    ("forest", ForestHyper(n_estimators=5, seed=3)),
    ("gbt", GbtHyper(n_estimators=5)),
])
def test_serialization_round_trip(kind, hyper):
    m = forest_training_matrix(n=150, seed=8)
    model = fit_model(kind, m, hyper)
    buf = io.StringIO()
    save_model(model, buf)
    buf.seek(0)
    back = load_model(buf)
    assert back.kind == kind
    assert back.columns == model.columns
    np.testing.assert_array_equal(back.scale, model.scale)
    np.testing.assert_array_equal(back.predict_proba(m.values), model.predict_proba(m.values))


def test_serialization_round_trip_via_path(tmp_path):
    m = forest_training_matrix(n=100, seed=10)
    model = fit_model("gbt", m, GbtHyper(n_estimators=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.predict_proba(m.values), model.predict_proba(m.values))


def test_load_rejects_malformed_payloads(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(bad_json)
    with pytest.raises(ModelFormatError):
        model_from_dict({"kind": "logistic"})  # no version
    with pytest.raises(ModelFormatError):
        model_from_dict({"format_version": 99, "kind": "logistic"})
    with pytest.raises(ModelFormatError):
        model_from_dict(
            {"format_version": 1, "kind": "perceptron", "columns": [], "scale": [], "standardized": False}
        )
    m = forest_training_matrix(n=80, seed=11)
    payload = model_to_dict(fit_model("logistic", m))
    del payload["weights"]
    with pytest.raises(ModelFormatError):
        model_from_dict(payload)


def test_tree_nan_values_survive_json():
    m = forest_training_matrix(n=120, seed=12)
    model = fit_model("forest", m, ForestHyper(n_estimators=2, seed=1))
    assert any(t.n_nodes > 1 for t in model.trees)
    payload = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(payload)
    np.testing.assert_array_equal(back.predict_proba(m.values), model.predict_proba(m.values))
