"""Ten end-to-end guarantees, one test each, with pinned runtime budgets.

Each test is self-contained: it builds what it needs from fixed seeds and
asserts both the behavior and the wall-clock budget, so a regression in
either correctness or complexity shows up as a single failed line.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.special import expit

from fleetrisk.cli import main
from fleetrisk.evaluation import ChronologicalSplit, RandomRowSplit, separation_ratio, split
from fleetrisk.features import Column, FeatureMatrix, FeatureSpec, apply_scale, encode, standardize
from fleetrisk.ingest import parse_subworkorders
from fleetrisk.models import ForestHyper, GbtHyper, LogisticHyper, fit_logistic, fit_model, predict_proba
from fleetrisk.panel import PanelOptions, PanelRow, build_panel, load_utilization_csv, panel_from_rows
from fleetrisk.policy import HighestRisk, MelSpec, RandomUniform, mel_risk, simulate_policy
from fleetrisk.synth import FleetConfig, VehicleTypeSpec, generate_fleet


def fleet_panel(config, with_utilization=False):
    csv_bytes, sidecar, truth = generate_fleet(config)
    records, errors = parse_subworkorders(csv_bytes)
    assert errors == []
    options = PanelOptions(
        include_scheduled=False,
        end_week=config.n_weeks - 1,
        utilization=load_utilization_csv(sidecar) if with_utilization else None,
    )
    return build_panel(records, options), truth


def matrix_pair(panel, spec, split_spec):
    train, test = split(panel, split_spec)
    train_matrix = standardize(encode(train, spec))
    test_matrix = apply_scale(encode(test, spec, vocab=train.vocab), train_matrix.scale)
    return train_matrix, test_matrix


def test_c01_separation_ratio_matches_naive_two_pass():
    t0 = time.monotonic()

    def naive(preds, labels):
        st = sf = nt = nf = 0.0
        for p, y in zip(preds, labels):
            if y == 1:
                st += p
                nt += 1
            else:
                sf += p
                nf += 1
        return (st / nt), (sf / nf), (st / nt) / (sf / nf)

    rng = np.random.default_rng(0)
    preds = rng.random(1000)
    labels = rng.integers(0, 2, size=1000)
    report = separation_ratio(preds, labels)
    mt, mf, ratio = naive(preds, labels)
    assert abs(report.mean_pred_true - mt) <= 1e-12
    assert abs(report.mean_pred_false - mf) <= 1e-12
    assert abs(report.ratio - ratio) <= 1e-12

    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        preds = rng.random(n)
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        report = separation_ratio(preds, labels)
        _, _, ratio = naive(preds, labels)
        assert abs(report.ratio - ratio) <= 1e-12

    # worked example: constant predictions of 0.104 over the true rows and
    # 0.070 over the false rows (power-of-two counts keep the means exact)
    preds = np.r_[np.full(16, 0.104), np.full(32, 0.070)]
    labels = np.r_[np.ones(16, dtype=int), np.zeros(32, dtype=int)]
    report = separation_ratio(preds, labels)
    assert report.mean_pred_true == 0.104
    assert report.mean_pred_false == 0.070
    assert report.ratio == 0.104 / 0.070
    assert round(report.ratio, 3) == 1.486

    assert time.monotonic() - t0 < 1.0


def test_c02_logistic_gradient_matches_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    n, p = 20, 5
    X = rng.standard_normal((n, p))
    y = np.r_[np.ones(n // 2), np.zeros(n // 2)]
    rng.shuffle(y)
    lam = 0.1

    def objective(w, b):
        z = X @ w + b
        signed = np.where(y == 1, -z, z)
        return float(np.mean(np.logaddexp(0.0, signed)) + 0.5 * lam * (w @ w))

    def analytic(w, b):
        r = (expit(X @ w + b) - y) / n
        return np.concatenate([X.T @ r + lam * w, [r.sum()]])

    h = 1e-5
    for _ in range(10):
        w = 0.5 * rng.standard_normal(p)
        b = float(0.5 * rng.standard_normal())
        a = analytic(w, b)
        fd = np.empty(p + 1)
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd[j] = (objective(w + e, b) - objective(w - e, b)) / (2 * h)
        fd[p] = (objective(w, b + h) - objective(w, b - h)) / (2 * h)
        assert np.linalg.norm(a - fd) / np.linalg.norm(fd) < 1e-5

    # the solver's first step from the origin must move along that gradient
    cols_y = y.astype(np.int8)
    matrix = FeatureMatrix(
        columns=[Column(name=f"x{j}", kind="numeric") for j in range(p)],
        values=X,
        labels=cols_y,
        scale=np.ones(p),
        standardized=False,
    )
    one_step = fit_logistic(matrix, LogisticHyper(l2_lambda=lam, max_iters=1, solver="gd"))
    stepped = np.concatenate([one_step.weights, [one_step.intercept]])
    g0 = np.empty(p + 1)
    w0, b0 = np.zeros(p), 0.0
    for j in range(p):
        e = np.zeros(p)
        e[j] = h
        g0[j] = (objective(w0 + e, b0) - objective(w0 - e, b0)) / (2 * h)
    g0[p] = (objective(w0, b0 + h) - objective(w0, b0 - h)) / (2 * h)
    u_impl = stepped / np.linalg.norm(stepped)
    u_grad = -g0 / np.linalg.norm(g0)
    assert np.linalg.norm(u_impl - u_grad) < 1e-5

    assert time.monotonic() - t0 < 1.0


def test_c03_planted_coefficients_recovered():
    t0 = time.monotonic()
    config = FleetConfig(
        n_vehicles=200,
        n_weeks=260,
        vehicle_types=(
            VehicleTypeSpec("bus", 0.5, 30.0),
            VehicleTypeSpec("truck", 1.0, 45.0),
            VehicleTypeSpec("loader", 2.0, 60.0),
        ),
        units=("82 LRS",),
        beta0=-3.6,
        beta_age=0.004,
        beta_gap=0.06,
        beta_util=0.0,
        seed=11,
    )
    panel, _truth = fleet_panel(config)
    spec = FeatureSpec.of(["vehicle_type", "operational_weeks", "weeks_since_last_visit"])
    matrix = standardize(encode(panel, spec))
    model = fit_logistic(matrix, LogisticHyper(l2_lambda=1e-6, solver="newton", max_iters=100))
    assert model.converged

    raw = model.weights / model.scale  # undo standardization
    by_name = {c.name: raw[j] for j, c in enumerate(model.columns)}
    age_hat = by_name["operational_weeks"]
    gap_hat = by_name["weeks_since_last_visit"]
    assert age_hat > 0 and gap_hat > 0
    assert abs(age_hat - config.beta_age) / config.beta_age <= 0.15
    assert abs(gap_hat - config.beta_gap) / config.beta_gap <= 0.15

    assert time.monotonic() - t0 < 60.0


def test_c04_vehicle_type_lifts_age_only_baseline():
    t0 = time.monotonic()
    config = FleetConfig(
        n_vehicles=120,
        n_weeks=156,
        vehicle_types=(VehicleTypeSpec("bus", 0.4, 30.0), VehicleTypeSpec("loader", 2.5, 60.0)),
        units=("82 LRS",),
        beta0=-3.4,
        beta_age=0.0,   # age carries no signal by construction
        beta_gap=0.05,
        beta_util=0.0,
        seed=5,
    )
    panel, _truth = fleet_panel(config)
    split_spec = ChronologicalSplit(test_fraction=0.3)
    ratios = {}
    for key, names in (
        ("type+age", ["vehicle_type", "operational_weeks"]),
        ("age", ["operational_weeks"]),
    ):
        train_matrix, test_matrix = matrix_pair(panel, FeatureSpec.of(names), split_spec)
        model = fit_logistic(train_matrix, LogisticHyper())
        report = separation_ratio(predict_proba(model, test_matrix.values), test_matrix.labels)
        ratios[key] = report.ratio

    assert ratios["type+age"] > ratios["age"]
    assert 0.9 <= ratios["age"] <= 1.15

    assert time.monotonic() - t0 < 300.0


def test_c05_all_models_beat_shuffled_controls():
    t0 = time.monotonic()
    config = FleetConfig(
        n_vehicles=100,
        n_weeks=156,
        vehicle_types=(
            VehicleTypeSpec("bus", 0.3, 30.0),
            VehicleTypeSpec("truck", 1.0, 45.0),
            VehicleTypeSpec("loader", 3.5, 60.0),
        ),
        units=("82 LRS", "83 LRS"),
        beta0=-4.3,
        beta_age=0.003,
        beta_gap=0.1,
        beta_util=0.0,
        seed=13,
    )
    panel, _truth = fleet_panel(config, with_utilization=True)
    spec = FeatureSpec.of(
        ["vehicle_type", "unit", "operational_weeks", "weeks_since_last_visit", "utilization"]
    )
    train_matrix, test_matrix = matrix_pair(panel, spec, ChronologicalSplit(test_fraction=0.3))
    shuffled = FeatureMatrix(
        columns=train_matrix.columns,
        values=train_matrix.values,
        labels=np.random.default_rng(99).permutation(train_matrix.labels),
        scale=train_matrix.scale,
        standardized=True,
    )

    hypers = {
        "logistic": LogisticHyper(),
        "forest": ForestHyper(n_estimators=50, seed=3),
        "gbt": GbtHyper(),
    }
    for kind, hyper in hypers.items():
        model = fit_model(kind, train_matrix, hyper)
        ratio = separation_ratio(predict_proba(model, test_matrix.values), test_matrix.labels).ratio
        control_model = fit_model(kind, shuffled, hyper)
        control = separation_ratio(
            predict_proba(control_model, test_matrix.values), test_matrix.labels
        ).ratio
        assert ratio > 1.2, f"{kind}: {ratio}"
        assert 0.9 <= control <= 1.1, f"{kind} control: {control}"
        assert ratio > control, kind

    assert time.monotonic() - t0 < 600.0


def test_c06_risk_targeting_beats_random_repairs():
    t0 = time.monotonic()
    config = FleetConfig(
        n_vehicles=80,
        n_weeks=156,
        vehicle_types=(VehicleTypeSpec("truck", 1.0, 45.0),),
        units=("82 LRS",),
        beta0=-4.0,
        beta_age=0.0,
        beta_gap=0.12,   # the gap dominates the hazard
        beta_util=0.0,
        seed=21,
    )
    panel, _truth = fleet_panel(config)
    spec = FeatureSpec.of(["weeks_since_last_visit"])
    split_spec = ChronologicalSplit(test_fraction=0.3)
    train, test = split(panel, split_spec)
    model = fit_logistic(standardize(encode(train, spec)), LogisticHyper())

    proactive = simulate_policy(model, test, HighestRisk())
    random_arm = simulate_policy(model, test, RandomUniform(seed=4))
    mean_proactive = proactive.mean_weeks_until()
    mean_random = random_arm.mean_weeks_until()
    assert mean_proactive is not None and mean_random is not None
    assert mean_proactive < mean_random

    assert time.monotonic() - t0 < 120.0


def test_c07_mel_risk_matches_exhaustive_enumeration():
    t0 = time.monotonic()

    def brute_force(probs, mel):
        n = len(probs)
        total = 0.0
        for states in itertools.product((0, 1), repeat=n):
            failures = sum(states)
            if failures > n - mel:
                pr = 1.0
                for p, s in zip(probs, states):
                    pr *= p if s else 1.0 - p
                total += pr
        return total

    rng = np.random.default_rng(77)
    for n in range(1, 13):
        probs = rng.random(n)
        mel = int(rng.integers(0, n + 1))
        exact = mel_risk(probs, MelSpec("t", mel, n))
        assert abs(exact - brute_force(probs, mel)) <= 1e-12

    # equal probabilities collapse to a plain binomial tail
    p, n, mel = 0.3, 10, 4
    tail = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n - mel + 1, n + 1))
    assert abs(mel_risk([p] * n, MelSpec("t", mel, n)) - tail) <= 1e-12
    assert mel_risk([p] * n, MelSpec("t", 0, n)) == 0.0

    assert time.monotonic() - t0 < 5.0


def test_c08_synth_ingest_panel_round_trip():
    t0 = time.monotonic()
    config = FleetConfig(
        n_vehicles=60,
        n_weeks=156,
        vehicle_types=(
            VehicleTypeSpec("bus", 0.35, 30.0),
            VehicleTypeSpec("truck", 1.0, 45.0),
            VehicleTypeSpec("loader", 3.0, 60.0),
        ),
        units=("82 LRS", "83 LRS"),
        beta0=-4.2,
        beta_age=0.003,
        beta_gap=0.08,
        beta_util=0.0,
        seed=0,
    )
    panel, truth = fleet_panel(config)
    assert len(panel.rows) == config.n_vehicles * config.n_weeks
    flagged = {}
    for r in panel.rows:
        if r.repair_flag:
            flagged.setdefault(r.asset_id, []).append(r.week)
    for v in truth.vehicles:
        assert flagged.get(v.asset_id, []) == v.breakdown_weeks

    assert time.monotonic() - t0 < 30.0


def test_c09_pipeline_is_deterministic(tmp_path):
    out = tmp_path / "run"
    args = ["-o", str(out), "--seed", "7"]

    def run_all():
        assert main(["synth", *args, "--n-vehicles", "20", "--n-weeks", "60"]) == 0
        assert main(["report", *args]) == 0
        assert main(["mel", *args, "--mel", "truck=2"]) == 0
        return {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        }

    first = run_all()
    second = run_all()
    assert set(first) == set(second)
    for name in first:
        if name == "manifest.json":
            continue
        assert first[name] == second[name], f"{name} differs between runs"
    m1 = json.loads(first["manifest.json"])
    m2 = json.loads(second["manifest.json"])
    m1.pop("created_utc")
    m2.pop("created_utc")
    assert m1 == m2


def test_c10_split_contracts():
    config = FleetConfig(
        n_vehicles=30,
        n_weeks=156,
        vehicle_types=(VehicleTypeSpec("truck", 1.0, 45.0),),
        units=("82 LRS",),
        beta0=-4.0,
        beta_gap=0.08,
        seed=1,
    )
    panel, _truth = fleet_panel(config)

    train, test = split(panel, ChronologicalSplit(test_fraction=0.3))
    assert max(r.week for r in train.rows) < min(r.week for r in test.rows)
    share = len(test) / len(panel)
    assert abs(share - 0.30) < 0.05
    boundary = min(r.week for r in test.rows)
    over = sum(1 for r in panel.rows if r.week >= boundary) / len(panel)
    under = sum(1 for r in panel.rows if r.week >= boundary + 1) / len(panel)
    assert over >= 0.3 > under

    # worked example: 100 uniform weeks, fraction 0.30 -> test = weeks 70..99
    uniform = panel_from_rows(
        [PanelRow("A1", "truck", "82 LRS", w, w, 0, 0.0, w % 5 == 0) for w in range(100)]
    )
    _, tail = split(uniform, ChronologicalSplit(test_fraction=0.3))
    assert sorted(r.week for r in tail.rows) == list(range(70, 100))

    r_train, r_test = split(panel, RandomRowSplit(test_fraction=0.3, seed=42))
    keys = lambda pnl: {(r.asset_id, r.week) for r in pnl.rows}
    assert keys(r_train) | keys(r_test) == keys(panel)
    assert keys(r_train) & keys(r_test) == set()
    assert len(r_train) + len(r_test) == len(panel)
