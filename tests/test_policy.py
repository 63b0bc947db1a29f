"""Weekly repair rollout, gap bookkeeping, and MEL shortfall risk."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetrisk.config import RunConfig, fleet_config
from fleetrisk.errors import EmptyTestRangeError, LengthMismatchError
from fleetrisk.evaluation import ChronologicalSplit, fit_on_train, split
from fleetrisk.features import FEATURE_NAMES, Column, FeatureSpec
from fleetrisk.ingest import parse_subworkorders
from fleetrisk.models import predict_panel
from fleetrisk.models.forest import ForestHyper
from fleetrisk.models.gbt import GbtHyper
from fleetrisk.models.logistic import LogisticHyper
from fleetrisk.panel import PanelOptions, PanelRow, build_panel, load_utilization_csv
from fleetrisk.synth import generate_fleet
from fleetrisk.policy import (
    HighestRisk,
    MelSpec,
    RandomUniform,
    mel_risk,
    simulate_policy,
    write_trace_csv,
    write_trace_histograms_csv,
)

from oracles import panel_from_rows


class GapModel:
    """Scores rows by their current weeks-since-last-visit, scaled to [0, 1]."""

    columns = [Column(name="weeks_since_last_visit", kind="numeric")]
    scale = np.ones(1)
    standardized = True
    kind = "logistic"

    def predict_proba(self, X):
        return X[:, [0]].toarray()[:, 0] / 100.0


def growing_gap_panel(n_weeks=6, assets=("A1", "B2", "C3")):
    rows = [
        PanelRow(a, "truck", "82 LRS", w, w, w, 0.0, 0)
        for a in assets
        for w in range(n_weeks)
    ]
    return panel_from_rows(rows)


def single_asset_panel():
    flags = {2, 5}
    rows = [
        PanelRow("A1", "truck", "82 LRS", w, w, 0, 0.0, 1 if w in flags else 0)
        for w in range(7)
    ]
    return panel_from_rows(rows)


def test_highest_risk_rotates_through_fleet():
    # Each proactive repair zeroes that vehicle's effective gap, so the
    # greedy policy cycles instead of hammering one asset.
    trace = simulate_policy(GapModel(), growing_gap_panel(), HighestRisk())
    assert trace.chosen_asset == ["A1", "B2", "C3", "A1", "B2", "C3"]
    assert trace.week == [0, 1, 2, 3, 4, 5]


def test_tie_goes_to_smallest_asset_id():
    rows = [PanelRow(a, "truck", "82 LRS", 0, 0, 3, 0.0, 0) for a in ("B2", "A1", "C3")]
    trace = simulate_policy(GapModel(), panel_from_rows(rows + [
        PanelRow(a, "truck", "82 LRS", 1, 1, 3, 0.0, 0) for a in ("B2", "A1", "C3")
    ]), HighestRisk())
    assert trace.chosen_asset[0] == "A1"


def test_scores_reflect_mutated_gaps():
    trace = simulate_policy(GapModel(), growing_gap_panel(), HighestRisk())
    # week 1: A1 was repaired at week 0, so B2's untouched gap of 1 wins
    assert trace.score[1] == pytest.approx(0.01)
    # week 3: every vehicle has been repaired once; A1's effective gap is
    # min(3, 3 - 0 - 1) = 2
    assert trace.chosen_asset[3] == "A1"
    assert trace.score[3] == pytest.approx(0.02)


def test_gap_bookkeeping_from_actual_panel_only():
    trace = simulate_policy(GapModel(), single_asset_panel(), HighestRisk())
    assert trace.weeks_since_last_actual_service == [0, 1, 2, 1, 2, 3, 1]
    assert trace.weeks_until_next_actual_service == [2, 1, 3, 2, 1, None, None]
    assert trace.censored_count() == 2
    assert trace.mean_weeks_until() == pytest.approx(9 / 5)
    assert trace.mean_weeks_since() == pytest.approx(10 / 7)


def test_all_censored_mean_is_none():
    trace = simulate_policy(GapModel(), growing_gap_panel(n_weeks=3), HighestRisk())
    assert trace.censored_count() == 3
    assert trace.mean_weeks_until() is None


def test_random_policy_matches_seeded_stream():
    panel = growing_gap_panel(n_weeks=10)
    trace = simulate_policy(GapModel(), panel, RandomUniform(seed=5))
    rng = np.random.default_rng(5)
    expected = [("A1", "B2", "C3")[rng.integers(0, 3)] for _ in range(10)]
    assert trace.chosen_asset == expected
    again = simulate_policy(GapModel(), panel, RandomUniform(seed=5))
    assert again == trace


def test_random_policy_applies_same_mutation_rule():
    panel = growing_gap_panel(n_weeks=10)
    trace = simulate_policy(GapModel(), panel, RandomUniform(seed=5))
    last_proactive = {}
    for week, chosen, score in zip(trace.week, trace.chosen_asset, trace.score):
        gap = week  # untouched panel gap grows with the week
        if chosen in last_proactive:
            gap = min(gap, week - last_proactive[chosen] - 1)
        assert score == pytest.approx(gap / 100.0)
        last_proactive[chosen] = week


def test_the_random_arm_scores_its_picks_in_one_batch():
    """Its draws read no score, so it scores the ten weeks' picks in one call;
    test_random_policy_applies_same_mutation_rule checks the scores."""
    model, batches = GapModel(), []
    model.predict_proba = lambda X: batches.append(X.shape[0]) or GapModel.predict_proba(model, X)
    assert len(simulate_policy(model, growing_gap_panel(n_weeks=10), RandomUniform(seed=5))) == 10
    assert batches == [10]


@pytest.fixture(scope="module")
def synth_halves():
    csv_bytes, sidecar, _ = generate_fleet(replace(fleet_config(RunConfig()), seed=7, n_vehicles=12, n_weeks=60))
    panel = build_panel(parse_subworkorders(csv_bytes)[0], PanelOptions(utilization=load_utilization_csv(sidecar)))
    return split(panel, ChronologicalSplit(0.3))


@pytest.mark.parametrize("policy", [HighestRisk(), RandomUniform(seed=5)], ids=["highest-risk", "random"])
@pytest.mark.parametrize(
    "kind, hyper",
    [("logistic", LogisticHyper()), ("forest", ForestHyper(n_estimators=5, seed=3)), ("gbt", GbtHyper(n_estimators=5))],
    ids=["logistic", "forest", "gbt"],
)
def test_the_batch_scores_are_each_weeks_scores(synth_halves, kind, hyper, policy):
    """The trace's scores come from one batch after the weekly loop. Rescoring
    each week's rows on its own, with the gaps the trace's earlier picks imply,
    gives the same bits, and the highest-risk pick is that week's first max."""
    train, test = synth_halves
    model = fit_on_train(train, FeatureSpec(FEATURE_NAMES), kind, hyper)
    trace = simulate_policy(model, test, policy)
    assert trace.week == sorted(set(test.week.tolist()))
    repaired_at = {}
    for week, chosen, score in zip(trace.week, trace.chosen_asset, trace.score):
        rows = test.take(test.week == week)
        ids = [row.asset_id for row in rows.rows]
        gaps = [min(row.weeks_since_last_visit, week - repaired_at.get(row.asset_id, -np.inf) - 1) for row in rows.rows]
        scores = predict_panel(model, replace(rows, weeks_since_last_visit=np.array(gaps, dtype=np.float64)))
        if isinstance(policy, HighestRisk):
            assert ids[int(np.argmax(scores))] == chosen
        assert scores[ids.index(chosen)] == score
        repaired_at[chosen] = week


def test_empty_panel_rejected():
    with pytest.raises(EmptyTestRangeError):
        simulate_policy(GapModel(), panel_from_rows([]), HighestRisk())


def test_trace_histograms_counts_and_censoring():
    trace = simulate_policy(GapModel(), single_asset_panel(), HighestRisk())
    buf = io.StringIO()
    write_trace_histograms_csv(trace, buf)
    assert buf.getvalue().splitlines()[1:] == [
        "since_last,0,1", "since_last,1,3", "since_last,2,2", "since_last,3,1",
        "until_next,1,2", "until_next,2,2", "until_next,3,1",
        "until_next_censored,,2",
    ]


def test_write_trace_csv():
    trace = simulate_policy(GapModel(), single_asset_panel(), HighestRisk())
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "week,chosen_asset,score,weeks_since_last_actual_service,weeks_until_next_actual_service"
    assert len(lines) == 8
    assert lines[1] == "0,A1,0.0,0,2"
    # censored entries leave the until column empty
    assert lines[6] == "5,A1,0.0,3,"
    assert lines[7] == "6,A1,0.0,1,"


def test_write_trace_histograms_csv():
    trace = simulate_policy(GapModel(), single_asset_panel(), HighestRisk())
    buf = io.StringIO()
    write_trace_histograms_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "metric,weeks,count"
    assert "since_last,0,1" in lines
    assert "until_next,3,1" in lines
    assert lines[-1] == "until_next_censored,,2"


def test_mel_risk_hand_cases():
    # two vehicles, each down with probability 0.5
    assert mel_risk([0.5, 0.5], MelSpec("truck", 2, 2)) == pytest.approx(0.75)
    assert mel_risk([0.5, 0.5], MelSpec("truck", 1, 2)) == pytest.approx(0.25)
    assert mel_risk([0.3, 0.4], MelSpec("truck", 1, 2)) == pytest.approx(0.3 * 0.4)
    assert mel_risk([0.3, 0.4], MelSpec("truck", 2, 2)) == pytest.approx(1 - 0.7 * 0.6)


def test_mel_risk_edge_cases():
    assert mel_risk([0.9, 0.9, 0.9], MelSpec("t", 0, 3)) == 0.0
    assert mel_risk([0.0, 0.0], MelSpec("t", 2, 2)) == 0.0
    assert mel_risk([1.0, 1.0], MelSpec("t", 1, 2)) == pytest.approx(1.0)


def test_mel_risk_input_validation():
    with pytest.raises(LengthMismatchError):
        mel_risk([0.1], MelSpec("t", 1, 2))
    with pytest.raises(ValueError):
        mel_risk([0.5, 1.5], MelSpec("t", 1, 2))
    with pytest.raises(ValueError):
        MelSpec("t", -1, 2)
    with pytest.raises(ValueError):
        MelSpec("t", 3, 2)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.data())
def test_mel_risk_monotone_in_required_count(probs, data):
    assigned = len(probs)
    mel = data.draw(st.integers(min_value=0, max_value=assigned - 1))
    lo = mel_risk(probs, MelSpec("t", mel, assigned))
    hi = mel_risk(probs, MelSpec("t", mel + 1, assigned))
    assert 0.0 <= lo <= 1.0 + 1e-12
    assert lo <= hi + 1e-12
