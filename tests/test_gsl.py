"""Joint structure-and-classifier optimization: objective, steps, fit, report.

The slow checks share three module-scoped fits on the 60-node fixture; the
step-level checks run on tiny matrices with independent oracles.
"""

import math

import numpy as np
import pytest

from gridsentry import gsl, models
from gridsentry.attacks import PerturbationSpec, apply
from gridsentry.experiments import split, write_history_csv
from gridsentry.graphs import sbm_generate
from gridsentry.gsl import (ADDED_WEIGHT, PRUNED_WEIGHT, GslConfig, GslState,
                            StructureDiff, class_beliefs, fit, objective,
                            refine_report, refine_structure, structure_step)
from gridsentry.models import TrainConfig, init_params, masked_cross_entropy, \
    model_logits, train

from conftest import SBM12, random_symmetric
from test_acceptance import ROBUST_SBM
from test_models import _count_preparations


def _tiny():
    s = np.array([[0.0, 0.8, 0.3], [0.8, 0.0, 0.0], [0.3, 0.0, 0.0]])
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    x = np.array([[1.0, 0.5], [-0.4, 0.2], [0.3, -1.1]])
    labels = np.array([0, 1, 0])
    mask = np.ones(3, dtype=bool)
    theta = init_params("gcn", 2, hidden=3, seed=5)
    return s, a, x, labels, mask, theta


def test_objective_terms_match_independent_oracles():
    s, a, x, labels, mask, theta = _tiny()
    cfg = GslConfig(alpha_nuclear=0.7, alpha_l1=0.11, beta_smooth=0.13,
                    lambda_prox=0.17)
    parts = objective(s, theta, x, labels, mask, a, cfg)

    task = masked_cross_entropy(model_logits(theta, s, x), labels, mask)
    nuclear = 0.7 * float(np.abs(np.linalg.eigvalsh(s)).sum())
    l1 = 0.11 * float(np.abs(s).sum())
    smooth = 0.13 * sum(
        s[i, j] * float(np.sum((x[i] - x[j]) ** 2))
        for i in range(3) for j in range(i + 1, 3)
    )
    prox = 0.17 * float(((s - a) ** 2).sum())

    assert abs(parts.task - task) <= 1e-12
    assert abs(parts.nuclear - nuclear) <= 1e-8
    assert abs(parts.l1 - l1) <= 1e-12
    assert abs(parts.smooth - smooth) <= 1e-8
    assert abs(parts.prox - prox) <= 1e-12
    assert abs(parts.total - (task + nuclear + l1 + smooth + prox)) <= 1e-12


def test_objective_zero_weights_reduce_to_task():
    s, a, x, labels, mask, theta = _tiny()
    cfg = GslConfig(alpha_nuclear=0.0, alpha_l1=0.0, beta_smooth=0.0,
                    lambda_prox=0.0)
    parts = objective(s, theta, x, labels, mask, a, cfg)
    assert parts.nuclear == 0.0 and parts.l1 == 0.0
    assert parts.smooth == 0.0 and parts.prox == 0.0
    assert parts.total == parts.task


def test_config_validation():
    with pytest.raises(ValueError):
        GslConfig(alpha_nuclear=-0.1)
    with pytest.raises(ValueError):
        GslConfig(eta_s=-1e-3)
    with pytest.raises(ValueError):
        GslConfig(outer_iters=-1)


def test_structure_step_identity_at_zero_step_size():
    s, a, x, labels, mask, theta = _tiny()
    state = GslState(s=s.copy(), a=a, theta=theta)
    out = structure_step(state, x, labels, mask, GslConfig(eta_s=0.0))
    assert np.array_equal(out, s)


def test_structure_step_huge_l1_empties_the_graph():
    s, a, x, labels, mask, theta = _tiny()
    state = GslState(s=s.copy(), a=a, theta=theta)
    out = structure_step(state, x, labels, mask, GslConfig(alpha_l1=1e6))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_structure_step_output_is_valid_adjacency():
    s, a, x, labels, mask, theta = _tiny()
    state = GslState(s=s.copy(), a=a, theta=theta)
    out = structure_step(state, x, labels, mask, GslConfig())
    assert np.array_equal(out, out.T)
    assert np.all(np.diagonal(out) == 0.0)
    assert out.min() >= 0.0 and out.max() <= 1.0


@pytest.mark.parametrize("theta_source", ["initialized", "trained"])
def test_descent_on_small_fixture(theta_source, sbm12):
    mask = np.ones(12, dtype=bool)
    if theta_source == "initialized":
        theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    else:
        theta = train(sbm12, sbm12.adjacency, TrainConfig(epochs=30), "gcn",
                      mask, seed=11).params
    cfg = GslConfig(eta_s=1e-3)
    state = GslState(s=sbm12.adjacency.copy(), a=sbm12.adjacency.copy(),
                     theta=theta)
    values = [objective(state.s, theta, sbm12.features, sbm12.labels, mask,
                        state.a, cfg).total]
    for _ in range(10):
        state.s = structure_step(state, sbm12.features, sbm12.labels, mask, cfg)
        values.append(objective(state.s, theta, sbm12.features, sbm12.labels,
                                mask, state.a, cfg).total)
    increases = np.diff(values)
    assert np.all(increases <= 1e-8), f"objective rose by {increases.max()}"


def test_descent_with_belief_signal(sbm12):
    # The signal fit smooths: labels on the masked half, beliefs elsewhere.
    mask = np.arange(12) % 3 != 0
    theta = train(sbm12, sbm12.adjacency, TrainConfig(epochs=30), "gcn",
                  mask, seed=11).params
    signal = class_beliefs(theta, sbm12.adjacency, sbm12.features,
                           sbm12.labels, mask)
    assert np.array_equal(signal[mask, 1], sbm12.labels[mask])
    assert np.allclose(signal.sum(axis=1), 1.0)
    cfg = GslConfig(eta_s=1e-3)
    state = GslState(s=sbm12.adjacency.copy(), a=sbm12.adjacency.copy(),
                     theta=theta, signal=signal)
    values = [objective(state.s, theta, sbm12.features, sbm12.labels, mask,
                        state.a, cfg, signal).total]
    for _ in range(10):
        state.s = structure_step(state, sbm12.features, sbm12.labels, mask, cfg)
        values.append(objective(state.s, theta, sbm12.features, sbm12.labels,
                                mask, state.a, cfg, signal).total)
    increases = np.diff(values)
    assert np.all(increases <= 1e-8), f"objective rose by {increases.max()}"


@pytest.fixture(scope="module")
def fit_clean(sbm60, masks60):
    train_mask, _ = masks60
    return fit(sbm60.adjacency, sbm60.features, sbm60.labels, "gcn",
               GslConfig(), TrainConfig(), train_mask, seed=7)


@pytest.fixture(scope="module")
def fit_poisoned(poisoned60, masks60):
    snap, _ = poisoned60
    train_mask, _ = masks60
    return fit(snap.adjacency, snap.features, snap.labels, "gcn",
               GslConfig(), TrainConfig(), train_mask, seed=7)


def test_fit_objective_does_not_end_above_start(fit_clean):
    _, _, state = fit_clean
    history = state.objective_history
    assert len(history) == GslConfig().outer_iters + 1
    assert all(math.isfinite(p.total) for p in history)
    assert history[-1].total <= history[0].total


def test_fit_output_invariants(fit_poisoned):
    s, _, state = fit_poisoned
    assert np.array_equal(s, s.T)
    assert np.all(np.diagonal(s) == 0.0)
    assert s.min() >= 0.0 and s.max() <= 1.0
    assert state.iteration == GslConfig().outer_iters


def test_fit_with_frozen_structure_equals_plain_training(sbm60, masks60):
    train_mask, _ = masks60
    gcfg = GslConfig(eta_s=0.0, outer_iters=10, inner_theta_steps=5)
    tcfg = TrainConfig(epochs=50)
    s, theta, _ = fit(sbm60.adjacency, sbm60.features, sbm60.labels, "gcn",
                      gcfg, tcfg, train_mask, seed=7)
    assert np.array_equal(s, sbm60.adjacency)
    plain = train(sbm60, sbm60.adjacency, tcfg, "gcn", train_mask, seed=7)
    for key in theta.weights:
        assert np.array_equal(theta.weights[key], plain.params.weights[key])


def test_fit_zero_iterations_returns_inputs(sbm60, masks60):
    train_mask, _ = masks60
    s, theta, state = fit(sbm60.adjacency, sbm60.features, sbm60.labels,
                          "gcn", GslConfig(outer_iters=0), TrainConfig(),
                          train_mask, seed=7)
    assert np.array_equal(s, sbm60.adjacency)
    fresh = init_params("gcn", sbm60.features.shape[1], hidden=16, classes=2,
                        seed=7)
    for key in theta.weights:
        assert np.array_equal(theta.weights[key], fresh.weights[key])
    assert len(state.objective_history) == 1


def test_stronger_anchor_stays_closer_to_observation(poisoned60, masks60):
    snap, _ = poisoned60
    train_mask, _ = masks60
    dist = {}
    for lam in (0.15, 0.30):
        s, _, _ = fit(snap.adjacency, snap.features, snap.labels, "gcn",
                      GslConfig(lambda_prox=lam), TrainConfig(), train_mask,
                      seed=7)
        dist[lam] = float(np.linalg.norm(s - snap.adjacency))
    assert dist[0.30] < dist[0.15]


def test_attack_edges_end_lighter_than_true_edges(fit_poisoned, sbm60,
                                                  poisoned60):
    s, _, _ = fit_poisoned
    _, receipt = poisoned60
    added = receipt.edges_added
    removed = set(receipt.edges_removed)
    clean_pairs = zip(*np.nonzero(np.triu(sbm60.adjacency, k=1)))
    kept = [(i, j) for i, j in clean_pairs if (i, j) not in removed]
    assert added and kept
    w_added = float(np.mean([s[i, j] for i, j in added]))
    w_kept = float(np.mean([s[i, j] for i, j in kept]))
    assert w_added < w_kept


def test_attack_edges_end_light_on_criterion_01_fixture():
    # Criterion 01's 200-node weak-feature graph, seed 0, dice at 50%: the
    # features alone barely separate the classes, so only the labels can tell
    # the attacker's cross-class edges from genuine ones.
    snap = sbm_generate(ROBUST_SBM)
    train_mask, _ = split(snap.labels, 0.8, seed=0)
    spec = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="dice",
                            seed=0)
    poisoned, receipt = apply(snap, spec, "training")
    s, _, _ = fit(poisoned.adjacency, poisoned.features, poisoned.labels,
                  "gcn", GslConfig(), TrainConfig(), train_mask, seed=0)
    removed = set(receipt.edges_removed)
    genuine = [(i, j) for i, j in zip(*np.nonzero(np.triu(snap.adjacency, k=1)))
               if (i, j) not in removed]
    w_genuine = float(np.mean([s[i, j] for i, j in genuine]))
    w_inserted = float(np.mean([s[i, j] for i, j in receipt.edges_added]))
    assert w_genuine >= 0.5, f"genuine edges end at {w_genuine:.3f}"
    assert w_inserted <= 0.5 * w_genuine, \
        f"inserted edges end at {w_inserted:.3f}, genuine at {w_genuine:.3f}"


def test_pruning_mostly_hits_attack_edges(fit_poisoned, poisoned60):
    _, _, state = fit_poisoned
    _, receipt = poisoned60
    diff = refine_report(state)
    pruned = {(i, j) for i, j, _ in diff.pruned}
    assert pruned, "optimizer pruned nothing on the poisoned fixture"
    attack_edges = set(receipt.edges_added)
    precision = len(pruned & attack_edges) / len(pruned)
    assert precision >= 0.6, f"pruning precision {precision:.3f}"


def test_refine_report_thresholds():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    s = np.array([[0.0, 0.05, 0.7], [0.05, 0.0, 0.1], [0.7, 0.1, 0.0]])
    state = GslState(s=s, a=a, theta=None)
    diff = refine_report(state)
    # (1, 2) sits exactly at the pruning threshold and stays kept
    assert diff.pruned == [(0, 1, 0.05)]
    assert diff.added == [(0, 2, 0.7)]
    assert diff.to_dict() == {"pruned": [[0, 1, 0.05]], "added": [[0, 2, 0.7]]}
    assert PRUNED_WEIGHT == 0.1 and ADDED_WEIGHT == 0.5


def test_refine_report_empty_when_structure_unchanged(sbm12):
    state = GslState(s=sbm12.adjacency.copy(), a=sbm12.adjacency.copy(),
                     theta=None)
    diff = refine_report(state)
    assert diff == StructureDiff(pruned=[], added=[])


def test_refine_report_matches_pair_loop_reference():
    a = (random_symmetric(25, 4, density=0.3) > 0).astype(float)
    s = random_symmetric(25, 5, density=0.8)
    pruned, added = [], []
    for i in range(25):
        for j in range(i + 1, 25):
            if a[i, j] > 0:
                if s[i, j] < PRUNED_WEIGHT:
                    pruned.append((i, j, float(s[i, j])))
            elif s[i, j] > ADDED_WEIGHT:
                added.append((i, j, float(s[i, j])))
    assert pruned and added
    diff = refine_report(GslState(s=s, a=a, theta=None))
    assert diff == StructureDiff(pruned=pruned, added=added)
    assert all(type(v) is int for i, j, _ in diff.pruned + diff.added for v in (i, j))


def test_refine_structure_zero_steps_is_identity(sbm12):
    theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    out = refine_structure(sbm12.adjacency, sbm12.features, theta,
                           GslConfig(), steps=0)
    assert np.array_equal(out, sbm12.adjacency)


def test_refine_structure_is_label_free_and_valid(sbm12):
    theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    out = refine_structure(sbm12.adjacency, sbm12.features, theta,
                           GslConfig(), steps=5)
    assert np.array_equal(out, out.T)
    assert np.all(np.diagonal(out) == 0.0)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.array_equal(out, sbm12.adjacency)


def test_fit_prepares_each_structure_once(sbm60, masks60, monkeypatch):
    calls = _count_preparations(monkeypatch, gsl)
    train_mask, _ = masks60
    fit(sbm60.adjacency, sbm60.features, sbm60.labels, "sage",
        GslConfig(outer_iters=4), TrainConfig(), train_mask, seed=7)
    assert calls == ["sage"] * (4 + 1)


def test_structure_step_rejects_a_propagation_of_another_matrix():
    s, a, x, labels, mask, theta = _tiny()
    state = GslState(s=s.copy(), a=a, theta=theta)
    with pytest.raises(ValueError, match="another structure"):
        structure_step(state, x, labels, mask, GslConfig(),
                       propagation=models._prepare("gcn", s.copy()))


# Objective histories of 5 outer iterations on the 60-node fixture, as
# write_history_csv prints them. Pinned so that a change to any step of fit
# (forward, gradients, beliefs, structure step, objective) shows here.
FIT_HISTORY_CSV = {
    "gcn": (
        "iteration,total,task,nuclear,l1,smooth,prox\n"
        "0,56.9112559992,0.726707795525,34.1406918289,0.24,21.8038563748,0\n"
        "1,53.157128076,0.40248566102,33.1646092614,0.236474246578,19.2492232554,0.104335651516\n"
        "2,50.0753286323,0.211168512834,32.2699850824,0.233155841919,16.9703582997,0.390660895443\n"
        "3,47.4666998884,0.101022850506,31.4533727342,0.230033205256,14.8596392182,0.822631880201\n"
        "4,45.2270058876,0.0432240771044,30.7094090668,0.227100513343,12.8785963861,1.3686758442\n"
        "5,43.2950607045,0.0180761182598,30.0310980516,0.224364827155,11.0198621697,2.00165953769\n"
    ),
    "sage": (
        "iteration,total,task,nuclear,l1,smooth,prox\n"
        "0,56.8958541812,0.711061143235,34.1406918289,0.24,21.8041012091,0\n"
        "1,52.8561414563,0.0775958808658,33.1635565462,0.236488903387,19.2739629501,0.104537175766\n"
        "2,49.8893289221,0.00739365908379,32.2692264769,0.233155989138,16.9891144078,0.390438389133\n"
        "3,47.3707829997,0.00134259302713,31.4533852466,0.230020572721,14.8651198607,0.820914726683\n"
        "4,45.1769702237,0.000463175931591,30.7104197175,0.227081614334,12.8745274573,1.36447825865\n"
        "5,43.2688255666,0.000235881102195,30.0329356724,0.224346397893,11.0168830809,1.99442453433\n"
    ),
}


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_fit_history_is_pinned(kind, sbm60, masks60, tmp_path):
    train_mask, _ = masks60
    _, _, state = fit(sbm60.adjacency, sbm60.features, sbm60.labels, kind,
                      GslConfig(outer_iters=5), TrainConfig(), train_mask,
                      seed=7)
    path = tmp_path / "history.csv"
    write_history_csv(state.objective_history, path)
    assert path.read_text() == FIT_HISTORY_CSV[kind]
