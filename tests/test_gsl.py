"""Joint structure-and-classifier optimization: objective, steps, fit, report.

The slow checks share three module-scoped fits on the 60-node fixture; the
step-level checks run on tiny matrices with independent oracles.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridsentry import codec, graphs, gsl, models, numerics
from gridsentry.attacks import PerturbationSpec, apply
from gridsentry.errors import NumericError
from gridsentry.experiments import split, write_history_csv
from gridsentry.graphs import sbm_generate, smoothness
from gridsentry.gsl import (ADDED_WEIGHT, PRUNED_WEIGHT, GslConfig, GslState,
                            ObjectiveParts, StructureDiff, _label_vote,
                            _labelled_beliefs, _structure_step, fit,
                            refine_report, refine_structure)
from gridsentry.models import TrainConfig, init_params, model_logits, \
    own_logits, softmax, train

from conftest import (SBM12, dense_structure_gradient, masked_cross_entropy,
                      objective_at, random_symmetric, task_factors, task_loss)
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
    parts = objective_at(s, a, x, task_loss(s, x, labels, mask, theta), cfg)

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
    parts = objective_at(s, a, x, task_loss(s, x, labels, mask, theta), cfg)
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
    state = GslState(s=s.copy(), a=a, signal=x)
    out = _structure_step(state, GslConfig(eta_s=0.0), 1,
                          task_factors(s, x, labels, mask, theta))
    assert np.array_equal(out, s)


def test_structure_step_needs_a_step_count_and_a_signal():
    s, a, x, _, _, _ = _tiny()
    with pytest.raises(ValueError, match="non-negative"):
        _structure_step(GslState(s=s, a=a, signal=x), GslConfig(), -1, None)
    with pytest.raises(ValueError, match="state.signal"):
        _structure_step(GslState(s=s, a=a), GslConfig(), 1, None)


def test_structure_step_huge_l1_empties_the_graph():
    s, a, x, labels, mask, theta = _tiny()
    state = GslState(s=s.copy(), a=a, signal=x)
    out = _structure_step(state, GslConfig(alpha_l1=1e6), 1,
                          task_factors(s, x, labels, mask, theta))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_structure_step_output_is_valid_adjacency():
    s, a, x, labels, mask, theta = _tiny()
    state = GslState(s=s.copy(), a=a, signal=x)
    out = _structure_step(state, GslConfig(), 1,
                          task_factors(s, x, labels, mask, theta))
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
                     signal=sbm12.features)

    def total():
        loss = task_loss(state.s, sbm12.features, sbm12.labels, mask, theta)
        return objective_at(state.s, state.a, sbm12.features, loss, cfg).total

    values = [total()]
    for _ in range(10):
        task = task_factors(state.s, sbm12.features, sbm12.labels, mask, theta)
        state.s = _structure_step(state, cfg, 1, task)
        values.append(total())
    increases = np.diff(values)
    assert np.all(increases <= 1e-8), f"objective rose by {increases.max()}"


def test_descent_with_belief_signal(sbm12):
    # The signal fit smooths: labels on the masked half, beliefs elsewhere.
    mask = np.arange(12) % 3 != 0
    theta = train(sbm12, sbm12.adjacency, TrainConfig(epochs=30), "gcn",
                  mask, seed=11).params
    vote = _label_vote(sbm12.adjacency, sbm12.labels, mask)
    signal = _labelled_beliefs(theta, sbm12.features, sbm12.labels, mask, vote)[0]
    assert np.array_equal(signal[mask, 1], sbm12.labels[mask])
    assert np.allclose(signal.sum(axis=1), 1.0)
    cfg = GslConfig(eta_s=1e-3)
    state = GslState(s=sbm12.adjacency.copy(), a=sbm12.adjacency.copy(),
                     signal=signal)

    def total():
        loss = task_loss(state.s, sbm12.features, sbm12.labels, mask, theta)
        return objective_at(state.s, state.a, signal, loss, cfg).total

    values = [total()]
    for _ in range(10):
        task = task_factors(state.s, sbm12.features, sbm12.labels, mask, theta)
        state.s = _structure_step(state, cfg, 1, task)
        values.append(total())
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
    s, _, _ = fit_poisoned
    assert np.array_equal(s, s.T)
    assert np.all(np.diagonal(s) == 0.0)
    assert s.min() >= 0.0 and s.max() <= 1.0


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
    fresh = init_params("gcn", sbm60.features.shape[1], hidden=16, seed=7)
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
    spec = PerturbationSpec(rate=0.5, structure_mode="dice", seed=0)
    poisoned, receipt = apply(snap, spec)
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
    state = GslState(s=s, a=a)
    diff = refine_report(state)
    # (1, 2) sits exactly at the pruning threshold and stays kept
    assert diff.pruned == [(0, 1, 0.05)]
    assert diff.added == [(0, 2, 0.7)]
    assert codec.encode(diff) == {"pruned": [[0, 1, 0.05]], "added": [[0, 2, 0.7]]}
    assert PRUNED_WEIGHT == 0.1 and ADDED_WEIGHT == 0.5


def test_refine_report_empty_when_structure_unchanged(sbm12):
    state = GslState(s=sbm12.adjacency.copy(), a=sbm12.adjacency.copy())
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
    diff = refine_report(GslState(s=s, a=a))
    assert diff == StructureDiff(pruned=pruned, added=added)
    assert all(type(v) is int for i, j, _ in diff.pruned + diff.added for v in (i, j))


def test_refine_structure_zero_steps_is_identity(sbm12):
    theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    out = refine_structure(sbm12, sbm12.features, theta,
                           GslConfig(), steps=0)
    assert np.array_equal(out, sbm12.adjacency)


def test_refine_structure_is_label_free_and_valid(sbm12):
    theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    out = refine_structure(sbm12, sbm12.features, theta,
                           GslConfig(), steps=5)
    assert np.array_equal(out, out.T)
    assert np.all(np.diagonal(out) == 0.0)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.array_equal(out, sbm12.adjacency)


def _step_loop(a, signal, cfg, steps, s=None, task=None):
    """``steps`` structure steps from ``s`` (default ``a``), one call each."""
    state = GslState(s=a if s is None else s, a=a, signal=signal)
    for _ in range(steps):
        state.s = _structure_step(state, cfg, 1, task)
    return state.s


# (eta_s, lambda_prox) with 2 eta_s lambda_prox <= 1, where runs of steps
# without the nuclear prior are taken in closed form.
_CLOSED_FORM_STEP = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.just(0.0)),              # r = 1
    st.sampled_from([(0.5, 1.0), (1.0, 0.5), (0.25, 2.0)]),     # r = 0
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0)).filter(
        lambda pair: 2.0 * pair[0] * pair[1] <= 1.0),
)


@given(data=st.data())
def test_closed_form_refinement_matches_the_step_loop(data):
    n = data.draw(st.integers(1, 30), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    upper = np.triu(rng.random((n, n)) < data.draw(st.floats(0.0, 1.0)), 1)
    a = (upper | upper.T).astype(float)
    p = rng.random(n)
    p[rng.random(n) < 0.2] = rng.integers(0, 2)  # some beliefs at 0 or 1
    beliefs = np.column_stack([1.0 - p, p])
    eta, lam = data.draw(_CLOSED_FORM_STEP, label="eta_s, lambda_prox")
    cfg = GslConfig(eta_s=eta, lambda_prox=lam,
                    alpha_l1=data.draw(st.floats(0.0, 0.5), label="alpha_l1"),
                    beta_smooth=data.draw(st.floats(0.0, 5.0), label="beta"))
    steps = data.draw(st.integers(0, 80), label="steps")

    out = _structure_step(GslState(s=a, a=a, signal=beliefs), cfg, steps, None)
    assert np.abs(out - _step_loop(a, beliefs, cfg, steps)).max(initial=0.0) <= 1e-12
    assert np.array_equal(out, out.T)
    assert np.all(np.diagonal(out) == 0.0)
    assert out.min(initial=0.0) >= 0.0 and out.max(initial=0.0) <= 1.0


@given(data=st.data())
def test_a_run_of_steps_matches_single_steps(data):
    # From any symmetric S in [0, 1] with a zero diagonal, not only from A,
    # and with the task factors held fixed: the closed form matches single
    # steps to rounding, the step loop (prior on, or 2 eta_s lambda_prox > 1)
    # bit for bit.
    n = data.draw(st.integers(1, 20), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    upper = np.triu(rng.random((n, n)) < 0.4, 1)
    a = (upper | upper.T).astype(float)
    s = np.triu(rng.random((n, n)), 1)
    s += s.T
    p = rng.random(n)
    beliefs = np.column_stack([1.0 - p, p])
    task = None
    if data.draw(st.booleans(), label="task"):
        task = models._Factors(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)),
                               rng.normal(size=n))
    regime = data.draw(st.sampled_from(["closed form", "prior", "oscillating"]),
                       label="regime")
    prior = 0.0
    if regime == "closed form":
        eta, lam = data.draw(_CLOSED_FORM_STEP, label="eta_s, lambda_prox")
    elif regime == "prior":
        eta = data.draw(st.floats(0.01, 1.0), label="eta_s")
        lam = data.draw(st.floats(0.0, 2.0), label="lambda_prox")
        prior = data.draw(st.floats(0.01, 1.0), label="alpha_nuclear")
    else:
        eta = data.draw(st.floats(0.5, 1.0), label="eta_s")
        lam = data.draw(st.floats(1.01, 3.0), label="lambda_prox")
    cfg = GslConfig(alpha_nuclear=prior, eta_s=eta, lambda_prox=lam,
                    alpha_l1=data.draw(st.floats(0.0, 0.5), label="alpha_l1"),
                    beta_smooth=data.draw(st.floats(0.0, 5.0), label="beta"))
    steps = data.draw(st.integers(0, 40), label="steps")

    state = GslState(s=s.copy(), a=a, signal=beliefs)
    out = _structure_step(state, cfg, steps, task)
    assert np.array_equal(state.s, s)
    single = _step_loop(a, beliefs, cfg, steps, s=s, task=task)
    if regime == "closed form":
        assert np.abs(out - single).max(initial=0.0) <= 1e-12
    else:
        assert np.array_equal(out, single)
    assert np.array_equal(out, out.T)
    assert np.all(np.diagonal(out) == 0.0)
    assert out.min(initial=0.0) >= 0.0 and out.max(initial=0.0) <= 1.0


@pytest.mark.parametrize("cfg", [GslConfig(alpha_nuclear=0.25),
                                 GslConfig(eta_s=0.5, lambda_prox=1.5)],
                         ids=["nuclear-prior", "oscillating-step"])
def test_refine_structure_keeps_the_step_loop(cfg, sbm12):
    theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    beliefs = softmax(own_logits(theta, sbm12.features))
    out = refine_structure(sbm12, sbm12.features, theta, cfg, steps=7)
    assert np.array_equal(out, _step_loop(sbm12.adjacency, beliefs, cfg, 7))


@pytest.mark.parametrize("steps", [1, 20, 60])
def test_refine_structure_in_closed_form_by_default(steps, sbm12):
    theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    beliefs = softmax(own_logits(theta, sbm12.features))
    out = refine_structure(sbm12, sbm12.features, theta, GslConfig(),
                           steps=steps)
    loop = _step_loop(sbm12.adjacency, beliefs, GslConfig(), steps)
    assert np.abs(out - loop).max() <= 1e-12


def test_refine_structure_needs_an_adjacency(sbm12):
    # refine_structure reads a GraphSnapshot, which checks its adjacency
    # when it is built: a lopsided matrix never reaches the refinement.
    lopsided = sbm12.adjacency.copy()
    lopsided[0, 1] = 0.5 * lopsided[1, 0] + 0.25
    with pytest.raises(ValueError, match="symmetric"):
        dataclasses.replace(sbm12, adjacency=lopsided)
    assert not sbm12.adjacency.flags.writeable


@pytest.mark.parametrize("cfg", [GslConfig(), GslConfig(alpha_nuclear=0.25),
                                 GslConfig(eta_s=0.5, lambda_prox=1.5)],
                         ids=["closed-form", "nuclear-prior", "oscillating-step"])
@pytest.mark.parametrize("steps", [0, 1, 20])
@pytest.mark.parametrize("seed", range(3))
def test_a_step_from_a_skips_the_zero_anchor_bit_for_bit(cfg, steps, seed):
    # From S = A the anchor S - A is zero, and the step skips it; forming
    # it and passing it in must give the same bits, -0.0 entries of A too.
    n = 16
    rng = np.random.default_rng(seed)
    a = random_symmetric(n, seed, density=0.4)
    zeros = np.triu((a == 0) & (rng.random((n, n)) < 0.5), 1)
    a[zeros | zeros.T] = -0.0
    np.fill_diagonal(a, np.where(rng.random(n) < 0.5, -0.0, 0.0))
    assert np.signbit(a[a == 0]).any()
    a.setflags(write=False)
    p = rng.random(n)
    beliefs = np.column_stack([1.0 - p, p])
    for task in (None, models._Factors(rng.normal(size=(n, 3)),
                                       rng.normal(size=(n, 3)), rng.normal(size=n))):
        skipped = _structure_step(GslState(s=a, a=a, signal=beliefs), cfg,
                                  steps, task)
        formed = _structure_step(GslState(s=a, a=a, signal=beliefs), cfg,
                                 steps, task, anchor=a - a)
        assert skipped.tobytes() == formed.tobytes()
        assert skipped is not a


def test_fit_and_refine_check_the_dense_ceiling(sbm12, monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_DENSE_SIDE", 11)
    mask = np.ones(12, dtype=bool)
    with pytest.raises(ValueError, match="dense ceiling"):
        fit(sbm12.adjacency, sbm12.features, sbm12.labels, "gcn",
            GslConfig(outer_iters=1), TrainConfig(), mask, seed=7)
    theta = init_params("gcn", SBM12.feature_dim, hidden=8, seed=11)
    with pytest.raises(ValueError, match="dense ceiling"):
        refine_structure(sbm12, sbm12.features, theta, GslConfig(),
                         steps=5)


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_fit_prepares_each_structure_once(kind, sbm60, masks60, monkeypatch):
    calls = _count_preparations(monkeypatch, gsl)
    train_mask, _ = masks60
    fit(sbm60.adjacency, sbm60.features, sbm60.labels, kind,
        GslConfig(outer_iters=4), TrainConfig(), train_mask, seed=7)
    assert calls == [kind] * (4 + 1)


@pytest.mark.parametrize("labelled", ["partial", "all"])
@pytest.mark.parametrize("inner", [5, 0])
@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_fit_checks_each_structure_once_and_records_the_checked_objective(
        kind, inner, labelled, sbm60, masks60, monkeypatch):
    # The record does not check S: every S fit prepares must be an adjacency
    # by construction, and each record must equal what the public, checked
    # smoothness path gives on that iteration's S and signal.
    cfg = GslConfig(outer_iters=3, inner_theta_steps=inner)
    mask = masks60[0] if labelled == "partial" else np.ones(60, dtype=bool)
    prepared, records, checks = [], [], []
    prepare, record, check = gsl._prepare, gsl.objective, graphs._check_adjacency

    def preparing(kind, s, x):
        prepared.append(s.copy())
        return prepare(kind, s, x)

    def recording(s, row_sum, anchor, signal, task, cfg):
        parts = record(s, row_sum, anchor, signal, task, cfg)
        records.append((s.copy(), signal.copy(), task, parts))
        return parts

    def checking(a, name="adjacency"):
        checks.append(name)
        return check(a, name)

    def never(s, x):
        raise AssertionError("graphs.smoothness ran inside fit")

    monkeypatch.setattr(gsl, "_prepare", preparing)
    monkeypatch.setattr(gsl, "objective", recording)
    for module in (gsl, graphs, models):
        monkeypatch.setattr(module, "_check_adjacency", checking)
    monkeypatch.setattr(graphs, "smoothness", never)
    fit(sbm60.adjacency, sbm60.features, sbm60.labels, kind, cfg, TrainConfig(),
        mask, seed=7)
    monkeypatch.undo()

    assert checks == ["observed adjacency"]
    assert len(prepared) == len(records) == cfg.outer_iters + 1
    zeros = np.zeros(60).tobytes()
    for s in prepared:
        assert np.isfinite(s).all()
        assert s.tobytes() == np.ascontiguousarray(s.T).tobytes()
        assert np.diagonal(s).tobytes() == zeros
        assert s.min() >= 0.0 and s.max() <= 1.0
    a = sbm60.adjacency
    for s_prepared, (s, signal, task, parts) in zip(prepared, records):
        assert s.tobytes() == s_prepared.tobytes()
        smooth = cfg.beta_smooth * smoothness(s, signal)
        l1 = cfg.alpha_l1 * float(s.sum())
        prox = cfg.lambda_prox * float(((s - a) ** 2).sum())
        want = ObjectiveParts(task + 0.0 + l1 + smooth + prox, task, 0.0, l1,
                              smooth, prox)
        assert np.array(parts).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("labelled, refreshes", [("partial", 3 + 1), ("all", 1)])
def test_fit_builds_the_beliefs_of_an_all_labelled_graph_once(labelled, refreshes,
                                                              sbm60, masks60,
                                                              monkeypatch):
    calls = []
    original = gsl._labelled_beliefs

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gsl, "_labelled_beliefs", counting)
    mask = masks60[0] if labelled == "partial" else np.ones(60, dtype=bool)
    fit(sbm60.adjacency, sbm60.features, sbm60.labels, "gcn",
        GslConfig(outer_iters=3), TrainConfig(), mask, seed=7)
    assert len(calls) == refreshes


def test_warm_started_belief_regression_matches_a_cold_start(sbm60, masks60,
                                                             monkeypatch):
    fits = []
    original = gsl._fit_logistic

    def recording(features, targets, start=None):
        fits.append((features, targets, start, original(features, targets, start)))
        return fits[-1][-1]

    monkeypatch.setattr(gsl, "_fit_logistic", recording)
    train_mask, _ = masks60
    fit(sbm60.adjacency, sbm60.features, sbm60.labels, "gcn",
        GslConfig(outer_iters=6), TrainConfig(), train_mask, seed=7)
    assert len(fits) == 6 + 1
    assert fits[0][2] is None  # the first refresh starts cold
    for (features, targets, start, warm), before in zip(fits[1:], fits):
        assert start is before[3]
        cold = original(features, targets)
        assert np.abs(warm - cold).max() <= 1e-9 * max(1.0, np.abs(cold).max())


@pytest.mark.parametrize("inner, passes", [(0, 4), (5, 4 * (5 + 1))])
def test_fit_runs_one_pass_per_inner_step_and_structure_step(inner, passes, sbm60,
                                                             masks60, monkeypatch):
    # Without inner steps a record takes its task term from the structure
    # step's pass; the last record runs a forward pass alone.
    structure = []
    original = gsl._gradients

    def counting(prop, targets, params, **kwargs):
        structure.append(kwargs.get("structure", False))
        return original(prop, targets, params, **kwargs)

    monkeypatch.setattr(gsl, "_gradients", counting)
    train_mask, _ = masks60
    fit(sbm60.adjacency, sbm60.features, sbm60.labels, "gcn",
        GslConfig(outer_iters=4, inner_theta_steps=inner), TrainConfig(),
        train_mask, seed=7)
    assert len(structure) == passes
    assert structure.count(True) == 4


def test_fit_raises_when_the_last_record_overflows(sbm60, masks60):
    # With no outer iteration the last record is the only pass, so its
    # loss-only forward pass must itself reject overflowed logits.
    train_mask, _ = masks60
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="overflowed"):
        fit(sbm60.adjacency, np.full_like(sbm60.features, 1e308), sbm60.labels,
            "gcn", GslConfig(outer_iters=0), TrainConfig(), train_mask, seed=7)


@pytest.mark.parametrize("beta", [GslConfig().beta_smooth, 0.0])
@pytest.mark.parametrize("entries, fault", [
    ([(0, 1, 0.25)], "must be symmetric"),
    ([(0, 0, 1.0)], "must have a zero diagonal"),
    ([(0, 1, 1.5), (1, 0, 1.5)], r"entries must lie in \[0, 1\]"),
], ids=["asymmetric", "diagonal", "above-one"])
def test_fit_rejects_an_observed_graph_that_is_no_adjacency(entries, fault, beta,
                                                             sbm12):
    bad = sbm12.adjacency.copy()
    for i, j, value in entries:
        bad[i, j] = value
    with pytest.raises(ValueError, match=f"^observed adjacency {fault}"):
        fit(bad, sbm12.features, sbm12.labels, "gcn",
            GslConfig(beta_smooth=beta, outer_iters=1), TrainConfig(),
            np.ones(12, dtype=bool), seed=7)


# -- the dense chain-rule gradients, kept as the reference for the factored ones --


def _dense_task_gradient(s, x, labels, mask, params):
    """The symmetrized structure gradient of the task loss, built as n x n products."""
    prop = models._prepare(params.kind, s, x)
    logits = models._forward(params, prop)[0]
    _, g = models._loss_grad_logits(logits, models._targets(labels, mask, len(logits)))
    w = params.weights
    if params.kind == "mlp":
        return np.zeros_like(s)
    if params.kind == "gcn":
        s_hat, inv_sqrt = prop.s_hat, prop.inv_sqrt
        xw = x @ w["w1"]
        z1 = s_hat @ xw
        q = np.maximum(z1, 0.0) @ w["w2"]
        dq = s_hat.T @ g
        dz1 = (dq @ w["w2"].T) * (z1 > 0)
        grad_s = g @ q.T + dz1 @ xw.T
        prod = grad_s * s_hat
        phi = -(prod.sum(axis=1) + prod.sum(axis=0)) / (2.0 * prop.degree)
        grad_s = grad_s * np.outer(inv_sqrt, inv_sqrt) + phi[:, None]
    else:
        inv = prop.inv
        n1 = inv[:, None] * (s @ x)
        z1 = x @ w["w1_self"] + n1 @ w["w1_neigh"]
        h1 = np.maximum(z1, 0.0)
        n2 = inv[:, None] * (s @ h1)
        t2 = inv[:, None] * (g @ w["w2_neigh"].T)
        dz1 = (g @ w["w2_self"].T + s.T @ t2) * (z1 > 0)
        t1 = inv[:, None] * (dz1 @ w["w1_neigh"].T)
        grad_s = (t2 @ h1.T - (t2 * n2).sum(axis=1)[:, None]
                  + t1 @ x.T - (t1 * n1).sum(axis=1)[:, None])
    return (grad_s + grad_s.T) / 2.0


def _reference_step(state, theta, x, labels, mask, cfg):
    """A structure step from dense gradients; returns the step and the gradient."""
    s, a, signal = state.s, state.a, state.signal
    sq = np.einsum("ij,ij->i", signal, signal)
    half_sq_dists = 0.5 * np.maximum(sq[:, None] + sq[None, :] - 2.0 * (signal @ signal.T),
                                     0.0)
    grad = cfg.beta_smooth * half_sq_dists + 2.0 * cfg.lambda_prox * (s - a)
    if mask is not None:
        grad = grad + _dense_task_gradient(s, x, labels, mask, theta)
    stepped = numerics.soft_threshold(s - cfg.eta_s * grad, cfg.eta_s * cfg.alpha_l1)
    if cfg.eta_s * cfg.alpha_nuclear > 0:
        stepped = numerics.svt(stepped, cfg.eta_s * cfg.alpha_nuclear)
    return numerics.symmetrize_clamp(stepped), grad


@st.composite
def _structure_problem(draw):
    """A random non-negative square S with isolated rows, features, labels and a mask."""
    n = draw(st.integers(1, 12), label="n")
    d = draw(st.integers(1, 4), label="features")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    s = rng.random((n, n)) * (rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    isolated = rng.random(n) < 0.25
    s[isolated, :] = 0.0
    s[:, isolated] = 0.0
    x = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    labels = rng.integers(0, 2, size=n)
    mask = rng.random(n) < 0.6
    mask[rng.integers(0, n)] = True
    kind = draw(st.sampled_from(["gcn", "sage", "mlp"]), label="kind")
    theta = init_params(kind, d, hidden=draw(st.integers(1, 6)), seed=int(rng.integers(1000)))
    return s, x, labels, mask, theta, rng


@given(_structure_problem())
def test_structure_gradient_matches_the_dense_reference(problem):
    s, x, labels, mask, theta, _ = problem
    want = _dense_task_gradient(s, x, labels, mask, theta)
    got = dense_structure_gradient(s, x, labels, mask, theta)
    assert np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@given(_structure_problem(), st.booleans(), st.booleans(), st.booleans())
def test_structure_step_matches_the_dense_reference(problem, prior, labelled, beliefs):
    drawn, x, labels, mask, theta, rng = problem
    n = len(drawn)
    s = np.triu(drawn, 1) + np.triu(drawn, 1).T  # the structures the optimizer makes
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    a = (upper | upper.T).astype(float)
    p = rng.random(n)
    cfg = GslConfig(alpha_nuclear=float(rng.random()) if prior else 0.0,
                    alpha_l1=float(rng.random()) * 0.1,
                    beta_smooth=float(rng.random()) * 2.0,
                    lambda_prox=float(rng.random()),
                    eta_s=float(rng.random()))
    state = GslState(s=s, a=a, signal=np.column_stack([1.0 - p, p]) if beliefs else x)
    if not labelled:
        labels = mask = None
    want, grad = _reference_step(state, theta, x, labels, mask, cfg)
    task = task_factors(s, x, labels, mask, theta) if labelled else None
    got = _structure_step(state, cfg, 1, task)
    assert np.array_equal(got, got.T) and np.all(np.diagonal(got) == 0.0)
    assert got.min(initial=0.0) >= 0.0 and got.max(initial=0.0) <= 1.0
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(grad).max())


@pytest.mark.parametrize("inner", [5, 0])
@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_recorded_task_terms_match_fits_that_stop_there(kind, inner, sbm60, masks60):
    # A record takes its task term from the next inner step's loss, or from a
    # forward pass at the end of the fit; both must give the same bits.
    train_mask, _ = masks60

    def history(iters):
        cfg = GslConfig(outer_iters=iters, inner_theta_steps=inner)
        return fit(sbm60.adjacency, sbm60.features, sbm60.labels, kind, cfg,
                   TrainConfig(), train_mask, seed=7)[2].objective_history

    full = history(5)
    assert len(full) == 6
    for iters in range(1, 5):
        assert history(iters) == full[:iters + 1]


# Objective histories of 5 outer iterations on the 60-node fixture, as
# write_history_csv prints them. Pinned so that a change to any step of fit
# (forward, gradients, beliefs, structure step, objective) shows here. These
# pin the opt-in nuclear-norm prior at alpha_nuclear = 0.25.
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


def _history_csv(kind, cfg, sbm60, masks60, path):
    train_mask, _ = masks60
    _, _, state = fit(sbm60.adjacency, sbm60.features, sbm60.labels, kind,
                      cfg, TrainConfig(), train_mask, seed=7)
    write_history_csv(state.objective_history, path)
    return path.read_text()


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_fit_history_is_pinned(kind, sbm60, masks60, tmp_path):
    cfg = GslConfig(alpha_nuclear=0.25, outer_iters=5)
    assert _history_csv(kind, cfg, sbm60, masks60, tmp_path / "history.csv") \
        == FIT_HISTORY_CSV[kind]


# The same histories under the default config, where the prior is off.
DEFAULT_FIT_HISTORY_CSV = {
    "gcn": (
        "iteration,total,task,nuclear,l1,smooth,prox\n"
        "0,22.7705641703,0.726707795525,0,0.24,21.8038563748,0\n"
        "1,20.2801040489,0.40327265784,0,0.23780356087,19.5741724064,0.0648554237873\n"
        "2,18.2720300946,0.213220847369,0,0.235735162354,17.5782219144,0.244852170484\n"
        "3,16.5693373114,0.103764085263,0,0.233784151288,15.7114887383,0.520300336558\n"
        "4,15.0873003018,0.0457543964825,0,0.231943953958,13.9360085514,0.873593399919\n"
        "5,13.7838247205,0.0197730296548,0,0.230208799467,12.2447663424,1.28907654901\n"
    ),
    "sage": (
        "iteration,total,task,nuclear,l1,smooth,prox\n"
        "0,22.7551623523,0.711061143235,0,0.24,21.8041012091,0\n"
        "1,19.9808819707,0.0784296579256,0,0.237816918581,19.5996411093,0.0649942848533\n"
        "2,18.085953563,0.00772302501753,0,0.235743249803,17.5979209415,0.244566346642\n"
        "3,16.4706566318,0.00146873611041,0,0.233788020151,15.7167370871,0.518662788383\n"
        "4,15.0318078274,0.000519851533717,0,0.231947750947,13.9295984938,0.869741731183\n"
        "5,13.7508140459,0.00026988613811,0,0.230216307623,12.2378653375,1.28246251463\n"
    ),
}


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_default_fit_history_is_pinned(kind, sbm60, masks60, tmp_path):
    cfg = GslConfig(outer_iters=5)
    assert _history_csv(kind, cfg, sbm60, masks60, tmp_path / "history.csv") \
        == DEFAULT_FIT_HISTORY_CSV[kind]
