"""Perturbation budgets, receipts, phase gating, and the accuracy drop."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridsentry.attacks import (STRUCTURE_MODES, PerturbationSpec, apply,
                                perturb_features, perturb_structure)
from gridsentry.experiments import split
from gridsentry.graphs import SbmSpec, sbm_generate
from gridsentry.models import TrainConfig, model_logits, predict, train


def _edge_count(a):
    return int(round(np.triu(a, k=1).sum()))


@pytest.mark.parametrize("mode", ["random", "dice"])
@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5])
def test_budget_is_exact(mode, rate, sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=rate, structure_mode=mode,
                            seed=3)
    out, receipt = perturb_structure(sbm60.adjacency, sbm60.labels, spec)
    m = _edge_count(sbm60.adjacency)
    k = math.floor(rate * m)
    assert len(receipt.edges_added) + len(receipt.edges_removed) == k
    if mode == "dice":
        assert len(receipt.edges_added) == (k + 1) // 2
        assert len(receipt.edges_removed) == k // 2
    changed = int((np.triu(out, k=1) != np.triu(sbm60.adjacency, k=1)).sum())
    assert changed == k


@pytest.mark.parametrize("mode", ["random", "dice"])
def test_receipt_replays_the_edit(mode, sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=0.3, structure_mode=mode,
                            seed=5)
    out, receipt = perturb_structure(sbm60.adjacency, sbm60.labels, spec)
    replay = sbm60.adjacency.copy()
    for i, j in receipt.edges_added:
        assert replay[i, j] == 0.0
        replay[i, j] = replay[j, i] = 1.0
    for i, j in receipt.edges_removed:
        assert replay[i, j] == 1.0
        replay[i, j] = replay[j, i] = 0.0
    assert np.array_equal(replay, out)
    assert receipt.edges_added == sorted(receipt.edges_added)
    assert receipt.edges_removed == sorted(receipt.edges_removed)


@given(n=st.integers(2, 30), p_in=st.floats(0.05, 1.0),
       graph_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       rate=st.floats(0.0, 1.0), mode=st.sampled_from(STRUCTURE_MODES))
def test_receipt_replay_property(n, p_in, graph_seed, seed, rate, mode):
    snap = sbm_generate(SbmSpec(n=n, p_in=p_in, p_out=p_in / 2, feature_dim=1,
                                seed=graph_seed))
    a, labels = snap.adjacency, snap.labels
    same = labels[:, None] == labels[None, :]
    k = math.floor(rate * _edge_count(a))
    spec = PerturbationSpec(rate=rate, structure_mode=mode, seed=seed)
    try:
        out, receipt = perturb_structure(a, labels, spec)
    except ValueError:
        # Only DICE can run short, and only when a candidate pool is too small.
        assert mode == "dice"
        assert (np.triu((a == 0) & ~same, k=1).sum() < (k + 1) // 2
                or np.triu((a == 1) & same, k=1).sum() < k // 2)
        return
    replay = a.copy()
    for i, j in receipt.edges_added:
        assert i < j and a[i, j] == 0.0
        replay[i, j] = replay[j, i] = 1.0
    for i, j in receipt.edges_removed:
        assert i < j and a[i, j] == 1.0
        replay[i, j] = replay[j, i] = 0.0
    assert np.array_equal(replay, out)
    edited = set(receipt.edges_added) | set(receipt.edges_removed)
    assert len(edited) == len(receipt.edges_added) + len(receipt.edges_removed) == k
    if mode == "dice":
        assert all(not same[i, j] for i, j in receipt.edges_added)
        assert all(same[i, j] for i, j in receipt.edges_removed)


def test_rate_zero_changes_nothing(sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=0.0, seed=1)
    out, receipt = perturb_structure(sbm60.adjacency, sbm60.labels, spec)
    assert np.array_equal(out, sbm60.adjacency)
    assert receipt.edges_added == [] and receipt.edges_removed == []
    snap, receipt2 = apply(sbm60, spec, phase="training")
    assert np.array_equal(snap.adjacency, sbm60.adjacency)
    assert np.array_equal(snap.features, sbm60.features)
    assert receipt2.nodes_feature_perturbed == []


def test_dice_respects_label_classes(sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="dice",
                            seed=9)
    _, receipt = perturb_structure(sbm60.adjacency, sbm60.labels, spec)
    labels = sbm60.labels
    for i, j in receipt.edges_added:
        assert labels[i] != labels[j]
        assert sbm60.adjacency[i, j] == 0.0
    for i, j in receipt.edges_removed:
        assert labels[i] == labels[j]
        assert sbm60.adjacency[i, j] == 1.0


def test_perturbation_is_seed_deterministic(sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=0.4, structure_mode="dice",
                            seed=13)
    first, r1 = apply(sbm60, spec, phase="training")
    second, r2 = apply(sbm60, spec, phase="training")
    assert np.array_equal(first.adjacency, second.adjacency)
    assert np.array_equal(first.features, second.features)
    assert r1.to_dict() == r2.to_dict()
    other, _ = apply(sbm60, PerturbationSpec(kind="poisoning", rate=0.4,
                                             structure_mode="dice", seed=14),
                     phase="training")
    assert not np.array_equal(first.adjacency, other.adjacency)


def test_dice_addition_shortfall():
    # a path graph with one label class has no cross-label pair to add
    a = np.zeros((4, 4))
    for i in range(3):
        a[i, i + 1] = a[i + 1, i] = 1.0
    labels = np.zeros(4, dtype=np.int64)
    spec = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="dice",
                            seed=0)
    with pytest.raises(ValueError, match="cross-label non-edges"):
        perturb_structure(a, labels, spec)


def test_dice_removal_shortfall():
    # every edge crosses the classes, so nothing qualifies for removal
    a = np.zeros((6, 6))
    for i, j in ((0, 1), (2, 3), (4, 5), (0, 3)):
        a[i, j] = a[j, i] = 1.0
    labels = np.array([0, 1, 0, 1, 0, 1])
    spec = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="dice",
                            seed=0)
    with pytest.raises(ValueError, match="same-label edges"):
        perturb_structure(a, labels, spec)


def test_dice_needs_labels(sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="dice",
                            seed=0)
    with pytest.raises(ValueError, match="labels"):
        perturb_structure(sbm60.adjacency, None, spec)


def test_structure_requires_binary_adjacency():
    weighted = np.array([[0.0, 0.5], [0.5, 0.0]])
    spec = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="random",
                            seed=0)
    with pytest.raises(ValueError, match="binary"):
        perturb_structure(weighted, None, spec)


def test_feature_perturbation_counts_and_isolation(sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=0.5, feature_sigma=0.3,
                            seed=21)
    out, chosen = perturb_features(sbm60.features, spec)
    assert len(chosen) == math.floor(0.5 * sbm60.n_nodes)
    assert chosen == sorted(chosen) and len(set(chosen)) == len(chosen)
    untouched = [i for i in range(sbm60.n_nodes) if i not in set(chosen)]
    assert np.array_equal(out[untouched], sbm60.features[untouched])
    assert not np.array_equal(out[chosen], sbm60.features[chosen])


def test_feature_perturbation_zero_cases(sbm60):
    out, chosen = perturb_features(
        sbm60.features, PerturbationSpec(kind="poisoning", rate=0.0, seed=2))
    assert chosen == [] and np.array_equal(out, sbm60.features)
    out, chosen = perturb_features(
        sbm60.features,
        PerturbationSpec(kind="poisoning", rate=0.5, feature_sigma=0.0, seed=2))
    assert len(chosen) == 30 and np.array_equal(out, sbm60.features)


def test_feature_fraction_overrides_rate(sbm60):
    spec = PerturbationSpec(kind="poisoning", rate=0.5, feature_fraction=0.1,
                            seed=2)
    assert spec.effective_feature_fraction == 0.1
    _, chosen = perturb_features(sbm60.features, spec)
    assert len(chosen) == 6


def test_apply_gates_on_phase(sbm60):
    poison = PerturbationSpec(kind="poisoning", rate=0.5, seed=1)
    same, receipt = apply(sbm60, poison, phase="inference")
    assert same is sbm60
    assert receipt.warning == "poisoning perturbation ignored at inference phase"
    evade = PerturbationSpec(kind="evasion", rate=0.5, seed=1)
    same, receipt = apply(sbm60, evade, phase="training")
    assert same is sbm60 and "ignored at training" in receipt.warning
    with pytest.raises(ValueError):
        apply(sbm60, poison, phase="deploy")


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(kind="gremlins", rate=0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(kind="poisoning", rate=1.5)
    with pytest.raises(ValueError):
        PerturbationSpec(kind="poisoning", rate=0.1, structure_mode="swap")
    with pytest.raises(ValueError):
        PerturbationSpec(kind="poisoning", rate=0.1, feature_fraction=2.0)
    with pytest.raises(ValueError):
        PerturbationSpec(kind="poisoning", rate=0.1, feature_sigma=-1.0)


def test_evasion_degrades_a_clean_trained_model(sbm60_sharp):
    train_mask, test_mask = split(sbm60_sharp.labels, 0.8, seed=7)
    result = train(sbm60_sharp, sbm60_sharp.adjacency, TrainConfig(), "gcn",
                   train_mask, seed=7)

    def accuracy(snap):
        pred = predict(model_logits(result.params, snap.adjacency,
                                    snap.features))
        return float(np.mean(pred[test_mask] == snap.labels[test_mask]))

    clean_acc = accuracy(sbm60_sharp)
    evaded, _ = apply(
        sbm60_sharp,
        PerturbationSpec(kind="evasion", rate=0.3, structure_mode="random",
                         seed=7),
        phase="inference",
    )
    evaded_acc = accuracy(evaded)
    assert clean_acc >= 0.95
    assert clean_acc - evaded_acc >= 0.10, (
        f"evasion barely moved accuracy: {clean_acc:.3f} -> {evaded_acc:.3f}"
    )
