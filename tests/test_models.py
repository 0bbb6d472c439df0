"""Forward passes, hand-written gradients, and the full-batch trainer.

Gradients are checked against central finite differences; forward passes are
checked against plain per-node Python loops.
"""

import json
import math

import numpy as np
import pytest

from gridsentry import models
from gridsentry.errors import NumericError
from gridsentry.graphs import normalized_adjacency
from gridsentry.gsl import GslConfig, fit
from gridsentry.models import (GnnParams, TrainConfig, backward, init_params,
                               masked_cross_entropy, model_logits, own_logits,
                               predict, train)

from conftest import random_symmetric


def _problem(n=6, d=3, seed=0):
    rng = np.random.default_rng(seed)
    # interior edge weights keep finite-difference probes inside [0, 1]
    s = random_symmetric(n, seed + 1, density=1.0) * 0.6 + 0.2
    np.fill_diagonal(s, 0.0)
    x = rng.normal(size=(n, d))
    labels = rng.integers(0, 2, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[: max(2, n // 2)] = True
    return s, x, labels, mask


def _loop_relu(z):
    return [[max(v, 0.0) for v in row] for row in z]


def _loop_matmul(a, b):
    n, k = len(a), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(k)]
            for i in range(n)]


def test_mlp_forward_matches_loop_oracle():
    s, x, _, _ = _problem()
    params = init_params("mlp", 3, hidden=4, seed=1)
    got = model_logits(params, s, x)
    h = _loop_relu(_loop_matmul(x.tolist(), params.weights["w1"].tolist()))
    want = _loop_matmul(h, params.weights["w2"].tolist())
    assert np.allclose(got, want, atol=1e-10)


def test_gcn_forward_matches_loop_oracle():
    s, x, _, _ = _problem()
    params = init_params("gcn", 3, hidden=4, seed=2)
    got = model_logits(params, s, x)
    n = s.shape[0]
    deg = [sum(s[i]) + 1.0 for i in range(n)]
    s_hat = [[(s[i][j] + (i == j)) / math.sqrt(deg[i] * deg[j])
              for j in range(n)] for i in range(n)]
    xw = _loop_matmul(x.tolist(), params.weights["w1"].tolist())
    h = _loop_relu(_loop_matmul(s_hat, xw))
    want = _loop_matmul(s_hat, _loop_matmul(h, params.weights["w2"].tolist()))
    assert np.allclose(got, want, atol=1e-10)


def test_sage_forward_matches_loop_oracle():
    s, x, _, _ = _problem()
    params = init_params("sage", 3, hidden=4, seed=3)
    w = params.weights
    got = model_logits(params, s, x)
    n = s.shape[0]

    def agg(h):
        out = []
        for i in range(n):
            rowsum = sum(s[i])
            if rowsum > 0:
                out.append([sum(s[i][j] * h[j][c] for j in range(n)) / rowsum
                            for c in range(len(h[0]))])
            else:
                out.append([0.0] * len(h[0]))
        return out

    n1 = agg(x.tolist())
    pre = np.asarray(_loop_matmul(x.tolist(), w["w1_self"].tolist())) \
        + np.asarray(_loop_matmul(n1, w["w1_neigh"].tolist()))
    h = _loop_relu(pre.tolist())
    n2 = agg(h)
    want = np.asarray(_loop_matmul(h, w["w2_self"].tolist())) \
        + np.asarray(_loop_matmul(n2, w["w2_neigh"].tolist()))
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_zero_weights_give_zero_logits(kind):
    s, x, _, _ = _problem()
    params = init_params(kind, 3, hidden=4, seed=0)
    for key in params.weights:
        params.weights[key] = np.zeros_like(params.weights[key])
    assert np.array_equal(model_logits(params, s, x), np.zeros((6, 2)))


def test_sage_isolated_node_uses_self_path_only():
    s, x, _, _ = _problem()
    s[0, :] = 0.0
    s[:, 0] = 0.0
    params = init_params("sage", 3, hidden=4, seed=4)
    w = params.weights
    got = model_logits(params, s, x)[0]
    h0 = np.maximum(x[0] @ w["w1_self"], 0.0)
    assert np.allclose(got, h0 @ w["w2_self"], atol=1e-12)


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_own_logits_are_the_model_on_an_edgeless_graph(kind):
    s, x, _, _ = _problem()
    params = init_params(kind, 3, hidden=4, seed=6)
    want = model_logits(params, np.zeros_like(s), x)
    assert np.array_equal(own_logits(params, x), want)


def test_mlp_ignores_structure():
    s, x, _, _ = _problem()
    params = init_params("mlp", 3, hidden=4, seed=5)
    a = model_logits(params, s, x)
    b = model_logits(params, np.zeros_like(s), x)
    assert np.array_equal(a, b)


def test_cross_entropy_worked_values():
    logits = np.zeros((3, 2))
    labels = np.array([0, 1, 0])
    mask = np.ones(3, dtype=bool)
    assert abs(masked_cross_entropy(logits, labels, mask) - math.log(2)) <= 1e-12

    confident = np.array([[30.0, -30.0], [-30.0, 30.0]])
    assert masked_cross_entropy(confident, [0, 1], [True, True]) <= 1e-12
    assert masked_cross_entropy(confident, [1, 0], [True, True]) >= 50.0


def test_cross_entropy_matches_manual_log_softmax():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(7, 2)) * 3
    labels = rng.integers(0, 2, size=7)
    mask = np.array([True, False, True, True, False, True, True])
    total, count = 0.0, 0
    for i in range(7):
        if not mask[i]:
            continue
        z = logits[i] - logits[i].max()
        total += -(z[labels[i]] - math.log(math.exp(z[0]) + math.exp(z[1])))
        count += 1
    got = masked_cross_entropy(logits, labels, mask)
    assert abs(got - total / count) <= 1e-12


def test_cross_entropy_rejects_empty_mask():
    with pytest.raises(ValueError):
        masked_cross_entropy(np.zeros((2, 2)), [0, 1], [False, False])


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_weight_gradients_match_finite_differences(kind):
    s, x, labels, mask = _problem(n=6, d=3, seed=10)
    params = init_params(kind, 3, hidden=4, seed=11)
    loss, grads, _ = backward(s, x, labels, mask, params)
    # backward and model_logits share one forward pass, so the loss is exact
    assert loss == masked_cross_entropy(model_logits(params, s, x), labels, mask)
    eps = 1e-5
    for key, w in params.weights.items():
        for a in range(w.shape[0]):
            for b in range(w.shape[1]):
                probe = params.copy()
                probe.weights[key][a, b] += eps
                up = backward(s, x, labels, mask, probe)[0]
                probe.weights[key][a, b] -= 2 * eps
                down = backward(s, x, labels, mask, probe)[0]
                fd = (up - down) / (2 * eps)
                assert np.isclose(grads[key][a, b], fd, rtol=1e-4, atol=1e-7), (
                    f"{kind} d{key}[{a},{b}]: analytic {grads[key][a, b]} fd {fd}"
                )


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_structure_gradient_matches_finite_differences(kind):
    s, x, labels, mask = _problem(n=6, d=3, seed=12)
    params = init_params(kind, 3, hidden=4, seed=13)
    _, _, grad_s = backward(s, x, labels, mask, params)
    assert np.array_equal(grad_s, grad_s.T)
    eps = 1e-5
    n = s.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            probe = s.copy()
            probe[i, j] += eps
            probe[j, i] += eps
            up = backward(probe, x, labels, mask, params)[0]
            probe[i, j] -= 2 * eps
            probe[j, i] -= 2 * eps
            down = backward(probe, x, labels, mask, params)[0]
            # symmetric pair move: derivative is twice the symmetrized entry
            fd = (up - down) / (2 * eps)
            assert np.isclose(2.0 * grad_s[i, j], fd, rtol=1e-4, atol=1e-7), (
                f"{kind} dS[{i},{j}]: analytic {2.0 * grad_s[i, j]} fd {fd}"
            )


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_backward_without_structure_keeps_loss_and_weight_gradients(kind):
    s, x, labels, mask = _problem(n=8, d=3, seed=15)
    params = init_params(kind, 3, hidden=4, seed=16)
    loss, grads, grad_s = backward(s, x, labels, mask, params)
    loss_ws, grads_ws, none = backward(s, x, labels, mask, params, structure=False)
    assert grad_s is not None and none is None
    assert loss_ws == loss
    assert grads_ws.keys() == grads.keys()
    for key in grads:
        assert np.array_equal(grads_ws[key], grads[key]), key


def test_mlp_structure_gradient_is_zero():
    s, x, labels, mask = _problem()
    params = init_params("mlp", 3, hidden=4, seed=14)
    _, _, grad_s = backward(s, x, labels, mask, params)
    assert np.array_equal(grad_s, np.zeros_like(s))


def test_predict_breaks_ties_low():
    logits = np.array([[0.3, 0.3], [1.0, 2.0], [2.0, 1.0]])
    assert list(predict(logits)) == [0, 1, 0]


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_permutation_equivariance(kind):
    s, x, _, _ = _problem(n=7, d=3, seed=15)
    params = init_params(kind, 3, hidden=4, seed=16)
    perm = np.random.default_rng(17).permutation(7)
    base = model_logits(params, s, x)
    permuted = model_logits(params, s[np.ix_(perm, perm)], x[perm])
    assert np.allclose(permuted, base[perm], atol=1e-10)


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_training_descends_and_is_deterministic(kind, sbm60, masks60):
    train_mask, _ = masks60
    cfg = TrainConfig(epochs=40)
    first = train(sbm60, sbm60.adjacency, cfg, kind, train_mask, seed=7)
    assert len(first.losses) == 40
    assert first.losses[-1] < first.losses[0]
    second = train(sbm60, sbm60.adjacency, cfg, kind, train_mask, seed=7)
    for key in first.params.weights:
        assert np.array_equal(first.params.weights[key],
                              second.params.weights[key])
    assert first.losses == second.losses


def test_training_aborts_on_overflow(sbm60, masks60):
    from gridsentry.graphs import GraphSnapshot

    train_mask, _ = masks60
    huge = GraphSnapshot(
        node_ids=list(sbm60.node_ids),
        adjacency=sbm60.adjacency.copy(),
        features=np.full_like(sbm60.features, 1e308),
        labels=sbm60.labels.copy(),
        window=sbm60.window,
    )
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        train(huge, huge.adjacency, TrainConfig(epochs=5), "gcn", train_mask,
              seed=7)


def test_mask_validation(sbm12):
    cfg = TrainConfig(epochs=1)
    # Missing, empty, and shaped for another graph.
    for mask in (None, np.zeros(12, dtype=bool), np.ones(4, dtype=bool)):
        with pytest.raises(ValueError, match="mask"):
            train(sbm12, sbm12.adjacency, cfg, "gcn", mask, seed=0)
        with pytest.raises(ValueError, match="mask"):
            fit(sbm12.adjacency, sbm12.features, sbm12.labels, "gcn",
                GslConfig(outer_iters=1), cfg, mask, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)


def test_model_save_load_roundtrip():
    params = init_params("sage", 5, hidden=3, classes=2, seed=9)
    back = GnnParams.from_dict(json.loads(json.dumps(params.to_dict())))
    assert back.kind == "sage" and back.hidden == 3
    for key in params.weights:
        assert np.array_equal(back.weights[key], params.weights[key])


def test_model_load_rejects_inconsistent_dims():
    doc = init_params("gcn", 4, hidden=3, seed=0).to_dict()
    doc["hidden"] = 8
    with pytest.raises(ValueError, match="disagrees with hidden"):
        GnnParams.from_dict(doc)
    doc["hidden"] = 3
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="format_version"):
        GnnParams.from_dict(doc)


# ---------------------------------------------------------------------------
# Structure preparation: built once per structure matrix, same bits as raw


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_prepared_structure_matches_raw_bit_for_bit(kind):
    s, x, labels, mask = _problem(n=9, d=3, seed=20)
    params = init_params(kind, 3, hidden=4, seed=21)
    prop = models._prepare(kind, s)
    assert np.array_equal(model_logits(params, prop, x), model_logits(params, s, x))
    raw = backward(s, x, labels, mask, params)
    prepared = backward(prop, x, labels, mask, params)
    assert prepared[0] == raw[0]
    assert prepared[1].keys() == raw[1].keys()
    for key in raw[1]:
        assert np.array_equal(prepared[1][key], raw[1][key]), key
    assert np.array_equal(prepared[2], raw[2])


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_preparation_rejects_non_finite_and_non_square_structures(kind):
    s, x, labels, mask = _problem()
    params = init_params(kind, 3, hidden=4, seed=22)
    bad = s.copy()
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        models._prepare(kind, bad)
    with pytest.raises(ValueError, match="non-finite"):
        backward(bad, x, labels, mask, params)
    with pytest.raises(ValueError, match="must be square"):
        models._prepare(kind, s[:, :-1])


def test_model_logits_checks_a_prepared_gcn_adjacency_on_every_call():
    s, x, labels, mask = _problem()
    s[0, 1] += 0.1  # asymmetric: fine for gradients, not a GCN adjacency
    params = init_params("gcn", 3, hidden=4, seed=23)
    prop = models._prepare("gcn", s)
    assert math.isfinite(backward(prop, x, labels, mask, params)[0])
    with pytest.raises(ValueError, match="symmetric"):
        model_logits(params, prop, x)


def test_prepared_structure_is_read_only_and_bound_to_its_kind():
    s, x, labels, mask = _problem()
    prop = models._prepare("gcn", s)
    with pytest.raises(ValueError):
        prop.s_hat[0, 0] = 1.0
    with pytest.raises(ValueError, match="prepared for 'gcn'"):
        backward(prop, x, labels, mask, init_params("sage", 3, hidden=4, seed=0))


def _count_preparations(monkeypatch, *modules):
    calls = []
    original = models._prepare

    def counting(kind, s):
        calls.append(kind)
        return original(kind, s)

    for module in (models,) + modules:
        monkeypatch.setattr(module, "_prepare", counting)
    return calls


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_train_prepares_the_structure_once_per_run(kind, sbm60, masks60,
                                                   monkeypatch):
    calls = _count_preparations(monkeypatch)
    train_mask, _ = masks60
    train(sbm60, sbm60.adjacency, TrainConfig(epochs=6), kind, train_mask, seed=7)
    assert calls == [kind]


# Losses of 8 epochs on the 60-node fixture, pinned exactly: a change that
# moves any bit of the forward pass, the loss or the gradients fails here.
TRAIN_LOSSES = {
    "gcn": [0.7267077955247462, 0.6485821530845987, 0.5786923887454161,
            0.515635737254562, 0.4593262397587387, 0.40937935657537755,
            0.3649393086060056, 0.32513016091030594],
    "sage": [0.7110611432352162, 0.47896874972329595, 0.3160846820161755,
             0.20485927856485922, 0.13068402323943554, 0.08338851559793452,
             0.05314842725556743, 0.03409348120310604],
    "mlp": [0.7977978060640315, 0.6864397795776737, 0.5917328892958241,
            0.510809419971149, 0.44336807451432597, 0.38567712643558344,
            0.3361839882812763, 0.2936918692669017],
}


@pytest.mark.parametrize("kind", ["gcn", "sage", "mlp"])
def test_training_losses_are_pinned(kind, sbm60, masks60):
    train_mask, _ = masks60
    result = train(sbm60, sbm60.adjacency, TrainConfig(epochs=8), kind,
                   train_mask, seed=7)
    assert result.losses == TRAIN_LOSSES[kind]
