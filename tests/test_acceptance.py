"""Acceptance gate: one test per shipping criterion, each printing a PASS/FAIL
line (run with -s to see them on passing runs).

Criteria 02, 03 and 05 share one module-scoped 10-run experiment on the
pinned 200-node default fixture; criterion 01 runs its own 10-run experiment
on a pinned weak-feature fixture; everything else runs against the committed
small fixtures so the whole gate stays self-contained.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from gridsentry.attacks import PerturbationSpec, apply, perturb_structure
from gridsentry.experiments import (Confusion, ExperimentConfig, metrics,
                                    run_experiment, split)
from gridsentry.graphs import SbmSpec, sbm_generate, smoothness
from gridsentry.gsl import GslConfig, GslState, _structure_step, fit, refine_report
from gridsentry.models import TrainConfig, backward, init_params, train
from gridsentry.numerics import soft_threshold, svd, svt
from gridsentry.pipeline import PipelineConfig, run_pipeline, train_pipeline

from conftest import (DATA_DIR, copy_params, dense_structure_gradient, objective_at,
                      task_factors, task_loss)

GOLDEN_ALERTS = DATA_DIR / "golden_alerts.jsonl"
REGEN_ENV = "GRIDSENTRY_REGEN_GOLDEN"
TON_IOT_ENV = "GRIDSENTRY_TON_IOT"

# Pinned grid fixture for criteria 02, 03 and 05: the defaults of
# ExperimentConfig/SbmSpec, 200 nodes, 10 runs, dice at {0,10,50}%.
GRID_CONFIG = ExperimentConfig(sbm=SbmSpec())

# Criterion 01's pinned fixture: the default block model with 8 feature
# dimensions and class signal 0.2. Its graphs are the default fixture's (same
# draws), only the features are weaker. A +0.10 F1 gap over a poisoned
# baseline is within reach of a structure learner only when three things
# hold at 50% dice, and the test asserts all three:
# (a) headroom: each baseline's clean-graph F1 is at least 0.15 above its
#     poisoned F1;
# (b) the graph still informs: the structure-blind DNN scores below both
#     poisoned baselines, so a learner that drops the graph cannot pass;
# (c) the labels still reach through the poisoned graph: a majority vote of
#     each test node's labelled neighbours beats both poisoned baselines by
#     at least the bound. Undoing the attack cannot recover the removed
#     edges, so what labels and graph say about a test node is what any
#     learner has to work with.
# The default fixture fails (a): GraphSAGE scores 0.980 poisoned, 0.020
# below the F1 ceiling. SbmSpec(feature_dim=8, signal=0.5) fails (c): the vote
# scores 0.813, GCN 0.764. Of the signals 0.5, 0.35, 0.25, 0.2 and 0.15 at 8
# dimensions, 0.2 leaves the smaller of the two vote margins largest (vote
# 0.813, GCN 0.683, GraphSAGE 0.663, DNN 0.587); the choice rests on these
# data and baseline figures alone.
ROBUST_SBM = SbmSpec(feature_dim=8, signal=0.2)
ROBUST_CONFIG = ExperimentConfig(sbm=ROBUST_SBM, rates=(0.5,))
ROBUST_BOUND = 0.10
MIN_HEADROOM = 0.15


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def grid():
    return run_experiment(GRID_CONFIG)


def _neighbour_vote_f1(cfg: ExperimentConfig, rate: float) -> float:
    """Mean test F1 of a majority vote over each node's labelled neighbours.

    Replays the grid's per-run seeding (graph, split and attack) and predicts
    class 1 wherever the labelled neighbours in the poisoned graph lean to
    class 1; ties and nodes without labelled neighbours predict class 0.
    """
    scores = []
    for r in range(cfg.runs):
        seed = cfg.base_seed + r
        snap = sbm_generate(replace(cfg.sbm, seed=seed))
        train_mask, test_mask = split(snap.labels, cfg.train_frac, seed)
        poisoned, _ = apply(snap, cfg.attack_spec(rate, seed))
        vote = poisoned.adjacency @ np.where(train_mask, 2.0 * snap.labels - 1.0, 0.0)
        conf = Confusion.from_predictions(snap.labels, (vote > 0).astype(int),
                                          test_mask)
        scores.append(metrics(conf).f1)
    return float(np.mean(scores))


@pytest.fixture(scope="module")
def robust_grid():
    start = time.perf_counter()
    result = run_experiment(ROBUST_CONFIG)
    elapsed = time.perf_counter() - start
    clean = run_experiment(replace(ROBUST_CONFIG, rates=(0.0,),
                                   models=("GCN", "GraphSAGE")))
    return result, elapsed, clean, _neighbour_vote_f1(ROBUST_CONFIG, 0.5)


def _mean(result, model, rate, metric):
    return getattr(result.report.cell(model, rate).mean, metric)


def test_criterion_01_robustness_gap(robust_grid):
    result, elapsed, clean, vote = robust_grid
    baselines = ("GCN", "GraphSAGE")
    poisoned = {m: _mean(result, m, 0.5, "f1") for m in baselines}
    headroom = {m: _mean(clean, m, 0.0, "f1") - poisoned[m] for m in baselines}
    dnn = _mean(result, "DNN", 0.5, "f1")
    gap = {m: _mean(result, f"GSL-{m}", 0.5, "f1") - poisoned[m] for m in baselines}
    preconditions = (all(h >= MIN_HEADROOM for h in headroom.values())
                     and all(dnn < f for f in poisoned.values())
                     and all(vote - f >= ROBUST_BOUND for f in poisoned.values()))
    ok = (preconditions and all(g >= ROBUST_BOUND for g in gap.values())
          and elapsed <= 600.0)
    assert _report(
        1, "robustness gap at 50% poisoning", ok,
        f"gap gcn {gap['GCN']:+.3f}, gap sage {gap['GraphSAGE']:+.3f}, "
        f"need >= +{ROBUST_BOUND:.3f} each; preconditions "
        f"{'met' if preconditions else 'NOT MET'}: headroom gcn "
        f"{headroom['GCN']:.3f} sage {headroom['GraphSAGE']:.3f} "
        f">= {MIN_HEADROOM:.2f}, dnn {dnn:.3f} < gcn {poisoned['GCN']:.3f} "
        f"and sage {poisoned['GraphSAGE']:.3f}, neighbour vote {vote:.3f} "
        f">= each + {ROBUST_BOUND:.2f}; grid took {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_02_clean_parity(grid):
    result = grid
    acc_gsl = _mean(result, "GSL-GCN", 0.0, "accuracy")
    acc_gcn = _mean(result, "GCN", 0.0, "accuracy")
    ok = abs(acc_gsl - acc_gcn) <= 0.05 and acc_gcn >= 0.90
    assert _report(
        2, "clean-performance parity", ok,
        f"|{acc_gsl:.3f} - {acc_gcn:.3f}| = {abs(acc_gsl - acc_gcn):.3f} "
        f"<= 0.05; gcn accuracy {acc_gcn:.3f} >= 0.90",
    )


def test_criterion_03_monotone_degradation(grid):
    result = grid
    f1 = {rate: _mean(result, "GCN", rate, "f1") for rate in (0.0, 0.1, 0.5)}
    ok = f1[0.0] >= f1[0.1] - 0.02 and f1[0.1] >= f1[0.5] - 0.02
    assert _report(
        3, "baseline degrades monotonically", ok,
        f"gcn f1 {f1[0.0]:.3f} >= {f1[0.1]:.3f} >= {f1[0.5]:.3f} "
        "within 0.02 tolerance",
    )


def test_criterion_04_numerical_oracles():
    rng = np.random.default_rng(0)
    failures = []

    m = rng.normal(size=(6, 6))
    tau = 0.4
    want = np.array([[math.copysign(max(abs(v) - tau, 0.0), v) for v in row]
                     for row in m])
    if np.abs(soft_threshold(m, tau) - want).max() > 1e-8:
        failures.append("soft_threshold")

    sym = (m + m.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    shrunk = np.sign(vals) * np.maximum(np.abs(vals) - tau, 0.0)
    svt_want = vecs @ np.diag(shrunk) @ vecs.T
    if np.abs(svt(sym, tau) - svt_want).max() > 1e-8:
        failures.append("svt")

    res = svd(sym)
    sv_want = np.sort(np.abs(vals))[::-1]
    if np.abs(res.singular_values - sv_want).max() > 1e-8 \
            or np.abs(res.reconstruct() - sym).max() > 1e-8:
        failures.append("svd")

    s = np.abs(sym) / np.abs(sym).max()
    np.fill_diagonal(s, 0.0)
    x = rng.normal(size=(6, 3))
    pairwise = 0.5 * sum(
        s[i, j] * float(np.sum((x[i] - x[j]) ** 2))
        for i in range(6) for j in range(6)
    )
    if abs(smoothness(s, x) - pairwise) > 1e-10:
        failures.append("smoothness")

    labels = rng.integers(0, 2, size=6)
    mask = np.array([True, True, True, False, False, True])
    worst = 0.0
    eps = 1e-5
    for kind in ("gcn", "sage", "mlp"):
        params = init_params(kind, 3, hidden=4, seed=1)
        _, grads = backward(s, x, labels, mask, params)
        grad_s = dense_structure_gradient(s, x, labels, mask, params)
        for key, w in params.weights.items():
            for a in range(w.shape[0]):
                for b in range(w.shape[1]):
                    probe = copy_params(params)
                    probe.weights[key][a, b] += eps
                    up = backward(s, x, labels, mask, probe)[0]
                    probe.weights[key][a, b] -= 2 * eps
                    down = backward(s, x, labels, mask, probe)[0]
                    fd = (up - down) / (2 * eps)
                    err = abs(grads[key][a, b] - fd) / max(abs(fd), 1e-6)
                    worst = max(worst, err)
        if kind == "mlp":
            if np.any(grad_s != 0.0):
                failures.append("mlp grad_s")
            continue
        for i in range(6):
            for j in range(i + 1, 6):
                probe = s.copy()
                probe[i, j] += eps
                probe[j, i] += eps
                up = backward(probe, x, labels, mask, params)[0]
                probe[i, j] -= 2 * eps
                probe[j, i] -= 2 * eps
                down = backward(probe, x, labels, mask, params)[0]
                fd = (up - down) / (2 * eps)
                err = abs(2.0 * grad_s[i, j] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, err)
    if worst > 1e-4:
        failures.append(f"gradients (worst rel err {worst:.2e})")

    ok = not failures
    assert _report(
        4, "numerical oracles", ok,
        f"worst gradient rel err {worst:.2e} <= 1e-4"
        + ("" if ok else "; failed: " + ", ".join(failures)),
    )


def test_criterion_05_structure_descent(grid, sbm12):
    mask = np.ones(12, dtype=bool)
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
    worst_rise = float(np.diff(values).max())

    result = grid
    history = result.histories[("GSL-GCN", 0.0, 0)]
    fit_ok = history[-1].total <= history[0].total
    ok = worst_rise <= 1e-8 and fit_ok
    assert _report(
        5, "structure objective descends", ok,
        f"12-node steps worst rise {worst_rise:.2e} <= 1e-8; clean fit "
        f"objective {history[0].total:.3f} -> {history[-1].total:.3f}",
    )


def test_criterion_06_structure_recovery(poisoned60, masks60):
    snap, receipt = poisoned60
    train_mask, _ = masks60
    _, _, state = fit(snap.adjacency, snap.features, snap.labels, "gcn",
                      GslConfig(), TrainConfig(), train_mask, seed=7)
    pruned = {(i, j) for i, j, _ in refine_report(state).pruned}
    attack_edges = set(receipt.edges_added)
    precision = len(pruned & attack_edges) / len(pruned) if pruned else 0.0
    ok = precision >= 0.6
    assert _report(
        6, "pruning recovers attack edges", ok,
        f"precision {precision:.3f} >= 0.6 over {len(pruned)} pruned edges",
    )


def test_criterion_07_attack_exactness(sbm60):
    problems = []
    m = int(round(np.triu(sbm60.adjacency, k=1).sum()))
    for mode in ("random", "dice"):
        for rate in (0.0, 0.1, 0.25, 0.5):
            spec = PerturbationSpec(rate=rate, structure_mode=mode, seed=11)
            out, receipt = perturb_structure(sbm60.adjacency, sbm60.labels,
                                             spec)
            k = math.floor(rate * m)
            edits = len(receipt.edges_added) + len(receipt.edges_removed)
            if edits != k:
                problems.append(f"{mode}@{rate}: {edits} edits, budget {k}")
            if rate == 0.0 and not np.array_equal(out, sbm60.adjacency):
                problems.append(f"{mode}@0: not the identity")
            replay = sbm60.adjacency.copy()
            for i, j in receipt.edges_added:
                replay[i, j] = replay[j, i] = 1.0
            for i, j in receipt.edges_removed:
                replay[i, j] = replay[j, i] = 0.0
            if not np.array_equal(replay, out):
                problems.append(f"{mode}@{rate}: receipt does not reconcile")
            if mode == "dice":
                for i, j in receipt.edges_added:
                    if sbm60.labels[i] == sbm60.labels[j]:
                        problems.append(f"dice@{rate}: added same-class pair")
                for i, j in receipt.edges_removed:
                    if sbm60.labels[i] != sbm60.labels[j]:
                        problems.append(f"dice@{rate}: removed cross-class pair")
    ok = not problems
    assert _report(
        7, "attack budget exactness", ok,
        f"checked {m}-edge fixture across 8 (mode, rate) cells"
        + ("" if ok else "; " + "; ".join(problems[:3])),
    )


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory, flows_train_csv, flows_detect_csv):
    out_dir = tmp_path_factory.mktemp("golden")
    cfg = PipelineConfig(seed=0, detect_refine_steps=60)
    train_pipeline(flows_train_csv, cfg, out_dir)
    bundle_path = out_dir / "bundle.json"
    first = out_dir / "alerts_a.jsonl"
    second = out_dir / "alerts_b.jsonl"
    with open(os.devnull, "w") as devnull:
        run_pipeline(flows_detect_csv, bundle_path, first, diag=devnull)
        run_pipeline(flows_detect_csv, bundle_path, second, diag=devnull)
    return first, second


def test_criterion_08_determinism(golden_run, tmp_path):
    from gridsentry.cli import main

    first, second = golden_run
    jsonl_ok = first.read_bytes() == second.read_bytes()

    cfg_doc = {
        "sbm": {"n": 40, "p_in": 0.3, "p_out": 0.05,
                "feature_dim": 4, "signal": 1.5, "noise_sigma": 0.8,
                "seed": 0},
        "runs": 2,
        "rates": [0.0, 0.5],
        "models": ["GCN", "GSL-GCN"],
        "gsl": {"outer_iters": 10},
        "train": {"epochs": 100},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    assert main(["experiment", "--config", str(cfg_path),
                 "-o", str(tmp_path / "r1")]) == 0
    assert main(["experiment", "--config", str(cfg_path),
                 "-o", str(tmp_path / "r2")]) == 0
    report_ok = (tmp_path / "r1" / "report.json").read_bytes() == \
        (tmp_path / "r2" / "report.json").read_bytes()

    ok = jsonl_ok and report_ok
    assert _report(
        8, "byte-identical reruns", ok,
        f"alert JSONL identical: {jsonl_ok}; report JSON identical: {report_ok}",
    )


def test_criterion_09_golden_alerts(golden_run):
    first, _ = golden_run
    if os.environ.get(REGEN_ENV):
        GOLDEN_ALERTS.write_bytes(first.read_bytes())
        assert _report(9, "golden alert stream", True,
                       f"regenerated {GOLDEN_ALERTS.name}")
        return
    if not GOLDEN_ALERTS.exists():
        assert _report(
            9, "golden alert stream", False,
            f"{GOLDEN_ALERTS} missing; run with {REGEN_ENV}=1 to create it",
        )
    got = first.read_bytes()
    want = GOLDEN_ALERTS.read_bytes()
    ok = got == want
    detail = f"{len(got.splitlines())} alert line(s) match {GOLDEN_ALERTS.name}"
    if not ok:
        detail = "alert stream differs from the committed golden file"
    assert _report(9, "golden alert stream", ok, detail)


def test_criterion_10_real_flow_smoke():
    path = os.environ.get(TON_IOT_ENV)
    if not path:
        pytest.skip(
            f"set {TON_IOT_ENV}=/path/to/ton_iot_network_flows.csv to run "
            "the real-data smoke test"
        )
    cfg = ExperimentConfig(csv_path=path, runs=3, max_flows=20000)
    start = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    gap = (_mean(result, "GSL-GCN", 0.5, "f1")
           - _mean(result, "GCN", 0.5, "f1"))
    ok = gap >= 0.05
    assert _report(
        10, "real flow data smoke", ok,
        f"rate-0.5 f1 gap {gap:+.3f} >= +0.05 on <=20k flows in {elapsed:.0f}s",
    )
