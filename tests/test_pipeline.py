"""End-to-end detector pipeline: training, bundles, scoring, alert output.

The module-scoped bundle is trained on the committed flow fixture, where
three scanners (m00, m01, m02) probe the benign ring; the detect fixture
replays one window with m00 active and one all-benign window.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from gridsentry import numerics, pipeline
from gridsentry.errors import DataError
from gridsentry.flows import (FEATURE_NAMES, FeatureConfig, build_snapshot,
                              parse_flows, window)
from gridsentry.graphs import GraphSnapshot, SbmSpec, sbm_generate
from gridsentry.gsl import GslConfig
from gridsentry.models import init_params
from gridsentry.pipeline import (Alert, DetectorBundle, PipelineConfig, detect,
                                 run_pipeline, train_from_snapshot,
                                 train_pipeline)

GOLDEN_CONFIG = PipelineConfig(seed=0, detect_refine_steps=60)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, flows_train_csv):
    out_dir = tmp_path_factory.mktemp("trained")
    bundle, state = train_pipeline(flows_train_csv, GOLDEN_CONFIG, out_dir)
    return bundle, state, out_dir


@pytest.fixture(scope="module")
def detect_windows(flows_detect_csv):
    records, _ = parse_flows(flows_detect_csv)
    cfg = FeatureConfig(window_seconds=300)
    return [build_snapshot(bucket, cfg) for _, bucket in window(records, cfg)]


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(gnn_kind="mlp")
    with pytest.raises(ValueError):
        PipelineConfig(score_threshold=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(window_seconds=0)
    with pytest.raises(ValueError):
        PipelineConfig(detect_refine_steps=-1)


def test_config_from_dict():
    cfg = PipelineConfig.from_dict({
        "seed": 3,
        "gnn_kind": "sage",
        "gsl": {"outer_iters": 7},
        "train": {"epochs": 11},
    })
    assert cfg.seed == 3 and cfg.gnn_kind == "sage"
    assert cfg.gsl == GslConfig(outer_iters=7)
    assert cfg.train.epochs == 11
    with pytest.raises(ValueError, match="unknown pipeline config keys"):
        PipelineConfig.from_dict({"refine": 5})
    with pytest.raises(ValueError, match="gsl config must be a JSON object"):
        PipelineConfig.from_dict({"gsl": ["outer_iters"]})


@pytest.mark.parametrize("key", ["seed", "train_mask", "val_mask", "test_mask"])
def test_config_rejects_program_set_train_keys(key):
    # The training seed is the pipeline's top-level seed; masks come from the data.
    with pytest.raises(ValueError, match=rf"unknown train config keys: \['{key}'\]"):
        PipelineConfig.from_dict({"train": {key: 3}})


def test_train_from_snapshot_stores_raw_feature_stats(sbm60):
    cfg = PipelineConfig(seed=7, gsl=GslConfig(outer_iters=2))
    bundle, state = train_from_snapshot(sbm60, cfg)
    assert np.array_equal(bundle.zscore_mean, sbm60.features.mean(axis=0))
    assert bundle.feature_names == sbm60.feature_names
    assert len(state.objective_history) == 3


def test_train_from_snapshot_input_checks(sbm60):
    small = sbm_generate(SbmSpec(n=5, classes=2, p_in=0.5, p_out=0.1,
                                 feature_dim=3, signal=1.0, noise_sigma=1.0,
                                 seed=0))
    with pytest.raises(DataError, match="at least 10"):
        train_from_snapshot(small, PipelineConfig())
    unlabeled = GraphSnapshot(
        node_ids=list(sbm60.node_ids),
        adjacency=sbm60.adjacency.copy(),
        features=sbm60.features.copy(),
        labels=None,
        window=sbm60.window,
    )
    with pytest.raises(DataError, match="no labels"):
        train_from_snapshot(unlabeled, PipelineConfig())


def test_train_pipeline_writes_artifacts(trained):
    bundle, state, out_dir = trained
    assert (out_dir / "bundle.json").exists()
    history = (out_dir / "objective_history.csv").read_text().splitlines()
    assert history[0] == "iteration,total,task,nuclear,l1,smooth,prox"
    assert len(history) == len(state.objective_history) + 1
    report = json.loads((out_dir / "refine_report.json").read_text())
    assert set(report) == {"pruned", "added"}
    scanner_edges = [
        pair for pair in report["pruned"]
        if pair[0].startswith("m") or pair[1].startswith("m")
    ]
    assert scanner_edges, "no scanner edge was pruned during training"


def test_bundle_roundtrip_is_byte_stable(trained, tmp_path):
    bundle, _, out_dir = trained
    reloaded = DetectorBundle.load(out_dir / "bundle.json")
    again = tmp_path / "bundle2.json"
    reloaded.save(again)
    assert again.read_bytes() == (out_dir / "bundle.json").read_bytes()
    assert reloaded.model_version == bundle.model_version


def test_bundle_load_failures(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(DataError, match="cannot read"):
        DetectorBundle.load(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="cannot read"):
        DetectorBundle.load(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(DataError, match="format_version"):
        DetectorBundle.load(wrong)


def test_bundle_validation():
    params = init_params("gcn", 10)
    with pytest.raises(ValueError, match="std"):
        DetectorBundle(params=params, gsl_cfg=GslConfig(),
                       zscore_mean=np.zeros(10), zscore_std=np.zeros(10),
                       feature_names=list(FEATURE_NAMES), window_seconds=300)
    with pytest.raises(ValueError, match="feature_names"):
        DetectorBundle(params=params, gsl_cfg=GslConfig(),
                       zscore_mean=np.zeros(3), zscore_std=np.ones(3),
                       feature_names=list(FEATURE_NAMES), window_seconds=300)


def test_model_version_shape(trained):
    bundle, _, _ = trained
    kind, build, digest = bundle.model_version.split("-")
    assert kind == "gcn" and build == "b1"
    assert len(digest) == 12 and set(digest) <= set("0123456789abcdef")


def test_detect_flags_the_scanner(trained, detect_windows):
    bundle, _, _ = trained
    scan_window, benign_window = detect_windows
    alerts = detect(scan_window, bundle)
    assert [a.device_id for a in alerts] == ["m00"]
    alert = alerts[0]
    assert alert.predicted_class == "malicious"
    assert alert.malicious_score >= 0.9
    assert alert.recommended_action == "isolate"
    assert alert.model_version == bundle.model_version
    assert alert.window == scan_window.window
    peers = [f["pruned_edge_to"] for f in alert.structural_flags]
    assert peers and peers == sorted(peers)
    assert all(p.startswith("b") for p in peers)

    assert detect(benign_window, bundle) == []


def test_detect_is_deterministic(trained, detect_windows):
    bundle, _, _ = trained
    first = [a.to_json_line() for a in detect(detect_windows[0], bundle)]
    second = [a.to_json_line() for a in detect(detect_windows[0], bundle)]
    assert first == second


def test_detect_threshold_knobs(trained, detect_windows):
    bundle, _, _ = trained
    scan_window = detect_windows[0]

    everything = dataclasses.replace(bundle, score_threshold=0.0)
    alerts = detect(scan_window, everything)
    assert [a.device_id for a in alerts] == sorted(scan_window.node_ids)

    nothing = dataclasses.replace(bundle, score_threshold=1.0,
                                  isolate_threshold=1.0)
    scores = {a.device_id: a.malicious_score for a in alerts}
    if scores["m00"] < 1.0:
        assert detect(scan_window, nothing) == []

    cautious = dataclasses.replace(bundle, isolate_threshold=1.0)
    if scores["m00"] < 1.0:
        actions = {a.device_id: a.recommended_action
                   for a in detect(scan_window, cautious)}
        assert actions["m00"] == "notify"


def test_detect_rejects_mismatched_features(trained, detect_windows):
    bundle, _, _ = trained
    snap = detect_windows[0]
    narrower = GraphSnapshot(
        node_ids=list(snap.node_ids),
        adjacency=snap.adjacency.copy(),
        features=snap.features[:, :9].copy(),
        labels=None,
        window=snap.window,
    )
    with pytest.raises(DataError, match="features"):
        detect(narrower, bundle)
    renamed = GraphSnapshot(
        node_ids=list(snap.node_ids),
        adjacency=snap.adjacency.copy(),
        features=snap.features.copy(),
        labels=None,
        window=snap.window,
        feature_names=[f"col{i}" for i in range(10)],
    )
    with pytest.raises(DataError, match="feature names"):
        detect(renamed, bundle)


def test_run_pipeline_golden_path(trained, flows_detect_csv, tmp_path):
    _, _, out_dir = trained
    out_path = tmp_path / "alerts.jsonl"
    diag = io.StringIO()
    summary = run_pipeline(flows_detect_csv, out_dir / "bundle.json", out_path,
                           diag=diag)
    assert summary["windows_processed"] == 2
    assert summary["windows_failed"] == 0
    assert summary["alerts"] == 1
    assert summary["failures"] == []
    assert summary["parse_stats"]["rows_skipped"] == 0
    assert json.loads(diag.getvalue()) == summary

    lines = out_path.read_text().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["device_id"] == "m00"
    assert doc["recommended_action"] == "isolate"
    assert doc["window"] == [600.0, 900.0]
    assert list(doc) == ["window", "device_id", "malicious_score",
                         "predicted_class", "structural_flags",
                         "recommended_action", "model_version"]


def test_run_pipeline_orders_alerts(trained, flows_detect_csv, tmp_path):
    bundle, _, _ = trained
    loose = dataclasses.replace(bundle, score_threshold=0.0)
    bundle_path = tmp_path / "loose.json"
    loose.save(bundle_path)
    out_path = tmp_path / "alerts.jsonl"
    summary = run_pipeline(flows_detect_csv, bundle_path, out_path,
                           diag=io.StringIO())
    assert summary["alerts"] == 25  # 13 devices at 600, 12 at 900
    docs = [json.loads(line) for line in out_path.read_text().splitlines()]
    keys = [(d["window"][0], d["device_id"]) for d in docs]
    assert keys == sorted(keys)


def test_run_pipeline_empty_csv(trained, tmp_path):
    _, _, out_dir = trained
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "ts,src_ip,dst_ip,proto,src_port,dst_port,bytes,pkts,dur,label,attack_type\n")
    out_path = tmp_path / "alerts.jsonl"
    summary = run_pipeline(empty, out_dir / "bundle.json", out_path,
                           diag=io.StringIO())
    assert summary["windows_processed"] == 0
    assert summary["alerts"] == 0
    assert out_path.read_text() == ""


def test_run_pipeline_rejects_majority_window_failure(flows_detect_csv,
                                                      tmp_path):
    # weights with the wrong input width make every window fail to score
    broken = DetectorBundle(
        params=init_params("gcn", 9),
        gsl_cfg=GslConfig(),
        zscore_mean=np.zeros(10),
        zscore_std=np.ones(10),
        feature_names=list(FEATURE_NAMES),
        window_seconds=300,
    )
    bundle_path = tmp_path / "broken.json"
    broken.save(bundle_path)
    diag = io.StringIO()
    with pytest.raises(DataError, match="unusable"):
        run_pipeline(flows_detect_csv, bundle_path, tmp_path / "alerts.jsonl",
                     diag=diag)
    summary = json.loads(diag.getvalue())
    assert summary["windows_failed"] == 2
    assert len(summary["failures"]) == 2


def test_run_pipeline_names_a_window_over_the_dense_ceiling(
        trained, flows_detect_csv, tmp_path, monkeypatch):
    _, _, out_dir = trained
    monkeypatch.setattr(numerics, "_MAX_SVD_SIDE", 3)
    diag = io.StringIO()
    with pytest.raises(DataError, match="unusable"):
        run_pipeline(flows_detect_csv, out_dir / "bundle.json",
                     tmp_path / "alerts.jsonl", diag=diag)
    failures = json.loads(diag.getvalue())["failures"]
    assert len(failures) == 2
    for failure in failures:
        assert failure.startswith("ValueError: window [")
        assert "dense ceiling" in failure


def test_run_pipeline_propagates_programming_errors(trained, flows_detect_csv,
                                                    tmp_path, monkeypatch):
    _, _, out_dir = trained

    def broken_detect(snapshot, bundle):
        raise TypeError("detect() called with the wrong arguments")

    monkeypatch.setattr(pipeline, "detect", broken_detect)
    diag = io.StringIO()
    with pytest.raises(TypeError, match="wrong arguments"):
        run_pipeline(flows_detect_csv, out_dir / "bundle.json",
                     tmp_path / "alerts.jsonl", diag=diag)
    assert diag.getvalue() == ""


def test_alert_json_line_literal():
    alert = Alert(
        window=(0.0, 300.0),
        device_id="m00",
        malicious_score=0.875,
        predicted_class="malicious",
        structural_flags=[{"pruned_edge_to": "dev1", "learned_weight": 0.0625}],
        recommended_action="notify",
        model_version="gcn-b1-0123456789ab",
    )
    want = (
        '{"window":[0.0,300.0],"device_id":"m00","malicious_score":0.875,'
        '"predicted_class":"malicious","structural_flags":[{"pruned_edge_to":'
        '"dev1","learned_weight":0.0625}],"recommended_action":"notify",'
        '"model_version":"gcn-b1-0123456789ab"}'
    )
    assert alert.to_json_line() == want
