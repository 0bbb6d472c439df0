"""Splits, metrics, the robustness grid runner, and report rendering."""

import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridsentry import attacks, codec, experiments
from gridsentry.errors import DataError, NumericError
from gridsentry.experiments import (MODELS, CellResult, Confusion,
                                    ExperimentConfig, MetricsReport,
                                    MetricValues, load_merged_snapshot,
                                    metrics, render_report, report_to_json,
                                    report_to_markdown, run_experiment, split,
                                    write_history_csv)
from gridsentry.flows import parse_flows, window
from gridsentry.graphs import SbmSpec
from gridsentry.gsl import GslConfig, ObjectiveParts
from gridsentry.models import AdamConfig, TrainConfig
from gridsentry.pipeline import PipelineConfig


def test_split_sizes_and_partition(sbm60):
    train_mask, test_mask = split(sbm60.labels, 0.8, seed=7)
    assert train_mask.sum() == 48 and test_mask.sum() == 12
    assert not np.any(train_mask & test_mask)
    assert np.all(train_mask | test_mask)
    # both classes are 30 strong, so the split is exactly stratified
    for c in (0, 1):
        assert train_mask[sbm60.labels == c].sum() == 24


def test_split_remainder_goes_to_largest_fraction():
    labels = np.array([0] * 13 + [1] * 7)
    train_mask, _ = split(labels, 0.8, seed=0)
    assert train_mask.sum() == 16
    assert train_mask[labels == 0].sum() == 10
    assert train_mask[labels == 1].sum() == 6


def test_split_determinism_and_validation():
    labels = np.arange(40) % 2
    a1, _ = split(labels, 0.8, seed=3)
    a2, _ = split(labels, 0.8, seed=3)
    b, _ = split(labels, 0.8, seed=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    with pytest.raises(ValueError):
        split(labels, 1.0, seed=0)
    with pytest.raises(DataError):
        split(np.array([0, 0, 0, 1]), 0.8, seed=0)


def test_confusion_counts_respect_mask():
    y_true = [1, 0, 1, 0, 1, 0]
    y_pred = [1, 1, 0, 0, 1, 0]
    mask = [True, True, True, True, False, False]
    conf = Confusion.from_predictions(y_true, y_pred, mask)
    assert (conf.tp, conf.fp, conf.fn, conf.tn) == (1, 1, 1, 1)


def test_metrics_worked_example():
    got = metrics(Confusion(tp=8, fp=2, fn=1, tn=9))
    assert abs(got.accuracy - 0.85) <= 1e-12
    assert abs(got.precision - 0.8) <= 1e-12
    assert abs(got.recall - 8 / 9) <= 1e-12
    assert abs(got.f1 - 0.8421052631578947) <= 1e-12


def test_metrics_degenerate_cases():
    silent = metrics(Confusion(tp=0, fp=0, fn=3, tn=7))
    assert silent == MetricValues(0.7, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        metrics(Confusion(tp=0, fp=0, fn=0, tn=0))


def test_metrics_match_formula_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 10, size=4))
        if tp + fp + fn + tn == 0:
            continue
        got = metrics(Confusion(tp, fp, fn, tn))
        assert got.accuracy == (tp + tn) / (tp + fp + fn + tn)
        want_p = tp / (tp + fp) if tp + fp else 0.0
        want_r = tp / (tp + fn) if tp + fn else 0.0
        assert got.precision == want_p and got.recall == want_r
        if want_p + want_r:
            assert abs(got.f1 - 2 * want_p * want_r / (want_p + want_r)) <= 1e-15
        else:
            assert got.f1 == 0.0


TINY_SBM = {"n": 30, "p_in": 0.3, "p_out": 0.05,
            "feature_dim": 4, "signal": 1.5, "noise_sigma": 0.8, "seed": 0}
TINY_OVERRIDES = {
    "runs": 2,
    "rates": [0.0, 0.5],
    "gsl": {"outer_iters": 5, "inner_theta_steps": 5},
    "train": {"epochs": 20},
}


def _tiny_config(**extra):
    doc = {"sbm": dict(TINY_SBM), **TINY_OVERRIDES, **extra}
    return codec.decode(ExperimentConfig, doc, "experiment")


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(_tiny_config())


def test_grid_shape_and_cell_contents(tiny_result):
    report = tiny_result.report
    assert report.seeds == [0, 1]
    assert len(report.cells) == len(MODELS) * 2
    for model in MODELS:
        for rate in (0.0, 0.5):
            cell = report.cell(model, rate)
            assert len(cell.runs) == 2
            for m in cell.runs:
                for v in m:
                    assert 0.0 <= v <= 1.0
            want_mean = np.mean(np.array(cell.runs), axis=0)
            assert np.allclose(np.array(cell.mean), want_mean, atol=1e-12)
    with pytest.raises(KeyError):
        report.cell("GCN", 0.25)


def test_histories_cover_structure_learning_cells(tiny_result):
    keys = set(tiny_result.histories)
    want = {(m, rate, r) for m in ("GSL-GCN", "GSL-GraphSAGE")
            for rate in (0.0, 0.5) for r in (0, 1)}
    assert keys == want
    for history in tiny_result.histories.values():
        assert len(history) == 6
        assert all(np.isfinite(p.total) for p in history)


def test_rerun_is_byte_identical(tiny_result):
    again = run_experiment(_tiny_config())
    assert report_to_json(again.report) == report_to_json(tiny_result.report)
    assert report_to_markdown(again.report) == report_to_markdown(
        tiny_result.report)


def test_evasion_grid_trains_clean_and_evaluates_perturbed():
    cfg = _tiny_config(runs=1, rates=[0.0, 0.3],
                       models=["GCN", "GSL-GCN"],
                       attack_kind="evasion", structure_mode="random")
    result = run_experiment(cfg)
    assert len(result.report.cells) == 4
    # rate zero leaves the graph alone, so evasion at 0 equals the clean cell
    base = result.report.cell("GCN", 0.0).mean
    assert 0.0 <= base.f1 <= 1.0
    assert set(result.histories) == {("GSL-GCN", 0.0, 0), ("GSL-GCN", 0.3, 0)}


def test_report_roundtrip_through_dict(tiny_result):
    doc = codec.encode(tiny_result.report)
    back = codec.decode(MetricsReport, doc, "report")
    assert codec.encode(back) == doc
    doc["format_version"] = 42
    with pytest.raises(ValueError):
        codec.decode(MetricsReport, doc, "report")


def test_config_roundtrip_and_validation():
    cfg = _tiny_config()
    again = codec.decode(ExperimentConfig, cfg.to_dict(), "experiment")
    assert again.to_dict() == cfg.to_dict()
    assert again.gsl == GslConfig(outer_iters=5, inner_theta_steps=5)
    assert again.train.epochs == 20

    with pytest.raises(ValueError, match="unknown experiment config keys"):
        codec.decode(ExperimentConfig, {"sbm": dict(TINY_SBM), "typo_key": 1},
                     "experiment")
    with pytest.raises(ValueError, match="unknown sbm config keys"):
        codec.decode(ExperimentConfig, {"sbm": {**TINY_SBM, "extra": 2}},
                     "experiment")
    with pytest.raises(ValueError, match="unknown gsl config keys"):
        codec.decode(ExperimentConfig, {"sbm": dict(TINY_SBM), "gsl": {"alpha": 1}},
                     "experiment")
    with pytest.raises(ValueError, match="unknown train config keys"):
        codec.decode(ExperimentConfig,
                     {"sbm": dict(TINY_SBM), "train": {"seed": 3}}, "experiment")


SEEDS = st.integers(0, 2**32 - 1)
UNIT = st.floats(0.0, 1.0)
SCALE = st.floats(0.0, 1e6)
SBM_SPECS = st.builds(
    SbmSpec, n=st.integers(2, 500), p_in=st.floats(0.5, 1.0),
    p_out=st.floats(0.0, 0.49), feature_dim=st.integers(1, 64),
    signal=st.floats(-10.0, 10.0), noise_sigma=st.floats(0.0, 10.0), seed=SEEDS)
PERTURBATION_SPECS = st.builds(
    attacks.PerturbationSpec, rate=UNIT,
    structure_mode=st.sampled_from(attacks.STRUCTURE_MODES),
    feature_sigma=st.floats(0.0, 10.0), feature_fraction=st.none() | UNIT,
    seed=SEEDS)
GSL_CONFIGS = st.builds(
    GslConfig, alpha_nuclear=SCALE, alpha_l1=SCALE, beta_smooth=SCALE,
    lambda_prox=SCALE, eta_s=SCALE, inner_theta_steps=st.integers(0, 50),
    outer_iters=st.integers(0, 500))
ADAM_SETTINGS = dict(
    lr=st.floats(1e-6, 1.0), beta1=st.floats(0.0, 0.999),
    beta2=st.floats(0.0, 0.999), eps=st.floats(1e-12, 1e-3),
    weight_decay=st.floats(0.0, 1.0))
TRAIN_CONFIGS = st.builds(TrainConfig, epochs=st.integers(0, 1000), **ADAM_SETTINGS)
EXPERIMENT_SETTINGS = dict(
    models=st.lists(st.sampled_from(MODELS), min_size=1, unique=True).map(tuple),
    rates=st.lists(UNIT, max_size=4, unique=True).map(tuple), runs=st.integers(1, 20),
    base_seed=SEEDS, train_frac=st.floats(0.05, 0.95),
    attack_kind=st.sampled_from(experiments.ATTACK_KINDS),
    structure_mode=st.sampled_from(attacks.STRUCTURE_MODES),
    feature_sigma=st.floats(0.0, 10.0), feature_fraction=st.none() | UNIT,
    window_seconds=st.integers(1, 10**6), max_flows=st.none() | st.integers(1, 10**7),
    gsl=GSL_CONFIGS, train=TRAIN_CONFIGS)
EXPERIMENT_CONFIGS = st.one_of(
    st.builds(ExperimentConfig, sbm=SBM_SPECS, **EXPERIMENT_SETTINGS),
    st.builds(ExperimentConfig, csv_path=st.text(max_size=20), **EXPERIMENT_SETTINGS))
PIPELINE_CONFIGS = st.builds(
    PipelineConfig, window_seconds=st.integers(1, 10**6),
    gnn_kind=st.sampled_from(["gcn", "sage"]), min_nodes=st.integers(1, 1000),
    score_threshold=UNIT, isolate_threshold=UNIT,
    detect_refine_steps=st.integers(0, 200), seed=SEEDS, gsl=GSL_CONFIGS,
    train=st.builds(AdamConfig, **ADAM_SETTINGS))
CONFIGS = {"sbm": SBM_SPECS, "perturbation": PERTURBATION_SPECS,
           "gsl": GSL_CONFIGS, "train": TRAIN_CONFIGS,
           "experiment": EXPERIMENT_CONFIGS, "pipeline": PIPELINE_CONFIGS}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@given(data=st.data())
def test_config_codec_roundtrip_through_json(name, data):
    cfg = data.draw(CONFIGS[name])
    doc = json.loads(json.dumps(codec.encode(cfg)))
    assert codec.decode(type(cfg), doc, name) == cfg
    if name == "experiment":
        doc = json.loads(json.dumps(cfg.to_dict()))
        assert codec.decode(ExperimentConfig, doc, "experiment") == cfg


@pytest.mark.parametrize("top, path", [
    ("experiment", ()), ("experiment", ("sbm",)), ("experiment", ("gsl",)),
    ("experiment", ("train",)), ("pipeline", ()), ("pipeline", ("gsl",)),
    ("pipeline", ("train",)),
])
def test_config_rejects_an_extra_key_at_every_level(top, path):
    cls = ExperimentConfig if top == "experiment" else PipelineConfig
    doc = codec.encode(cls(sbm=SbmSpec()) if top == "experiment" else cls())
    inner = doc
    for key in path:
        inner = inner[key]
    inner["bogus"] = 1
    level = path[-1] if path else top
    with pytest.raises(ValueError, match=rf"unknown {level} config keys: \['bogus'\]"):
        codec.decode(cls, doc, top)


@pytest.mark.parametrize("doc, message", [
    ({"gsl": {"outer_iters": 2.5}}, "outer_iters must be an integer, got 2.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"score_threshold": "0.5"}, "score_threshold must be a number, got '0.5'"),
    ({"train": {"lr": False}}, "lr must be a number, got False"),
    ({"gnn_kind": 1}, "gnn_kind must be a string, got 1"),
    ({"window_seconds": None}, "window_seconds must be an integer, got None"),
])
def test_config_rejects_a_value_of_the_wrong_json_type(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        codec.decode(PipelineConfig, doc, "pipeline")


def test_config_keeps_values_as_given():
    cfg = codec.decode(PipelineConfig,
                       {"score_threshold": 1, "isolate_threshold": 0.75}, "pipeline")
    assert type(cfg.score_threshold) is int and cfg.isolate_threshold == 0.75
    exp = codec.decode(ExperimentConfig, {"sbm": {"signal": 2}, "rates": [0, 0.5],
                                          "models": ["GCN"], "max_flows": None},
                       "experiment")
    assert type(exp.sbm.signal) is int and exp.rates == (0.0, 0.5)
    with pytest.raises(ValueError, match="rates must be a number, got '0.1'"):
        codec.decode(ExperimentConfig, {"sbm": {}, "rates": ["0.1"]}, "experiment")
    with pytest.raises(ValueError, match="models must be a list"):
        codec.decode(ExperimentConfig, {"sbm": {}, "models": "GCN"}, "experiment")


PINNED_SETTINGS = {
    "models": ["DNN", "GCN", "GraphSAGE", "GSL-GCN", "GSL-GraphSAGE"],
    "rates": [0.0, 0.1, 0.5], "runs": 10, "base_seed": 0, "train_frac": 0.8,
    "attack_kind": "poisoning", "structure_mode": "dice", "feature_sigma": 0.5,
    "feature_fraction": None, "window_seconds": 300,
    "gsl": {"alpha_nuclear": 0.0, "alpha_l1": 0.0005, "beta_smooth": 0.5,
            "lambda_prox": 0.15, "eta_s": 0.2, "inner_theta_steps": 5,
            "outer_iters": 100},
    "train": {"epochs": 200, "lr": 0.01, "beta1": 0.9, "beta2": 0.999,
              "eps": 1e-08, "weight_decay": 0.0005},
}


def test_config_to_dict_is_pinned():
    # The config block of report.json: only the data source that is set.
    assert ExperimentConfig(sbm=SbmSpec()).to_dict() == {
        **PINNED_SETTINGS, "max_flows": None,
        "sbm": {"n": 200, "p_in": 0.1, "p_out": 0.01,
                "feature_dim": 16, "signal": 1.0, "noise_sigma": 1.0, "seed": 0},
    }
    assert ExperimentConfig(csv_path="flows.csv", max_flows=5000).to_dict() == {
        **PINNED_SETTINGS, "max_flows": 5000, "csv_path": "flows.csv",
    }


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig()
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(sbm=SbmSpec(), csv_path="flows.csv")
    with pytest.raises(ValueError):
        ExperimentConfig(sbm=SbmSpec(), models=("GCN", "ResNet"))
    with pytest.raises(ValueError):
        ExperimentConfig(sbm=SbmSpec(), rates=(0.0, 1.5))
    with pytest.raises(ValueError):
        ExperimentConfig(sbm=SbmSpec(), runs=0)


def test_config_rejects_repeated_models_and_rates():
    # a repeat would make two cells of one (model, rate), and the later
    # history CSV of each run would overwrite the earlier
    with pytest.raises(ValueError, match=re.escape("models repeat ['GCN']")):
        ExperimentConfig(sbm=SbmSpec(), models=("GCN", "DNN", "GCN"))
    with pytest.raises(ValueError, match=re.escape("rates repeat [0.1]")):
        ExperimentConfig(sbm=SbmSpec(), rates=(0.1, 0.1, 0.5), runs=1)
    with pytest.raises(ValueError, match=re.escape("rates repeat [0]")):
        ExperimentConfig(sbm=SbmSpec(), rates=(0, 0.0))


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("heading, cls, level", [
    ("Experiment config", ExperimentConfig, "experiment"),
    ("Pipeline config", PipelineConfig, "pipeline"),
])
def test_readme_config_example_decodes(heading, cls, level):
    text = README.read_text(encoding="utf-8")
    block = re.search(rf"^{heading}\b.*?```json\n(.*?)```", text, re.M | re.S)
    assert block is not None, f"README has no {heading} JSON block"
    assert isinstance(codec.decode(cls, json.loads(block.group(1)), level), cls)


def test_attack_spec_carries_every_attack_setting():
    cfg = ExperimentConfig(sbm=SbmSpec(), attack_kind="evasion",
                           structure_mode="random", feature_sigma=0.2,
                           feature_fraction=0.3)
    assert cfg.attack_spec(0.1, 4) == attacks.PerturbationSpec(
        rate=0.1, structure_mode="random", feature_sigma=0.2,
        feature_fraction=0.3, seed=4)
    # the attack settings are checked even when the grid has no rates
    for bad, message in [({"attack_kind": "bogus"}, "kind must be one of"),
                         ({"feature_fraction": 2.0}, "feature_fraction"),
                         ({"rates": (0.0, 1.5)}, "rate must lie in")]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(sbm=SbmSpec(), **{"rates": (), **bad})


def test_markdown_rendering_golden():
    runs = [MetricValues(0.9, 0.8, 0.7, 0.6)]
    cell = CellResult(model="GCN", rate=0.5, runs=runs,
                      mean=MetricValues(0.9, 0.8, 0.7, 0.6),
                      std=MetricValues(0.01, 0.02, 0.03, 0.04))
    report = MetricsReport(config={}, seeds=[0, 1], cells=[cell])
    want = (
        "# Robustness report\n"
        "\n"
        "- runs per cell: 2\n"
        "- seeds: 0, 1\n"
        "\n"
        "## accuracy\n"
        "\n"
        "| model | 50% |\n"
        "| --- | --- |\n"
        "| GCN | 0.900 ± 0.010 |\n"
        "\n"
        "## precision\n"
        "\n"
        "| model | 50% |\n"
        "| --- | --- |\n"
        "| GCN | 0.800 ± 0.020 |\n"
        "\n"
        "## recall\n"
        "\n"
        "| model | 50% |\n"
        "| --- | --- |\n"
        "| GCN | 0.700 ± 0.030 |\n"
        "\n"
        "## f1\n"
        "\n"
        "| model | 50% |\n"
        "| --- | --- |\n"
        "| GCN | 0.600 ± 0.040 |\n"
    )
    assert report_to_markdown(report) == want
    assert render_report(report, "markdown") == want
    assert render_report(report, "json") == report_to_json(report)
    with pytest.raises(ValueError):
        render_report(report, "html")


def test_history_csv_golden(tmp_path):
    history = [
        ObjectiveParts(1.5, 1.0, 0.25, 0.05, 0.1, 0.1),
        ObjectiveParts(1.25, 0.875, 0.2, 0.05, 0.0625, 0.0625),
    ]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    want = (
        "iteration,total,task,nuclear,l1,smooth,prox\n"
        "0,1.5,1,0.25,0.05,0.1,0.1\n"
        "1,1.25,0.875,0.2,0.05,0.0625,0.0625\n"
    )
    assert path.read_text() == want


def test_load_merged_snapshot_unions_kept_windows(flows_detect_csv):
    merged = load_merged_snapshot(flows_detect_csv, window_seconds=300,
                                  min_nodes=10)
    assert "m00" in merged.node_ids and len(merged.node_ids) == 13
    strict = load_merged_snapshot(flows_detect_csv, window_seconds=300,
                                  min_nodes=13)
    # the benign-only window has 12 devices and gets dropped
    assert strict.node_ids == merged.node_ids
    assert not np.array_equal(strict.features, merged.features)
    with pytest.raises(DataError, match="fewer than"):
        load_merged_snapshot(flows_detect_csv, window_seconds=300,
                             min_nodes=14)


def test_load_merged_snapshot_reads_no_further_than_max_flows(tmp_path):
    good = [f"{k}.0,d{k % 12},d{(k + 1) % 12},tcp,1000,80,100,10,2.0,0,"
            for k in range(40)]
    bad = [f"{k}.0,d0,d1,tcp,1000,80,-5,10,2.0,0," for k in range(100)]
    header = "ts,src_ip,dst_ip,proto,src_port,dst_port,bytes,pkts,dur,label,attack_type"
    path = tmp_path / "flows.csv"
    path.write_text("\n".join([header] + good + bad) + "\n")
    with pytest.raises(DataError, match="unusable"):
        load_merged_snapshot(path, 300, 10)
    capped = load_merged_snapshot(path, 300, 10, max_flows=40)
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join([header] + good) + "\n")
    full = codec.encode(load_merged_snapshot(clean, 300, 10))
    assert codec.encode(capped) == full
    shorter = load_merged_snapshot(path, 300, 10, max_flows=25)
    clean.write_text("\n".join([header] + good[:25]) + "\n")
    assert codec.encode(shorter) == codec.encode(load_merged_snapshot(clean, 300, 10))


def test_load_merged_snapshot_spans_its_first_and_last_kept_window(
        flows_detect_csv):
    records, _ = parse_flows(flows_detect_csv)
    spans = [bounds for bounds, _ in window(records, 60)]
    merged = load_merged_snapshot(flows_detect_csv, window_seconds=60,
                                  min_nodes=1)
    assert merged.window == (spans[0][0], spans[-1][1]) == (600.0, 1140.0)
    # at 300 s only the first window has 13 devices, so the span is that window
    strict = load_merged_snapshot(flows_detect_csv, window_seconds=300,
                                  min_nodes=13)
    assert strict.window == (600.0, 900.0)


def test_load_merged_snapshot_truncates_at_max_flows(flows_train_csv):
    full = load_merged_snapshot(flows_train_csv, 300, 1)
    cut = load_merged_snapshot(flows_train_csv, 300, 1, max_flows=4)
    assert len(cut.node_ids) < len(full.node_ids)


def test_load_merged_snapshot_rejects_empty(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "ts,src_ip,dst_ip,proto,src_port,dst_port,bytes,pkts,dur,label,attack_type\n")
    with pytest.raises(DataError, match="no usable flows"):
        load_merged_snapshot(empty, 300, 10)


@pytest.mark.parametrize("attack_kind,per_rate", [("evasion", False),
                                                  ("poisoning", True)])
def test_grid_training_count(attack_kind, per_rate, monkeypatch):
    """Evasion trains each model once per run, poisoning once per rate too."""
    calls = {"train": 0, "fit": 0}
    # The counting patches live in this interpreter, so no grid worker runs.
    monkeypatch.setattr(experiments, "_worker_count", lambda units: 1)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(experiments, "train", counting("train", experiments.train))
    monkeypatch.setattr(experiments.gsl, "fit", counting("fit", experiments.gsl.fit))
    rates = [0.0, 0.3, 0.5]
    result = run_experiment(_tiny_config(runs=2, rates=rates,
                                         attack_kind=attack_kind))
    factor = 2 * (len(rates) if per_rate else 1)
    assert calls == {"train": 3 * factor, "fit": 2 * factor}
    assert set(result.histories) == {(m, rate, r) for m in ("GSL-GCN", "GSL-GraphSAGE")
                                     for rate in rates for r in (0, 1)}
    if not per_rate:
        for m in ("GSL-GCN", "GSL-GraphSAGE"):
            for r in (0, 1):
                assert result.histories[(m, 0.0, r)] is result.histories[(m, 0.5, r)]


# Grid workers. ``_worker_count`` picks the path: one worker runs the units
# in this interpreter, more run them in worker interpreters.

OVERFLOWING_TRAIN = {"epochs": 20, "lr": 1e300}
PACKAGE_ROOT = str(Path(experiments.__file__).resolve().parents[1])


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(experiments, "_worker_count",
                        lambda units: min(workers, units))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _grid_outputs(result):
    histories = [(key, np.array(h).tobytes()) for key, h in result.histories.items()]
    return (report_to_json(result.report), report_to_markdown(result.report),
            histories)


@pytest.mark.parametrize("source", ["poisoning", "evasion", "csv"])
def test_grid_workers_match_in_process(source, flows_train_csv, monkeypatch):
    if source == "csv":
        doc = {"csv_path": str(flows_train_csv), **TINY_OVERRIDES}
        cfg = codec.decode(ExperimentConfig, doc, "experiment")
    else:
        cfg = _tiny_config(attack_kind=source)
    outputs = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        result = run_experiment(cfg)
        _assert_no_children()
        outputs[workers] = _grid_outputs(result)
    assert outputs[2] == outputs[1]
    if source == "evasion":
        # One fit per (model, run) serves every rate, from workers too.
        for m in ("GSL-GCN", "GSL-GraphSAGE"):
            for r in (0, 1):
                assert result.histories[(m, 0.0, r)] is result.histories[(m, 0.5, r)]


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_overflow_raises_the_same_error_on_both_paths(workers, monkeypatch):
    _force_workers(monkeypatch, workers)
    cfg = _tiny_config(runs=1, train=OVERFLOWING_TRAIN)
    with np.errstate(all="ignore"), pytest.raises(
            NumericError, match="^classifier logits overflowed during training$"):
        run_experiment(cfg)
    _assert_no_children()


def test_grid_worker_warnings_reach_the_parent(monkeypatch):
    cfg = _tiny_config(runs=1, train=OVERFLOWING_TRAIN)
    seen = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(NumericError):
            warnings.simplefilter("always")
            run_experiment(cfg)
        seen[workers] = {(w.category, str(w.message)) for w in caught}
    assert seen[2] == seen[1]
    assert (RuntimeWarning, "overflow encountered in matmul") in seen[2]
    # The suite's error::RuntimeWarning filter fails a grid run in workers.
    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        run_experiment(cfg)
    _assert_no_children()


def test_grid_raises_the_earliest_failure_in_grid_order(monkeypatch):
    # The GSL unit is dealt out first and fails at once on a rate the run
    # has no attacked graph for; the DNN unit comes first in grid order and
    # overflows, so its error is the one raised.
    cfg = _tiny_config(runs=1, rates=[0.0], models=["DNN", "GSL-GCN"],
                       train=OVERFLOWING_TRAIN)
    monkeypatch.setattr(experiments, "_grid_units", lambda cfg: [
        (0, "DNN", (0.0,)), (0, "GSL-GCN", (0.5,))])
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            run_experiment(cfg)
        _assert_no_children()


def test_grid_worker_stops_at_its_first_failure():
    cfg = _tiny_config(runs=1, rates=[0.0], models=["DNN"])
    request = pickle.dumps((np.geterr(), cfg, None,
                            [(0, "DNN", (0.5,)), (0, "DNN", (0.0,))]))
    done = subprocess.run([sys.executable, "-c", experiments._WORKER_CODE],
                          input=request, capture_output=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
    [(failed, caught)] = pickle.loads(done.stdout)
    assert isinstance(failed, experiments._Failed) and caught == []
    assert isinstance(failed.error, KeyError) and "Traceback" in failed.text


def test_grid_workers_prepare_every_run(monkeypatch):
    # The calling process prepares no run when workers run the grid.
    cfg = _tiny_config()
    _force_workers(monkeypatch, 1)
    expected = _grid_outputs(run_experiment(cfg))

    def refuse(*args):
        raise AssertionError("a run was prepared in the calling process")

    monkeypatch.setattr(experiments, "_prepare_run", refuse)
    _force_workers(monkeypatch, 2)
    assert _grid_outputs(run_experiment(cfg)) == expected
    _assert_no_children()


def test_grid_worker_exiting_without_results_is_an_error(monkeypatch):
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_WORKER_CODE", "import sys; sys.exit(5)")
    with pytest.raises(RuntimeError, match="exited with status 5"):
        run_experiment(_tiny_config(runs=1))
    _assert_no_children()


def test_importing_the_package_leaves_subprocess_unimported():
    # subprocess is imported on the worker path only, so importing stays cheap.
    code = ("import sys\n"
            "import gridsentry.cli, gridsentry.experiments, gridsentry.pipeline\n"
            "print('subprocess' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
    assert done.stdout.strip() == "False"
