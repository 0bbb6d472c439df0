"""Command-line workflows: flags, config files, exit codes, artifacts."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from gridsentry import cli, codec, experiments, numerics, pipeline
from gridsentry.cli import main
from gridsentry.errors import NumericError
from gridsentry.flows import FEATURE_NAMES, parse_flows, window
from gridsentry.graphs import GraphSnapshot, SbmSpec, sbm_generate
from gridsentry.gsl import GslConfig
from gridsentry.models import init_params

from conftest import without_column

TINY_EXPERIMENT = {
    "sbm": {"n": 40, "p_in": 0.3, "p_out": 0.05,
            "feature_dim": 4, "signal": 1.5, "noise_sigma": 0.8, "seed": 0},
    "runs": 2,
    "rates": [0.0, 0.5],
    "models": ["GCN", "GSL-GCN"],
    "gsl": {"outer_iters": 10},
    "train": {"epochs": 100},
}


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "generate" in capsys.readouterr().out


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["detect", "--input", "x.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["decorate"]) == 1


def test_generate_is_deterministic(tmp_path, capsys):
    args = ["generate", "--n", "20", "--p-in", "0.4", "--p-out", "0.05",
            "--feature-dim", "3", "--seed", "5"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    snap = json.loads(first.read_text())
    assert len(snap["node_ids"]) == 20
    assert "wrote 20-node snapshot" in capsys.readouterr().out


def test_generate_seed_flag_overrides_config(tmp_path):
    cfg = _write_json(tmp_path / "gen.json", {"n": 20, "p_in": 0.4,
                                              "p_out": 0.05, "seed": 3})
    flagged = tmp_path / "flagged.json"
    plain = tmp_path / "plain.json"
    assert main(["generate", "--config", cfg, "--seed", "9",
                 "-o", str(flagged)]) == 0
    assert main(["generate", "--n", "20", "--p-in", "0.4", "--p-out", "0.05",
                 "--seed", "9", "-o", str(plain)]) == 0
    assert flagged.read_bytes() == plain.read_bytes()


def test_generate_rejects_bad_spec(tmp_path, capsys):
    code = main(["generate", "--n", "20", "--p-in", "0.1", "--p-out", "0.5",
                 "-o", str(tmp_path / "x.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_unknown_config_key(tmp_path):
    cfg = _write_json(tmp_path / "gen.json", {"n": 20, "communities": 4})
    assert main(["generate", "--config", cfg,
                 "-o", str(tmp_path / "x.json")]) == 1


def test_ingest_writes_window_snapshots(tmp_path, flows_detect_csv, capsys):
    out = tmp_path / "windows"
    assert main(["ingest", "-i", str(flows_detect_csv), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["window_0000.json",
                                                     "window_0001.json"]
    stats = json.loads(captured.err)
    assert stats["rows_skipped"] == 0
    assert "wrote 2 window snapshot(s)" in captured.out


def test_ingest_zero_window_seconds_is_usage_error(tmp_path, flows_detect_csv,
                                                  capsys):
    # the flag's 0 must reach the config check, not fall back to the file's 600
    cfg = _write_json(tmp_path / "ingest.json", {"window_seconds": 600})
    out = tmp_path / "windows"
    assert main(["ingest", "-i", str(flows_detect_csv), "-o", str(out),
                 "--config", cfg, "--window-seconds", "0"]) == 1
    assert "window_seconds must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window_seconds", [60, 300])
def test_snapshot_window_is_the_bucket_bounds(window_seconds, tmp_path,
                                              flows_detect_csv):
    out = tmp_path / "windows"
    assert main(["ingest", "-i", str(flows_detect_csv), "-o", str(out),
                 "--window-seconds", str(window_seconds)]) == 0
    records, _ = parse_flows(flows_detect_csv)
    want = [bounds for bounds, _ in window(records, window_seconds)]
    got = [codec.load(path, "snapshot", GraphSnapshot).window
           for path in sorted(out.iterdir())]
    assert got == want and len(want) > 1


def test_ingest_reads_window_seconds_from_pipeline_config(tmp_path,
                                                          flows_detect_csv,
                                                          capsys):
    doc = codec.encode(pipeline.PipelineConfig(window_seconds=60,
                                               detect_refine_steps=60))
    cfg = _write_json(tmp_path / "pipeline.json", doc)
    out = tmp_path / "windows"
    assert main(["ingest", "-i", str(flows_detect_csv), "-o", str(out),
                 "--config", cfg]) == 0
    assert "wrote 8 window snapshot(s)" in capsys.readouterr().out
    first = codec.load(out / "window_0000.json", "snapshot", GraphSnapshot)
    assert first.window == (600.0, 660.0)


def test_ingest_missing_columns_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("ts,src_ip,proto\n")
    assert main(["ingest", "-i", str(bad), "-o", str(tmp_path / "w")]) == 2
    assert "data error:" in capsys.readouterr().err


def test_ingest_undecodable_or_non_finite_port_is_data_error(tmp_path, capsys):
    header = b"ts,src_ip,dst_ip,proto,src_port,dst_port,bytes,pkts,dur,label\n"
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(header + b"1.0,caf\xe9,b,tcp,1000,80,100,10,2.0,0\n")
    inf_port = tmp_path / "inf_port.csv"
    inf_port.write_bytes(header + b"1.0,a,b,tcp,inf,80,100,10,2.0,0\n")
    for path in (latin1, inf_port):
        assert main(["ingest", "-i", str(path), "-o", str(tmp_path / "w")]) == 2
        assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "report"])
@pytest.mark.parametrize("flag", [["--seed", "1"], ["--config", "c.json"]])
def test_detect_and_report_reject_seed_and_config(command, flag, tmp_path, capsys):
    args = [command, "-i", "x.csv", "-o", str(tmp_path / "out")]
    if command == "detect":
        args += ["-b", "b.json"]
    assert main(args + flag) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_attack_rate_zero_roundtrips_bytes(tmp_path):
    snap_path = tmp_path / "snap.json"
    assert main(["generate", "--n", "20", "--p-in", "0.4", "--p-out", "0.05",
                 "--seed", "1", "-o", str(snap_path)]) == 0
    out = tmp_path / "attacked.json"
    assert main(["attack", "-i", str(snap_path), "--kind", "poisoning",
                 "--rate", "0", "-o", str(out)]) == 0
    assert out.read_bytes() == snap_path.read_bytes()
    receipt = json.loads((tmp_path / "attacked.json.receipt.json").read_text())
    assert receipt["edges_added"] == [] and receipt["edges_removed"] == []
    assert receipt["warning"] is None


def test_attack_phase_mismatch_warns_and_copies(tmp_path, capsys):
    snap_path = tmp_path / "snap.json"
    main(["generate", "--n", "20", "--p-in", "0.4", "--p-out", "0.05",
          "--seed", "1", "-o", str(snap_path)])
    capsys.readouterr()
    out = tmp_path / "attacked.json"
    assert main(["attack", "-i", str(snap_path), "--kind", "evasion",
                 "--rate", "0.5", "--phase", "training", "-o", str(out)]) == 0
    assert "ignored at training phase" in capsys.readouterr().err
    assert out.read_bytes() == snap_path.read_bytes()


def test_attack_applies_dice_budget(tmp_path, capsys):
    snap_path = tmp_path / "snap.json"
    main(["generate", "--n", "30", "--p-in", "0.4", "--p-out", "0.05",
          "--seed", "2", "-o", str(snap_path)])
    out = tmp_path / "attacked.json"
    assert main(["attack", "-i", str(snap_path), "--kind", "poisoning",
                 "--rate", "0.5", "--structure-mode", "dice", "--seed", "3",
                 "-o", str(out)]) == 0
    receipt = json.loads((tmp_path / "attacked.json.receipt.json").read_text())
    edges = json.loads(snap_path.read_text())["adjacency"]
    m = int(sum(sum(row) for row in edges) // 2)
    k = int(0.5 * m)
    assert len(receipt["edges_added"]) + len(receipt["edges_removed"]) == k


def test_train_then_detect_flags_the_scanner(tmp_path, flows_train_csv,
                                             flows_detect_csv, capsys):
    cfg = _write_json(tmp_path / "train.json",
                      {"seed": 0, "detect_refine_steps": 60})
    out_dir = tmp_path / "model"
    assert main(["train", "-i", str(flows_train_csv), "--config", cfg,
                 "-o", str(out_dir)]) == 0
    assert "trained gcn-b2-" in capsys.readouterr().out

    alerts_path = tmp_path / "alerts.jsonl"
    assert main(["detect", "-i", str(flows_detect_csv),
                 "-b", str(out_dir / "bundle.json"),
                 "-o", str(alerts_path)]) == 0
    captured = capsys.readouterr()
    assert "processed 2 window(s), emitted 1 alert(s)" in captured.out
    (line,) = alerts_path.read_text().splitlines()
    doc = json.loads(line)
    assert doc["device_id"] == "m00"
    assert doc["recommended_action"] == "isolate"


def _untrained_bundle(path, **edits):
    bundle = pipeline.DetectorBundle(
        params=init_params("gcn", len(FEATURE_NAMES)), gsl=GslConfig(),
        zscore_mean=np.zeros(len(FEATURE_NAMES)),
        zscore_std=np.ones(len(FEATURE_NAMES)),
        feature_names=list(FEATURE_NAMES), window_seconds=300)
    return _write_json(path, {**codec.encode(bundle), **edits})


@pytest.mark.parametrize("edit", [
    {"window_seconds": 0},
    {"window_seconds": 2.5},
    {"detect_refine_steps": -5},
    {"score_threshold": 7.0},
])
def test_detect_rejects_bundle_with_bad_settings(edit, tmp_path,
                                                 flows_detect_csv, capsys):
    bundle = _untrained_bundle(tmp_path / "bundle.json", **edit)
    out = tmp_path / "alerts.jsonl"
    assert main(["detect", "-i", str(flows_detect_csv), "-b", bundle,
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert next(iter(edit)) in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"gsl": {"outer_iters": 2.5}},
    {"detect_refine_steps": 2.5},
    {"seed": True},
])
def test_train_rejects_non_integer_count(bad, tmp_path, flows_train_csv,
                                         capsys):
    cfg = _write_json(tmp_path / "train.json", bad)
    out = tmp_path / "model"
    assert main(["train", "-i", str(flows_train_csv), "--config", cfg,
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an integer" in err
    assert not out.exists()


def test_train_rejects_unknown_nested_key(tmp_path, flows_train_csv):
    for bad in ({"gsl": {"alpha": 1.0}}, {"gsl": {"seed": 0}},
                {"train": {"epochs": 5}}):
        cfg = _write_json(tmp_path / "train.json", bad)
        assert main(["train", "-i", str(flows_train_csv), "--config", cfg,
                     "-o", str(tmp_path / "model")]) == 1


def test_detect_missing_bundle_is_data_error(tmp_path, flows_detect_csv,
                                             capsys):
    code = main(["detect", "-i", str(flows_detect_csv),
                 "-b", str(tmp_path / "missing.json"),
                 "-o", str(tmp_path / "alerts.jsonl")])
    assert code == 2
    assert "data error:" in capsys.readouterr().err


def test_numeric_failures_exit_three(monkeypatch, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise NumericError("synthetic blowup")

    monkeypatch.setattr(pipeline, "run_pipeline", boom)
    code = main(["detect", "-i", "x.csv", "-b", "b.json", "-o",
                 str(tmp_path / "a.jsonl")])
    assert code == 3
    assert "numeric failure:" in capsys.readouterr().err


def test_experiment_reruns_byte_identical(tmp_path):
    cfg = _write_json(tmp_path / "exp.json", TINY_EXPERIMENT)
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert main(["experiment", "--config", cfg, "-o", str(first)]) == 0
    assert main(["experiment", "--config", cfg, "-o", str(second)]) == 0
    assert (first / "report.json").read_bytes() == \
        (second / "report.json").read_bytes()
    assert (first / "report.md").read_bytes() == \
        (second / "report.md").read_bytes()

    names = sorted(p.name for p in (first / "history").iterdir())
    assert names == [
        "gsl_gcn_rate0.5_run0.csv",
        "gsl_gcn_rate0.5_run1.csv",
        "gsl_gcn_rate0_run0.csv",
        "gsl_gcn_rate0_run1.csv",
    ]
    head = (first / "history" / names[0]).read_text().splitlines()[0]
    assert head == "iteration,total,task,nuclear,l1,smooth,prox"

    report = json.loads((first / "report.json").read_text())
    assert len(report["cells"]) == 4
    assert report["seeds"] == [0, 1]


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_numeric_failure_exits_3(workers, tmp_path, capsys, monkeypatch):
    # The same exit on the grid's in-process and worker paths.
    monkeypatch.setattr(experiments, "_worker_count", lambda units: min(workers, units))
    cfg = _write_json(tmp_path / "exp.json",
                      {**TINY_EXPERIMENT, "train": {"epochs": 20, "lr": 1e300}})
    with np.errstate(all="ignore"):
        assert main(["experiment", "--config", cfg, "-o", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: classifier logits overflowed during training\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_experiment_requires_config(tmp_path):
    assert main(["experiment", "-o", str(tmp_path / "r")]) == 1


def test_experiment_rejects_unknown_key(tmp_path):
    cfg = _write_json(tmp_path / "exp.json",
                      {**TINY_EXPERIMENT, "grid_size": 3})
    assert main(["experiment", "--config", cfg,
                 "-o", str(tmp_path / "r")]) == 1


@pytest.mark.parametrize("bad", [
    {"structure_mode": "bogus"},
    {"train_frac": 1.5},
    {"feature_sigma": -1},
    {"max_flows": -3},
    {"runs": 1.5},
    {"train": {"epochs": 5.0}},
    {"gsl": {"seed": 0}},
    {"sbm": {**TINY_EXPERIMENT["sbm"], "classes": 2}},
    {"sbm": {**TINY_EXPERIMENT["sbm"], "n": 2001}},
])
def test_experiment_rejects_bad_setting_before_running(bad, tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json", {**TINY_EXPERIMENT, **bad})
    out = tmp_path / "r"
    assert main(["experiment", "--config", cfg, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_report_rendering(tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json",
                      {**TINY_EXPERIMENT, "runs": 1, "rates": [0.0],
                       "models": ["GCN"]})
    out = tmp_path / "r"
    assert main(["experiment", "--config", cfg, "-o", str(out)]) == 0
    capsys.readouterr()

    assert main(["report", "-i", str(out / "report.json")]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("# Robustness report")
    assert "| GCN |" in stdout

    rendered = tmp_path / "again.json"
    assert main(["report", "-i", str(out / "report.json"),
                 "--format", "json", "-o", str(rendered)]) == 0
    assert rendered.read_bytes() == (out / "report.json").read_bytes()


def test_report_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format_version\": 1}")
    assert main(["report", "-i", str(bad)]) == 2
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "train", "attack"])
def test_missing_input_file_is_data_error(command, tmp_path, capsys):
    missing = tmp_path / "missing.input"
    assert main([command, "-i", str(missing), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "missing.input" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ingest", "train", "experiment"])
def test_graph_above_the_dense_ceiling_is_data_error(command, tmp_path,
                                                     flows_train_csv,
                                                     monkeypatch, capsys):
    monkeypatch.setattr(numerics, "_MAX_SVD_SIDE", 3)
    argv = [command, "-o", str(tmp_path / "out")]
    if command == "experiment":
        argv += ["--config", _write_json(tmp_path / "exp.json",
                                         {"csv_path": str(flows_train_csv)})]
    else:
        argv += ["-i", str(flows_train_csv)]
    assert main(argv) == 2
    err = capsys.readouterr().err  # ingest prints its parse counts first
    assert err.splitlines()[-1].startswith("data error:")
    assert "above the dense ceiling of 3" in err and "Traceback" not in err


def test_attack_on_invalid_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "snap.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["attack", "-i", str(bad), "-o", str(tmp_path / "out")]) == 2
    assert "data error: cannot read snapshot" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, doc", [
    ("attack", "-i", {"format_version": 1}),
    ("attack", "-i", []),
    ("detect", "-b", []),
    ("detect", "-b", {"format_version": 2, "params": []}),
    ("report", "-i", []),
    ("report", "-i", {"format_version": 1, "config": {}, "seeds": [], "cells": 5}),
])
def test_malformed_json_document_is_data_error(command, flag, doc, tmp_path,
                                               flows_detect_csv, capsys):
    path = _write_json(tmp_path / "doc.json", doc)
    argv = [command, flag, path, "-o", str(tmp_path / "out")]
    if command == "detect":
        argv += ["-i", str(flows_detect_csv)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: malformed") and "doc.json" in err
    assert "Traceback" not in err


def test_detect_missing_flow_file_is_data_error(tmp_path, flows_train_csv,
                                                capsys):
    cfg = _write_json(tmp_path / "train.json", {"gsl": {"outer_iters": 1}})
    out_dir = tmp_path / "model"
    assert main(["train", "-i", str(flows_train_csv), "--config", cfg,
                 "-o", str(out_dir)]) == 0
    capsys.readouterr()
    alerts = tmp_path / "alerts.jsonl"
    alerts.write_text("kept\n", encoding="utf-8")
    code = main(["detect", "-i", str(tmp_path / "missing.csv"),
                 "-b", str(out_dir / "bundle.json"), "-o", str(alerts)])
    assert code == 2
    assert "data error: cannot read flow file" in capsys.readouterr().err
    # A run that reads no flows leaves an earlier output as it was.
    assert alerts.read_text(encoding="utf-8") == "kept\n"


def test_experiment_missing_csv_is_data_error(tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json",
                      {"csv_path": str(tmp_path / "missing.csv"), "runs": 1})
    assert main(["experiment", "--config", cfg, "-o", str(tmp_path / "r")]) == 2
    assert "data error: cannot read flow file" in capsys.readouterr().err


def test_train_and_grid_without_labels_are_data_errors(tmp_path,
                                                       flows_train_csv, capsys):
    unlabelled = tmp_path / "unlabelled.csv"
    without_column(flows_train_csv, unlabelled, "label")
    assert main(["train", "-i", str(unlabelled), "-o", str(tmp_path / "m")]) == 2
    assert "has no label column" in capsys.readouterr().err
    cfg = _write_json(tmp_path / "exp.json", {"csv_path": str(unlabelled), "runs": 1})
    assert main(["experiment", "--config", cfg, "-o", str(tmp_path / "r")]) == 2
    assert "has no label column" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.mark.parametrize("command", ["generate", "ingest", "attack", "train",
                                     "detect", "experiment", "report"])
def test_unwritable_output_is_usage_error(command, tmp_path, flows_train_csv,
                                          flows_detect_csv, monkeypatch, capsys):
    missing = tmp_path / "missing_dir" / "out"
    regular = tmp_path / "regular_file"  # stands where a directory must go
    regular.write_text("", encoding="utf-8")
    snap = tmp_path / "snap.json"
    codec.save(sbm_generate(SbmSpec(n=20, p_in=0.4, p_out=0.05)), snap)
    report = _write_json(tmp_path / "report.json", codec.encode(
        experiments.MetricsReport(config={}, seeds=[], cells=[])))
    argv, out = {
        "generate": (["generate", "--n", "20", "--p-in", "0.4", "--p-out", "0.05"],
                     missing),
        "ingest": (["ingest", "-i", str(flows_detect_csv)], regular),
        "attack": (["attack", "-i", str(snap), "--rate", "0.1"], missing),
        "train": (["train", "-i", str(flows_train_csv)], regular),
        "detect": (["detect", "-i", str(flows_detect_csv),
                    "-b", _untrained_bundle(tmp_path / "bundle.json")], missing),
        "experiment": (["experiment", "--config",
                        _write_json(tmp_path / "exp.json", TINY_EXPERIMENT)], regular),
        "report": (["report", "-i", report], missing),
    }[command]
    # The commands that write a directory check it before any parse or fit.
    monkeypatch.setattr(cli, "parse_flows", _must_not_run)
    monkeypatch.setattr(pipeline, "parse_flows", _must_not_run)
    monkeypatch.setattr(pipeline, "train_pipeline", _must_not_run)
    monkeypatch.setattr(experiments, "run_experiment", _must_not_run)

    assert main(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def test_detect_rejects_weights_that_do_not_fit_the_features(
        tmp_path, flows_detect_csv, monkeypatch, capsys):
    narrow = codec.encode(init_params("gcn", len(FEATURE_NAMES) - 1))
    bundle = _untrained_bundle(tmp_path / "bundle.json", params=narrow)
    monkeypatch.setattr(pipeline, "parse_flows", _must_not_run)
    out = tmp_path / "alerts.jsonl"
    assert main(["detect", "-i", str(flows_detect_csv), "-b", bundle,
                 "-o", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("data error: malformed detector bundle")
    assert "weight w1 has shape (9, 16)" in line
    assert not out.exists()


def test_detect_rejects_weights_that_do_not_match_the_model_version(
        tmp_path, flows_detect_csv, monkeypatch, capsys):
    path = tmp_path / "bundle.json"
    doc = json.loads(Path(_untrained_bundle(path)).read_text())
    doc["params"]["weights"]["w1"][0][0] += 1.0
    _write_json(path, doc)
    monkeypatch.setattr(pipeline, "parse_flows", _must_not_run)
    out = tmp_path / "alerts.jsonl"
    assert main(["detect", "-i", str(flows_detect_csv), "-b", str(path),
                 "-o", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("data error: malformed detector bundle")
    assert f"model_version {doc['model_version']!r} does not match" in line
    assert not out.exists()


def _config_argv(command, config, tmp_path):
    argv = [command, "--config", config, "-o", str(tmp_path / "out")]
    if command in ("ingest", "attack", "train"):
        argv += ["-i", str(tmp_path / "unread.input")]
    return argv


@pytest.mark.parametrize("content", [None, b"{not json", b"[]", b"\xff{}"])
@pytest.mark.parametrize("command", ["generate", "ingest", "attack", "train",
                                     "experiment"])
def test_unusable_config_file_is_usage_error(command, content, tmp_path, capsys):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_bytes(content)
    assert main(_config_argv(command, str(config), tmp_path)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(config) in line
    assert not (tmp_path / "out").exists()


class _Decoded(Exception):
    """Carries a command's decoded config out of ``main``."""


_DECODE = cli._decode


def _decoded_config(monkeypatch, argv):
    def stop(*args):
        raise _Decoded(_DECODE(*args))

    monkeypatch.setattr(cli, "_decode", stop)
    with pytest.raises(_Decoded) as caught:
        main(argv)
    return caught.value.args[0]


# command, flag, the config key it sets, a value in the file, one on the line
FLAG_CASES = [
    ("generate", "--n", "n", 30, 40),
    ("generate", "--p-in", "p_in", 0.3, 0.4),
    ("generate", "--p-out", "p_out", 0.02, 0.05),
    ("generate", "--feature-dim", "feature_dim", 3, 5),
    ("generate", "--signal", "signal", 2.0, 3.0),
    ("generate", "--noise-sigma", "noise_sigma", 0.5, 0.8),
    ("generate", "--seed", "seed", 1, 9),
    ("attack", "--kind", "kind", "evasion", "poisoning"),
    ("attack", "--rate", "rate", 0.1, 0.3),
    ("attack", "--structure-mode", "structure_mode", "random", "dice"),
    ("attack", "--feature-sigma", "feature_sigma", 0.2, 0.7),
    ("attack", "--feature-fraction", "feature_fraction", 0.1, 0.4),
    ("attack", "--seed", "seed", 1, 9),
    ("ingest", "--window-seconds", "window_seconds", 600, 60),
    ("train", "--seed", "seed", 1, 9),
    ("experiment", "--seed", "base_seed", 1, 9),
]


@pytest.mark.parametrize("command, flag, key, in_file, on_line", FLAG_CASES)
def test_flag_overrides_its_config_key(command, flag, key, in_file, on_line,
                                       tmp_path, monkeypatch):
    base = TINY_EXPERIMENT if command == "experiment" else {}
    config = _write_json(tmp_path / "config.json", {**base, key: in_file})
    argv = _config_argv(command, config, tmp_path)
    assert getattr(_decoded_config(monkeypatch, argv), key) == in_file
    flagged = _decoded_config(monkeypatch, argv + [flag, str(on_line)])
    assert getattr(flagged, key) == on_line
