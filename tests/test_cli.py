"""Command-line workflows: flags, config files, exit codes, artifacts."""

import json

import pytest

from gridsentry import pipeline
from gridsentry.cli import main
from gridsentry.errors import NumericError

TINY_EXPERIMENT = {
    "sbm": {"n": 40, "classes": 2, "p_in": 0.3, "p_out": 0.05,
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
    assert "trained gcn-b1-" in capsys.readouterr().out

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


def test_train_rejects_unknown_nested_key(tmp_path, flows_train_csv):
    cfg = _write_json(tmp_path / "train.json", {"gsl": {"alpha": 1.0}})
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


def test_experiment_requires_config(tmp_path):
    assert main(["experiment", "-o", str(tmp_path / "r")]) == 1


def test_experiment_rejects_unknown_key(tmp_path):
    cfg = _write_json(tmp_path / "exp.json",
                      {**TINY_EXPERIMENT, "grid_size": 3})
    assert main(["experiment", "--config", cfg,
                 "-o", str(tmp_path / "r")]) == 1


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


def test_attack_on_invalid_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "snap.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["attack", "-i", str(bad), "-o", str(tmp_path / "out")]) == 2
    assert "data error: cannot read snapshot" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, doc", [
    ("attack", "-i", {"format_version": 1}),
    ("attack", "-i", []),
    ("detect", "-b", []),
    ("detect", "-b", {"format_version": 1, "params": []}),
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
    code = main(["detect", "-i", str(tmp_path / "missing.csv"),
                 "-b", str(out_dir / "bundle.json"),
                 "-o", str(tmp_path / "alerts.jsonl")])
    assert code == 2
    assert "data error: cannot read flow file" in capsys.readouterr().err


def test_experiment_missing_csv_is_data_error(tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json",
                      {"csv_path": str(tmp_path / "missing.csv"), "runs": 1})
    assert main(["experiment", "--config", cfg, "-o", str(tmp_path / "r")]) == 2
    assert "data error: cannot read flow file" in capsys.readouterr().err
