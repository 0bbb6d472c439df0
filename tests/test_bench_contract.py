"""The names the benchmark reads from the package must exist.

``perfbench`` times the package from outside: ``BENCHMARK.json`` names
per-layer metrics after package functions, and the hooks in
``perfbench/layers.py`` read some of their arguments by name. A function or
argument that goes missing makes its metrics absent instead of failing the
run, so these checks catch a rename before a benchmark run does.

The workloads in ``perfbench/workloads.py`` and the hooks also read results
and attributes by name: a rename there crashes every benchmark run, so the
last tests below take each of those paths once, on small inputs.
"""

import importlib
import inspect
import io
import json
from pathlib import Path

import pytest

from gridsentry import attacks, experiments, flows, gsl, pipeline
from gridsentry.graphs import SbmSpec, sbm_generate

BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())

# Per-layer names that do not name a package function.
_NOT_FUNCTIONS = ("gsl.recovery.", "trace.")

# Arguments the perfbench hooks read, by function.
HOOKED_ARGUMENTS = {
    "models.backward": ("params",),
    "gsl.fit": ("a", "gnn_kind"),
    "gsl.refine_structure": ("steps",),
    "gsl.refine_report": ("state",),
    "flows.build_snapshot": ("flows",),
    "attacks.apply": ("snapshot", "spec"),
}


def _function_names():
    names = set()
    for entry in BENCHMARK["per_layer"]:
        name = entry["name"].removeprefix("train.")
        if not name.startswith(_NOT_FUNCTIONS):
            names.add(name)
    return sorted(names)


def _resolve(name):
    """The callable a metric name starts with: module, then attributes."""
    module_name, *rest = name.split(".")
    target = importlib.import_module(f"gridsentry.{module_name}")
    resolved = []
    for part in rest:
        if not hasattr(target, part):
            break
        target = getattr(target, part)
        resolved.append(part)
    return target, resolved


@pytest.mark.parametrize("name", _function_names())
def test_per_layer_metric_names_a_package_function(name):
    target, resolved = _resolve(name)
    assert resolved, f"{name}: no function of that name in gridsentry"
    assert callable(target), f"{name}: {'.'.join(resolved)} is not callable"


@pytest.mark.parametrize("func", sorted(HOOKED_ARGUMENTS))
def test_hooked_arguments_exist(func):
    target, resolved = _resolve(func)
    assert len(resolved) == func.count("."), f"{func} is missing"
    parameters = inspect.signature(target).parameters
    for argument in HOOKED_ARGUMENTS[func]:
        assert argument in parameters, f"{func} has no argument {argument!r}"


def test_train_pipeline_returns_a_bundle_and_a_fit_state(tmp_path, flows_train_csv):
    cfg = pipeline.PipelineConfig(gsl=gsl.GslConfig(outer_iters=2))
    bundle, state = pipeline.train_pipeline(flows_train_csv, cfg, tmp_path)
    assert isinstance(bundle, pipeline.DetectorBundle)
    assert bundle.score_threshold == cfg.score_threshold
    assert isinstance(state, gsl.GslState) and state.a.ndim == 2
    assert (tmp_path / "bundle.json").is_file()


def test_run_pipeline_summary_keys(tmp_path, flows_train_csv, flows_detect_csv):
    cfg = pipeline.PipelineConfig(gsl=gsl.GslConfig(outer_iters=2))
    pipeline.train_pipeline(flows_train_csv, cfg, tmp_path)
    summary = pipeline.run_pipeline(flows_detect_csv, tmp_path / "bundle.json",
                                    tmp_path / "alerts.jsonl", diag=io.StringIO())
    assert summary["windows_processed"] + summary["windows_failed"] == 2


def test_grid_report_reads():
    cfg = experiments.ExperimentConfig(sbm=SbmSpec(n=40, p_in=0.3, p_out=0.05),
                                       runs=1, base_seed=3)
    assert cfg.models == experiments.MODELS and len(cfg.rates) == 3
    small = experiments.ExperimentConfig(
        sbm=cfg.sbm, runs=1, base_seed=3, models=("GSL-GCN",), rates=(0.5,),
        gsl=gsl.GslConfig(outer_iters=1))
    report = experiments.run_experiment(small).report
    mean = report.cell("GSL-GCN", 0.5).mean
    for metric in ("precision", "recall", "f1"):
        assert 0.0 <= getattr(mean, metric) <= 1.0
    assert json.loads(experiments.report_to_json(report))["cells"]


def test_attack_receipt_and_parse_stats(flows_detect_csv):
    snapshot = sbm_generate(SbmSpec(n=30, p_in=0.3, p_out=0.05))
    spec = attacks.PerturbationSpec(rate=0.2, seed=1)
    _, receipt = attacks.apply(snapshot, spec)
    assert len(receipt.edges_added) + len(receipt.edges_removed) > 0
    _, stats = flows.parse_flows(flows_detect_csv)
    assert stats.rows_total > 0
