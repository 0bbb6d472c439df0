"""Saved documents: snapshots, model params, detector bundles and reports.

Each is written and read by ``codec``. A saved file keeps its bytes and
loads back to the same document; a file with a missing, unknown or wrongly
typed key, or another ``format_version``, fails through its loader as a
DataError naming the document, and through the CLI with exit code 2.
"""

import hashlib
import json

import numpy as np
import pytest

from gridsentry import codec
from gridsentry.attacks import PerturbationSpec, apply
from gridsentry.cli import main
from gridsentry.errors import DataError
from gridsentry.experiments import (ExperimentConfig, MetricsReport,
                                    report_to_json, run_experiment)
from gridsentry.graphs import GraphSnapshot, SbmSpec, sbm_generate
from gridsentry.models import GnnParams, TrainConfig, init_params
from gridsentry.pipeline import DetectorBundle

SPEC = SbmSpec(n=24, p_in=0.4, p_out=0.05, feature_dim=3, seed=5)

# sha256 of each file ``_write_documents`` saves. A change to any of these
# is a change to a file format.
PINNED_SHA256 = {
    "snapshot.json":
        "9f887719302d0de75d5b9c4ac40d224b5a649de7ab8f5533ba8422217f42b3bd",
    "receipt.json":
        "e59ff572c5db7e7db7acfe2f5125998c3e98a60718692589c9fdd276aaf33970",
    "bundle.json":
        "00bd81f551cadcd3cb58be836fbcb3e942415c1488a34c7cf45d0107732476c4",
    "report.json":
        "f66446d72702b9cb0389bc497e36602294098ea1555aedc642a6f6e8a4edc6eb",
}


def _write_documents(out):
    """Save one of each document, built from fixed seeds, under ``out``."""
    snapshot = sbm_generate(SPEC)
    codec.save(snapshot, out / "snapshot.json")
    _, receipt = apply(snapshot, PerturbationSpec(rate=0.3, feature_fraction=0.25,
                                                  seed=2))
    codec.save(receipt, out / "receipt.json")
    d = SPEC.feature_dim
    codec.save(DetectorBundle(params=init_params("sage", d, hidden=4, seed=1),
                              zscore_mean=np.linspace(-1.0, 1.0, d),
                              zscore_std=np.linspace(0.5, 2.0, d),
                              feature_names=list(snapshot.feature_names)),
               out / "bundle.json", indent=2)
    cfg = ExperimentConfig(sbm=SPEC, models=("DNN", "GCN"), rates=(0.0, 0.2),
                           runs=2, train=TrainConfig(epochs=20))
    (out / "report.json").write_text(report_to_json(run_experiment(cfg).report),
                                     encoding="utf-8")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    out = tmp_path_factory.mktemp("documents")
    _write_documents(out)
    return out


def test_saved_documents_keep_their_bytes(saved):
    digests = {name: hashlib.sha256((saved / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


def test_saved_documents_load_and_save_back_byte_for_byte(saved, tmp_path):
    codec.save(codec.load(saved / "snapshot.json", "snapshot", GraphSnapshot),
               tmp_path / "snapshot.json")
    codec.save(DetectorBundle.load(saved / "bundle.json"), tmp_path / "bundle.json",
               indent=2)
    assert main(["report", "-i", str(saved / "report.json"), "--format", "json",
                 "-o", str(tmp_path / "report.json")]) == 0
    for name in ("snapshot.json", "bundle.json", "report.json"):
        assert (tmp_path / name).read_bytes() == (saved / name).read_bytes()


def test_params_built_in_code_get_the_shape_check():
    # The hidden width is the first weight's column count.
    with pytest.raises(ValueError, match="weight w2 has shape \\(5, 2\\)"):
        GnnParams(kind="gcn", weights={"w1": np.zeros((3, 4)),
                                       "w2": np.zeros((5, 2))})
    with pytest.raises(ValueError, match="disagrees with hidden=4, classes=2"):
        GnnParams(kind="gcn", weights={"w1": np.zeros((3, 4)),
                                       "w2": np.zeros((4, 3))})
    GnnParams(kind="gcn", weights={"w1": np.zeros((3, 4)), "w2": np.zeros((4, 2))})


def test_params_take_their_weights_in_any_key_order():
    params = init_params("sage", 3, hidden=4, seed=0)
    shuffled = dict(reversed(list(params.weights.items())))
    again = GnnParams(kind="sage", weights=shuffled)
    assert list(again.weights) == list(params.weights)
    assert np.array_equal(again._flat_weights(), params._flat_weights())


def _rename(doc, old, new):
    doc[new] = doc.pop(old)


def _as_format_1(doc):
    """A bundle as format 1 saved it, with its params' hidden width and
    class count and a gsl seed."""
    doc.update(format_version=1)
    doc["gsl"]["seed"] = 0
    doc["params"].update(format_version=1, hidden=4, classes=2)


# (file, edit of its JSON document, the error's text). Every edit breaks one
# key: missing, unknown, wrongly typed, or another format_version.
BROKEN = {
    "snapshot missing": ("snapshot.json", lambda d: d.pop("feature_names"),
                         r"missing snapshot keys: \['feature_names'\]"),
    "snapshot unknown": ("snapshot.json", lambda d: _rename(d, "labels", "label"),
                         r"unknown snapshot keys: \['label'\]"),
    "snapshot mistyped": ("snapshot.json",
                          lambda d: d.update(node_ids=list(range(24))),
                          "node_ids must be a string"),
    "snapshot window": ("snapshot.json", lambda d: d.update(window=[0, 1, 2]),
                        "window must hold 2 items"),
    "snapshot labels": ("snapshot.json",
                        lambda d: d.update(labels=[0.5] * 24),
                        "labels must be 0 or 1"),
    "snapshot array": ("snapshot.json",
                       lambda d: d.update(features=[["1"] * 3] * 24),
                       "features must be a list of numbers"),
    "snapshot version": ("snapshot.json", lambda d: d.update(format_version=2),
                         "unsupported snapshot format_version 2"),
    "params missing": ("bundle.json", lambda d: d["params"].pop("kind"),
                       r"missing params keys: \['kind'\]"),
    "params unknown": ("bundle.json", lambda d: d["params"].update(bias=[0.0]),
                       r"unknown params keys: \['bias'\]"),
    "params mistyped": ("bundle.json", lambda d: d["params"].update(kind=4),
                        "kind must be a string, got 4"),
    "params version": ("bundle.json",
                       lambda d: d["params"].update(format_version=1),
                       "unsupported params format_version 1"),
    "bundle missing": ("bundle.json", lambda d: d.pop("zscore_std"),
                       r"missing bundle keys: \['zscore_std'\]"),
    "bundle nested missing": ("bundle.json", lambda d: d["gsl"].pop("eta_s"),
                              r"missing gsl keys: \['eta_s'\]"),
    "bundle unknown": ("bundle.json", lambda d: d.update(threshold=0.5),
                       r"unknown bundle keys: \['threshold'\]"),
    "bundle mistyped": ("bundle.json", lambda d: d.update(feature_names=[1, 2, 3]),
                        "feature_names must be a string"),
    "bundle infinite std": ("bundle.json",
                            lambda d: d["zscore_std"].__setitem__(0, float("inf")),
                            "zscore_std contains non-finite entries"),
    "bundle NaN mean": ("bundle.json",
                        lambda d: d["zscore_mean"].__setitem__(1, float("nan")),
                        "zscore_mean contains non-finite entries"),
    "bundle version": ("bundle.json", _as_format_1,
                       "unsupported bundle format_version 1"),
    "report missing": ("report.json", lambda d: d.pop("seeds"),
                       r"missing report keys: \['seeds'\]"),
    "report unknown": ("report.json", lambda d: d["cells"][0].update(median={}),
                       r"unknown cells keys: \['median'\]"),
    "report mistyped": ("report.json", lambda d: d.update(seeds=["0", "1"]),
                        "seeds must be an integer"),
    "report metric": ("report.json",
                      lambda d: d["cells"][0]["mean"].pop("f1"),
                      r"missing mean keys: \['f1'\]"),
    "report version": ("report.json", lambda d: d.update(format_version=2),
                       "unsupported report format_version 2"),
}

LOADERS = {"snapshot.json": ("snapshot", lambda path: codec.load(
               path, "snapshot", GraphSnapshot)),
           "bundle.json": ("detector bundle", DetectorBundle.load),
           "report.json": ("report", lambda path: codec.load(
               path, "report", MetricsReport))}


def _broken_copy(saved, tmp_path, case):
    name, edit, _ = BROKEN[case]
    doc = json.loads((saved / name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return name, path


@pytest.mark.parametrize("case", list(BROKEN))
def test_broken_document_fails_its_loader(case, saved, tmp_path):
    name, path = _broken_copy(saved, tmp_path, case)
    what, load = LOADERS[name]
    with pytest.raises(DataError, match=f"malformed {what} .*{BROKEN[case][2]}"):
        load(path)


@pytest.mark.parametrize("case", list(BROKEN))
def test_broken_document_exits_2_from_the_cli(case, saved, tmp_path,
                                              flows_detect_csv, capsys):
    name, path = _broken_copy(saved, tmp_path, case)
    argv = {"snapshot.json": ["attack", "-i", str(path)],
            "bundle.json": ["detect", "-i", str(flows_detect_csv), "-b", str(path)],
            "report.json": ["report", "-i", str(path)]}[name]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"data error: malformed {LOADERS[name][0]} {path}: ")
    assert not (tmp_path / "out").exists()

