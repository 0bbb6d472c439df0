"""Graph primitives, the block-model generator, and snapshot serialization."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridsentry.errors import DataError
from gridsentry.graphs import (GraphSnapshot, SbmSpec, laplacian,
                               load_snapshot, normalized_adjacency,
                               save_snapshot, sbm_generate, smoothness)

from conftest import SBM60, random_symmetric


def test_normalized_adjacency_single_node():
    assert np.allclose(normalized_adjacency(np.zeros((1, 1))), [[1.0]])


def test_normalized_adjacency_unit_edge():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(normalized_adjacency(a), [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_adjacency_matches_scalar_oracle():
    for seed in range(4):
        s = random_symmetric(7, seed)
        got = normalized_adjacency(s)
        plus = s + np.eye(7)
        deg = plus.sum(axis=1)
        for i in range(7):
            for j in range(7):
                want = plus[i, j] / np.sqrt(deg[i] * deg[j])
                assert abs(got[i, j] - want) <= 1e-10
        assert np.array_equal(got, got.T)
        # self-loops keep the diagonal strictly positive; nothing exceeds 1
        assert np.all(np.diag(got) > 0.0)
        assert got.min() >= 0.0 and got.max() <= 1.0 + 1e-12


def test_laplacian_worked_examples():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(laplacian(a), [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))


def test_laplacian_annihilates_constant_vector():
    s = random_symmetric(8, 9)
    assert np.allclose(laplacian(s) @ np.ones(8), 0.0, atol=1e-10)


def test_smoothness_worked_examples():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0.0], [2.0]])
    assert abs(smoothness(a, x) - 4.0) <= 1e-12
    const = np.ones((2, 3))
    assert abs(smoothness(a, const)) <= 1e-12


def test_smoothness_matches_pairwise_sum_oracle():
    rng = np.random.default_rng(2)
    s = random_symmetric(6, 4)
    x = rng.normal(size=(6, 3))
    want = 0.0
    for i in range(6):
        for j in range(6):
            want += 0.5 * s[i, j] * float(np.sum((x[i] - x[j]) ** 2))
    assert abs(smoothness(s, x) - want) <= 1e-10


def test_smoothness_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        smoothness(np.zeros((3, 3)), np.zeros((4, 2)))


def test_sbm_degenerate_probabilities_make_two_cliques():
    snap = sbm_generate(SbmSpec(n=4, classes=2, p_in=1.0, p_out=0.0,
                                feature_dim=2, signal=1.0, noise_sigma=0.0,
                                seed=0))
    # round-robin labels: nodes 0,2 vs 1,3
    assert list(snap.labels) == [0, 1, 0, 1]
    want = np.zeros((4, 4))
    want[0, 2] = want[2, 0] = 1.0
    want[1, 3] = want[3, 1] = 1.0
    assert np.array_equal(snap.adjacency, want)


def test_sbm_zero_noise_repeats_class_means():
    snap = sbm_generate(SbmSpec(n=6, classes=2, p_in=0.5, p_out=0.1,
                                feature_dim=3, signal=2.0, noise_sigma=0.0,
                                seed=1))
    class0 = snap.features[snap.labels == 0]
    class1 = snap.features[snap.labels == 1]
    assert np.allclose(class0, class0[0]) and np.allclose(class1, class1[0])
    assert np.allclose(class0[0] - class1[0], 2.0)


def test_sbm_edge_count_within_three_sigma():
    spec = SbmSpec(n=200, classes=2, p_in=0.1, p_out=0.01, feature_dim=4,
                   signal=1.0, noise_sigma=1.0, seed=0)
    snap = sbm_generate(spec)
    edges = int(snap.adjacency.sum()) // 2
    pairs_in = 2 * (100 * 99 // 2)
    pairs_out = 100 * 100
    mean = pairs_in * spec.p_in + pairs_out * spec.p_out
    var = (pairs_in * spec.p_in * (1 - spec.p_in)
           + pairs_out * spec.p_out * (1 - spec.p_out))
    assert abs(edges - mean) <= 3.0 * np.sqrt(var)


def test_sbm_is_deterministic_per_seed(tmp_path):
    a = sbm_generate(SBM60)
    b = sbm_generate(SBM60)
    save_snapshot(a, tmp_path / "a.json")
    save_snapshot(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    c = sbm_generate(dataclasses.replace(SBM60, seed=8))
    assert not np.array_equal(a.adjacency, c.adjacency)


@pytest.mark.parametrize("spec", [SBM60, SbmSpec(n=31, p_in=0.6, p_out=0.3, seed=5)])
def test_sbm_edges_match_pair_loop_reference(spec):
    # One uniform per pair, drawn in row-major upper-triangle order.
    draws = np.random.default_rng(spec.seed).random(spec.n * (spec.n - 1) // 2)
    want = np.zeros((spec.n, spec.n))
    idx = 0
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            p = spec.p_in if i % 2 == j % 2 else spec.p_out
            if draws[idx] < p:
                want[i, j] = want[j, i] = 1.0
            idx += 1
    assert np.array_equal(sbm_generate(spec).adjacency, want)


def test_sbm_spec_validation():
    with pytest.raises(ValueError):
        SbmSpec(n=10, classes=2, p_in=0.1, p_out=0.2, feature_dim=2,
                signal=1.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        SbmSpec(n=1, classes=2, p_in=0.5, p_out=0.1, feature_dim=2,
                signal=1.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        SbmSpec(n=10, classes=3, p_in=0.5, p_out=0.1, feature_dim=2,
                signal=1.0, noise_sigma=1.0, seed=0)


def test_snapshot_roundtrip(tmp_path, sbm60):
    path = tmp_path / "snap.json"
    save_snapshot(sbm60, path)
    back = load_snapshot(path)
    assert list(back.node_ids) == list(sbm60.node_ids)
    assert np.array_equal(back.adjacency, sbm60.adjacency)
    assert np.array_equal(back.features, sbm60.features)
    assert np.array_equal(back.labels, sbm60.labels)
    assert back.window == sbm60.window


def test_snapshot_rejects_bad_adjacency():
    ids = ("a", "b")
    x = np.zeros((2, 2))
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        GraphSnapshot(node_ids=ids, adjacency=asym, features=x, labels=None,
                      window=(0.0, 1.0))
    loops = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        GraphSnapshot(node_ids=ids, adjacency=loops, features=x, labels=None,
                      window=(0.0, 1.0))


def test_snapshot_arrays_are_frozen(sbm60):
    with pytest.raises(ValueError):
        sbm60.adjacency[0, 1] = 5.0


def test_snapshot_format_version_checked(tmp_path, sbm60):
    path = tmp_path / "snap.json"
    save_snapshot(sbm60, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="format_version"):
        load_snapshot(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def snapshots(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    upper = np.triu(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n,
                                           max_size=n * n))).reshape(n, n), k=1)
    features = draw(st.lists(FINITE, min_size=n * d, max_size=n * d))
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n))
    start, end = sorted(draw(st.lists(FINITE, min_size=2, max_size=2)))
    return GraphSnapshot(
        node_ids=draw(st.lists(st.text(max_size=6), min_size=n, max_size=n,
                               unique=True)),
        adjacency=upper + upper.T,
        features=np.array(features).reshape(n, d),
        labels=None if labels is None else np.array(labels),
        window=(start, end),
        feature_names=draw(st.lists(st.text(max_size=6), min_size=d, max_size=d)),
    )


@given(snapshots())
def test_snapshot_round_trip_property(snap):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save_snapshot(snap, first)
        back = load_snapshot(first)
        save_snapshot(back, second)
        assert second.read_bytes() == first.read_bytes()
    assert back.node_ids == snap.node_ids
    assert back.feature_names == snap.feature_names
    assert back.window == snap.window
    for name in ("adjacency", "features"):
        assert np.array_equal(getattr(back, name), getattr(snap, name))
    if snap.labels is None:
        assert back.labels is None
    else:
        assert np.array_equal(back.labels, snap.labels)


def test_unreadable_snapshot_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read snapshot"):
        load_snapshot(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="cannot read snapshot"):
        load_snapshot(bad)
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(DataError, match="cannot read snapshot"):
        load_snapshot(bad)
