"""Flow CSV parsing, windowing, per-device features, and standardization."""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridsentry.errors import DataError
from gridsentry.flows import (FEATURE_NAMES, FeatureConfig, apply_zscore,
                              build_snapshot, compute_zscore_stats,
                              parse_flows, window)

HEADER = "ts,src_ip,dst_ip,proto,src_port,dst_port,bytes,pkts,dur,label,attack_type"


def _parse(*rows):
    return parse_flows(io.StringIO("\n".join((HEADER,) + rows) + "\n"))


def _flow(ts, src, dst, proto="tcp", bytes_=100, pkts=10, dur=2.0, label=0,
          attack=""):
    return f"{ts},{src},{dst},{proto},1000,80,{bytes_},{pkts},{dur},{label},{attack}"


def test_parse_single_flow():
    records, stats = _parse(_flow(10.0, "a", "b"))
    assert stats.rows_total == 1 and stats.rows_skipped == 0
    (rec,) = records
    assert (rec.src, rec.dst, rec.protocol) == ("a", "b", "tcp")
    assert (rec.bytes, rec.packets) == (100, 10)
    assert rec.duration == 2.0 and rec.label == 0


def test_single_flow_feature_vector():
    records, _ = _parse(_flow(10.0, "a", "b"))
    snap = build_snapshot(records, FeatureConfig(window_seconds=300))
    assert snap.node_ids == ["a", "b"]
    assert snap.feature_names == FEATURE_NAMES
    assert snap.window == (0.0, 300.0)
    assert np.array_equal(snap.adjacency, [[0.0, 1.0], [1.0, 0.0]])
    assert list(snap.labels) == [0, 0]
    want_a = [math.log1p(100), 0.0, math.log1p(10), 0.0, math.log1p(1),
              1.0, 0.0, 0.0, math.log1p(1), 2.0]
    want_b = [0.0, math.log1p(100), 0.0, math.log1p(10), math.log1p(1),
              1.0, 0.0, 0.0, math.log1p(1), 2.0]
    assert np.allclose(snap.features[0], want_a, atol=1e-12)
    assert np.allclose(snap.features[1], want_b, atol=1e-12)


def test_majority_attack_labeling():
    records, _ = _parse(
        _flow(1.0, "m", "b1", label=1, attack="scanning"),
        _flow(2.0, "m", "b2", label=1, attack="scanning"),
        _flow(3.0, "b1", "b2", label=0),
    )
    snap = build_snapshot(records, FeatureConfig())
    assert snap.node_ids == ["b1", "b2", "m"]
    # b1 and b2 sit at exactly half attack flows, which stays benign
    assert list(snap.labels) == [0, 0, 1]


def test_skip_reasons_are_counted():
    records, stats = _parse(
        _flow(1.0, "a", "b"),
        _flow(1.5, "b", "c"),
        "2.0,a,b,tcp,1000,80,notanumber,10,2.0,0,",
        "3.0,a,b,tcp,1000,80,100,10,2.0,7,",
    )
    assert len(records) == 2
    assert stats.reasons == {"non-numeric bytes": 1, "invalid label": 1}


def test_self_flows_dropped_separately():
    records, stats = _parse(_flow(1.0, "a", "a"), _flow(2.0, "a", "b"))
    assert len(records) == 1
    assert stats.self_flows_dropped == 1 and stats.rows_skipped == 0


def test_missing_columns_fail_hard():
    with pytest.raises(DataError, match="dst"):
        parse_flows(io.StringIO("ts,src_ip,proto,bytes,pkts,dur,label\n"))


def test_majority_skipped_rejects_dataset():
    with pytest.raises(DataError, match="unusable"):
        _parse(
            _flow(1.0, "a", "b"),
            "x,a,b,tcp,1000,80,100,10,2.0,0,",
            "y,a,b,tcp,1000,80,100,10,2.0,0,",
        )


def test_empty_csv_with_header_is_fine():
    records, stats = _parse()
    assert records == [] and stats.rows_total == 0


def test_invalid_port_skips_row():
    records, stats = _parse(
        "1.0,a,b,tcp,99999999,80,100,10,2.0,0,",
        _flow(2.0, "a", "b"),
    )
    assert len(records) == 1
    assert stats.reasons == {"invalid src_port": 1}


def test_non_finite_port_skips_row():
    records, stats = _parse(
        "1.0,a,b,tcp,inf,80,100,10,2.0,0,",
        "2.0,a,b,tcp,1000,-inf,100,10,2.0,0,",
        _flow(3.0, "a", "b"),
        _flow(4.0, "a", "b"),
    )
    assert len(records) == 2
    assert stats.reasons == {"non-numeric src_port": 1, "non-numeric dst_port": 1}


def test_undecodable_input_is_data_error(tmp_path):
    data = (HEADER + "\n1.0,a\xff,b,tcp,1000,80,100,10,2.0,0,\n").encode("latin-1")
    with pytest.raises(DataError, match="not UTF-8"):
        parse_flows(data)
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match="not UTF-8"):
        parse_flows(path)


@given(st.one_of(st.binary(max_size=300),
                 st.binary(max_size=300).map(lambda b: HEADER.encode() + b"\n" + b)))
def test_parse_flows_on_arbitrary_bytes_returns_or_raises_data_error(data):
    try:
        records, stats = parse_flows(data)
    except DataError:
        return
    assert len(records) + stats.rows_skipped + stats.self_flows_dropped \
        == stats.rows_total


def test_unknown_protocol_maps_to_other():
    records, _ = _parse(_flow(1.0, "a", "b", proto="gre"))
    assert records[0].protocol == "other"


def test_ton_iot_column_names():
    header = "ts,src_ip,dst_ip,proto,src_bytes,dst_bytes,src_pkts,dst_pkts,duration,label,type"
    row = "5.0,a,b,udp,60,40,3,2,1.5,1,backdoor"
    records, stats = parse_flows(io.StringIO(header + "\n" + row + "\n"))
    (rec,) = records
    assert rec.bytes == 100 and rec.packets == 5
    assert rec.duration == 1.5 and rec.attack_type == "backdoor"
    assert rec.src_port == 0 and rec.dst_port == 0


def test_window_partition_and_alignment():
    records, _ = _parse(
        _flow(0.0, "a", "b"),
        _flow(299.999, "a", "b"),
        _flow(300.0, "a", "b"),
        _flow(650.0, "a", "b"),
    )
    buckets = window(records, FeatureConfig(window_seconds=300))
    spans = [span for span, _ in buckets]
    assert spans == [(0.0, 300.0), (300.0, 600.0), (600.0, 900.0)]
    counts = [len(group) for _, group in buckets]
    assert counts == [2, 1, 1]
    for (start, end), group in buckets:
        assert all(start <= f.timestamp < end for f in group)


def test_window_rejects_empty_input():
    with pytest.raises(ValueError):
        window([], FeatureConfig())


def test_build_snapshot_rejects_window_spill():
    records, _ = _parse(_flow(1.0, "a", "b"), _flow(400.0, "a", "b"))
    with pytest.raises(ValueError):
        build_snapshot(records, FeatureConfig(window_seconds=300))


def test_byte_conservation_through_features():
    records, _ = _parse(
        _flow(1.0, "a", "b", bytes_=150),
        _flow(2.0, "b", "c", bytes_=250),
        _flow(3.0, "c", "a", bytes_=600),
    )
    snap = build_snapshot(records, FeatureConfig())
    sent = np.expm1(snap.features[:, 0]).sum()
    recv = np.expm1(snap.features[:, 1]).sum()
    assert abs(sent - 1000.0) <= 1e-6 and abs(recv - 1000.0) <= 1e-6


def test_build_snapshot_is_flow_order_independent():
    records, _ = _parse(
        _flow(1.0, "c", "a", proto="udp"),
        _flow(2.0, "a", "b", bytes_=999),
        _flow(3.0, "b", "c", proto="icmp", label=1),
        _flow(4.0, "a", "c", pkts=77),
    )
    first = build_snapshot(records, FeatureConfig())
    second = build_snapshot(list(reversed(records)), FeatureConfig())
    assert first.node_ids == second.node_ids
    assert np.array_equal(first.adjacency, second.adjacency)
    assert np.array_equal(first.features, second.features)
    assert np.array_equal(first.labels, second.labels)


def test_zscore_stats_and_application():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(40, 4)) * [1.0, 5.0, 0.2, 3.0] + [2.0, -1.0, 0.0, 10.0]
    feats[:, 2] = 7.0  # constant column
    mean, std = compute_zscore_stats(feats)
    assert std[2] == 1.0
    scaled = apply_zscore(feats, (mean, std))
    assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(scaled[:, 2], 0.0)
    for col in (0, 1, 3):
        assert abs(scaled[:, col].std() - 1.0) <= 1e-12
    # round trip
    assert np.allclose(scaled * std + mean, feats)


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(window_seconds=0)


def test_unopenable_path_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read flow file"):
        parse_flows(tmp_path / "missing.csv")
    with pytest.raises(DataError, match="cannot read flow file"):
        parse_flows(str(tmp_path))  # a directory
