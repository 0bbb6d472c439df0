"""Flow CSV parsing, windowing, per-device features, and standardization."""

import csv
import io
import math
import tracemalloc
from collections import namedtuple
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsentry import codec
from gridsentry import flows as flows_module
from gridsentry.errors import DataError
from gridsentry.flows import (FEATURE_NAMES, PROTOCOLS, FlowTable, ParseStats,
                              apply_zscore, build_snapshot,
                              compute_zscore_stats, parse_flows, window)

HEADER = "ts,src_ip,dst_ip,proto,src_port,dst_port,bytes,pkts,dur,label,attack_type"


def _parse(*rows):
    return parse_flows(io.StringIO("\n".join((HEADER,) + rows) + "\n"))


def _flow(ts, src, dst, proto="tcp", bytes_=100, pkts=10, dur=2.0, label=0,
          attack=""):
    return f"{ts},{src},{dst},{proto},1000,80,{bytes_},{pkts},{dur},{label},{attack}"


# -- the per-row parser, kept as the reference the columnar one must match --

_Row = namedtuple("_Row", [f.name for f in fields(FlowTable)])
_OBJECT_COLUMNS = {"src", "dst", "protocol"}
_FLOAT_COLUMNS = {"timestamp", "duration"}


def _dtype(name):
    if name in _OBJECT_COLUMNS:
        return object
    return np.float64 if name in _FLOAT_COLUMNS else np.int64


def _rows(table):
    return [_Row(*row) for row in zip(*(getattr(table, name) for name in _Row._fields))]


def _table(rows):
    columns = list(zip(*rows)) or [()] * len(_Row._fields)
    return FlowTable(**{name: np.array(column, dtype=_dtype(name))
                        for name, column in zip(_Row._fields, columns)})


class _Skip(Exception):
    """A malformed row; the message is the reason it is counted under."""


def _cell(row, column):
    """Stripped cell text; empty for an absent column, short row or blank cell."""
    value = row.get(column) if column is not None else None
    return value.strip() if value else ""


def _text(row, column, logical):
    value = _cell(row, column)
    if not value:
        raise _Skip(f"missing {logical}")
    return value


def _number(row, columns, logical):
    total = 0.0
    for name in columns if isinstance(columns, tuple) else (columns,):
        try:
            value = float(_text(row, name, logical))
        except ValueError:
            raise _Skip(f"non-numeric {logical}") from None
        if not math.isfinite(value):
            raise _Skip(f"non-numeric {logical}")
        if value > 2.0**53:
            raise _Skip(f"invalid {logical}")
        total += value
    if total < 0:
        raise _Skip(f"negative {logical}")
    if total > 2.0**53:
        raise _Skip(f"invalid {logical}")
    return total


def _port(row, column, logical):
    """Check a port, which the table does not keep; a blank one passes."""
    text = _cell(row, column)
    if not text:
        return
    try:
        port = int(float(text))
    except (ValueError, OverflowError):
        raise _Skip(f"non-numeric {logical}") from None
    if not 0 <= port <= 65535:
        raise _Skip(f"invalid {logical}")


def _label(row, column):
    text = _text(row, column, "label")
    try:
        value = float(text)
    except ValueError:
        raise _Skip("non-numeric label") from None
    if value not in (0.0, 1.0):
        raise _Skip("invalid label")
    return int(value)


def _reference_parse(text, limit=None):
    """Parse CSV text one ``DictReader`` row at a time into ``_Row`` tuples.

    With a ``limit``, reading stops once ``limit`` rows are kept.
    """
    reader = csv.DictReader(io.StringIO(text))
    columns = flows_module._resolve_columns(reader.fieldnames)
    stats = ParseStats()
    rows = []
    for row in reader:
        stats.rows_total += 1
        try:
            ts = _number(row, columns["ts"], "ts")
            src = _text(row, columns["src"], "src")
            dst = _text(row, columns["dst"], "dst")
            proto = _text(row, columns["proto"], "proto").lower()
            _port(row, columns.get("src_port"), "src_port")
            _port(row, columns.get("dst_port"), "dst_port")
            nbytes = _number(row, columns["bytes"], "bytes")
            pkts = _number(row, columns["pkts"], "pkts")
            dur = _number(row, columns["dur"], "dur")
            label = _label(row, columns["label"])
        except _Skip as skip:
            stats.skip(str(skip), 1)
            continue
        if src == dst:
            stats.self_flows_dropped += 1
            continue
        rows.append(_Row(ts, src, dst, proto if proto in PROTOCOLS else "other",
                         int(nbytes), int(pkts), dur, label))
        if len(rows) == limit:
            break
    if stats.rows_total and stats.rows_skipped / stats.rows_total > 0.5:
        raise DataError(
            f"dataset unusable: {stats.rows_skipped} of {stats.rows_total} rows skipped"
        )
    return rows, stats


def _outcome(parse, text):
    """What a parser makes of ``text``: rows and stats, or its DataError.

    Floats are compared by their hex form, which tells -0.0 from 0.0.
    """
    try:
        rows, stats = parse(text)
    except DataError as exc:
        return str(exc)
    return ([row._replace(timestamp=row.timestamp.hex(), duration=row.duration.hex())
             for row in rows], codec.encode(stats))


def _columnar_parse(text, limit=None):
    table, stats = parse_flows(io.StringIO(text), limit)
    for name in _Row._fields:
        column = getattr(table, name)
        assert column.dtype == _dtype(name) and column.shape == (len(table),)
    return _rows(table), stats


def test_parse_single_flow():
    records, stats = _parse(_flow(10.0, "a", "b"))
    assert stats.rows_total == 1 and stats.rows_skipped == 0
    assert len(records) == 1
    assert (records.src[0], records.dst[0], records.protocol[0]) == ("a", "b", "tcp")
    assert (records.bytes[0], records.packets[0]) == (100, 10)
    assert records.duration[0] == 2.0 and records.label[0] == 0


def test_single_flow_feature_vector():
    records, _ = _parse(_flow(10.0, "a", "b"))
    ((bounds, bucket),) = window(records, 300)
    snap = build_snapshot(bucket, bounds)
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


def test_build_snapshot_refuses_a_graph_above_the_dense_ceiling():
    # 2,001 devices: the device count is checked before the 32 MB adjacency
    # is allocated.
    records, _ = _parse(*(_flow(1.0, "hub", f"d{k:04d}") for k in range(2000)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="device graph side 2001 is above "
                                             "the dense ceiling of 2000"):
            build_snapshot(records, (0.0, 300.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_majority_attack_labeling():
    records, _ = _parse(
        _flow(1.0, "m", "b1", label=1, attack="scanning"),
        _flow(2.0, "m", "b2", label=1, attack="scanning"),
        _flow(3.0, "b1", "b2", label=0),
    )
    snap = build_snapshot(records, (0.0, 300.0))
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

    # A blank line is no row; a long row's extra cells are ignored.
    records, stats = _parse(_flow(1.0, "a", "b"), "", _flow(2.0, "b", "c") + ",x,y")
    assert len(records) == 2 and stats.rows_total == 2 and stats.rows_skipped == 0


TON_HEADER = "ts,src_ip,dst_ip,proto,src_bytes,dst_bytes,src_pkts,dst_pkts,duration,label,type"
# src_ip twice: the last column of a name is the one read.
DUP_HEADER = HEADER + ",src_ip"

# (header, bad row, reason) for every skip rule; the last three rows break two
# rules at once and are counted under the field read first.
SKIP_RULES = [
    (HEADER, ",a,b,tcp,1000,80,100,10,2.0,0,", "missing ts"),
    (HEADER, "1.0,,b,tcp,1000,80,100,10,2.0,0,", "missing src"),
    (HEADER, "1.0,a,,tcp,1000,80,100,10,2.0,0,", "missing dst"),
    (HEADER, "1.0,a,b,,1000,80,100,10,2.0,0,", "missing proto"),
    (HEADER, "1.0,a,b,tcp,1000,80,100,10,2.0,,", "missing label"),
    (HEADER, "soon,a,b,tcp,1000,80,100,10,2.0,0,", "non-numeric ts"),
    (HEADER, "1.0,a,b,tcp,1000,80,100,many,2.0,0,", "non-numeric pkts"),
    (HEADER, "1.0,a,b,tcp,1000,80,100,10,nan,0,", "non-numeric dur"),
    (HEADER, "1.0,a,b,tcp,1000,80,100,10,2.0,yes,", "non-numeric label"),
    (HEADER, "1.0,a,b,tcp,1000,80,-5,10,2.0,0,", "negative bytes"),
    (HEADER, "1.0,a,b,tcp,1000,80,100,10,-0.5,0,", "negative dur"),
    (TON_HEADER, "1.0,a,b,udp,60,,3,2,1.5,0,", "missing bytes"),
    (TON_HEADER, "1.0,a,b,udp,60,40,3,2,1e300,0,", "invalid dur"),
    (TON_HEADER, "1.0,a,b,udp,9007199254740992,2,3,2,1.5,0,", "invalid bytes"),
    (TON_HEADER, "1.0,a,b,udp,60,40,1e300,-1e300,1.5,0,", "invalid pkts"),
    (TON_HEADER, "1.0,a,b,udp,-1e308,-1e308,3,2,1.5,0,", "negative bytes"),
    # A short row reads "" past its end.
    (HEADER, "1.0,a,b,tcp,1000,80,100,10", "missing dur"),
    (DUP_HEADER, "1.0,a,b,tcp,1000,80,100,10,2.0,0,", "missing src"),
    (HEADER, "soon,a,b,tcp,1000,80,lots,10,2.0,0,", "non-numeric ts"),
    (HEADER, "1.0,a,b,tcp,1000,http,100,10,2.0,maybe,", "non-numeric dst_port"),
    (HEADER, "1.0,,,tcp,1000,80,100,10,2.0,0,", "missing src"),
]


def test_skip_reason_for_each_rule():
    # The good DUP_HEADER row is a self-flow if its first src_ip is read.
    good = {HEADER: _flow(2.0, "a", "b"), TON_HEADER: "2.0,a,b,udp,60,40,3,2,1.5,0,",
            DUP_HEADER: _flow(2.0, "b", "b") + ",a"}
    for header, row, reason in SKIP_RULES:
        records, stats = parse_flows(io.StringIO(f"{header}\n{row}\n{good[header]}\n"))
        assert len(records) == 1, row
        assert stats.reasons == {reason: 1}, row


def test_counts_that_would_overflow_are_skipped():
    # Kept, these rows would overflow int() of the pair total and the
    # per-node byte sums.
    ton = "1.0,a,b,tcp,1e308,1e308,3,2,1.5,0,"
    records, stats = parse_flows(io.StringIO(
        f"{TON_HEADER}\n{ton}\n2.0,a,b,udp,60,40,3,2,1.5,0,\n"))
    assert len(records) == 1 and stats.reasons == {"invalid bytes": 1}

    records, stats = _parse(_flow(1.0, "a", "b", bytes_="1e308"),
                            _flow(2.0, "a", "c", bytes_="1e308"),
                            _flow(3.0, "a", "b"), _flow(4.0, "a", "c"))
    assert len(records) == 2 and stats.reasons == {"invalid bytes": 2}
    ((bounds, bucket),) = window(records, 300)
    assert np.isfinite(build_snapshot(bucket, bounds).features).all()

    # 2**53 itself is an exact float64 integer and is kept.
    records, stats = _parse(_flow(1.0, "a", "b", bytes_=2**53))
    assert records.bytes[0] == 2**53 and stats.rows_skipped == 0


def test_self_flows_dropped_separately():
    records, stats = _parse(_flow(1.0, "a", "a"), _flow(2.0, "a", "b"))
    assert len(records) == 1
    assert stats.self_flows_dropped == 1 and stats.rows_skipped == 0


def test_the_label_column_is_optional():
    text = ("ts,src_ip,dst_ip,proto,bytes,pkts,dur\n"
            "1.0,a,b,tcp,100,10,2.0\n2.0,b,c,udp,5,1,0.5\n400.0,c,a,icmp,1,1,0\n")
    table, stats = parse_flows(io.StringIO(text))
    assert table.label is None and len(table) == 3 and stats.rows_skipped == 0
    buckets = window(table, 300)
    assert [bucket.label for _, bucket in buckets] == [None, None]
    assert FlowTable.concat([bucket for _, bucket in buckets]).label is None
    unlabelled = build_snapshot(*reversed(buckets[0]))
    assert unlabelled.labels is None
    labelled, _ = _parse(_flow(1.0, "a", "b", label=1), _flow(2.0, "b", "c", "udp", 5, 1, 0.5))
    assert codec.encode(unlabelled) == {
        **codec.encode(build_snapshot(labelled, (0.0, 300.0))), "labels": None}


def test_missing_columns_fail_hard():
    with pytest.raises(DataError, match="dst"):
        parse_flows(io.StringIO("ts,src_ip,proto,bytes,pkts,dur,label\n"))
    # A blank first line is the header.
    with pytest.raises(DataError, match="missing required columns for: ts, src"):
        parse_flows(io.StringIO(f"\n{HEADER}\n{_flow(1.0, 'a', 'b')}\n"))


def test_majority_skipped_rejects_dataset():
    with pytest.raises(DataError, match="unusable"):
        _parse(
            _flow(1.0, "a", "b"),
            "x,a,b,tcp,1000,80,100,10,2.0,0,",
            "y,a,b,tcp,1000,80,100,10,2.0,0,",
        )


def test_empty_csv_with_header_is_fine():
    records, stats = _parse()
    assert len(records) == 0 and stats.rows_total == 0


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
    assert records.protocol[0] == "other"


def test_ton_iot_column_names():
    header = "ts,src_ip,dst_ip,proto,src_bytes,dst_bytes,src_pkts,dst_pkts,duration,label,type"
    row = "5.0,a,b,udp,60,40,3,2,1.5,1,backdoor"
    records, stats = parse_flows(io.StringIO(header + "\n" + row + "\n"))
    assert len(records) == 1
    assert records.bytes[0] == 100 and records.packets[0] == 5
    assert records.duration[0] == 1.5


def test_unread_columns_are_ignored():
    # Ports are checked but not kept, and no attack type is read: the same
    # flows parse alike with and without those columns.
    # Fields {0} ts,src,dst,proto {1} bytes {2} pkts {3} dur,label {4} ports {5} type
    flows = [
        ("1.0,a,b,tcp", "100", "10", "2.0,0", "1000,80", ""),
        ("2.0,b,c,UDP", "250", "3", "0.5,1", ",502", "scanning"),
        ("soon,a,c,icmp", "1", "1", "0.1,0", "1000,80", ""),
        ("3.0,c,c,tcp", "1", "1", "0.1,0", "1000,80", ""),
        ("4.0,a,b,gre", "-5", "1", "0.1,1", "1000,80", "ddos"),
        ("5.0,c,a,icmp", "7", "2", "1.5,1", ",", "backdoor"),
    ]
    layouts = [
        ("ts,src_ip,dst_ip,proto,bytes,pkts,dur,label", "{0},{1},{2},{3}",
         HEADER, "{0},{4},{1},{2},{3},{5}"),
        (TON_HEADER.removesuffix(",type"), "{0},{1},0,{2},0,{3}",
         TON_HEADER, "{0},{1},0,{2},0,{3},{5}"),
    ]
    for header, row, header_unread, row_unread in layouts:
        without = "\n".join([header] + [row.format(*f) for f in flows]) + "\n"
        rows, stats = _outcome(_columnar_parse, without)
        assert len(rows) == 3 and stats["self_flows_dropped"] == 1
        assert stats["reasons"] == {"non-numeric ts": 1, "negative bytes": 1}
        text = "\n".join([header_unread] + [row_unread.format(*f) for f in flows]) + "\n"
        assert _outcome(_columnar_parse, text) == (rows, stats)


TRICKY_CELLS = ["", " 3 ", "nan", "inf", "-inf", "1e308", "-1e308",
                "9007199254740993", "9007199254740992", "-0.5", "-0.0", "1_0",
                "65535.9", "65536", "-1", "gre", "TCP", " udp ", "0", "1", "2.5",
                "x", '"1,0"', " ", "\t", "\u00a0", " 1\u00a0", "1\x1f"]
# Good values per column name; src and dst are drawn so self-flows occur.
GOOD_CELLS = {"ts": ["0", "1.5", "299.9", "300", "1e3"], "src_ip": ["a", "b", "c"],
              "dst_ip": ["a", "b", "c"], "proto": ["tcp", "udp", "icmp"],
              "src_port": ["1000", ""], "dst_port": ["80", "502"],
              "bytes": ["100", "0"], "pkts": ["10", "1"], "dur": ["2.0", "0.5"],
              "duration": ["1.5"], "label": ["0", "1"], "attack_type": ["", "scan"],
              "type": ["backdoor", ""], "src_bytes": ["60"], "dst_bytes": ["40"],
              "src_pkts": ["3"], "dst_pkts": ["2"]}
HEADERS = [HEADER, TON_HEADER, DUP_HEADER, "ts,src_ip,dst_ip,proto,bytes,pkts,dur,label"]


@st.composite
def _flow_csv(draw):
    names = draw(st.sampled_from(HEADERS)).split(",")
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(st.sampled_from(GOOD_CELLS[name])) for name in names]
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(TRICKY_CELLS))
        # Blank, short and long rows.
        cells = cells[:draw(st.sampled_from([len(cells)] * 6 + [0, 8, 11, 13]))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(_flow_csv(), st.sampled_from([1, 2, 3, flows_module._BLOCK_ROWS]))
def test_columnar_parse_matches_per_row_reference(text, block_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows_module, "_BLOCK_ROWS", block_rows)
        assert _outcome(_columnar_parse, text) == _outcome(_reference_parse, text)


def test_columnar_parse_matches_reference_across_a_block_boundary():
    block = flows_module._BLOCK_ROWS
    lines = [HEADER] + [_flow(float(k), f"d{k % 50}", f"d{k % 7 + 50}")
                        for k in range(2 * block + 100)]
    # Skipped rows on both sides of the first block boundary, a self-flow,
    # and two blocks that end on a blank line.
    for k in (block - 2, block - 1, block + 1, block + 2):
        lines[k] = f"{k}.0,a,b,tcp,1000,80,-5,10,2.0,0,"
    lines[block] = ""
    lines[block + 3] = _flow(1.0, "a", "a")
    lines[2 * block] = ""
    text = "\n".join(lines) + "\n"
    assert _outcome(_columnar_parse, text) == _outcome(_reference_parse, text)
    _, stats = parse_flows(io.StringIO(text))
    assert stats.rows_total == 2 * block + 98
    assert stats.reasons == {"negative bytes": 4} and stats.self_flows_dropped == 1


@settings(max_examples=200)
@given(_flow_csv(), st.sampled_from([1, 2, 3, flows_module._BLOCK_ROWS]),
       st.integers(1, 14))
def test_limited_parse_matches_per_row_reference(text, block_rows, limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows_module, "_BLOCK_ROWS", block_rows)
        assert _outcome(lambda t: _columnar_parse(t, limit), text) \
            == _outcome(lambda t: _reference_parse(t, limit), text)


def test_limited_parse_stops_at_the_limit_across_block_boundaries():
    block = flows_module._BLOCK_ROWS
    lines = [HEADER] + [_flow(float(k), f"d{k % 50}", f"d{k % 7 + 50}")
                        for k in range(2 * block + 100)]
    for k in (block - 2, block - 1, block + 1, block + 2):
        lines[k] = f"{k}.0,a,b,tcp,1000,80,-5,10,2.0,0,"
    lines[block] = ""
    # Malformed rows past the last limit tried: the full parse rejects the
    # file, no limited parse reads them.
    lines += [f"{k}.0,a,b,tcp,1000,80,-5,10,2.0,0," for k in range(3 * block)]
    text = "\n".join(lines) + "\n"
    with pytest.raises(DataError, match="unusable"):
        parse_flows(io.StringIO(text))
    full = _rows(parse_flows(io.StringIO(text), 2 * block + 95)[0])
    for limit in (1, block - 3, block - 2, block, block + 1, 2 * block + 95):
        table, stats = parse_flows(io.StringIO(text), limit)
        assert _rows(table) == full[:limit]
        assert _outcome(lambda t: _columnar_parse(t, limit), text) \
            == _outcome(lambda t: _reference_parse(t, limit), text)
        assert stats.rows_total == limit + stats.rows_skipped
    assert parse_flows(io.StringIO(text), 1)[1].rows_total == 1
    assert parse_flows(io.StringIO(text), block - 3)[1].rows_skipped == 0
    assert parse_flows(io.StringIO(text), block + 1)[1].rows_skipped == 4


def test_parse_limit_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        parse_flows(io.StringIO(HEADER + "\n"), 0)


def test_window_partition_and_alignment():
    records, _ = _parse(
        _flow(0.0, "a", "b"),
        _flow(299.999, "a", "b"),
        _flow(300.0, "a", "b"),
        _flow(650.0, "a", "b"),
    )
    buckets = window(records, 300)
    spans = [span for span, _ in buckets]
    assert spans == [(0.0, 300.0), (300.0, 600.0), (600.0, 900.0)]
    counts = [len(group) for _, group in buckets]
    assert counts == [2, 1, 1]
    for (start, end), group in buckets:
        assert all(start <= t < end for t in group.timestamp)


def test_window_of_no_flows_is_empty():
    records, _ = _parse()
    assert window(records, 300) == []


def test_build_snapshot_rejects_window_spill():
    records, _ = _parse(_flow(1.0, "a", "b"), _flow(400.0, "a", "b"))
    with pytest.raises(ValueError):
        build_snapshot(records, (0.0, 300.0))


def test_byte_conservation_through_features():
    records, _ = _parse(
        _flow(1.0, "a", "b", bytes_=150),
        _flow(2.0, "b", "c", bytes_=250),
        _flow(3.0, "c", "a", bytes_=600),
    )
    snap = build_snapshot(records, (0.0, 300.0))
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
    first = build_snapshot(records, (0.0, 300.0))
    second = build_snapshot(records[::-1], (0.0, 300.0))
    assert first.node_ids == second.node_ids
    assert np.array_equal(first.adjacency, second.adjacency)
    assert np.array_equal(first.features, second.features)
    assert np.array_equal(first.labels, second.labels)


def _flow_loop_reference(flows, window_seconds):
    """The per-flow accumulation loop, and window start, build_snapshot once ran."""
    delta = float(window_seconds)
    start = math.floor(min(f.timestamp for f in flows) / delta) * delta
    node_ids = sorted({f.src for f in flows} | {f.dst for f in flows})
    index = {d: i for i, d in enumerate(node_ids)}
    n = len(node_ids)
    bytes_sent, bytes_recv = np.zeros(n), np.zeros(n)
    pkts_sent, pkts_recv = np.zeros(n), np.zeros(n)
    touch, duration_sum, attack_touch = np.zeros(n), np.zeros(n), np.zeros(n)
    proto_touch = {p: np.zeros(n) for p in ("tcp", "udp", "icmp")}
    peers = [set() for _ in range(n)]
    adjacency = np.zeros((n, n))
    for flow in flows:
        i, j = index[flow.src], index[flow.dst]
        bytes_sent[i] += flow.bytes
        pkts_sent[i] += flow.packets
        bytes_recv[j] += flow.bytes
        pkts_recv[j] += flow.packets
        for k in (i, j):
            touch[k] += 1
            duration_sum[k] += flow.duration
            attack_touch[k] += flow.label
            if flow.protocol in proto_touch:
                proto_touch[flow.protocol][k] += 1
        peers[i].add(j)
        peers[j].add(i)
        adjacency[i, j] = adjacency[j, i] = 1.0
    features = np.column_stack([
        np.log1p(bytes_sent), np.log1p(bytes_recv),
        np.log1p(pkts_sent), np.log1p(pkts_recv), np.log1p(touch),
        proto_touch["tcp"] / touch, proto_touch["udp"] / touch,
        proto_touch["icmp"] / touch,
        np.log1p([len(p) for p in peers]), duration_sum / touch,
    ])
    labels = (attack_touch / touch > 0.5).astype(np.int64)
    return node_ids, adjacency, features, labels, (start, start + delta)


def test_build_snapshot_matches_flow_loop_reference():
    rng = np.random.default_rng(7)
    devices = [f"10.0.0.{k}" for k in range(30)]
    flows = []
    for _ in range(400):
        # Few senders, so pairs repeat and nodes mix flows in both roles.
        i = int(rng.integers(0, 8))
        j = int(rng.integers(0, 30))
        if i == j:
            continue
        timestamp = float(rng.uniform(0.0, 300.0))
        protocol = str(rng.choice(["tcp", "udp", "icmp", "other"]))
        # The table keeps no ports, but their draws fix the values after them.
        rng.integers(1024, 65536), rng.choice([22, 80, 443, 502])
        flows.append(_Row(
            timestamp=timestamp,
            src=devices[i],
            dst=devices[j],
            protocol=protocol,
            bytes=int(rng.integers(0, 10**9)),
            packets=int(rng.integers(0, 10**5)),
            duration=float(rng.exponential(3.0)),
            label=int(rng.random() < 0.4),
        ))
    assert len(flows) >= 300 and len({(f.src, f.dst) for f in flows}) < len(flows)
    node_ids, adjacency, features, labels, span = _flow_loop_reference(flows, 300)
    table = _table(flows)
    ((bounds, bucket),) = window(table, 300)
    assert _rows(bucket) == flows
    snap = build_snapshot(table, bounds)
    assert snap.node_ids == node_ids and snap.window == span
    assert np.array_equal(snap.adjacency, adjacency)
    assert np.array_equal(snap.features, features)
    assert np.array_equal(snap.labels, labels)
    assert 0 < labels.sum() < len(labels)


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


def test_window_rejects_non_positive_length():
    records, _ = _parse(_flow(1.0, "a", "b"))
    with pytest.raises(ValueError, match="window_seconds must be positive, got 0"):
        window(records, 0)


def test_unopenable_path_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read flow file"):
        parse_flows(tmp_path / "missing.csv")
    with pytest.raises(DataError, match="cannot read flow file"):
        parse_flows(str(tmp_path))  # a directory
