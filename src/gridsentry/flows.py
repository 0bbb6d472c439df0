"""Flow-record ingestion: CSV parsing, time windowing, graph construction.

Input CSVs carry one network flow per row. Columns are resolved by name
against a documented mapping; the generic names come first and the ToN_IoT
network-flow names are accepted as fallbacks:

======== =================== ==========================
logical  generic column      ToN_IoT column(s)
======== =================== ==========================
ts       ts                  ts
src      src_ip              src_ip
dst      dst_ip              dst_ip
proto    proto               proto
src_port src_port            src_port
dst_port dst_port            dst_port
bytes    bytes               src_bytes + dst_bytes
pkts     pkts                src_pkts + dst_pkts
dur      dur                 duration
label    label               label
type     attack_type         type
======== =================== ==========================

Ports and attack type are optional; everything else must be present or
parsing fails hard listing the missing logical fields. Malformed rows are
skipped and counted per reason; if more than half of the data rows are
skipped the dataset is rejected as unusable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .graphs import GraphSnapshot

PROTOCOLS = ("tcp", "udp", "icmp", "other")

# Per-device feature layout, in column order.
FEATURE_NAMES = [
    "bytes_sent_log1p",
    "bytes_recv_log1p",
    "pkts_sent_log1p",
    "pkts_recv_log1p",
    "flow_count_log1p",
    "frac_tcp",
    "frac_udp",
    "frac_icmp",
    "peers_log1p",
    "mean_duration",
]

_ALIASES = {
    "ts": ("ts",),
    "src": ("src_ip",),
    "dst": ("dst_ip",),
    "proto": ("proto",),
    "src_port": ("src_port",),
    "dst_port": ("dst_port",),
    "dur": ("dur", "duration"),
    "label": ("label",),
    "type": ("attack_type", "type"),
}
# bytes and pkts accept a single generic column or a ToN_IoT sent/received pair.
_PAIRED = {"bytes": ("bytes", ("src_bytes", "dst_bytes")),
           "pkts": ("pkts", ("src_pkts", "dst_pkts"))}
_REQUIRED = ("ts", "src", "dst", "proto", "bytes", "pkts", "dur", "label")
_MAX_EXACT = 2.0**53


@dataclass(frozen=True)
class FlowRecord:
    """One parsed network flow between two devices."""

    timestamp: float
    src: str
    dst: str
    protocol: str
    src_port: int
    dst_port: int
    bytes: int
    packets: int
    duration: float
    label: int
    attack_type: str = ""


@dataclass
class ParseStats:
    rows_total: int = 0
    rows_skipped: int = 0
    self_flows_dropped: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.rows_skipped += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "rows_total": self.rows_total,
            "rows_skipped": self.rows_skipped,
            "self_flows_dropped": self.self_flows_dropped,
            "reasons": dict(sorted(self.reasons.items())),
        }


def _resolve_columns(fieldnames) -> dict:
    """Map logical field -> source column (or column pair). Raises on gaps."""
    present = set(fieldnames or ())
    resolved: dict[str, object] = {}
    for logical, names in _ALIASES.items():
        for name in names:
            if name in present:
                resolved[logical] = name
                break
    for logical, (single, pair) in _PAIRED.items():
        if single in present:
            resolved[logical] = single
        elif all(p in present for p in pair):
            resolved[logical] = pair
    missing = [f for f in _REQUIRED if f not in resolved]
    if missing:
        raise DataError(
            "input CSV is missing required columns for: " + ", ".join(missing)
        )
    return resolved


class _Skip(Exception):
    """A malformed row; the message is the reason it is counted under."""


def _cell(row: dict, column) -> str:
    """Stripped cell text; empty for an absent column, short row or blank cell."""
    value = row.get(column) if column is not None else None
    return value.strip() if value else ""


def _text(row: dict, column, logical: str) -> str:
    value = _cell(row, column)
    if not value:
        raise _Skip(f"missing {logical}")
    return value


def _number(row: dict, columns, logical: str) -> float:
    """Non-negative numeric field, summing a ToN_IoT column pair.

    A value or total above 2**53, the largest integer a float64 holds
    exactly, is skipped as invalid: no real count or timestamp is that
    large, and per-node sums of smaller values cannot overflow.
    """
    total = 0.0
    for name in columns if isinstance(columns, tuple) else (columns,):
        try:
            value = float(_text(row, name, logical))
        except ValueError:
            raise _Skip(f"non-numeric {logical}") from None
        if not math.isfinite(value):
            raise _Skip(f"non-numeric {logical}")
        if value > _MAX_EXACT:
            raise _Skip(f"invalid {logical}")
        total += value
    if total < 0:
        raise _Skip(f"negative {logical}")
    if total > _MAX_EXACT:
        raise _Skip(f"invalid {logical}")
    return total


def _port(row: dict, column, logical: str) -> int:
    """Port number; an absent column or empty cell reads 0."""
    text = _cell(row, column)
    if not text:
        return 0
    try:
        port = int(float(text))
    except (ValueError, OverflowError):  # not a number, NaN or infinite
        raise _Skip(f"non-numeric {logical}") from None
    if not 0 <= port <= 65535:
        raise _Skip(f"invalid {logical}")
    return port


def _label(row: dict, column) -> int:
    text = _text(row, column, "label")
    try:
        value = float(text)
    except ValueError:
        raise _Skip("non-numeric label") from None
    if value not in (0.0, 1.0):
        raise _Skip("invalid label")
    return int(value)


def parse_flows(source) -> tuple[list[FlowRecord], ParseStats]:
    """Parse a CSV path or stream into flow records plus parse statistics.

    Self-flows (src == dst) are dropped and counted separately from skips.
    A path that cannot be opened, and input that is not UTF-8 text or not
    readable as CSV, raise DataError.
    """
    if isinstance(source, (str, Path)):
        try:
            handle = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot read flow file {source}: {exc}") from exc
        with handle:
            return parse_flows(handle)
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    try:
        return _parse_rows(csv.DictReader(source))
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"input is not readable as CSV: {exc}") from exc


def _parse_rows(reader: csv.DictReader) -> tuple[list[FlowRecord], ParseStats]:
    columns = _resolve_columns(reader.fieldnames)
    stats = ParseStats()
    records: list[FlowRecord] = []

    for row in reader:
        stats.rows_total += 1
        try:
            ts = _number(row, columns["ts"], "ts")
            src = _text(row, columns["src"], "src")
            dst = _text(row, columns["dst"], "dst")
            proto = _text(row, columns["proto"], "proto").lower()
            src_port = _port(row, columns.get("src_port"), "src_port")
            dst_port = _port(row, columns.get("dst_port"), "dst_port")
            nbytes = _number(row, columns["bytes"], "bytes")
            pkts = _number(row, columns["pkts"], "pkts")
            dur = _number(row, columns["dur"], "dur")
            label = _label(row, columns["label"])
        except _Skip as skip:
            stats.skip(str(skip))
            continue
        if src == dst:
            stats.self_flows_dropped += 1
            continue
        records.append(
            FlowRecord(
                timestamp=ts,
                src=src,
                dst=dst,
                protocol=proto if proto in PROTOCOLS else "other",
                src_port=src_port,
                dst_port=dst_port,
                bytes=int(nbytes),
                packets=int(pkts),
                duration=dur,
                label=label,
                attack_type=_cell(row, columns.get("type")),
            )
        )

    if stats.rows_total and stats.rows_skipped / stats.rows_total > 0.5:
        raise DataError(
            f"dataset unusable: {stats.rows_skipped} of {stats.rows_total} rows skipped"
        )
    return records, stats


def window(
    flows: list[FlowRecord], window_seconds: float
) -> list[tuple[tuple[float, float], list[FlowRecord]]]:
    """Bucket flows into half-open windows [k*delta, (k+1)*delta), sorted by start.

    Window boundaries are aligned to multiples of the window length, so the
    first window starts at floor(min_ts / delta) * delta. Empty windows are
    omitted, so no flows give no windows.
    """
    if window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    delta = float(window_seconds)
    buckets: dict[int, list[FlowRecord]] = {}
    for flow in flows:
        buckets.setdefault(int(math.floor(flow.timestamp / delta)), []).append(flow)
    return [
        ((k * delta, (k + 1) * delta), buckets[k]) for k in sorted(buckets)
    ]


def compute_zscore_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation; constant columns get std 1."""
    feats = np.asarray(features, dtype=np.float64)
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def apply_zscore(features: np.ndarray, stats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    mean, std = stats
    return (np.asarray(features, dtype=np.float64) - mean) / std


def build_snapshot(flows: list[FlowRecord],
                   bounds: tuple[float, float]) -> GraphSnapshot:
    """Aggregate flows into a device-level graph snapshot of window ``bounds``.

    ``bounds`` is a ``(start, end)`` from :func:`window`, or a span of its
    windows, and every flow must fall inside it. Node order is the lexicographic sort of device identifiers, which makes
    the construction independent of flow order. A device is labeled malicious
    when more than half of the flows touching it are attack flows.
    """
    if not flows:
        raise ValueError("build_snapshot needs at least one flow")
    start, end = bounds
    for flow in flows:
        if not (start <= flow.timestamp < end):
            raise ValueError(
                f"flow at t={flow.timestamp} falls outside window [{start}, {end})"
            )

    node_ids = sorted({f.src for f in flows} | {f.dst for f in flows})
    index = {d: i for i, d in enumerate(node_ids)}
    n = len(node_ids)
    src = np.array([index[f.src] for f in flows], dtype=np.intp)
    dst = np.array([index[f.dst] for f in flows], dtype=np.intp)
    # Both endpoints of every flow, in flow order: each node adds its terms in
    # the order of the flows, so float sums do not depend on the method.
    ends = np.column_stack([src, dst]).ravel()

    def per_node(nodes, weights=None):
        return np.bincount(nodes, weights, minlength=n)

    def per_end(values):
        return per_node(ends, np.repeat(values, 2))

    nbytes = np.array([f.bytes for f in flows], dtype=np.float64)
    pkts = np.array([f.packets for f in flows], dtype=np.float64)
    protocols = np.array([f.protocol for f in flows])
    adjacency = np.zeros((n, n))
    adjacency[src, dst] = adjacency[dst, src] = 1.0

    # Every node comes from some flow, so touch >= 1 throughout.
    touch = per_node(ends)
    features = np.column_stack(
        [
            np.log1p(per_node(src, nbytes)),
            np.log1p(per_node(dst, nbytes)),
            np.log1p(per_node(src, pkts)),
            np.log1p(per_node(dst, pkts)),
            np.log1p(touch),
            *(per_end(protocols == p) / touch for p in ("tcp", "udp", "icmp")),
            np.log1p(adjacency.sum(axis=1)),
            per_end([f.duration for f in flows]) / touch,
        ]
    )

    labels = (per_end([f.label for f in flows]) / touch > 0.5).astype(np.int64)
    return GraphSnapshot(
        node_ids=node_ids,
        adjacency=adjacency,
        features=features,
        labels=labels,
        window=(start, end),
        feature_names=FEATURE_NAMES,
    )
