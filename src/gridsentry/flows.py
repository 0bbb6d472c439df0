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
from typing import Optional

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


@dataclass(frozen=True)
class FeatureConfig:
    """Windowing settings for snapshot construction."""

    window_seconds: int = 300

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {self.window_seconds}")


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


def _get(row: dict, column) -> Optional[str]:
    value = row.get(column)
    if value is None:
        return None
    value = value.strip()
    return value if value else None


def _number(row: dict, columns, logical: str, stats: ParseStats) -> Optional[float]:
    """Numeric cell (summing column pairs); records the skip reason on failure."""
    names = columns if isinstance(columns, tuple) else (columns,)
    total = 0.0
    for name in names:
        raw = _get(row, name)
        if raw is None:
            stats.skip(f"missing {logical}")
            return None
        try:
            value = float(raw)
        except ValueError:
            stats.skip(f"non-numeric {logical}")
            return None
        if not math.isfinite(value):
            stats.skip(f"non-numeric {logical}")
            return None
        total += value
    if total < 0:
        stats.skip(f"negative {logical}")
        return None
    return total


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

        ts = _number(row, columns["ts"], "ts", stats)
        if ts is None:
            continue
        src = _get(row, columns["src"])
        if src is None:
            stats.skip("missing src")
            continue
        dst = _get(row, columns["dst"])
        if dst is None:
            stats.skip("missing dst")
            continue
        proto_raw = _get(row, columns["proto"])
        if proto_raw is None:
            stats.skip("missing proto")
            continue
        proto = proto_raw.lower()
        if proto not in PROTOCOLS:
            proto = "other"

        ports = []
        bad_port = False
        for logical in ("src_port", "dst_port"):
            if logical not in columns:
                ports.append(0)
                continue
            raw = _get(row, columns[logical])
            if raw is None:
                ports.append(0)
                continue
            try:
                port = int(float(raw))
            except (ValueError, OverflowError):  # not a number, NaN or infinite
                stats.skip(f"non-numeric {logical}")
                bad_port = True
                break
            if not 0 <= port <= 65535:
                stats.skip(f"invalid {logical}")
                bad_port = True
                break
            ports.append(port)
        if bad_port:
            continue

        nbytes = _number(row, columns["bytes"], "bytes", stats)
        if nbytes is None:
            continue
        pkts = _number(row, columns["pkts"], "pkts", stats)
        if pkts is None:
            continue
        dur = _number(row, columns["dur"], "dur", stats)
        if dur is None:
            continue

        label_raw = _get(row, columns["label"])
        if label_raw is None:
            stats.skip("missing label")
            continue
        try:
            label_val = float(label_raw)
        except ValueError:
            stats.skip("non-numeric label")
            continue
        if label_val not in (0.0, 1.0):
            stats.skip("invalid label")
            continue

        attack_type = ""
        if "type" in columns:
            attack_type = _get(row, columns["type"]) or ""

        if src == dst:
            stats.self_flows_dropped += 1
            continue

        records.append(
            FlowRecord(
                timestamp=ts,
                src=src,
                dst=dst,
                protocol=proto,
                src_port=ports[0],
                dst_port=ports[1],
                bytes=int(nbytes),
                packets=int(pkts),
                duration=dur,
                label=int(label_val),
                attack_type=attack_type,
            )
        )

    if stats.rows_total and stats.rows_skipped / stats.rows_total > 0.5:
        raise DataError(
            f"dataset unusable: {stats.rows_skipped} of {stats.rows_total} rows skipped"
        )
    return records, stats


def window(
    flows: list[FlowRecord], cfg: FeatureConfig
) -> list[tuple[tuple[float, float], list[FlowRecord]]]:
    """Bucket flows into half-open windows [k*delta, (k+1)*delta), sorted by start.

    Window boundaries are aligned to multiples of the window length, so the
    first window starts at floor(min_ts / delta) * delta. Empty windows are
    omitted.
    """
    if not flows:
        raise ValueError("window needs at least one flow")
    delta = float(cfg.window_seconds)
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


def build_snapshot(flows: list[FlowRecord], cfg: FeatureConfig) -> GraphSnapshot:
    """Aggregate one window of flows into a device-level graph snapshot.

    Node order is the lexicographic sort of device identifiers, which makes
    the construction independent of flow order. A device is labeled malicious
    when more than half of the flows touching it are attack flows.
    """
    if not flows:
        raise ValueError("build_snapshot needs at least one flow")
    delta = float(cfg.window_seconds)
    start = math.floor(min(f.timestamp for f in flows) / delta) * delta
    end = start + delta
    for flow in flows:
        if not (start <= flow.timestamp < end):
            raise ValueError(
                f"flow at t={flow.timestamp} falls outside window [{start}, {end})"
            )

    node_ids = sorted({f.src for f in flows} | {f.dst for f in flows})
    index = {d: i for i, d in enumerate(node_ids)}
    n = len(node_ids)

    bytes_sent = np.zeros(n)
    bytes_recv = np.zeros(n)
    pkts_sent = np.zeros(n)
    pkts_recv = np.zeros(n)
    touch = np.zeros(n)
    proto_touch = {p: np.zeros(n) for p in ("tcp", "udp", "icmp")}
    duration_sum = np.zeros(n)
    attack_touch = np.zeros(n)
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

    # Every node comes from some flow, so touch >= 1 throughout.
    features = np.column_stack(
        [
            np.log1p(bytes_sent),
            np.log1p(bytes_recv),
            np.log1p(pkts_sent),
            np.log1p(pkts_recv),
            np.log1p(touch),
            proto_touch["tcp"] / touch,
            proto_touch["udp"] / touch,
            proto_touch["icmp"] / touch,
            np.log1p([len(p) for p in peers]),
            duration_sum / touch,
        ]
    )

    labels = (attack_touch / touch > 0.5).astype(np.int64)
    return GraphSnapshot(
        node_ids=node_ids,
        adjacency=adjacency,
        features=features,
        labels=labels,
        window=(start, end),
        feature_names=list(FEATURE_NAMES),
    )
