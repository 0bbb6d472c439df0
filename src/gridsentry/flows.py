"""Flow ingestion: CSV parsing, time windowing, graph construction.

Parsed flows live in one columnar :class:`FlowTable`, which :func:`window`
splits and :func:`build_snapshot` aggregates without a per-flow object.

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
======== =================== ==========================

Ports are optional, and they are checked but not kept. The label is
optional too: detection never reads it, while training and the CSV grid
fail without it (``experiments.load_merged_snapshot``). Everything else
must be present or parsing fails hard listing the missing logical fields.
Any other column, an attack type among them, is ignored. Malformed rows are
skipped and counted under the first field, in table order, that fails; if
more than half of the data rows are skipped the dataset is rejected as
unusable.
"""

from __future__ import annotations

import copy
import csv
import io
import sys
from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
from .graphs import GraphSnapshot
from .numerics import _check_dense_side

PROTOCOLS = ("tcp", "udp", "icmp", "other")
_PROTOCOL_NAMES = {p: p for p in PROTOCOLS}

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
}
# bytes and pkts accept a single generic column or a ToN_IoT sent/received pair.
_PAIRED = {"bytes": ("bytes", ("src_bytes", "dst_bytes")),
           "pkts": ("pkts", ("src_pkts", "dst_pkts"))}
_REQUIRED = ("ts", "src", "dst", "proto", "bytes", "pkts", "dur")
_MAX_EXACT = 2.0**53
# Rows read and checked together: enough to make the per-column work cheap,
# few enough that a block's cell strings take little memory. Blocks of 1,024
# or 4,096 rows parsed no faster on the benchmark and left the grid's peak
# RSS about 1 MB higher.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class FlowTable:
    """Parsed network flows between devices, as equal-length columns.

    The columns are the fields :func:`build_snapshot` reads; parsing checks
    the ports but does not keep them. ``label`` is None when the CSV has no
    label column. Row ``i`` of every column is one flow.
    ``table[idx]`` selects rows by a slice, an index array or a boolean mask.
    """

    timestamp: np.ndarray  # float64
    src: np.ndarray        # str objects
    dst: np.ndarray        # str objects
    protocol: np.ndarray   # str objects, one of PROTOCOLS
    bytes: np.ndarray      # int64
    packets: np.ndarray    # int64
    duration: np.ndarray   # float64
    label: Optional[np.ndarray] = None  # int64, 0 or 1

    def __post_init__(self):
        if len({len(column) for column in self._columns().values()}) > 1:
            raise ValueError("FlowTable columns differ in length")

    def _columns(self) -> dict[str, np.ndarray]:
        """The columns present: every field but an absent ``label``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, rows) -> "FlowTable":
        return FlowTable(**{name: column[rows]
                            for name, column in self._columns().items()})

    @classmethod
    def concat(cls, tables: list["FlowTable"]) -> "FlowTable":
        """The rows of ``tables``, in order; ``tables`` must not be empty,
        and all must have a label column or none."""
        return cls(**{name: np.concatenate([getattr(t, name) for t in tables])
                      for name in tables[0]._columns()})


@dataclass
class ParseStats:
    rows_total: int = 0
    rows_skipped: int = 0
    self_flows_dropped: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str, count: int) -> None:
        self.rows_skipped += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count


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


def parse_flows(source, limit: Optional[int] = None) -> tuple[FlowTable, ParseStats]:
    """Parse a CSV path or stream into a flow table plus parse statistics.

    Self-flows (src == dst) are dropped and counted separately from skips.
    With a ``limit``, reading stops at the row that brings the ``limit``-th
    kept flow: the table is the first ``limit`` flows of the whole parse,
    and the statistics, the more-than-half-skipped rule included, cover only
    the rows read. A path that cannot be opened, and input that is not UTF-8
    text or not readable as CSV, raise DataError.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if isinstance(source, (str, Path)):
        try:
            handle = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot read flow file {source}: {exc}") from exc
        with handle:
            return parse_flows(handle, limit)
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    try:
        return _parse_rows(csv.reader(source), limit)
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"input is not readable as CSV: {exc}") from exc


def _parse_rows(reader, limit: Optional[int]) -> tuple[FlowTable, ParseStats]:
    """Read the header line, then the rows in blocks of ``_BLOCK_ROWS``.

    The first line is the header even when it is blank. A name given to two
    columns means the last of them. Blank lines are not rows; a short row
    reads "" past its end. A block that reaches ``limit`` before its last
    row is parsed again up to the row that brings the ``limit``-th kept flow.
    """
    header = next(reader, None)
    columns = _resolve_columns(header)
    used = {name for names in columns.values()
            for name in (names if isinstance(names, tuple) else (names,))}
    position = {name: k for k, name in enumerate(header) if name in used}
    width = max(position.values()) + 1
    stats = ParseStats()
    blocks = []
    kept = 0
    while True:
        read = list(islice(reader, _BLOCK_ROWS))
        rows = read
        if min(map(len, rows), default=width) < width:
            rows = [row + [""] * (width - len(row)) for row in rows if row]
        before = copy.deepcopy(stats) if limit is not None else None
        block, keep = _parse_block(rows, columns, position, stats)
        if limit is not None and kept + len(block) >= limit:
            cut = int(np.flatnonzero(keep)[limit - kept - 1]) + 1
            if cut < len(rows):
                stats = before
                block, _ = _parse_block(rows[:cut], columns, position, stats)
        blocks.append(block)
        kept += len(block)
        if len(read) < _BLOCK_ROWS or kept == limit:
            break
    if stats.rows_total and stats.rows_skipped / stats.rows_total > 0.5:
        raise DataError(
            f"dataset unusable: {stats.rows_skipped} of {stats.rows_total} rows skipped"
        )
    return FlowTable.concat(blocks), stats


def _floats(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``float()`` of every stripped cell: the values, with NaN where it
    raised, and masks of the cells that are empty once stripped and of the
    cells it raised on.

    ``float()`` strips whitespace itself, so a block whose cells all convert
    unstripped is not stripped at all. It does not strip the separators
    U+001C to U+001F that ``str.strip`` does, so a cell it rejects is
    converted again stripped.
    """
    n = len(cells)
    try:
        values = np.fromiter(map(float, cells), np.float64, n)
        return values, np.zeros(n, bool), np.zeros(n, bool)
    except ValueError:  # some cell is not a number: find which
        pass
    values = np.full(n, np.nan)
    empty, failed = np.zeros(n, bool), np.zeros(n, bool)
    for k, cell in enumerate(cells):
        cell = cell.strip()
        try:
            values[k] = float(cell)
        except ValueError:
            failed[k] = True
            empty[k] = not cell
    return values, empty, failed


def _parse_block(rows: list[list[str]], columns: dict, position: dict,
                 stats: ParseStats) -> tuple[FlowTable, np.ndarray]:
    """Check and convert one block of rows; the kept flows become a table.

    Returns the table and the mask of the rows kept. Every row must reach
    the last column read.

    A row is skipped under the first rule it breaks, in the order of the
    fields ts, src, dst, proto, src_port, dst_port, bytes, pkts, dur, label.
    Ports are checked but not kept; a label is checked and kept when the
    CSV has the column. Each rule is a mask over the block:
    ``reject`` counts the rows it is the first to catch. A masked-out row's
    value is replaced before any cast or sum, so a rejected cell never
    reaches the arithmetic.
    """
    n = len(rows)
    stats.rows_total += n
    cells_by_column = list(zip(*rows)) or [()] * (max(position.values()) + 1)
    ok = np.ones(n, bool)

    def cells(name) -> tuple[str, ...]:
        """The column's cells as read; ``_floats`` strips only where needed."""
        return cells_by_column[position[name]]

    def reject(reason: str, mask: np.ndarray) -> None:
        hit = mask & ok
        count = int(np.count_nonzero(hit))
        if count:
            stats.skip(reason, count)
            ok[hit] = False

    def text(logical: str, convert=sys.intern) -> np.ndarray:
        stripped = map(str.strip, cells(columns[logical]))
        values = np.array(list(map(convert, stripped)), dtype=object)
        reject(f"missing {logical}", values == "")
        return values

    def number(logical: str) -> np.ndarray:
        """A non-negative value, or the sum of a ToN_IoT column pair.

        A value or total above 2**53, the largest integer a float64 holds
        exactly, is invalid: no real count or timestamp is that large, and
        per-node sums of smaller values cannot overflow.
        """
        names = columns[logical]
        total = 0.0  # so -0.0 reads 0.0
        for name in names if isinstance(names, tuple) else (names,):
            values, empty, _ = _floats(cells(name))
            reject(f"missing {logical}", empty)
            reject(f"non-numeric {logical}", ~np.isfinite(values))
            reject(f"invalid {logical}", values > _MAX_EXACT)
            # A cell far below zero makes any total negative; clipping it
            # keeps the sum of two such cells from overflowing.
            total = total + np.where(ok, np.maximum(values, -2 * _MAX_EXACT), 0.0)
        reject(f"negative {logical}", total < 0)
        reject(f"invalid {logical}", total > _MAX_EXACT)
        return total

    def port(logical: str) -> None:
        """Check a port; an absent column or empty cell passes."""
        if logical not in columns:
            return
        values, empty, _ = _floats(cells(columns[logical]))
        values[empty] = 0.0
        reject(f"non-numeric {logical}", ~np.isfinite(values))
        # A port is its value truncated toward zero, so (-1, 65536) holds
        # the ports 0..65535.
        reject(f"invalid {logical}", ~((values > -1) & (values < 65536)))

    ts = number("ts")
    src = text("src")
    dst = text("dst")
    protocol = text("proto", str.lower)
    port("src_port")
    port("dst_port")
    nbytes = number("bytes")
    pkts = number("pkts")
    dur = number("dur")
    label = None
    if "label" in columns:
        label, empty, failed = _floats(cells(columns["label"]))
        reject("missing label", empty)
        reject("non-numeric label", failed)
        reject("invalid label", (label != 0) & (label != 1))

    self_flow = ok & (src == dst)
    stats.self_flows_dropped += int(np.count_nonzero(self_flow))
    keep = ok & ~self_flow
    return FlowTable(
        timestamp=ts[keep],
        src=src[keep],
        dst=dst[keep],
        protocol=np.array(list(map(_PROTOCOL_NAMES.get, protocol[keep],
                                   repeat("other"))), dtype=object),
        bytes=nbytes[keep].astype(np.int64),
        packets=pkts[keep].astype(np.int64),
        duration=dur[keep],
        label=None if label is None else (label[keep] == 1).astype(np.int64),
    ), keep


def window(flows: FlowTable,
           window_seconds: float) -> list[tuple[tuple[float, float], FlowTable]]:
    """Bucket flows into half-open windows [k*delta, (k+1)*delta), sorted by start.

    Window boundaries are aligned to multiples of the window length, so the
    first window starts at floor(min_ts / delta) * delta. Flows keep their
    order within a window. Empty windows are omitted, so no flows give no
    windows.
    """
    if window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    if not len(flows):
        return []
    delta = float(window_seconds)
    keys = np.floor(flows.timestamp / delta)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return [((k * delta, (k + 1) * delta), flows[rows])
            for k, rows in zip(map(int, keys[starts].tolist()),
                               np.split(order, starts[1:]))]


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


def build_snapshot(flows: FlowTable,
                   bounds: tuple[float, float]) -> GraphSnapshot:
    """Aggregate flows into a device-level graph snapshot of window ``bounds``.

    ``bounds`` is a ``(start, end)`` from :func:`window`, or a span of its
    windows, and every flow must fall inside it. Node order is the
    lexicographic sort of device identifiers, which makes the construction
    independent of flow order. A device is labeled malicious when more than
    half of the flows touching it are attack flows; flows without labels
    give a snapshot without labels. More devices than the dense ceiling of
    ``numerics`` raise ValueError before the adjacency is allocated.
    """
    if not len(flows):
        raise ValueError("build_snapshot needs at least one flow")
    start, end = bounds
    outside = (flows.timestamp < start) | (flows.timestamp >= end)
    if outside.any():
        first = float(flows.timestamp[np.argmax(outside)])
        raise ValueError(
            f"flow at t={first} falls outside window [{start}, {end})"
        )

    # Both endpoints of every flow, in flow order: each node adds its terms in
    # the order of the flows, so float sums do not depend on the method.
    endpoints = np.column_stack([flows.src, flows.dst]).ravel().tolist()
    node_ids = sorted(set(endpoints))
    index = {d: i for i, d in enumerate(node_ids)}
    n = len(node_ids)
    _check_dense_side(n, "device graph")
    ends = np.fromiter(map(index.__getitem__, endpoints), np.intp, len(endpoints))
    src, dst = ends[0::2], ends[1::2]

    def per_node(nodes, weights=None):
        return np.bincount(nodes, weights, minlength=n)

    def per_end(values):
        return per_node(ends, np.repeat(values, 2))

    nbytes = flows.bytes.astype(np.float64)
    pkts = flows.packets.astype(np.float64)
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
            *(per_end(flows.protocol == p) / touch for p in ("tcp", "udp", "icmp")),
            np.log1p(adjacency.sum(axis=1)),
            per_end(flows.duration) / touch,
        ]
    )

    labels = None
    if flows.label is not None:
        labels = (per_end(flows.label) / touch > 0.5).astype(np.int64)
    return GraphSnapshot(
        node_ids=node_ids,
        adjacency=adjacency,
        features=features,
        labels=labels,
        window=(start, end),
        feature_names=FEATURE_NAMES,
    )
