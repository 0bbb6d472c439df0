"""Seeded synthetic flow CSVs with planted attacker devices.

Every window holds the same device population. A fixed share of devices are
attackers, chosen by the seed; they send only attack flows and no benign
device ever sends to them, so each attacker is labelled malicious by
``build_snapshot``'s majority rule while its victims stay benign. Half of
the attackers flood (few targets, large UDP transfers) and half scan (many
distinct targets, one- or two-packet ICMP probes). Benign devices talk to a small
fixed set of peers with ordinary-sized TCP-heavy traffic.

The same ``(shape, seed, stream)`` always writes the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER = "ts,src_ip,dst_ip,proto,src_port,dst_port,bytes,pkts,dur,label,attack_type"

_PROTOS = ("tcp", "udp", "icmp")
_SERVICE_PORTS = np.array([443, 80, 502, 1883, 20000])
# The pipeline's default window length.
WINDOW_SECONDS = 300
ATTACKER_SHARE = 0.1
# Peers each benign device talks to.
_PEERS = 6
# Attackers send this many times the benign flow count per window.
_ATTACK_RATE = 3
_FLOOD_VICTIMS = 10


@dataclass(frozen=True)
class FlowShape:
    """Size of one generated CSV."""

    devices: int
    flows_per_device: int
    windows: int

    @property
    def attackers(self) -> int:
        # At least one flooder and one scanner.
        return max(2, int(round(ATTACKER_SHARE * self.devices)))


@dataclass(frozen=True)
class GroundTruth:
    """What the generator planted: attacker ids and the window count."""

    attackers: frozenset[str]
    windows: int
    rows: int


def _device_ids(n: int) -> list[str]:
    return [f"dev{i:04d}" for i in range(n)]


def write_flow_csv(path, shape: FlowShape, seed: int, stream: int) -> GroundTruth:
    """Write one flow CSV for ``shape`` and return the planted ground truth.

    ``stream`` separates CSVs made from one workload seed, so the training
    and detection inputs draw from independent generators.
    """
    rng = np.random.default_rng(np.random.SeedSequence([stream, seed]))
    ids = _device_ids(shape.devices)
    n_att = shape.attackers
    order = rng.permutation(shape.devices)
    attackers = np.sort(order[:n_att])
    benign = np.sort(order[n_att:])
    fpd = shape.flows_per_device

    # Each benign device keeps the same peers in every window.
    peers = np.empty((benign.size, _PEERS), dtype=np.int64)
    for k in range(benign.size):
        others = np.delete(benign, k)
        peers[k] = rng.choice(others, size=_PEERS, replace=False)

    columns: dict[str, list[np.ndarray]] = {c: [] for c in (
        "ts", "src", "dst", "proto", "sport", "dport", "bytes", "pkts", "dur",
        "label", "kind")}

    def emit(start, src, dst, proto, dport, nbytes, pkts, dur, label, kind):
        m = src.size
        columns["ts"].append(start + rng.random(m) * (WINDOW_SECONDS - 1e-3))
        columns["src"].append(src)
        columns["dst"].append(dst)
        columns["proto"].append(proto)
        columns["sport"].append(rng.integers(1024, 65536, size=m))
        columns["dport"].append(dport)
        columns["bytes"].append(nbytes)
        columns["pkts"].append(pkts)
        columns["dur"].append(dur)
        columns["label"].append(np.full(m, label))
        columns["kind"].append(np.full(m, kind))

    for w in range(shape.windows):
        start = float(w * WINDOW_SECONDS)
        # Benign traffic: fpd flows per device to its usual peers.
        m = benign.size * fpd
        src = np.repeat(benign, fpd)
        dst = peers[np.repeat(np.arange(benign.size), fpd),
                    rng.integers(0, _PEERS, size=m)]
        proto = rng.choice(3, size=m, p=[0.8, 0.15, 0.05])
        nbytes = np.round(rng.lognormal(7.0, 0.8, size=m)).astype(np.int64) + 40
        emit(start, src, dst, proto, rng.choice(_SERVICE_PORTS, size=m), nbytes,
             nbytes // 110 + 1, np.round(rng.exponential(0.8, size=m), 4), 0, 0)

        # Attack traffic: every attacker sends _ATTACK_RATE * fpd flows.
        per = _ATTACK_RATE * fpd
        for a_idx, att in enumerate(attackers):
            src = np.full(per, att)
            if a_idx % 2 == 0:
                # Flood: a few victims, large UDP transfers.
                victims = rng.choice(benign, size=min(_FLOOD_VICTIMS, benign.size),
                                     replace=False)
                dst = rng.choice(victims, size=per)
                nbytes = np.round(rng.lognormal(11.0, 0.4, size=per)).astype(np.int64)
                emit(start, src, dst, np.full(per, 1), np.full(per, 53), nbytes,
                     nbytes // 60 + 1, np.round(rng.exponential(0.05, size=per), 4),
                     1, 1)
            else:
                # Scan: ICMP probes to as many distinct victims as exist.
                dst = rng.choice(benign, size=per, replace=per > benign.size)
                emit(start, src, dst, np.full(per, 2), np.zeros(per, dtype=np.int64),
                     rng.integers(40, 121, size=per), rng.integers(1, 3, size=per),
                     np.round(rng.random(per) * 0.01, 4), 1, 2)

    cols = {k: np.concatenate(v) for k, v in columns.items()}
    ts = np.round(cols["ts"], 3)
    rows = np.lexsort((cols["dst"], cols["src"], ts))
    kinds = ("normal", "ddos", "scanning")
    lines = [HEADER]
    for r in rows.tolist():
        lines.append(
            f"{ts[r]:.3f},{ids[cols['src'][r]]},{ids[cols['dst'][r]]},"
            f"{_PROTOS[cols['proto'][r]]},{cols['sport'][r]},{cols['dport'][r]},"
            f"{cols['bytes'][r]},{cols['pkts'][r]},{cols['dur'][r]:.4f},"
            f"{cols['label'][r]},{kinds[cols['kind'][r]]}"
        )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return GroundTruth(attackers=frozenset(ids[i] for i in attackers.tolist()),
                       windows=shape.windows, rows=len(rows))
