"""The benchmark's workloads: seeded inputs, timed rounds and output checks.

A round is one ``train_pipeline`` on a seeded 200-device training CSV
followed by the workload's path: the pinned robustness grid for ``grid``,
``run_pipeline`` over a seeded window CSV for the detect workloads. Rounds
repeat until the time budget is spent, and always at least twice, so every
run can check that a repeat gives byte-identical outputs.

The paths are called through their module bindings (``pipeline.run_pipeline``,
not a name imported from it), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from flowgen import FlowShape, GroundTruth, write_flow_csv
from gridsentry import experiments, pipeline
from gridsentry.errors import DataError, NumericError
from gridsentry.experiments import ExperimentConfig
from gridsentry.graphs import SbmSpec
from gridsentry.pipeline import PipelineConfig

# Generator streams of one workload seed.
DETECT_STREAM = 0
TRAIN_STREAM = 1
MIN_ROUNDS = 2
# Stop starting rounds once the next one could end past this, whatever the
# requested budget, so a run ends well inside its time limit.
HARD_BUDGET_S = 140.0
GSL_MODELS = ("GSL-GCN", "GSL-GraphSAGE")
GRID_RATE = 0.5
# Errors the package raises for bad input or a numeric failure; an operation
# that raises one counts as failed and the run goes on.
PACKAGE_ERRORS = (DataError, NumericError, ValueError)


@dataclass(frozen=True)
class Workload:
    name: str
    # None for the grid, which generates its own graphs.
    detect: Optional[FlowShape] = None


# The training CSV has the detect workload's flows per device, so training
# and detection features are on one scale.
TRAIN_SHAPE = FlowShape(devices=200, flows_per_device=10, windows=1)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("grid"),
        Workload("detect-wide", detect=FlowShape(devices=400, flows_per_device=10, windows=4)),
    )
}


@dataclass
class Round:
    train_s: float = 0.0
    run_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    traced: bool = False


@dataclass
class Outcome:
    rounds: list[Round] = field(default_factory=list)
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    rows: int = 0
    windows: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    def fastest(self, attr: str, traced: Optional[bool] = None) -> float:
        """The shortest of the rounds' times: the one least slowed by other load."""
        values = [getattr(r, attr) for r in self.rounds
                  if traced is None or r.traced == traced]
        return min(values) if values else 0.0


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


class Runner:
    """Runs rounds of one workload in a scratch directory and checks them."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.outcome = Outcome()
        self.train_csv = work / "train.csv"
        write_flow_csv(self.train_csv, TRAIN_SHAPE, seed, TRAIN_STREAM)
        self.truth: Optional[GroundTruth] = None
        if workload.detect is not None:
            self.detect_csv = work / "detect.csv"
            self.truth = write_flow_csv(self.detect_csv, workload.detect, seed,
                                        DETECT_STREAM)
            self.outcome.rows = self.truth.rows
            self.outcome.windows = self.truth.windows
        # Outputs of the first round; later rounds must repeat them.
        self._bundle: Optional[bytes] = None
        self._first_round: Optional[dict] = None

    def run(self, seconds: float, tracer=None) -> Outcome:
        """Run rounds for ``seconds``; with a tracer, every second round is traced.

        Traced and untraced rounds alternate, starting untraced, so the
        tracing overhead is measured on rounds spread over the same stretch
        of time.
        """
        start = time.perf_counter()
        budget = min(float(seconds), HARD_BUDGET_S)
        while True:
            k = len(self.outcome.rounds)
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            try:
                self.outcome.rounds.append(self._round(k, traced))
            finally:
                if traced:
                    tracer.uninstall()
            elapsed = time.perf_counter() - start
            if k + 1 >= MIN_ROUNDS and elapsed + elapsed / (k + 1) > budget:
                return self.outcome

    def _round(self, k: int, traced: bool) -> Round:
        out = self.work / f"round{k}"
        rnd = Round(traced=traced, attempted=1)
        t0 = time.perf_counter()
        try:
            bundle, _ = pipeline.train_pipeline(self.train_csv, PipelineConfig(), out)
        except PACKAGE_ERRORS as exc:
            self.outcome.notes.append(f"round {k}: train_pipeline failed: {exc}")
            rnd.failed = 1
            bundle = None
        rnd.train_s = time.perf_counter() - t0
        if bundle is not None:
            rnd.failed += self._check_bundle(k, (out / "bundle.json").read_bytes())
        if self.workload.detect is None:
            self._grid_path(k, rnd)
        else:
            self._detect_path(k, rnd, out, bundle)
        return rnd

    def _check_bundle(self, k: int, data: bytes) -> int:
        if self._bundle is None:
            self._bundle = data
        elif data != self._bundle:
            self.outcome.notes.append(f"round {k}: bundle.json differs from round 0")
            return 1
        return 0

    # -- grid ---------------------------------------------------------------

    def _grid_path(self, k: int, rnd: Round) -> None:
        cfg = ExperimentConfig(sbm=SbmSpec(), runs=1, base_seed=self.seed)
        cells = len(cfg.models) * len(cfg.rates)
        rnd.attempted += cells
        t0 = time.perf_counter()
        try:
            report = experiments.run_experiment(cfg).report
        except PACKAGE_ERRORS as exc:
            rnd.run_s = time.perf_counter() - t0
            self.outcome.notes.append(f"round {k}: run_experiment failed: {exc}")
            rnd.failed += cells
            return
        rnd.run_s = time.perf_counter() - t0
        doc = json.loads(experiments.report_to_json(report))
        units = {(c["model"], c["rate"]): json.dumps(c, sort_keys=True)
                 for c in doc.pop("cells")}
        bad = {key for key in _cells(cfg)
               if key not in units or not _cell_ok(json.loads(units[key]))}
        if bad:
            self.outcome.notes.append(f"round {k}: {len(bad)} invalid or missing cell(s)")
        # The rest of report.json has to repeat too; a difference there fails
        # one operation.
        units["report"] = json.dumps(doc, sort_keys=True)
        first = self._first_round is None
        changed = self._changed(k, units, "report.json")
        if first:
            self._grid_quality(report)
        rnd.failed += min(cells, len(bad | changed))

    def _changed(self, k: int, units: dict, what: str) -> set:
        """Units of this round's output that differ from the first round's."""
        if self._first_round is None:
            self._first_round = units
            return set()
        changed = {u for u in set(units) | set(self._first_round)
                   if units.get(u) != self._first_round.get(u)}
        if changed:
            self.outcome.notes.append(
                f"round {k}: {what} differs from round 0 in {len(changed)} part(s)")
        return changed

    def _grid_quality(self, report) -> None:
        cells = [report.cell(m, GRID_RATE).mean for m in GSL_MODELS]
        self.outcome.precision = statistics.fmean(c.precision for c in cells)
        self.outcome.recall = statistics.fmean(c.recall for c in cells)
        self.outcome.f1 = statistics.fmean(c.f1 for c in cells)

    # -- detect -------------------------------------------------------------

    def _detect_path(self, k: int, rnd: Round, out: Path, bundle) -> None:
        windows = self.truth.windows
        rnd.attempted += windows
        if bundle is None:
            rnd.failed += windows
            return
        alerts_path = out / "alerts.jsonl"
        t0 = time.perf_counter()
        try:
            summary = pipeline.run_pipeline(self.detect_csv, out / "bundle.json",
                                            alerts_path, diag=io.StringIO())
        except PACKAGE_ERRORS as exc:
            rnd.run_s = time.perf_counter() - t0
            self.outcome.notes.append(f"round {k}: run_pipeline failed: {exc}")
            rnd.failed += windows
            return
        rnd.run_s = time.perf_counter() - t0

        done = summary["windows_processed"] + summary["windows_failed"]
        failed = summary["windows_failed"] + abs(windows - done)
        if done != windows:
            self.outcome.notes.append(
                f"round {k}: {done} windows processed or failed, {windows} generated")
        by_window, bad = _check_alerts(alerts_path.read_text(encoding="utf-8"),
                                       bundle.score_threshold)
        if bad:
            self.outcome.notes.append(f"round {k}: {len(bad)} window(s) with bad alerts")
        first = self._first_round is None
        changed = self._changed(k, by_window, "the alert JSONL")
        if first:
            self._detect_quality(by_window)
        rnd.failed += min(windows, failed + len(bad | changed))

    def _detect_quality(self, by_window: dict) -> None:
        attackers = self.truth.attackers
        alerted = [json.loads(line)["device_id"]
                   for lines in by_window.values() for line in lines]
        hits = sum(1 for d in alerted if d in attackers)
        self.outcome.precision = hits / len(alerted) if alerted else 0.0
        self.outcome.recall = hits / (len(attackers) * self.truth.windows)
        self.outcome.f1 = _f1(self.outcome.precision, self.outcome.recall)


def _cells(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    return [(m, r) for m in cfg.models for r in cfg.rates]


def _cell_ok(cell: dict) -> bool:
    values = [v for run in cell["runs"] for v in run.values()]
    return len(cell["runs"]) == 1 and all(0.0 <= v <= 1.0 for v in values)


_ALERT_KEYS = {"window", "device_id", "malicious_score", "predicted_class",
               "structural_flags", "recommended_action", "model_version"}


def _check_alerts(text: str, threshold: float) -> tuple[dict, set]:
    """Group alert lines by window start and collect windows that fail a check.

    Each line must parse with the documented keys and a score at or above the
    bundle threshold, and lines must be strictly ordered by window start, then
    device id. A line that does not parse is charged to the window of the
    line before it.
    """
    by_window: dict[float, list[str]] = {}
    bad: set = set()
    last = None
    for line in text.splitlines():
        try:
            doc = json.loads(line)
            key = (float(doc["window"][0]), str(doc["device_id"]))
            ok = set(doc) == _ALERT_KEYS and float(doc["malicious_score"]) >= threshold
        except (ValueError, KeyError, TypeError, IndexError):
            bad.add(last[0] if last else "unparsed")
            continue
        if not ok or (last is not None and key <= last):
            bad.add(key[0])
        by_window.setdefault(key[0], []).append(line)
        last = key
    return by_window, bad
