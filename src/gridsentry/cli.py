"""Command-line interface.

One binary with subcommands covering the whole workflow:

    gridsentry generate   synthetic labeled snapshot from the block model
    gridsentry ingest     flow CSV -> per-window snapshot JSON files
    gridsentry attack     perturb a snapshot, writing graph + receipt
    gridsentry train      flow CSV -> detector bundle
    gridsentry detect     flow CSV + bundle -> alert JSONL
    gridsentry experiment robustness grid -> report JSON/markdown
    gridsentry report     re-render a report JSON as markdown

Every command accepts --output. generate, attack, train and experiment also
take --seed and --config, and ingest takes --config. A flag that is given
overrides the config field named by its dest: --p-in sets p_in, and --seed
sets seed, or base_seed for experiment. Exit codes: 0 success, 1 usage
error (including an output path that cannot be written), 2 data error, 3
numeric failure. Commands that write a directory (ingest, train,
experiment) create it before any parse or fit starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import attacks, codec, experiments, pipeline
from .errors import DataError, NumericError
from .flows import build_snapshot, parse_flows, window
from .graphs import GraphSnapshot, SbmSpec, sbm_generate
from .numerics import _check_dense_side


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is exit 1.
    def error(self, message):
        raise _UsageError(message)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        return codec.load(path, "config file")
    except DataError as exc:
        raise _UsageError(str(exc)) from exc


def _common_flags(sub: argparse.ArgumentParser, seed: str | None = "seed",
                  config: bool = True) -> None:
    """Add --output, --config if ``config``, and --seed with dest ``seed`` if set."""
    if seed:
        sub.add_argument("--seed", dest=seed, metavar="SEED", type=int, default=None,
                         help="override the configured random seed")
    if config:
        sub.add_argument("--config", default=None,
                         help="JSON config file; flags override its values")
    sub.add_argument("--output", "-o", default=None, help="output path")


def _decode(cls, doc: dict, level: str, args):
    """``cls`` from ``doc``, each field overridden by its same-named flag if given."""
    for f in dataclasses.fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            doc[f.name] = value
    try:
        return codec.decode(cls, doc, level)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc))


def _require_output(args) -> str:
    if args.output is None:
        raise _UsageError("--output is required for this command")
    return args.output


@contextmanager
def _writing(path):
    """Report an OSError raised in the block as a usage error naming ``path``.

    Inputs are read through loaders that raise DataError, so an OSError
    here comes from creating or writing the output.
    """
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _output_dir(args) -> Path:
    """The --output directory, created before any work starts."""
    out = Path(_require_output(args))
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    spec = _decode(SbmSpec, _load_config(args.config), "generate", args)
    snapshot = sbm_generate(spec)
    with _writing(_require_output(args)):
        codec.save(snapshot, args.output)
    print(f"wrote {snapshot.n_nodes}-node snapshot to {args.output}")
    return 0


def cmd_ingest(args) -> int:
    cfg = _decode(pipeline.PipelineConfig, _load_config(args.config), "pipeline", args)
    out = _output_dir(args)
    flows, stats = parse_flows(args.input)
    print(json.dumps(codec.encode(stats), sort_keys=True), file=sys.stderr)
    windows = window(flows, cfg.window_seconds)
    for bounds, bucket in windows:  # so that a failing window leaves no files
        try:
            _check_dense_side(len(set(bucket.src) | set(bucket.dst)), "device graph")
        except ValueError as exc:
            raise DataError(f"window [{bounds[0]}, {bounds[1]}): {exc}") from exc
    with _writing(out):
        for k, (bounds, bucket) in enumerate(windows):
            codec.save(build_snapshot(bucket, bounds), out / f"window_{k:04d}.json")
    print(f"wrote {len(windows)} window snapshot(s) to {out}")
    return 0


def cmd_attack(args) -> int:
    spec = _decode(attacks.PerturbationSpec, _load_config(args.config), "attack", args)
    snapshot = codec.load(args.input, "snapshot", GraphSnapshot)
    try:
        perturbed, receipt = attacks.apply(snapshot, spec)
    except ValueError as exc:  # a snapshot the attack cannot take
        raise DataError(f"{args.input}: {exc}") from exc
    out = _require_output(args)
    with _writing(out):
        codec.save(perturbed, out)
        codec.save(receipt, str(out) + ".receipt.json")
    print(
        f"added {len(receipt.edges_added)}, removed {len(receipt.edges_removed)}, "
        f"feature-perturbed {len(receipt.nodes_feature_perturbed)} node(s)"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _decode(pipeline.PipelineConfig, _load_config(args.config), "pipeline", args)
    out = _output_dir(args)
    with _writing(out):
        bundle, state = pipeline.train_pipeline(args.input, cfg, out)
    final = state.objective_history[-1].total
    print(
        f"trained {bundle.model_version} on {args.input}; "
        f"final objective {final:.6g}; bundle in {args.output}"
    )
    return 0


def cmd_detect(args) -> int:
    with _writing(_require_output(args)):
        summary = pipeline.run_pipeline(args.input, args.bundle, args.output)
    print(
        f"processed {summary['windows_processed']} window(s), "
        f"emitted {summary['alerts']} alert(s) to {args.output}"
    )
    return 0


def cmd_experiment(args) -> int:
    doc = _load_config(args.config)
    if not doc:
        raise _UsageError("experiment needs a --config file")
    cfg = _decode(experiments.ExperimentConfig, doc, "experiment", args)
    out = _output_dir(args)
    result = experiments.run_experiment(cfg)
    with _writing(out):
        codec.save(result.report, out / "report.json", indent=2)
        (out / "report.md").write_text(
            experiments.report_to_markdown(result.report) + "\n", encoding="utf-8"
        )
        history_dir = out / "history"
        history_dir.mkdir(exist_ok=True)
        for (model, rate, run), history in sorted(result.histories.items()):
            slug = model.lower().replace("-", "_")
            experiments.write_history_csv(
                history, history_dir / f"{slug}_rate{rate:g}_run{run}.csv"
            )
    print(f"wrote report for {len(result.report.cells)} cells to {out}")
    return 0


def cmd_report(args) -> int:
    report = codec.load(args.input, "report", experiments.MetricsReport)
    text = experiments.render_report(report, args.format)  # ends in a newline
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gridsentry",
                     description="Robust graph-based intrusion detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[], help="sample a synthetic snapshot")
    _common_flags(p)
    p.add_argument("--n", type=int, default=None, help="node count")
    p.add_argument("--p-in", dest="p_in", type=float, default=None)
    p.add_argument("--p-out", dest="p_out", type=float, default=None)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=None)
    p.add_argument("--signal", type=float, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="flow CSV to window snapshots")
    _common_flags(p, seed=None)
    p.add_argument("--input", "-i", required=True, help="flow CSV path")
    p.add_argument("--window-seconds", dest="window_seconds", type=int,
                   default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("attack", help="perturb a snapshot file")
    _common_flags(p)
    p.add_argument("--input", "-i", required=True, help="snapshot JSON path")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--structure-mode", dest="structure_mode",
                   choices=attacks.STRUCTURE_MODES, default=None)
    p.add_argument("--feature-sigma", dest="feature_sigma", type=float,
                   default=None)
    p.add_argument("--feature-fraction", dest="feature_fraction", type=float,
                   default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("train", help="train a detector bundle from flows")
    _common_flags(p)
    p.add_argument("--input", "-i", required=True, help="training flow CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="score flows against a bundle")
    _common_flags(p, seed=None, config=False)
    p.add_argument("--input", "-i", required=True, help="flow CSV to score")
    p.add_argument("--bundle", "-b", required=True, help="detector bundle JSON")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("experiment", help="run the robustness grid")
    _common_flags(p, seed="base_seed")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="render a report JSON")
    _common_flags(p, seed=None, config=False)
    p.add_argument("--input", "-i", required=True, help="report JSON path")
    p.add_argument("--format", choices=("markdown", "json"), default="markdown")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
