"""Command-line front end wiring the pipeline together.

Subcommands: ingest, synth, run, compare, fetch, importance, stats. Every
invocation resolves its configuration (flags > config file > defaults) and
computes its results in memory. Only then does it write a manifest recording
inputs, digests, and seeds, and then its other artifacts, so a command that
fails writes no file. ``run`` and ``compare`` share one training path: one
load, graph, split and operator, a model trained per feature set, and only
then each run's files (``compare`` writes ``comparison.json`` last). All
randomness funnels through named seeds recorded in the manifest, so a rerun
with identical inputs produces byte-identical artifacts.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation error, 3 runtime
model failure (e.g. a single-class training split or a diverged training loss).
Each ``PipelineError`` class carries its code as ``exit_code``.
"""
from __future__ import annotations

import argparse
import json
import io
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ApiError, InvalidConfig, MalformedDocument, MalformedHeader, PipelineError
from .evaluate import emit_report, stratified_split
from .features import (
    concat_features,
    extract_explicit,
    extract_implicit,
    fit_minmax,
)
from .gcn import OPTIMIZERS, WEIGHT_MODES, GcnConfig, save_model, train
from .graph import build_graph, to_training_inputs
from .ingest import (
    PhishingList,
    clean,
    explorer_entries,
    label_dataset,
    parse_etherscan_csv,
    parse_etherscan_json,
)
from .stats import ForestConfig, class_feature_stats, feature_importance, train_forest, write_importance
from .storage import load_dataset, save_dataset, sha256_file, write_json
from .synthetic import SyntheticConfig, generate_synthetic
from .txmodel import Address, TxColumns

FEATURE_SETS = ("explicit", "implicit", "both")


def _write_manifest(
    path: Path,
    subcommand: str,
    inputs: list[str | Path],
    config: dict,
    artifacts: list[str],
    seeds: dict[str, int] | None = None,
) -> None:
    """Record the command, its input digests, config and seeds; commands
    without randomness leave ``seeds`` out."""
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "config": config,
        "artifacts": artifacts,
    }
    if seeds is not None:
        manifest["seeds"] = seeds
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, manifest)


def _extract(ds, g, feature_set: str):
    if feature_set == "explicit":
        return extract_explicit(ds, g)
    if feature_set == "implicit":
        return extract_implicit(ds, g)
    if feature_set == "both":
        return concat_features(extract_explicit(ds, g), extract_implicit(ds, g))
    raise InvalidConfig(f"unknown feature set {feature_set!r}")


def _load_features(dataset: str | Path, *feature_sets: str):
    """(graph, one raw feature matrix per set) of a stored dataset; g.labels
    are its labels. The dataset itself is released on return."""
    ds = load_dataset(dataset)
    g = build_graph(ds)
    if g.n_nodes == 0:
        raise InvalidConfig("dataset contains no transactions")
    return g, [_extract(ds, g, s) for s in feature_sets]


# ---------------------------------------------------------------- ingest


def _parse_exports(tx_paths: list[str]) -> tuple[TxColumns, list[dict]]:
    """The accepted rows of every export, concatenated in order, and each
    file's rejects section. Each file's own columns end with the call. An
    export that cannot be read, or that holds an API error envelope, is
    named in the error."""
    parts, reject_sections = [], []
    for tx_path in tx_paths:
        json_file = Path(tx_path).suffix.lower() == ".json"
        try:
            result = (parse_etherscan_json if json_file else parse_etherscan_csv)(tx_path)
        except (MalformedHeader, MalformedDocument, ApiError) as exc:
            raise type(exc)(f"{tx_path}: {exc}") from None
        parts.append(result.transactions)
        reject_sections.append({"file": str(tx_path), **result.rejects_json()})
    return TxColumns.concat(parts), reject_sections


def _cmd_ingest(args) -> int:
    out = Path(args.out)
    # the lists first: a malformed one fails before any export is parsed
    plist = PhishingList.from_files(args.phishing_list, args.verified)
    txs, reject_sections = _parse_exports(args.tx)
    txs, report = clean(txs)
    ds = label_dataset(txs, plist, require_verified=args.require_verified)
    inputs = list(args.tx) + [args.phishing_list] + (
        [args.verified] if args.verified else []
    )
    _write_manifest(
        Path(str(out) + ".manifest.json"),
        "ingest",
        inputs,
        {
            "require_verified": bool(args.require_verified),
            "tx_files": [str(p) for p in args.tx],
            "phishing_list": str(args.phishing_list),
            "verified": str(args.verified) if args.verified else None,
        },
        [out.name, out.name + ".clean.json"],
    )
    save_dataset(ds, out)
    write_json(
        Path(str(out) + ".clean.json"),
        {"clean": report.to_json(), "parse": reject_sections},
    )
    benign, phishing = ds.class_counts()
    print(
        f"ingested {len(ds.records)} transactions "
        f"({benign} benign / {phishing} phishing addresses) -> {out}"
    )
    return 0


# ----------------------------------------------------------------- synth


def _synth_config(args) -> SyntheticConfig:
    payload = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        # ValueError covers bad bytes, bad syntax and an integer literal with more
        # digits than int() converts; RecursionError, arrays nested too deep
        except (ValueError, RecursionError) as exc:
            raise InvalidConfig(f"{args.config}: not a JSON config: {exc}") from None
    flags = {"seed": args.seed, "n_benign_addresses": args.benign,
             "n_phishing_addresses": args.phishing}
    if isinstance(payload, dict):  # from_json rejects any other document
        payload.update((k, v) for k, v in flags.items() if v is not None)
    return SyntheticConfig.from_json(payload)


def _cmd_synth(args) -> int:
    cfg = _synth_config(args)
    out = Path(args.out)
    ds = generate_synthetic(cfg)
    _write_manifest(
        Path(str(out) + ".manifest.json"),
        "synth",
        [args.config] if args.config else [],
        asdict(cfg),
        [out.name],
        seeds={"generator": cfg.seed},
    )
    save_dataset(ds, out)
    benign, phishing = ds.class_counts()
    print(
        f"generated {len(ds.records)} transactions over "
        f"{benign + phishing} addresses ({phishing} phishing) -> {out}"
    )
    return 0


# ------------------------------------------------------------------- run


def _gcn_config(args) -> GcnConfig:
    try:
        hidden_dims = tuple(int(x) for x in args.hidden_dims.split(",") if x)
    except ValueError:
        raise InvalidConfig("--hidden-dims expects comma-separated integers") from None
    manual = None
    if args.manual_weights:
        try:
            benign, phishing = (float(x) for x in args.manual_weights.split(","))
        except ValueError:
            raise InvalidConfig("--manual-weights expects 'benign,phishing'") from None
        manual = (benign, phishing)
    return GcnConfig(
        hidden_dims=hidden_dims,
        dropout_rate=args.dropout,
        learning_rate=args.lr,
        epochs=args.epochs,
        weight_mode=args.weight_mode.replace("-", "_"),
        manual_weights=manual,
        seed=args.train_seed,
        optimizer=args.optimizer,
        threshold=args.threshold,
        use_bias=args.use_bias,
    )


def _train_and_write(args, out_dirs: dict[str, Path]) -> dict[str, dict]:
    """Train a GCN per feature set (the keys of ``out_dirs``) on one graph,
    split and operator; each set's test metrics. No run's files are written
    until every run has trained, so a failed run leaves no file."""
    cfg = _gcn_config(args)
    dataset_path = Path(args.dataset)
    g, matrices = _load_features(dataset_path, *out_dirs)
    split = stratified_split(g.labels, ratio=args.ratio, seed=args.split_seed)
    fit_mask = np.ones(g.n_nodes, dtype=bool) if args.fit_all else split.train_mask
    scaled = [fit_minmax(X, fit_mask) for X in matrices]
    operator = {"add_self_loops": not args.no_self_loops, "symmetrize": not args.no_symmetrize}
    batch = to_training_inputs(g, scaled[0], split, **operator)
    # every set trains on the same operator, labels and split
    runs = [train(replace(batch, features=X), cfg) for X in scaled]
    results = {}
    for (feature_set, out_dir), X, (model, report) in zip(out_dirs.items(), scaled, runs):
        _write_manifest(
            out_dir / "manifest.json",
            "run",
            [dataset_path],
            {
                "features": feature_set,
                "split_ratio": args.ratio,
                "fit_all": bool(args.fit_all),
                **operator,
                "gcn": asdict(cfg),
            },
            ["model.bin", "model.bin.json", "metrics.json", "report.txt"],
            seeds={"split": args.split_seed, "train": args.train_seed},
        )
        save_model(model, out_dir / "model.bin", cfg, X.names)
        emit_report(out_dir, metrics_report=report.final_test, train_report=report)
        final = report.final_test
        print(
            f"[{feature_set}] test weighted F1 {final.weighted_f1:.2f}, "
            f"phishing recall {final.recall['phishing']:.2f} -> {out_dir}"
        )
        results[feature_set] = final.to_dict()
    return results


def _cmd_run(args) -> int:
    _train_and_write(args, {args.features: Path(args.out_dir)})
    return 0


def _cmd_compare(args) -> int:
    out_dir = Path(args.out_dir)
    results = _train_and_write(args, {s: out_dir / s for s in ("explicit", "implicit")})
    deltas = {
        "phishing_recall": (
            results["implicit"]["per_class"]["phishing"]["recall"]
            - results["explicit"]["per_class"]["phishing"]["recall"]
        ),
        "weighted_f1": (
            results["implicit"]["weighted"]["f1"]
            - results["explicit"]["weighted"]["f1"]
        ),
    }
    write_json(out_dir / "comparison.json", {**results, "delta": deltas})
    print(
        f"implicit - explicit: phishing recall {deltas['phishing_recall']:+.2f}, "
        f"weighted F1 {deltas['weighted_f1']:+.2f}"
    )
    return 0


# ------------------------------------------------------------------ fetch

API_KEY_ENV = "PHISHGRAPH_API_KEY"


def _cmd_fetch(args) -> int:
    from .fetch import fetch_address_history

    api_key = args.api_key or os.environ.get(API_KEY_ENV)
    if not api_key:
        raise InvalidConfig(
            f"no API key: pass --api-key or set {API_KEY_ENV}"
        )
    txs = fetch_address_history(
        Address(args.address),
        args.endpoint,
        api_key,
        page_limit=args.page_limit,
        page_size=args.page_size,
        requests_per_second=args.rate,
    )
    out = Path(args.out)
    _write_manifest(
        Path(str(out) + ".manifest.json"),
        "fetch",
        [],
        {
            "address": args.address,
            "endpoint": args.endpoint,
            "page_limit": args.page_limit,
            "page_size": args.page_size,
            "requests_per_second": args.rate,
        },
        [out.name],
    )
    # re-emit the explorer envelope so the result feeds straight back into
    # `ingest --tx`
    write_json(out, {"status": "1", "message": "OK", "result": explorer_entries(txs)})
    print(f"fetched {len(txs)} transactions for {args.address} -> {out}")
    return 0


# ------------------------------------------------------------- importance


def _cmd_importance(args) -> int:
    out = Path(args.out)
    cfg = ForestConfig(
        n_trees=args.trees,
        max_depth=args.max_depth,
        feature_subsample=args.feature_subsample,
        min_leaf=args.min_leaf,
        seed=args.seed,
        balanced=args.balanced,
    )
    g, (X,) = _load_features(args.dataset, args.feature_set)
    forest = train_forest(X, g.labels, cfg)
    ranking = feature_importance(forest)
    _write_manifest(
        Path(str(out) + ".manifest.json"),
        "importance",
        [args.dataset],
        # the forest seed is recorded under seeds
        {"feature_set": args.feature_set,
         **{k: v for k, v in asdict(cfg).items() if k != "seed"}},
        [out.name],
        seeds={"forest": cfg.seed},
    )
    write_importance(ranking, out)
    top_name, top_score = ranking[0]
    print(f"top feature: {top_name} ({top_score:.3f}) -> {out}")
    return 0


# ------------------------------------------------------------------ stats


def _cmd_stats(args) -> int:
    out = Path(args.out)
    g, (X,) = _load_features(args.dataset, args.feature_set)
    stats = class_feature_stats(X, g.labels)
    _write_manifest(
        Path(str(out) + ".manifest.json"),
        "stats",
        [args.dataset],
        {"feature_set": args.feature_set},
        [out.name],
    )
    stats.to_csv(out)
    print(f"wrote per-class statistics for {X.n_features} features -> {out}")
    return 0


# ------------------------------------------------------------------ main


def _add_gcn_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hidden-dims", default="64,32", help="comma-separated widths")
    parser.add_argument("--dropout", type=float, default=0.5)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument(
        "--weight-mode",
        choices=[mode.replace("_", "-") for mode in WEIGHT_MODES],
        default="inverse-frequency",
    )
    parser.add_argument("--manual-weights", default=None,
                        help="'benign,phishing', with --weight-mode manual")
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--optimizer", choices=OPTIMIZERS, default="adam")
    parser.add_argument("--use-bias", action="store_true")
    parser.add_argument("--ratio", type=float, default=0.8, help="train fraction")
    parser.add_argument("--split-seed", type=int, default=0)
    parser.add_argument("--train-seed", type=int, default=0)
    parser.add_argument("--fit-all", action="store_true",
                        help="fit the scaler on all rows, not just the training rows")
    parser.add_argument("--no-self-loops", action="store_true")
    parser.add_argument("--no-symmetrize", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phishgraph",
        description="Phishing-address detection pipeline over transaction graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, clean, and label transaction exports")
    p.add_argument("--tx", action="append", required=True,
                   help="CSV or JSON export (repeatable)")
    p.add_argument("--phishing-list", required=True)
    p.add_argument("--verified", default=None)
    p.add_argument("--require-verified", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--benign", type=int, default=None)
    p.add_argument("--phishing", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="train and evaluate one feature set")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", choices=FEATURE_SETS, required=True)
    p.add_argument("--out-dir", required=True)
    _add_gcn_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="run explicit and implicit, diff the reports")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    _add_gcn_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fetch", help="retrieve an address history via explorer API")
    p.add_argument("--address", required=True)
    p.add_argument("--endpoint", required=True, help="explorer API base URL")
    p.add_argument("--api-key", default=None,
                   help=f"falls back to the {API_KEY_ENV} environment variable")
    p.add_argument("--page-limit", type=int, default=10)
    p.add_argument("--page-size", type=int, default=100)
    p.add_argument("--rate", type=float, default=5.0, help="max requests per second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("importance", help="random-forest feature importance")
    p.add_argument("--dataset", required=True)
    p.add_argument("--feature-set", choices=FEATURE_SETS, default="implicit")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--min-leaf", type=int, default=2)
    p.add_argument("--feature-subsample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("stats", help="per-class feature statistics CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--feature-set", choices=FEATURE_SETS, default="implicit")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    return parser


class _LevelFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname.lower()}: {record.getMessage()}"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The package's log records reach stderr as "warning: <message>" through
    # this one handler. They are held until the command ends, so that a
    # failure's "error:" line is the first line of stderr.
    held = logging.StreamHandler(io.StringIO())
    held.setFormatter(_LevelFormatter())
    logging.getLogger("phishgraph").addHandler(held)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    finally:
        logging.getLogger("phishgraph").removeHandler(held)
        sys.stderr.write(held.stream.getvalue())


if __name__ == "__main__":
    sys.exit(main())
