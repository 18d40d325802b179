"""Run ``phishgraph.cli.main`` with spans around each module's public calls.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

Each wrapped function is replaced where its caller looks it up (for example
``phishgraph.cli.load_dataset`` and ``phishgraph.gcn.spmv``), so the program
itself is unchanged. Spans (name, start, end, parent, counts) stay in memory
and are written to SPANS_JSON when ``main`` returns. ``summarize`` turns the
span files of one round into self times per layer.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

# (module, attribute path, span name). A class method is given as
# "Class.method". Names follow the per-layer metrics they feed.
WRAPPED = (
    ("phishgraph.cli", "generate_synthetic", "synthetic.generate"),
    ("phishgraph.cli", "parse_etherscan_csv", "ingest.parse_csv"),
    ("phishgraph.cli", "parse_etherscan_json", "ingest.parse_json"),
    ("phishgraph.cli", "clean", "ingest.clean"),
    ("phishgraph.cli", "label_dataset", "ingest.label"),
    ("phishgraph.txmodel", "LabeledDataset.__post_init__", "txmodel.validate"),
    ("phishgraph.cli", "save_dataset", "storage.save"),
    ("phishgraph.cli", "load_dataset", "storage.load"),
    ("phishgraph.cli", "sha256_file", "storage.digest"),
    ("phishgraph.cli", "build_graph", "graph.build"),
    ("phishgraph.cli", "to_training_inputs", "graph.inputs"),
    ("phishgraph.graph", "normalized_adjacency", "graph.adjacency"),
    ("phishgraph.graph", "SparseMatrix.transpose", "graph.transpose"),
    ("phishgraph.gcn", "spmv", "graph.spmv"),
    ("phishgraph.cli", "extract_explicit", "features.explicit"),
    ("phishgraph.cli", "extract_implicit", "features.implicit"),
    ("phishgraph.cli", "concat_features", "features.concat"),
    ("phishgraph.cli", "fit_minmax", "features.minmax"),
    ("phishgraph.cli", "train", "gcn.train"),
    ("phishgraph.gcn", "forward", "gcn.forward"),
    ("phishgraph.gcn", "backward", "gcn.backward"),
    ("phishgraph.gcn", "AdamState.step", "gcn.optimizer"),
    ("phishgraph.gcn", "GradientDescentState.step", "gcn.optimizer"),
    ("phishgraph.gcn", "predict", "gcn.predict"),
    ("phishgraph.cli", "save_model", "gcn.save"),
    ("phishgraph.cli", "stratified_split", "evaluate.split"),
    ("phishgraph.gcn", "confusion", "evaluate.metrics"),
    ("phishgraph.gcn", "metrics", "evaluate.metrics"),
    ("phishgraph.cli", "emit_report", "evaluate.report"),
    ("phishgraph.cli", "class_feature_stats", "stats.class_stats"),
    ("phishgraph.cli", "train_forest", "stats.forest"),
    ("phishgraph.cli", "feature_importance", "stats.importance"),
    ("phishgraph.cli", "write_importance", "stats.write"),
    ("phishgraph.stats", "ClassFeatureStats.to_csv", "stats.write"),
)


def _counts(name: str, args: tuple, result) -> dict | None:
    """Exact work counts taken from a call's arguments and result."""
    if name == "graph.spmv":
        m, dense = args
        width = dense.shape[1] if dense.ndim == 2 else 1
        return {"nnz": m.nnz, "rows": m.n_rows, "width": width}
    if name in ("gcn.forward", "gcn.backward", "gcn.predict"):
        return {"layers": len(args[0].weights)}
    if name in ("ingest.parse_csv", "ingest.parse_json"):
        return {"rows": len(result.transactions) + len(result.rejects)}
    if name == "ingest.clean":
        return {"kept": result[1].kept}
    if name == "graph.adjacency":
        return {"nnz": result.nnz}
    if name == "gcn.train":
        return {"epochs": len(result[1].losses)}
    if name == "stats.forest":
        return {"nodes": sum(len(t.feature) for t in result.trees)}
    return None


class Recorder:
    """In-memory spans: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # An inference forward pass is part of predict's own work.
            if name == "gcn.forward" and stack and spans[stack[-1]][0] == "gcn.predict":
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            spans[idx][4] = _counts(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))


def summarize(rounds: list[list[dict]]) -> dict[str, float]:
    """Per-layer figures, the median over rounds of each round's total.

    Each round is a list of process records ``{"wall_s", "spans"}``, where
    ``wall_s`` is the process's wall time as its parent measured it.
    """
    per_round = [_round_totals(procs) for procs in rounds]
    return {k: statistics.median(r.get(k, 0.0) for r in per_round)
            for k in sorted(set().union(*per_round))}


_SELF_NAMES = {"cli.main": "cli.self", "gcn.forward": "gcn.forward_self",
               "gcn.backward": "gcn.backward_self"}


def _round_totals(procs: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for proc in procs:
        spans = proc["spans"]
        child_time = [0.0] * len(spans)
        children: list[list[int]] = [[] for _ in spans]
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        main = [s for s in spans if s[0] == "cli.main"]
        add("cli.startup_s", proc["wall_s"] - sum(s[2] - s[1] for s in main))
        for i, (name, start, end, parent, counts) in enumerate(spans):
            add(f"{_SELF_NAMES.get(name, name)}_s", end - start - child_time[i])
            counts = counts or {}
            if name == "graph.spmv":
                nnz, rows, width = counts["nnz"], counts["rows"], counts["width"]
                add("graph.spmv_calls", 1)
                add("graph.spmv_flop", 2 * nnz * width)
                # value, column id and row id per stored entry, the gathered
                # operand row, and the written output row, all 8-byte words
                add("graph.spmv_bytes", 8 * (nnz * (3 + width) + rows * width))
            elif name == "gcn.train":
                add("gcn.epochs", counts["epochs"])
                add("gcn.train_inclusive_s", end - start)
            elif name in ("ingest.parse_csv", "ingest.parse_json"):
                add("ingest.rows_read", counts["rows"])
            elif name == "ingest.clean":
                add("ingest.rows_kept", counts["kept"])
            elif name == "graph.adjacency":
                add("graph.adjacency_nnz", counts["nnz"])
            elif name == "stats.forest":
                add("stats.forest_nodes", counts["nodes"])
            if name in ("gcn.forward", "gcn.predict", "gcn.backward"):
                # spmv calls run layer 0 up in a forward pass and from the
                # output layer down in a backward pass (layer 0 needs none)
                top = counts["layers"] - 1
                for k, c in enumerate(i_ for i_ in children[i] if spans[i_][0] == "graph.spmv"):
                    layer, way = (k, "fwd") if name != "gcn.backward" else (top - k, "bwd")
                    add(f"gcn.layer{layer}.spmv_{way}_s", spans[c][2] - spans[c][1])
    spmv_s = out.get("graph.spmv_s", 0.0)
    flop = out.get("graph.spmv_flop", 0.0)
    out["graph.spmv_gflop_per_s"] = flop / spmv_s / 1e9 if spmv_s else 0.0
    epochs = out.get("gcn.epochs", 0.0)
    out["gcn.epoch_ms"] = 1e3 * out.pop("gcn.train_inclusive_s", 0.0) / epochs if epochs else 0.0
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from phishgraph import cli

    run = recorder.wrap(cli.main, "cli.main")
    code = run(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
