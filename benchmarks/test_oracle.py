"""The benchmark's checks pass on real outputs and fail on planted errors.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_oracle.py``. The
corpus is small (75 addresses), so the whole module takes a few seconds.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import traced_cli
from exports import write_exports
from phishgraph.cli import main

SEED = 5


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[Path, oracle.Dataset]:
    path = tmp_path_factory.mktemp("corpus") / "dataset.bin"
    assert main(["synth", "--seed", str(SEED), "--benign", "60", "--phishing", "15",
                 "--out", str(path)]) == 0
    return path, oracle.read_dataset(path)


def _run(dataset: Path, out: Path, *extra: str) -> Path:
    assert main(["run", "--dataset", str(dataset), "--features", "both", "--epochs", "40",
                 "--out-dir", str(out), "--split-seed", str(SEED), "--train-seed", str(SEED),
                 *extra]) == 0
    return out


def test_run_check_passes_then_catches_planted_errors(corpus, tmp_path):
    path, ds = corpus
    out = _run(path, tmp_path / "run")
    ref = oracle.RunReference.build(ds, "both", SEED)
    assert oracle.check_run(out, ref, loss_must_fall=True) == []

    # a flipped label on a test node changes the supports
    flipped = oracle.Dataset(ds.addresses, dict(ds.labels), ds.provenance, ds.txs)
    victim = oracle.node_order(ds.txs)[int(np.flatnonzero(ref.test)[0])]
    flipped.labels[victim] = 1 - flipped.labels[victim]
    assert oracle.check_run(out, oracle.RunReference.build(flipped, "both", SEED),
                            loss_must_fall=True)

    # a perturbed output weight changes the predictions
    blob = bytearray((out / "model.bin").read_bytes())
    weights = oracle.read_model(out / "model.bin")
    last = weights[-1].size * 8
    w = np.frombuffer(bytes(blob[-last:]), "<f8")
    blob[-last:] = (-w).tobytes()
    (out / "model.bin").write_bytes(bytes(blob))
    assert oracle.check_run(out, ref, loss_must_fall=True)


def test_loss_curve_must_be_finite_and_falling(corpus, tmp_path):
    path, ds = corpus
    out = _run(path, tmp_path / "run")
    ref = oracle.RunReference.build(ds, "both", SEED)
    doc = json.loads((out / "metrics.json").read_text())
    for bad in ([*doc["training"]["losses"][:-1], math.nan],
                [*doc["training"]["losses"][:-1], doc["training"]["losses"][0] + 1.0]):
        doc["training"]["losses"] = bad
        (out / "metrics.json").write_text(json.dumps(doc))
        assert oracle.check_run(out, ref, loss_must_fall=True)


def test_compare_check_covers_both_runs(corpus, tmp_path):
    path, ds = corpus
    out = tmp_path / "cmp"
    assert main(["compare", "--dataset", str(path), "--out-dir", str(out), "--epochs", "40",
                 "--split-seed", str(SEED), "--train-seed", str(SEED), *run.COMPARE_FLAGS]) == 0
    refs = {k: oracle.RunReference.build(ds, k, SEED) for k in ("explicit", "implicit")}
    assert oracle.check_compare(out, refs) == []
    # the headline figures are recorded, whatever they are
    doc = json.loads((out / "comparison.json").read_text())
    assert oracle.headline(out)["implicit_weighted_f1"] == doc["implicit"]["weighted"]["f1"]

    # a wrong support in either run's metrics.json is caught
    for kind in ("explicit", "implicit"):
        metrics = out / kind / "metrics.json"
        good = metrics.read_text()
        doc = json.loads(good)
        doc["metrics"]["per_class"]["phishing"]["support"] += 1
        metrics.write_text(json.dumps(doc))
        assert oracle.check_compare(out, refs)
        metrics.write_text(good)


def _ingest(ex, out: Path) -> Path:
    assert main(["ingest", "--tx", str(ex.csv_path), "--tx", str(ex.json_path),
                 "--phishing-list", str(ex.flagged_path), "--out", str(out)]) == 0
    return out


def test_ingest_check_passes_then_catches_planted_errors(corpus, tmp_path):
    _, ds = corpus
    ex = write_exports(ds, tmp_path / "exports", SEED)
    assert sum(len(r) for r in ex.rejects.values()) == 65
    out = _ingest(ex, tmp_path / "ingested.bin")
    assert oracle.check_ingest(out, ds, ex.flagged, ex.rejects, ex.duplicates) == []

    # a flipped label byte in the ingested dataset
    blob = bytearray(out.read_bytes())
    blob[18 + 20] ^= 1  # label of the first address row
    flipped = tmp_path / "flipped.bin"
    flipped.write_bytes(bytes(blob))
    Path(str(flipped) + ".clean.json").write_bytes(Path(str(out) + ".clean.json").read_bytes())
    assert any("labels differ" in p for p in
               oracle.check_ingest(flipped, ds, ex.flagged, ex.rejects, ex.duplicates))

    # a reject the plan does not know about
    fewer = {k: v[1:] for k, v in ex.rejects.items()}
    assert oracle.check_ingest(out, ds, ex.flagged, fewer, ex.duplicates)

    # a dropped row: the first data row is always the first transaction
    lines = ex.csv_path.read_text().splitlines(keepends=True)
    ex.csv_path.write_text("".join(lines[:1] + lines[2:]))
    dropped = _ingest(ex, tmp_path / "dropped.bin")
    assert any("kept transactions differ" in p for p in
               oracle.check_ingest(dropped, ds, ex.flagged, ex.rejects, ex.duplicates))


def test_stats_check_passes_then_catches_planted_errors(corpus, tmp_path):
    path, ds = corpus
    out = tmp_path / "stats.csv"
    assert main(["stats", "--dataset", str(path), "--feature-set", "both", "--out", str(out)]) == 0
    nodes = oracle.node_order(ds.txs)
    X = oracle.features(ds.txs, nodes, "both")
    y = np.array([ds.labels[a] for a in nodes])
    names = oracle.feature_names("both")
    assert oracle.check_stats(out, X, y, names) == []

    y_flipped = y.copy()
    y_flipped[0] = 1 - y_flipped[0]
    assert oracle.check_stats(out, X, y_flipped, names)

    rows = list(csv.reader(out.open()))
    rows[5][3] = repr(float(rows[5][3]) * (1 + 1e-6))
    with out.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert oracle.check_stats(out, X, y, names)


def _ranking(tmp_path: Path, entries: list[tuple[str, float]]) -> Path:
    path = tmp_path / "importance.json"
    path.write_text(json.dumps([{"feature": f, "score": s, "rank": i + 1}
                                for i, (f, s) in enumerate(entries)]))
    return path


def test_importance_check(tmp_path):
    names = oracle.IMPLICIT_NAMES
    good = [("total_val_sent", 0.5)] + [(n, 0.5 / 15) for n in names if n != "total_val_sent"]
    assert oracle.check_importance(_ranking(tmp_path, good), names) == []
    plants = {
        "dropped feature": good[:-1],
        "repeated feature": good[:-1] + [good[0]],
        "negative score": good[:-2] + [(good[-2][0], good[-2][1] + good[-1][1] + 0.01),
                                       (good[-1][0], -0.01)],
        "not normalized": [(n, s * 1.01) for n, s in good],
        "not descending": [good[1], good[0]] + good[2:],
        "unplanted top": [("to_tx_cnt", 0.5)] + [(n, 0.5 / 15) for n in names if n != "to_tx_cnt"],
    }
    for label, entries in plants.items():
        assert oracle.check_importance(_ranking(tmp_path, entries), names), label


def test_trace_self_times_and_layer_split():
    # main [0, 10] > train [1, 9] > forward [2, 4] with three spmv calls and
    # backward [5, 7] with two; counts as traced_cli records them
    spmv = {"nnz": 10, "rows": 4, "width": 2}
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["gcn.train", 1.0, 9.0, 0, {"epochs": 1}],
        ["gcn.forward", 2.0, 4.0, 1, {"layers": 3}],
        ["graph.spmv", 2.0, 2.5, 2, spmv],
        ["graph.spmv", 2.5, 3.0, 2, spmv],
        ["graph.spmv", 3.0, 3.25, 2, spmv],
        ["gcn.backward", 5.0, 7.0, 1, {"layers": 3}],
        ["graph.spmv", 5.0, 6.0, 6, spmv],
        ["graph.spmv", 6.0, 6.5, 6, spmv],
    ]
    got = traced_cli.summarize([[{"wall_s": 10.5, "spans": spans}]])
    assert got["cli.startup_s"] == 0.5
    assert got["cli.self_s"] == 2.0
    assert got["gcn.train_s"] == 4.0
    assert got["gcn.forward_self_s"] == 0.75
    assert got["gcn.backward_self_s"] == 0.5
    assert got["graph.spmv_s"] == 2.75
    assert got["graph.spmv_calls"] == 5
    assert got["graph.spmv_flop"] == 5 * 2 * 10 * 2
    assert (got["gcn.layer0.spmv_fwd_s"], got["gcn.layer1.spmv_fwd_s"],
            got["gcn.layer2.spmv_fwd_s"]) == (0.5, 0.5, 0.25)
    assert (got["gcn.layer2.spmv_bwd_s"], got["gcn.layer1.spmv_bwd_s"]) == (1.0, 0.5)
    assert "gcn.layer0.spmv_bwd_s" not in got
    assert got["gcn.epoch_ms"] == 8000.0
    self_total = sum(v for k, v in got.items() if k.endswith("_s") and not k.endswith("per_s")
                     and not k.startswith("gcn.layer"))
    assert self_total == 10.5


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["train-10x", "ingest-analyze-10x"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
