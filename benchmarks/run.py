"""End-to-end benchmark of the phishgraph CLI.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Every program command runs as a fresh ``python3 -m phishgraph.cli`` process
with ``src`` on its path and OpenBLAS held to one thread. Inputs are built
from the seed (set-up, timed five times), then whole rounds of the
workload's commands run until ``--seconds`` of them have been measured. Each
command's outputs are checked against ``oracle`` before the next one starts.
With ``--trace 1`` untraced rounds alternate with rounds run through
``traced_cli.py``, and the per-layer figures are printed instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Raw records go to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import traced_cli
from exports import Exports, write_exports

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
# Starting another round after this much wall time could break the limit
# of three minutes per run.
ROUND_DEADLINE_S = 100.0
SCALES = {"1x": (400, 100), "10x": (4000, 1000)}
COMPARE_FLAGS = ("--weight-mode", "manual", "--manual-weights", "1.0,2.5")
TRAIN_EPOCHS = 20

END_TO_END = {"setup_s": "s", "op_s": "s", "tx_per_s": "1/s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.self_s": "s", "cli.cpu_s": "s",
    "synthetic.generate_s": "s",
    "ingest.parse_csv_s": "s", "ingest.parse_json_s": "s", "ingest.clean_s": "s",
    "ingest.label_s": "s", "ingest.rows_read": "count", "ingest.rows_kept": "count",
    "txmodel.validate_s": "s",
    "storage.save_s": "s", "storage.load_s": "s", "storage.digest_s": "s",
    "graph.build_s": "s", "graph.inputs_s": "s", "graph.adjacency_s": "s",
    "graph.adjacency_nnz": "count", "graph.transpose_s": "s", "graph.spmv_s": "s",
    "graph.spmv_calls": "count", "graph.spmv_flop": "flop", "graph.spmv_bytes": "B",
    "graph.spmv_gflop_per_s": "GFLOP/s",
    "features.explicit_s": "s", "features.implicit_s": "s", "features.concat_s": "s",
    "features.minmax_s": "s",
    "gcn.train_s": "s", "gcn.epochs": "count", "gcn.epoch_ms": "ms",
    "gcn.forward_self_s": "s", "gcn.backward_self_s": "s", "gcn.optimizer_s": "s",
    "gcn.predict_s": "s", "gcn.save_s": "s",
    **{f"gcn.layer{k}.spmv_{way}_s": "s" for k in range(3) for way in ("fwd", "bwd")},
    "evaluate.split_s": "s", "evaluate.metrics_s": "s", "evaluate.report_s": "s",
    "stats.class_stats_s": "s", "stats.forest_s": "s", "stats.forest_nodes": "count",
    "stats.importance_s": "s", "stats.write_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    """One finished program process, measured by wait4."""

    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    spans: list | None = None


@dataclass
class Bench:
    root: Path
    work: Path
    seed: int
    env: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed checks
    failures: list[str] = field(default_factory=list)  # failed commands
    procs: list[Proc] = field(default_factory=list)
    notes: list[dict] = field(default_factory=list)

    def cli(self, *args: str, traced: bool = False) -> Proc:
        """Run one program command to its end and count it as an operation."""
        args = [str(a) for a in args]
        n = len(self.procs)
        spans_path, report_path = self.work / f"spans-{n}.json", self.work / f"proc-{n}.json"
        prefix = ([str(BENCH_DIR / "traced_cli.py"), str(spans_path)] if traced
                  else ["-m", "phishgraph.cli"])
        with open(self.work / "program.log", "ab") as log:
            launcher = subprocess.Popen(
                [sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(COMMAND_TIMEOUT_S),
                 str(report_path), sys.executable, *prefix, *args],
                cwd=self.root, env=self.env, stdout=log, stderr=log, start_new_session=True)
            # A blocking wait: Popen.wait with a timeout polls every 50 ms,
            # which would round the set-up times taken around this call.
            watchdog = threading.Timer(COMMAND_TIMEOUT_S + 15, _kill_group, (launcher.pid,))
            watchdog.start()
            try:
                launcher.wait()
            finally:  # also on an interrupt: leave no program process behind
                watchdog.cancel()
                if launcher.poll() is None:
                    _kill_group(launcher.pid)
                    launcher.wait()
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {"code": -1, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0}
        proc = Proc(args, **report)
        if traced and proc.code == 0:
            proc.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        self.procs.append(proc)
        self.attempted += 1
        if proc.code != 0:
            self.failed += 1
            self.failures.append(f"exit {proc.code}: phishgraph {' '.join(args)}")
        return proc


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- workloads


@dataclass
class Inputs:
    n_tx: int
    round: Callable[[Bench, Path, bool], list[Proc]]


def _synth(b: Bench, scale: str, out: Path) -> Path:
    benign, phishing = SCALES[scale]
    b.cli("synth", "--seed", b.seed, "--benign", benign, "--phishing", phishing,
          "--out", out / "dataset.bin")
    return out / "dataset.bin"


# Each workload gives set-up, which builds the inputs into setup_dir and
# returns what prepare needs, and prepare, which computes the references
# once and returns the round.


def compare_1x(b: Bench, setup_dir: Path):
    def setup() -> Path:
        return _synth(b, "1x", setup_dir)

    def prepare(dataset: Path) -> Inputs:
        ds = oracle.read_dataset(dataset)
        refs = {k: oracle.RunReference.build(ds, k, b.seed) for k in ("explicit", "implicit")}

        def one_round(b: Bench, out: Path, traced: bool) -> list[Proc]:
            p = b.cli("compare", "--dataset", dataset, "--out-dir", out,
                      "--split-seed", b.seed, "--train-seed", b.seed, *COMPARE_FLAGS,
                      traced=traced)
            if p.code == 0:
                b.problems.extend(oracle.check_compare(out, refs))
                b.notes.append(oracle.headline(out))
            return [p]

        return Inputs(len(ds.txs), one_round)

    return setup, prepare


def train_10x(b: Bench, setup_dir: Path):
    def setup() -> Path:
        return _synth(b, "10x", setup_dir)

    def prepare(dataset: Path) -> Inputs:
        ds = oracle.read_dataset(dataset)
        ref = oracle.RunReference.build(ds, "both", b.seed)

        def one_round(b: Bench, out: Path, traced: bool) -> list[Proc]:
            p = b.cli("run", "--dataset", dataset, "--features", "both",
                      "--epochs", TRAIN_EPOCHS, "--out-dir", out,
                      "--split-seed", b.seed, "--train-seed", b.seed, traced=traced)
            if p.code == 0:
                b.problems.extend(oracle.check_run(out, ref, loss_must_fall=True))
            return [p]

        return Inputs(len(ds.txs), one_round)

    return setup, prepare


def ingest_analyze_10x(b: Bench, setup_dir: Path):
    def setup() -> tuple[Path, Exports]:
        dataset = _synth(b, "10x", setup_dir)
        return dataset, write_exports(oracle.read_dataset(dataset), setup_dir, b.seed)

    def prepare(state: tuple[Path, Exports]) -> Inputs:
        dataset, ex = state
        generated = oracle.read_dataset(dataset)
        nodes = oracle.node_order(generated.txs)
        labels, _ = oracle.expected_labels(generated.txs, ex.flagged)
        y = np.array([labels[a] for a in nodes], dtype=np.int64)
        X = oracle.features(generated.txs, nodes, "both")

        def one_round(b: Bench, out: Path, traced: bool) -> list[Proc]:
            out.mkdir(parents=True, exist_ok=True)
            ds_out = out / "ingested.bin"
            p = b.cli("ingest", "--tx", ex.csv_path, "--tx", ex.json_path,
                      "--phishing-list", ex.flagged_path, "--out", ds_out, traced=traced)
            if p.code == 0:
                b.problems.extend(oracle.check_ingest(ds_out, generated, ex.flagged,
                                                      ex.rejects, ex.duplicates))
            q = b.cli("stats", "--dataset", ds_out, "--feature-set", "both",
                      "--out", out / "stats.csv", traced=traced)
            if q.code == 0:
                b.problems.extend(oracle.check_stats(out / "stats.csv", X, y,
                                                     oracle.feature_names("both")))
            r = b.cli("importance", "--dataset", ds_out, "--feature-set", "implicit",
                      "--out", out / "importance.json", traced=traced)
            if r.code == 0:
                b.problems.extend(oracle.check_importance(out / "importance.json",
                                                          oracle.IMPLICIT_NAMES))
            return [p, q, r]

        return Inputs(len(generated.txs), one_round)

    return setup, prepare


# BENCHMARK.json lists train-10x and ingest-analyze-10x. compare-1x, the
# paper's headline comparison, runs only by hand: with it, the runs that one
# check of the benchmark makes would not fit its time limit (see README).
WORKLOADS = {
    "compare-1x": compare_1x,
    "train-10x": train_10x,
    "ingest-analyze-10x": ingest_analyze_10x,
}


# -------------------------------------------------------------------- host


def host_facts(env: dict) -> dict:
    """Machine and library facts, with the BLAS pool as the program sees it."""
    probe = (
        "import ctypes, json, numpy\n"
        "so = [l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l][0]\n"
        "lib = ctypes.CDLL(so)\n"
        "get = (getattr(lib, 'scipy_openblas_get_num_threads64_', None)\n"
        "       or lib.openblas_get_num_threads)\n"
        "get.restype = ctypes.c_int\n"
        "cfg = getattr(lib, 'scipy_openblas_get_config64_', None) or lib.openblas_get_config\n"
        "cfg.restype = ctypes.c_char_p\n"
        "print(json.dumps({'openblas': cfg().decode(), 'openblas_threads': get()}))\n"
    )
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
        "openblas_num_threads_env": env.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        facts.update(json.loads(out))
    except (subprocess.SubprocessError, ValueError) as exc:
        facts["openblas"] = f"unknown ({exc.__class__.__name__})"
    return facts


# -------------------------------------------------------------------- main


def measure(b: Bench, workload: str, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    setup, prepare = WORKLOADS[workload](b, b.work / "setup")
    setup_times, digests = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(b.work / "setup", ignore_errors=True)
        (b.work / "setup").mkdir(parents=True)
        t0 = time.perf_counter()
        state = setup()
        setup_times.append(time.perf_counter() - t0)
        if b.failed:
            return {}
        digests.append(_digest(*sorted(p for p in (b.work / "setup").iterdir() if p.is_file()
                                        and not p.name.endswith(".manifest.json"))))
    if len(set(digests)) != 1:
        b.problems.append("set-up is not reproducible: inputs differ between repeats")
    inputs = prepare(state)

    # With tracing, untraced and traced rounds alternate, at least one each.
    rounds: list[list[Proc]] = []
    measured = 0.0
    min_rounds = 2 if trace else 1
    while len(rounds) < min_rounds or (
        measured < seconds and time.perf_counter() - started < ROUND_DEADLINE_S
    ):
        out = b.work / f"round{len(rounds)}"
        procs = inputs.round(b, out, trace and len(rounds) % 2 == 1)
        shutil.rmtree(out, ignore_errors=True)
        rounds.append(procs)
        measured += sum(p.wall_s for p in procs)
        if b.failed:
            break
    untraced = rounds[::2] if trace else rounds
    traced = rounds[1::2] if trace else []

    op_s = statistics.median(sum(p.wall_s for p in r) for r in untraced)
    record = {
        "setup_s": statistics.median(setup_times),
        "setup_samples_s": setup_times,
        "op_samples_s": [sum(p.wall_s for p in r) for r in rounds],
        "op_s": op_s,
        "tx_per_s": inputs.n_tx / op_s,
        "peak_rss_mb": max(p.rss_mb for p in b.procs),
        "n_tx": inputs.n_tx,
        "notes": b.notes,
        "commands": [{"args": p.args, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                      "rss_mb": p.rss_mb, "code": p.code} for p in b.procs],
    }
    if traced and not b.failed:
        layers = traced_cli.summarize(
            [[{"wall_s": p.wall_s, "spans": p.spans} for p in r] for r in traced])
        traced_op_s = statistics.median(sum(p.wall_s for p in r) for r in traced)
        layers["cli.cpu_s"] = statistics.median(sum(p.cpu_s for p in r) for r in untraced)
        # Self times partition each traced process's wall time, so per round
        # they add up to the untraced op_s plus this overhead.
        layers["trace.overhead_s"] = traced_op_s - op_s
        record["layers"] = layers
        record["traced_op_s"] = traced_op_s
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still unwinds, so the running command is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "phishgraph" / "cli.py").is_file():
        print(f"error: {root} holds no phishgraph sources (src/phishgraph)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One BLAS thread: the default pool burns a second core for little
    # wall-time gain and makes timings depend on that core (see README).
    env["OPENBLAS_NUM_THREADS"] = "1"
    seed = args.seed % 2**32
    work = root / ".bench_work" / f"{args.workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = host_facts(env)
    b = Bench(root, work, seed, env)
    try:
        record = measure(b, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = record.get("layers", {})
        metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": record.get(k, 0.0), "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": not b.problems, "attempted": b.attempted, "failed": b.failed,
              "metrics": metrics}
    results_dir = root / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-s{seed}-t{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "host": host, "problems": b.problems,
                    "failures": b.failures,
                    "record": record, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    for problem in b.failures + b.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
