import argparse
import importlib.util
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phishgraph
from phishgraph import cli, gcn
from phishgraph.cli import main
from phishgraph.errors import PipelineError, TrainingDiverged
from phishgraph.features import EXPLICIT_FEATURE_NAMES, IMPLICIT_FEATURE_NAMES
from phishgraph.graph import build_graph, normalized_adjacency
from phishgraph.storage import load_dataset, save_dataset, sha256_file
from phishgraph.txmodel import Label

from helpers import addr, dataset_from, labels, labels_vector, make_tx, transactions, tx_hash

HEADER = "blockNumber,timeStamp,hash,from,to,value,gas,gasPrice,gasUsed"


def write_csv(path: Path, rows):
    path.write_text("\n".join([HEADER, *rows]) + "\n")


def csv_row(i, sender, receiver, value=10**18, gas_used=21_000):
    return (
        f"{17_000_000 + i},{1_680_000_000 + i * 3600},{tx_hash(i)},"
        f"{sender},{receiver},{value},80000,20000000000,{gas_used}"
    )


@pytest.fixture
def ingest_files(tmp_path):
    tx_file = tmp_path / "txs.csv"
    write_csv(
        tx_file,
        [
            csv_row(1, addr(1), addr(2)),
            csv_row(2, addr(2), addr(3)),
            csv_row(3, addr(4), addr(1)),
            csv_row(4, addr(4), addr(1)),  # same endpoints, new hash
            csv_row(1, addr(9), addr(8)),  # duplicate hash, dropped by clean
        ],
    )
    plist = tmp_path / "phishing.txt"
    plist.write_text(f"{addr(2)}\n")
    return tx_file, plist


def small_synth_args(out, seed=3, benign=30, phishing=8):
    return [
        "synth", "--seed", str(seed), "--benign", str(benign),
        "--phishing", str(phishing), "--out", str(out),
    ]


RUN_SPEED_FLAGS = ["--epochs", "30", "--hidden-dims", "16,8"]

# (offset, struct format, value) of one planted field in the file of a
# one-transaction dataset over addr(1) and addr(2): an 18-byte header, 22-byte
# address rows (20-byte address, label byte, provenance byte), then the
# 112-byte transaction record with its timestamp 8, sender and receiver
# indices 48 and 52, and gas 88 bytes in
TX_AT = 18 + 2 * 22
PLANTED_FIELDS = {
    "label": (18 + 20, "<B", 9),
    "provenance": (18 + 21, "<B", 9),
    "duplicate_address": (18 + 22, "<20s", bytes.fromhex(addr(1)[2:])),
    "unsorted_address": (18, "<20s", bytes.fromhex(addr(3)[2:])),
    "sender_index": (TX_AT + 48, "<I", 2),
    "receiver_index": (TX_AT + 52, "<I", 7),
    "zero_timestamp": (TX_AT + 8, "<Q", 0),
    "gas_below_gas_used": (TX_AT + 88, "<Q", 20_999),
}


def assert_clean_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


class TestIngest:
    def test_ingest_writes_dataset_and_reports(self, ingest_files, tmp_path, capsys):
        tx_file, plist = ingest_files
        out = tmp_path / "dataset.bin"
        code = main(
            ["ingest", "--tx", str(tx_file), "--phishing-list", str(plist),
             "--out", str(out)]
        )
        assert code == 0
        ds = load_dataset(out)
        assert len(transactions(ds)) == 4  # duplicate dropped
        assert labels(ds)[addr(2)] is Label.PHISHING
        clean_report = json.loads(Path(str(out) + ".clean.json").read_text())
        assert clean_report["clean"]["dup_dropped"] == 1
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["subcommand"] == "ingest"
        assert str(tx_file) in manifest["inputs"]

    def test_rerun_is_byte_identical(self, ingest_files, tmp_path):
        tx_file, plist = ingest_files
        out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
        argv = ["ingest", "--tx", str(tx_file), "--phishing-list", str(plist)]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert sha256_file(out1) == sha256_file(out2)

    def test_empty_phishing_list_warns_once(self, ingest_files, tmp_path):
        """Run as a program, where no test harness handles log records: the
        warning is one "warning:" line, and the artifacts are as on a rerun."""
        tx_file, plist = ingest_files
        plist.write_text("")
        env = {**os.environ, "PYTHONPATH": str(Path(phishgraph.__file__).parents[1])}
        outs = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for out in outs:
            proc = subprocess.run(
                [sys.executable, "-m", "phishgraph.cli", "ingest", "--tx", str(tx_file),
                 "--phishing-list", str(plist), "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0
            assert proc.stderr == (
                "warning: phishing list is empty; every address will be labeled benign\n")
        for suffix in ("", ".clean.json"):
            a, b = (Path(str(out) + suffix).read_bytes() for out in outs)
            assert a == b

    def test_require_verified_without_verified_list_warns(self, ingest_files, tmp_path,
                                                           capsys):
        tx_file, plist = ingest_files
        out = tmp_path / "dataset.bin"
        code = main(["ingest", "--tx", str(tx_file), "--phishing-list", str(plist),
                     "--require-verified", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: verified list is empty but verification is required; "
            "every address will be labeled benign\n")
        assert Label.PHISHING not in labels(load_dataset(out)).values()

    def test_missing_phishing_list_flag_exits_2(self, ingest_files, capsys):
        tx_file, _ = ingest_files
        with pytest.raises(SystemExit) as err:
            main(["ingest", "--tx", str(tx_file), "--out", "x.bin"])
        assert err.value.code == 2

    def test_malformed_header_exits_2_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,real,header\n1,2,3,4\n")
        plist = tmp_path / "p.txt"
        plist.write_text(f"{addr(1)}\n")
        code = main(
            ["ingest", "--tx", str(bad), "--phishing-list", str(plist),
             "--out", str(tmp_path / "out.bin")]
        )
        assert code == 2
        assert "bad.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--phishing-list", "--verified"])
    def test_non_utf8_address_list_exits_2_naming_file(self, flag, ingest_files,
                                                       tmp_path, capsys):
        tx_file, plist = ingest_files
        bad = tmp_path / "bad-list.txt"
        bad.write_bytes(f"{addr(2)}\n".encode() + b"0x\xff\n")
        argv = ["ingest", "--tx", str(tx_file), "--out", str(tmp_path / "ds.bin")]
        for name, path in {"--phishing-list": plist, "--verified": plist, flag: bad}.items():
            argv += [name, str(path)]
        code = main(argv)
        assert code == 2
        assert "bad-list.txt" in assert_clean_error(capsys)

    @pytest.mark.parametrize("flag", ["--phishing-list", "--verified"])
    @pytest.mark.parametrize("line, named", [
        (b"0x\xff", "bad-list.txt"),  # not UTF-8: the file is named
        (b"0xnot-an-address", "0xnot-an-address"),  # the bad line is named
    ], ids=["non-utf8", "bad-address"])
    def test_bad_address_list_exits_2_before_any_export_is_parsed(
            self, flag, line, named, ingest_files, tmp_path, capsys, monkeypatch):
        tx_file, plist = ingest_files
        export = tmp_path / "large.json"
        entry = dict(zip(HEADER.split(","), csv_row(1, addr(1), addr(2)).split(",")))
        export.write_text(json.dumps({"status": "1", "message": "OK",
                                      "result": [entry] * 20_000}))
        bad = tmp_path / "bad-list.txt"
        bad.write_bytes(f"{addr(2)}\n".encode() + line + b"\n")
        parsed = []
        for name in ("parse_etherscan_csv", "parse_etherscan_json"):
            parse = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda path, parse=parse:
                                parsed.append(path) or parse(path))
        argv = ["ingest", "--tx", str(tx_file), "--tx", str(export),
                "--out", str(tmp_path / "ds.bin")]
        for name, path in {"--phishing-list": plist, "--verified": plist, flag: bad}.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        err = assert_clean_error(capsys)
        assert "bad-list.txt" in err and named in err  # the file is named
        assert parsed == []

    @pytest.mark.parametrize("flag", ["--phishing-list", "--verified"])
    def test_bom_led_address_list_gives_the_same_dataset(self, flag, ingest_files,
                                                         tmp_path):
        """A UTF-8 byte-order mark before the first line, an address or a
        comment, is not part of it."""
        tx_file, _ = ingest_files
        texts = {"--phishing-list": f"{addr(2)}\n{addr(3)}\n",
                 "--verified": f"# flagged and confirmed\n{addr(2)}\n"}
        outs = []
        for bom in ("", "\ufeff"):
            outs.append(tmp_path / f"ds{len(bom)}.bin")
            argv = ["ingest", "--tx", str(tx_file), "--out", str(outs[-1])]
            for name, text in texts.items():
                path = tmp_path / f"{name.strip('-')}{len(bom)}.txt"
                path.write_text((bom if name == flag else "") + text, encoding="utf-8")
                argv += [name, str(path)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        plist = tmp_path / "p.txt"
        plist.write_text(f"{addr(1)}\n")
        code = main(
            ["ingest", "--tx", str(tmp_path / "nope.csv"),
             "--phishing-list", str(plist), "--out", str(tmp_path / "out.bin")]
        )
        assert code == 1

    def test_error_envelope_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "error.json"
        bad.write_text(
            json.dumps({"status": "0", "message": "NOTOK", "result": "Invalid API Key"})
        )
        plist = tmp_path / "p.txt"
        plist.write_text(f"{addr(1)}\n")
        code = main(
            ["ingest", "--tx", str(bad), "--phishing-list", str(plist),
             "--out", str(tmp_path / "out.bin")]
        )
        assert code == 2

    def test_error_envelope_among_exports_exits_2_naming_file(self, ingest_files,
                                                               tmp_path, capsys):
        tx_file, plist = ingest_files
        bad = tmp_path / "err.json"
        bad.write_text(json.dumps({"status": "0", "message": "NOTOK",
                                   "result": "Max rate limit reached"}))
        out = tmp_path / "out.bin"
        code = main(["ingest", "--tx", str(tx_file), "--tx", str(bad),
                     "--phishing-list", str(plist), "--out", str(out)])
        assert code == 2
        err = assert_clean_error(capsys)
        assert err == f"error: {bad}: NOTOK: Max rate limit reached\n"
        assert not out.exists()

    def test_field_beyond_64_bits_dropped_by_clean(self, ingest_files, tmp_path, capsys):
        tx_file, plist = ingest_files
        wide = csv_row(5, addr(5), addr(6)).replace(",80000,", f",{2**64},")
        tx_file.write_text(tx_file.read_text() + wide + "\n")
        out = tmp_path / "dataset.bin"
        argv = ["ingest", "--tx", str(tx_file), "--phishing-list", str(plist), "--out", str(out)]
        assert main(argv) == 0
        assert len(load_dataset(out).records) == 4
        report = json.loads(Path(str(out) + ".clean.json").read_text())["clean"]
        assert report["invalid_dropped"] == 1
        assert {"index": 5, "reason": "field beyond 64 bits"} in report["dropped"]

    def test_pinned_ingest_digests(self, tmp_path, monkeypatch):
        """The dataset and clean report of one CSV+JSON pair are fixed byte
        for byte: a value of 2**256 and a gas of 2**64 are dropped, the first
        of which has its hash repeated later in the JSON file (that repeat is
        kept), a row with both is dropped for its value, a checksummed address
        is folded, and an extra column is ignored."""
        checksummed = "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed"
        rows = [
            csv_row(1, addr(1), addr(2)),
            csv_row(2, addr(2), addr(3), value=2**256),
            csv_row(3, addr(3), addr(4)).replace(",80000,", f",{2**64},"),
            csv_row(4, checksummed, addr(1)),
            csv_row(1, addr(5), addr(6)),  # repeated hash
            csv_row(5, addr(5), addr(6), value=2**256).replace(",80000,", f",{2**64},"),
        ]
        monkeypatch.chdir(tmp_path)
        Path("txs.csv").write_text(
            "\n".join([HEADER + ",nonce", *(f"{row},{k}" for k, row in enumerate(rows))]) + "\n"
        )
        entry = dict(zip(HEADER.split(","), csv_row(2, addr(2), addr(7)).split(",")))
        Path("txs.json").write_text(
            json.dumps({"status": "1", "message": "OK", "result": [entry, "not an entry"]})
        )
        Path("flagged.txt").write_text(f"{checksummed}\n{addr(3)}\n")
        argv = ["ingest", "--tx", "txs.csv", "--tx", "txs.json",
                "--phishing-list", "flagged.txt", "--out", "ds.bin"]
        assert main(argv) == 0
        assert sha256_file("ds.bin") == (
            "778a2bf287791f211cde95510270e7da95afd78e00e02d1b82ae6f1089ddbd65")
        assert sha256_file("ds.bin.clean.json") == (
            "44c08e353e33ddf85ec0aad1d1596e03f4712e45fb30114181277aedabfd2e9b")

    def test_unreadable_csv_exits_2_naming_file(self, ingest_files, tmp_path, capsys):
        tx_file, plist = ingest_files
        tx_file.write_bytes(tx_file.read_bytes().replace(b"17000001", b"17\xff"))
        argv = ["ingest", "--tx", str(tx_file), "--phishing-list", str(plist),
                "--out", str(tmp_path / "out.bin")]
        assert main(argv) == 2
        assert "txs.csv" in assert_clean_error(capsys).splitlines()[0]


class TestSynth:
    def test_same_seed_identical_digests(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(small_synth_args(a, seed=7)) == 0
        assert main(small_synth_args(b, seed=7)) == 0
        assert sha256_file(a) == sha256_file(b)
        m1 = (tmp_path / "a.bin.manifest.json").read_bytes()
        m2 = (tmp_path / "b.bin.manifest.json").read_bytes()
        assert m1.replace(b"a.bin", b"") == m2.replace(b"b.bin", b"")

    def test_zero_phishing_gives_all_benign(self, tmp_path):
        out = tmp_path / "ds.bin"
        assert main(small_synth_args(out, phishing=0)) == 0
        ds = load_dataset(out)
        assert all(lbl is Label.BENIGN for lbl in labels(ds).values())

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_benign_addresses": 25, "seed": 1}))
        out = tmp_path / "ds.bin"
        code = main(
            ["synth", "--config", str(cfg_path), "--seed", "5",
             "--phishing", "4", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["config"]["seed"] == 5  # flag wins over file
        assert manifest["config"]["n_benign_addresses"] == 25

    def test_invalid_config_exits_2(self, tmp_path):
        assert main(small_synth_args(tmp_path / "x.bin", benign=0)) == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"benign_value_log_mu": 800},      # the draw is inf
            {"benign_value_log_mu": 180},      # the draw exceeds 256 bits
            {"benign_gas_price_log_mu": 50},   # the draw exceeds 64 bits
            {"window_days": 4000},             # the window starts before block 0
            {"benign_value_log_sigma": float("nan")},  # the draw is nan
            {"tx_per_address_range": [1, 10**30]},     # beyond int64 draws
            {"benign_peer_count_range": [1, 10**30]},
            {"benign_value_log_mu": 10**400},  # beyond any float
        ],
    )
    def test_out_of_range_config_exits_2(self, config, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x.bin")]) == 2
        assert_clean_error(capsys)

    @pytest.mark.parametrize(
        "text, flags",
        [
            ('{"window_days": "x"}', []),
            ('{"n_benign_addresses": 2.5}', []),
            ('{"seed": true}', []),
            ('{"seed": -1}', []),
            ("{}", ["--seed", "-1"]),
            ('{"benign_value_log_mu": "38"}', []),
            ('{"phishing_value_log_mu": Infinity}', ["--phishing", "0"]),  # never drawn
            ('{"tx_per_address_range": 4}', []),
            ("[1]", []),
            ("not json", []),
            pytest.param("[" * 100_000 + "]" * 100_000, [], id="nested-too-deep"),
            pytest.param('{"seed": ' + "9" * 5_000 + "}", [], id="int-too-long"),
        ],
    )
    def test_malformed_config_exits_2(self, text, flags, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        argv = ["synth", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x.bin")]
        assert main(argv) == 2
        assert_clean_error(capsys)

    def test_bom_led_config_gives_the_same_corpus(self, tmp_path):
        """A UTF-8 byte-order mark before the JSON is not part of it."""
        text = json.dumps({"n_benign_addresses": 30, "n_phishing_addresses": 8, "seed": 3})
        outs = []
        for bom in ("", "\ufeff"):
            cfg_path = tmp_path / f"cfg{len(bom)}.json"
            cfg_path.write_text(bom + text, encoding="utf-8")
            outs.append(tmp_path / f"ds{len(bom)}.bin")
            assert main(["synth", "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_pinned_digests(self, tmp_path):
        """Generated corpora are fixed byte for byte by their config."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n_benign_addresses": 40, "n_phishing_addresses": 10, "seed": 11,
            "window_days": 60, "phishing_dormancy_days": 10, "benign_value_log_mu": 37.0,
            "phishing_gas_price_log_mu": 24.5, "tx_per_address_range": [2, 6],
            "phishing_high_value_fraction": 0.9,
        }))
        runs = {
            "9fb42b49ac8ec2a1abac715da9322a7496ceeaa4e19bc839d2ee48dc9b17de98": ["--seed", "7"],
            "6944697ae6b9a8fb32f3400fa1139f57772468f4aeda80df934dbeb6e6f03377":
                ["--config", str(cfg_path)],
        }
        for digest, flags in runs.items():
            out = tmp_path / "ds.bin"
            assert main(["synth", *flags, "--out", str(out)]) == 0
            assert sha256_file(out) == digest


class TestRun:
    @pytest.fixture
    def dataset(self, tmp_path):
        out = tmp_path / "ds.bin"
        assert main(small_synth_args(out, seed=11, benign=60, phishing=15)) == 0
        return out

    def test_run_produces_artifacts(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            ["run", "--dataset", str(dataset), "--features", "implicit",
             "--out-dir", str(out_dir), *RUN_SPEED_FLAGS]
        )
        assert code == 0
        for name in ("manifest.json", "model.bin", "model.bin.json",
                     "metrics.json", "report.txt"):
            assert (out_dir / name).exists(), name
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert "metrics" in doc and "training" in doc
        assert len(doc["training"]["losses"]) == 30

    def test_rerun_byte_identical_artifacts(self, dataset, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["run", "--dataset", str(dataset), "--features", "implicit",
                *RUN_SPEED_FLAGS, "--split-seed", "2", "--train-seed", "2"]
        assert main(argv + ["--out-dir", str(d1)]) == 0
        assert main(argv + ["--out-dir", str(d2)]) == 0
        for name in ("model.bin", "metrics.json", "report.txt", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_unknown_feature_set_exits_2(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "--dataset", str(dataset), "--features", "bogus",
                  "--out-dir", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_single_class_dataset_exits_3(self, tmp_path, capsys):
        ds_path = tmp_path / "benign.bin"
        assert main(small_synth_args(ds_path, phishing=0)) == 0
        out_dir = tmp_path / "run"
        code = main(
            ["run", "--dataset", str(ds_path), "--features", "implicit",
             "--out-dir", str(out_dir), *RUN_SPEED_FLAGS]
        )
        assert code == 3
        # training failed, so no file was written, the manifest included
        assert not out_dir.exists()

    def test_out_of_memory_is_one_error_line(self, dataset, tmp_path, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(gcn, "init_model", no_memory)
        code = main(["run", "--dataset", str(dataset), "--features", "implicit",
                     "--out-dir", str(tmp_path / "run"), "--hidden-dims", "100000000"])
        assert code == 1
        err = assert_clean_error(capsys)
        assert err.splitlines() == ["error: out of memory: Unable to allocate 74.5 GiB for an array"]

    def test_manual_weights_flag(self, dataset, tmp_path):
        out_dir = tmp_path / "run"
        code = main(
            ["run", "--dataset", str(dataset), "--features", "implicit",
             "--out-dir", str(out_dir), "--weight-mode", "manual",
             "--manual-weights", "1.0,2.5", *RUN_SPEED_FLAGS]
        )
        assert code == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["training"]["class_weights"] == [1.0, 2.5]

    def test_corrupt_dataset_exits_2(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNK" + b"\x00" * 64)
        code = main(["run", "--dataset", str(bad), "--features", "implicit",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("field", sorted(PLANTED_FIELDS))
    def test_out_of_range_dataset_field_exits_2(self, field, tmp_path, capsys):
        path = tmp_path / "planted.bin"
        save_dataset(dataset_from([make_tx(1, addr(1), addr(2))]), path)
        blob = bytearray(path.read_bytes())
        offset, fmt, value = PLANTED_FIELDS[field]
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        code = main(["stats", "--dataset", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert_clean_error(capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--hidden-dims", "a,b"],
            ["--weight-mode", "manual", "--manual-weights", "x,1"],
            ["--weight-mode", "manual", "--manual-weights", "1,2,3"],
            ["--lr", "nan"],
            ["--lr", "inf"],
            ["--weight-mode", "manual", "--manual-weights", "nan,1"],
            ["--weight-mode", "manual", "--manual-weights", "1,inf"],
            ["--manual-weights", "1,2.5"],
            ["--hidden-dims", f"8,{2**63}"],
        ],
    )
    def test_malformed_gcn_flag_exits_2(self, flags, dataset, tmp_path, capsys):
        code = main(["run", "--dataset", str(dataset), "--features", "implicit",
                     "--out-dir", str(tmp_path / "x"), *flags])
        assert code == 2
        assert_clean_error(capsys)

    @pytest.mark.parametrize(
        "flags, side",
        [
            (["--ratio", "0.99999999999"], "test"),
            (["--ratio", "0.01", "--fit-all", "--weight-mode", "uniform"], "train"),
        ],
    )
    def test_split_with_an_empty_side_exits_2(self, flags, side, tmp_path, capsys):
        """A ratio that rounds one side of the split to no address stops
        before training, with no file written."""
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=3, benign=40, phishing=10)) == 0
        capsys.readouterr()
        out_dir = tmp_path / "run"
        code = main(["run", "--dataset", str(ds_path), "--features", "implicit",
                     "--out-dir", str(out_dir), "--epochs", "3", *flags])
        assert code == 2
        assert f"{side} side" in assert_clean_error(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["run", "--features", "implicit"], ["compare"]],
                             ids=["run", "compare"])
    @pytest.mark.parametrize("flags", [["--ratio", "1.5"], ["--ratio", "0"],
                                       ["--split-seed", "-1"]])
    def test_bad_split_flag_exits_2_before_any_file(self, command, flags, dataset,
                                                    tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([*command, "--dataset", str(dataset), "--out-dir", str(out_dir), *flags])
        assert code == 2
        err = assert_clean_error(capsys)
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert not out_dir.exists()

    def test_diverging_training_exits_3(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=1, benign=100, phishing=25)) == 0
        capsys.readouterr()
        code = main(["run", "--dataset", str(ds_path), "--features", "implicit",
                     "--out-dir", str(tmp_path / "x"), "--epochs", "3", "--lr", "1e300"])
        assert code == 3
        assert "epoch 2" in assert_clean_error(capsys)

    def test_diverging_final_step_exits_3_without_a_model(self, tmp_path, capsys):
        """A step that turns a weight infinite stops training even when it is
        the last one, so no model.bin of infinite weights is written."""
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=1, benign=400, phishing=100)) == 0
        capsys.readouterr()
        out_dir = tmp_path / "x"
        code = main(["run", "--dataset", str(ds_path), "--features", "implicit",
                     "--out-dir", str(out_dir), "--optimizer", "gd", "--lr", "1e308",
                     "--epochs", "1"])
        assert code == 3
        err = assert_clean_error(capsys)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "epoch 1" in errors[0]
        assert not (out_dir / "model.bin").exists()

    def test_diverging_training_error_is_first_stderr_line(self, tmp_path):
        """numpy's RuntimeWarnings, which pytest hides in-process, do not come
        before the error line."""
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=1, benign=100, phishing=25)) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(phishgraph.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "phishgraph.cli", "run", "--dataset", str(ds_path),
             "--features", "implicit", "--out-dir", str(tmp_path / "x"),
             "--epochs", "3", "--lr", "1e300"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:"), proc.stderr


class TestCompare:
    def test_compare_emits_both_runs_and_delta(self, tmp_path):
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=2, benign=60, phishing=15)) == 0
        out_dir = tmp_path / "cmp"
        code = main(
            ["compare", "--dataset", str(ds_path), "--out-dir", str(out_dir),
             *RUN_SPEED_FLAGS]
        )
        assert code == 0
        doc = json.loads((out_dir / "comparison.json").read_text())
        assert set(doc) == {"explicit", "implicit", "delta"}
        assert (out_dir / "explicit" / "metrics.json").exists()
        assert (out_dir / "implicit" / "metrics.json").exists()

    def test_each_run_matches_the_run_command(self, tmp_path, monkeypatch):
        """compare's explicit/ and implicit/ hold the bytes `run` writes for
        that feature set with the same flags and dataset path."""
        monkeypatch.chdir(tmp_path)
        assert main(small_synth_args("ds.bin", seed=2, benign=60, phishing=15)) == 0
        flags = ["--dataset", "./ds.bin", *RUN_SPEED_FLAGS, "--split-seed", "4"]
        assert main(["compare", "--out-dir", "cmp", *flags]) == 0
        for feature_set in ("explicit", "implicit"):
            assert main(["run", "--features", feature_set, "--out-dir", feature_set,
                         *flags]) == 0
            ran = {p.name: p.read_bytes() for p in Path(feature_set).iterdir()}
            compared = {p.name: p.read_bytes() for p in Path("cmp", feature_set).iterdir()}
            assert set(ran) == {"manifest.json", "model.bin", "model.bin.json",
                                "metrics.json", "report.txt"}
            assert compared == ran

    def test_one_load_graph_split_and_operator(self, tmp_path, monkeypatch):
        """Both feature sets train on one loaded dataset, graph, split and
        normalized adjacency."""
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=2, benign=60, phishing=15)) == 0
        calls = {}
        for target in ("phishgraph.cli.load_dataset", "phishgraph.cli.build_graph",
                       "phishgraph.cli.stratified_split", "phishgraph.cli.to_training_inputs",
                       "phishgraph.graph.normalized_adjacency"):
            module_name, name = target.rsplit(".", 1)
            inner = getattr(importlib.import_module(module_name), name)

            def counted(*args, inner=inner, name=name, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(target, counted)
        assert main(["compare", "--dataset", str(ds_path), "--out-dir", str(tmp_path / "cmp"),
                     *RUN_SPEED_FLAGS]) == 0
        assert calls == dict.fromkeys(("load_dataset", "build_graph", "stratified_split",
                                       "to_training_inputs", "normalized_adjacency"), 1)

    def test_failed_second_run_writes_no_file(self, tmp_path, monkeypatch, capsys):
        """The explicit run trains; the implicit one diverges: compare exits 3
        and writes neither run's files."""
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=2, benign=60, phishing=15)) == 0
        capsys.readouterr()
        real_train = cli.train

        def diverge_on_implicit(batch, cfg):
            if batch.features.names == IMPLICIT_FEATURE_NAMES:
                raise TrainingDiverged("training diverged: planted at epoch 1")
            return real_train(batch, cfg)

        monkeypatch.setattr(cli, "train", diverge_on_implicit)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--dataset", str(ds_path), "--out-dir", str(out_dir),
                     *RUN_SPEED_FLAGS]) == 3
        err = assert_clean_error(capsys)
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert not out_dir.exists()


def planted_value_dataset(tmp_path) -> Path:
    """Phishing senders move 100x larger values; schedules are identical
    across classes (same shape, shifted by whole days), so value totals are
    the only class signal."""
    txs = []
    k = 0
    for i in range(40):
        phishy = i < 12
        sender = addr(100 + i)
        sink = addr(500 + i)
        base = 1_680_000_000 + i * 86_400
        for j in range(3):
            value = 10**20 if phishy else 10**18
            txs.append(make_tx(k, sender, sink, ts=base + j * 3600, value=value))
            k += 1
    ds = dataset_from(txs, phishing=[addr(100 + i) for i in range(12)])
    path = tmp_path / "planted.bin"
    save_dataset(ds, path)
    return path


class TestImportance:
    def test_planted_value_signal_ranks_total_val_sent_first(self, tmp_path):
        ds_path = planted_value_dataset(tmp_path)
        out = tmp_path / "imp.json"
        code = main(
            ["importance", "--dataset", str(ds_path), "--trees", "40",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        ranking = json.loads(out.read_text())
        assert ranking[0]["feature"] == "total_val_sent"
        assert ranking[0]["rank"] == 1

    def test_fixed_seed_stable_ranking(self, tmp_path):
        ds_path = planted_value_dataset(tmp_path)
        out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
        argv = ["importance", "--dataset", str(ds_path), "--trees", "15", "--seed", "4"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_same_importance_under_the_baseline_blas_kernel(self, tmp_path):
        """Run as programs, one of them with OpenBLAS held to Prescott, the
        SSE3 kernel every x86-64 CPU runs: importance.json is byte-equal. A
        numpy without OpenBLAS ignores the variable."""
        ds = tmp_path / "ds.bin"
        assert main(["synth", "--seed", "1", "--out", str(ds)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(phishgraph.__file__).parents[1])}
        env.pop("OPENBLAS_CORETYPE", None)
        outs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            outs.append(tmp_path / f"imp{len(extra)}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "phishgraph.cli", "importance", "--dataset", str(ds),
                 "--feature-set", "both", "--balanced", "--trees", "20",
                 "--out", str(outs[-1])],
                capture_output=True, text=True, env={**env, **extra}, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_single_tree_degenerate_run(self, tmp_path):
        ds_path = planted_value_dataset(tmp_path)
        out = tmp_path / "imp.json"
        code = main(
            ["importance", "--dataset", str(ds_path), "--trees", "1", "--out", str(out)]
        )
        assert code == 0
        ranking = json.loads(out.read_text())
        assert abs(sum(e["score"] for e in ranking) - 1.0) <= 1e-9

    @pytest.mark.parametrize("flag", ["--trees", "--max-depth", "--min-leaf",
                                      "--feature-subsample"])
    def test_bad_forest_flag_exits_2_before_any_file(self, flag, tmp_path, capsys):
        ds_path = planted_value_dataset(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["importance", "--dataset", str(ds_path), flag, "0",
                     "--out", str(out_dir / "imp.json")])
        assert code == 2
        err = assert_clean_error(capsys)
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert not out_dir.exists()

    def test_tree_count_beyond_int64_exits_2(self, tmp_path, capsys):
        """One int64 seed is drawn per tree, so 2**63 trees are refused."""
        ds_path = planted_value_dataset(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["importance", "--dataset", str(ds_path), "--trees", str(2**63),
                     "--out", str(out_dir / "imp.json")])
        assert code == 2
        assert "2**63" in assert_clean_error(capsys)
        assert not out_dir.exists()


class TestFetchCommand:
    def test_requires_api_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PHISHGRAPH_API_KEY", raising=False)
        code = main(
            ["fetch", "--address", str(addr(1)), "--endpoint", "http://x/api",
             "--out", str(tmp_path / "txs.json")]
        )
        assert code == 2
        assert "PHISHGRAPH_API_KEY" in capsys.readouterr().err

    def test_fetch_then_ingest_round_trip(self, tmp_path, monkeypatch):
        from test_fetch import MockEtherscan, ok, tx_entry

        monkeypatch.setenv("PHISHGRAPH_API_KEY", "from-env")
        out = tmp_path / "fetched.json"
        server = MockEtherscan({1: ok([tx_entry(1, 100), tx_entry(2, 101)])})
        with server as url:
            code = main(
                ["fetch", "--address", str(addr(1)), "--endpoint", url,
                 "--rate", "0", "--out", str(out)]
            )
        assert code == 0
        assert server.requests[0]["apikey"] == "from-env"
        assert json.loads(Path(str(out) + ".manifest.json").read_text())[
            "subcommand"
        ] == "fetch"

        plist = tmp_path / "p.txt"
        plist.write_text(f"{addr(5)}\n")
        ds_out = tmp_path / "ds.bin"
        code = main(
            ["ingest", "--tx", str(out), "--phishing-list", str(plist),
             "--out", str(ds_out)]
        )
        assert code == 0
        assert len(transactions(load_dataset(ds_out))) == 2

    def test_persistent_rate_limit_with_http_date_exits_1(self, tmp_path, monkeypatch,
                                                           capsys):
        from test_fetch import MockEtherscan, ok

        monkeypatch.setenv("PHISHGRAPH_API_KEY", "k")
        server = MockEtherscan({1: ok([])}, fail_first_n_rate_limits=99,
                               retry_after="Wed, 21 Oct 2015 07:28:00 GMT")
        with server as url:
            code = main(["fetch", "--address", str(addr(1)), "--endpoint", url,
                         "--rate", "0", "--out", str(tmp_path / "txs.json")])
        assert code == 1
        assert "rate limit" in assert_clean_error(capsys)
        assert len(server.requests) == 4  # the first request and three retries

    def test_warnings_follow_the_error_line(self, tmp_path, monkeypatch, capsys):
        from test_fetch import MockEtherscan, ok

        monkeypatch.setenv("PHISHGRAPH_API_KEY", "k")
        with MockEtherscan({1: ok([])}, fail_first_n_rate_limits=99) as url:
            code = main(["fetch", "--address", str(addr(1)), "--endpoint", url,
                         "--rate", "0", "--out", str(tmp_path / "txs.json")])
        assert code == 1
        lines = assert_clean_error(capsys).splitlines()
        assert lines[1:] == ["warning: rate limited on page 1; retrying in 0.0s"] * 3

    def test_file_endpoint_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PHISHGRAPH_API_KEY", "k")
        secret = tmp_path / "secret.json"
        secret.write_text('{"status": "1", "message": "OK", "result": []}')
        out = tmp_path / "txs.json"
        code = main(["fetch", "--address", str(addr(1)), "--endpoint", secret.as_uri(),
                     "--rate", "0", "--out", str(out)])
        assert code == 2
        assert "http or https" in assert_clean_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--page-limit", "0"], ["--page-size", "-5"], ["--rate", "nan"]]
    )
    def test_bad_paging_or_rate_exits_2(self, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PHISHGRAPH_API_KEY", "k")
        out = tmp_path / "txs.json"
        code = main(["fetch", "--address", str(addr(1)),
                     "--endpoint", "http://127.0.0.1:9/api", "--rate", "0", *flags,
                     "--out", str(out)])
        assert code == 2
        assert_clean_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--page-limit", "0"], ["--page-size", "-5"], ["--rate", "nan"],
                  ["--rate", "1e-300"], ["--endpoint", "file:///etc/hosts"],
                  ["--address", "0x12"]],
        ids=["page-limit", "page-size", "rate", "tiny-rate", "endpoint", "address"],
    )
    def test_bad_setting_exits_2_before_any_file(self, flags, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("PHISHGRAPH_API_KEY", "k")
        out_dir = tmp_path / "out"
        code = main(["fetch", "--address", str(addr(1)),
                     "--endpoint", "http://127.0.0.1:9/api", "--rate", "0", *flags,
                     "--out", str(out_dir / "txs.json")])
        assert code == 2
        err = assert_clean_error(capsys)
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert not out_dir.exists()

    def test_unreachable_endpoint_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHISHGRAPH_API_KEY", "k")
        code = main(
            ["fetch", "--address", str(addr(1)),
             "--endpoint", "http://127.0.0.1:9/api", "--rate", "0",
             "--out", str(tmp_path / "txs.json")]
        )
        assert code == 1


class TestStats:
    def test_stats_match_brute_force(self, tmp_path):
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, seed=5, benign=30, phishing=8)) == 0
        out = tmp_path / "stats.csv"
        assert main(["stats", "--dataset", str(ds_path), "--out", str(out)]) == 0

        from phishgraph.features import extract_implicit
        from phishgraph.graph import build_graph

        ds = load_dataset(ds_path)
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        node_labels = labels_vector(ds, g)
        # brute-force check of one cell: phishing mean of total_val_sent
        col = list(X.names).index("total_val_sent")
        expected = X.rows[node_labels == 1, col].mean()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cell = [r for r in rows if r[0] == "total_val_sent" and r[1] == "phishing"][0]
        assert float(cell[3]) == pytest.approx(expected, rel=1e-12)

    def test_all_benign_marks_phishing_absent(self, tmp_path):
        ds_path = tmp_path / "ds.bin"
        assert main(small_synth_args(ds_path, phishing=0)) == 0
        out = tmp_path / "stats.csv"
        assert main(["stats", "--dataset", str(ds_path), "--out", str(out)]) == 0
        phishing_rows = [
            line for line in out.read_text().splitlines() if ",phishing," in line
        ]
        assert phishing_rows and all(r.endswith(",0,,,") for r in phishing_rows)

    @pytest.mark.parametrize("feature_set", ["explicit", "implicit", "both"])
    def test_feature_set_dispatch_order(self, feature_set, tmp_path):
        names = {
            "explicit": EXPLICIT_FEATURE_NAMES,
            "implicit": IMPLICIT_FEATURE_NAMES,
            "both": EXPLICIT_FEATURE_NAMES + IMPLICIT_FEATURE_NAMES,
        }[feature_set]
        ds_path = tmp_path / "ds.bin"
        save_dataset(dataset_from([make_tx(1, addr(1), addr(2))], phishing=[addr(2)]), ds_path)
        out = tmp_path / "stats.csv"
        assert main(["stats", "--dataset", str(ds_path), "--feature-set", feature_set,
                     "--out", str(out)]) == 0
        features = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        # one benign row, then one phishing row, per feature
        assert tuple(features[::2]) == tuple(features[1::2]) == names

    def test_empty_dataset_exits_2(self, tmp_path):
        empty = tmp_path / "empty.bin"
        save_dataset(dataset_from([]), empty)
        code = main(["stats", "--dataset", str(empty), "--out", str(tmp_path / "s.csv")])
        assert code == 2


def _error_classes():
    found, todo = [], [PipelineError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--features", "implicit", "--out-dir", "out", "--split-seed", "-1"],
        ["compare", "--out-dir", "out", "--split-seed", "-1"],
        ["importance", "--out", "imp.json", "--seed", "-1"],
    ],
    ids=["run", "compare", "importance"],
)
def test_negative_seed_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(small_synth_args("ds.bin", seed=3, benign=40, phishing=10)) == 0
    capsys.readouterr()
    assert main([*argv, "--dataset", "ds.bin"]) == 2
    assert "non-negative" in assert_clean_error(capsys)


def _synth_input(tmp: Path, **counts) -> str:
    path = tmp / "ds.bin"
    assert main(small_synth_args(path, **counts)) == 0
    return str(path)


def _ingest_input(tmp: Path, header: bool = True, listed: str = addr(2)) -> list[str]:
    tx_file, plist = tmp / "txs.csv", tmp / "phishing.txt"
    tx_file.write_text("\n".join([HEADER] * header + [csv_row(1, addr(1), addr(2))]) + "\n")
    plist.write_text(f"{listed}\n")
    return ["--tx", str(tx_file), "--phishing-list", str(plist)]


def _file_input(tmp: Path, name: str, data: bytes) -> str:
    (tmp / name).write_bytes(data)
    return str(tmp / name)


# Invocations whose settings parse but whose work fails, keyed by an id that
# starts with the subcommand: (exit code, argv made from an input directory
# and an output directory)
FAILS_WITHOUT_A_FILE = {
    "ingest-bad-address-list": (2, lambda tmp, out: [
        "ingest", *_ingest_input(tmp, listed="0xnot-an-address"),
        "--out", str(out / "ds.bin")]),
    "ingest-csv-without-header": (2, lambda tmp, out: [
        "ingest", *_ingest_input(tmp, header=False), "--out", str(out / "ds.bin")]),
    "synth-value-draw-out-of-range": (2, lambda tmp, out: [
        "synth", "--config", _file_input(tmp, "cfg.json", b'{"benign_value_log_mu": 400.0}'),
        "--out", str(out / "ds.bin")]),
    "importance-feature-subsample-above-width": (2, lambda tmp, out: [
        "importance", "--dataset", _synth_input(tmp), "--feature-subsample", "99",
        "--out", str(out / "imp.json")]),
    "run-empty-test-side": (2, lambda tmp, out: [
        "run", "--dataset", _synth_input(tmp, benign=40, phishing=10),
        "--features", "implicit", "--ratio", "0.99999999999", "--epochs", "3",
        "--out-dir", str(out)]),
    "stats-not-a-dataset": (2, lambda tmp, out: [
        "stats", "--dataset", _file_input(tmp, "junk.bin", b"JUNK" + b"\x00" * 64),
        "--out", str(out / "stats.csv")]),
    "fetch-unreachable-endpoint": (1, lambda tmp, out: [
        "fetch", "--address", addr(1), "--endpoint", "http://127.0.0.1:9/api",
        "--api-key", "k", "--rate", "0", "--out", str(out / "txs.json")]),
    "run-no-phishing-address": (3, lambda tmp, out: [
        "run", "--dataset", _synth_input(tmp, phishing=0), "--features", "implicit",
        "--epochs", "3", "--out-dir", str(out)]),
    "compare-no-phishing-address": (3, lambda tmp, out: [
        "compare", "--dataset", _synth_input(tmp, phishing=0), "--epochs", "3",
        "--out-dir", str(out)]),
}


@pytest.mark.parametrize("case", sorted(FAILS_WITHOUT_A_FILE))
def test_failed_command_writes_no_file(case, tmp_path, capsys):
    """A command computes its results before it writes its manifest, so one
    that fails leaves nothing under its output path."""
    code, make_argv = FAILS_WITHOUT_A_FILE[case]
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    argv = make_argv(inputs, out)
    assert case.startswith(argv[0] + "-")
    capsys.readouterr()
    assert main(argv) == code
    err = assert_clean_error(capsys)
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert not out.exists()


def test_failed_command_cases_cover_every_subcommand():
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert {case.split("-")[0] for case in FAILS_WITHOUT_A_FILE} == set(commands)


def test_pinned_json_artifact_digests(tmp_path, monkeypatch):
    """Every JSON artifact whose bytes do not depend on BLAS arithmetic is
    fixed byte for byte: the synth, run, importance and stats manifests, the
    model sidecar and the importance ranking. metrics.json and
    comparison.json hold GCN floats and are left out."""
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({
        "n_benign_addresses": 40, "n_phishing_addresses": 10, "seed": 11,
        "tx_per_address_range": [2, 6], "phishing_high_value_fraction": 0.9,
    }))
    assert main(["synth", "--config", "cfg.json", "--out", "ds.bin"]) == 0
    assert main(["run", "--dataset", "ds.bin", "--features", "both", "--out-dir", "run",
                 "--epochs", "2", "--hidden-dims", "8", "--weight-mode", "manual",
                 "--manual-weights", "1,3.5"]) == 0
    assert main(["importance", "--dataset", "ds.bin", "--feature-set", "both",
                 "--trees", "5", "--out", "imp.json"]) == 0
    assert main(["stats", "--dataset", "ds.bin", "--out", "stats.csv"]) == 0
    pinned = {
        "ds.bin.manifest.json": "296d3ebc7ab6883f7c568d7598ad942c943c11bb2eeea95aaa15966059074e6e",
        "run/manifest.json": "609f66e17e0d8a79e84e246e8a4f27eaa95925db4793621861907a86c40e9523",
        "run/model.bin.json": "996ef18cbcc755d6ca47d875ca8cf9f3cfee1ee344ac50005851e16ea2c5fa18",
        "imp.json": "3ea3bdf71cc762c0dcfb59f2b92a0ecd9309e594297de932be630eef6ac33649",
        "imp.json.manifest.json":
            "9b75a3af965b5c2ab2ba3a9cdd6893919aadbd7def604bffb54d2756a501ac10",
        "stats.csv.manifest.json":
            "e17343db687658b457ae402a0c96139dcebf43341f42bc1d9e6d40a239499050",
    }
    assert {name: sha256_file(name) for name in pinned} == pinned


# (dataset, clean report, manifest) digests of the fixed ingest fixture, by flags
PINNED_INGEST = {
    "": ("6f0b9b9c575353de8e3c43bb5063ae4e2544fcb604dd7f0fb91997b25cb569c4",
         "3f2cac8d02f6972db264990a2303c187b635dbc6077322239fe7d28484fed04f",
         "5b948affd00bbfce7d24f4f41e69654463a65b20735ce57259ec4abe66ef4849"),
    "--verified verified.txt": (
        "9cd353d5c58878505458844e1fcfee6cd76ff65a895fb238ee7f701fa5b2958e",
        "3f2cac8d02f6972db264990a2303c187b635dbc6077322239fe7d28484fed04f",
        "bd5566b0caccf19a1db0b75cde7218de535bf8870a932faaa5a6888c5e74160a"),
    "--verified verified.txt --require-verified": (
        "8d5e04f1e72880523bfa4011a427ba644e82a748686e9bfc2afc28ee4a536b57",
        "3f2cac8d02f6972db264990a2303c187b635dbc6077322239fe7d28484fed04f",
        "f070190d23748d403b49b187470e15408c5e92310c7873ecf174705417eb0f5f"),
}

def _write_ingest_fixture():
    """A small CSV+JSON export pair with every reject reason, a repeated
    hash, a gas beyond 64 bits, a value beyond 256 bits, a blank and a short
    row, a checksummed address, a JSON null and a non-object entry."""
    rows = [
        csv_row(1, addr(1), addr(2)),
        csv_row(2, "0xnot-an-address", addr(3)),                          # BadAddress
        csv_row(3, addr(3), addr(4)).replace(tx_hash(3), "0xdeadbeef"),   # BadHash
        csv_row(4, addr(4), addr(5)).replace(",20000000000,", ",,"),     # MissingField
        csv_row(5, addr(5), addr(6), value="1.5e18"),                     # BadNumeral
        csv_row(6, addr(6), addr(1)).replace(",1680021600,", ",0,"),      # BadTimestamp
        csv_row(7, addr(1), addr(3), gas_used=80_001),                    # GasExceeded
        "",
        csv_row(8, " 0X5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed ", addr(2)),
        csv_row(9, addr(2), addr(4)).replace(",80000,", f",{2**64},"),    # beyond 64 bits
        csv_row(10, addr(3), addr(1), value=2**256),                      # beyond 256 bits
        csv_row(1, addr(7), addr(8)),                                     # repeated hash
        f"17000011,1680039600,{tx_hash(11)},{addr(2)}",                   # short row
    ]
    Path("txs.csv").write_text("\n".join([HEADER, *rows]) + "\n")
    fields = HEADER.split(",")
    entries = [dict(zip(fields, csv_row(k, addr(k % 4 + 1), addr(9)).split(",")))
               for k in (12, 13, 14, 8)]
    entries[1]["gasPrice"] = None
    entries[2]["value"] = 7
    Path("txs.json").write_text(json.dumps(
        {"status": "1", "message": "OK", "result": [entries[0], "not an entry", *entries[1:]]}))
    Path("flagged.txt").write_text(f"{addr(1)}\n{addr(3)}\n{addr(9)}\n")
    Path("verified.txt").write_text(f"{addr(3)}\n")


@pytest.mark.parametrize("flags", [[], ["--verified", "verified.txt"],
                                   ["--verified", "verified.txt", "--require-verified"]],
                         ids=["listed", "verified", "require-verified"])
def test_pinned_ingest_artifact_digests(flags, tmp_path, monkeypatch):
    """The dataset, clean report and manifest of one fixed export pair are
    fixed byte for byte, with and without a verified list."""
    monkeypatch.chdir(tmp_path)
    _write_ingest_fixture()
    assert main(["ingest", "--tx", "txs.csv", "--tx", "txs.json",
                 "--phishing-list", "flagged.txt", *flags, "--out", "ds.bin"]) == 0
    names = ("ds.bin", "ds.bin.clean.json", "ds.bin.manifest.json")
    assert tuple(sha256_file(name) for name in names) == PINNED_INGEST[" ".join(flags)]


def _readme_exit_codes() -> dict[str, int]:
    """Error class name -> code, from the README's exit-code table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    codes = {}
    for code, classes in re.findall(r"^\| (\d) \| [^|]+ \| ([^|]+) \|$", readme, re.M):
        for name in re.findall(r"`(\w+)`", classes):
            assert name not in codes, f"{name} listed twice"
            codes[name] = int(code)
    return codes


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_exit_code_matches_readme(cls, monkeypatch, capsys):
    """Each PipelineError class exits with the code the README gives it."""
    documented = _readme_exit_codes()
    assert cls.__name__ in documented, f"{cls.__name__} missing from the README table"
    assert cls.exit_code == documented[cls.__name__]

    def fail(args):
        raise cls("planted failure")

    monkeypatch.setattr(cli, "_cmd_stats", fail)
    assert main(["stats", "--dataset", "x.bin", "--out", "x.csv"]) == cls.exit_code
    assert "planted failure" in assert_clean_error(capsys)


def test_traced_names_resolve():
    """Every function the benchmark's tracer (benchmarks/traced_cli.py)
    patches is still found, callable, where it patches it."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli_targets", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.WRAPPED
    for module_name, attr_path, span in traced.WRAPPED:
        target = importlib.import_module(module_name)
        for part in attr_path.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"{module_name}.{attr_path} ({span}) is gone"


def test_traced_run_counts_the_operator(tmp_path):
    """A ``--trace 1`` run of the benchmark's tracer still reads its counts
    (nnz and rows of each spmv operand, nnz of the adjacency) from the
    program. The tracer patches modules globally, so it runs in its own
    process."""
    root = Path(__file__).resolve().parents[1]
    path = root / "benchmarks" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli_summary", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    dataset, spans_path = tmp_path / "ds.bin", tmp_path / "spans.json"
    assert main(small_synth_args(dataset)) == 0
    src = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(src)}
    args = ["run", "--dataset", str(dataset), "--features", "both",
            "--out-dir", str(tmp_path / "out"), "--epochs", "2"]
    done = subprocess.run([sys.executable, str(path), str(spans_path), *args],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_path.read_text())
    summary = traced.summarize([[{"wall_s": 1.0, "spans": spans}]])
    operator = normalized_adjacency(build_graph(load_dataset(dataset)))
    assert summary["graph.adjacency_nnz"] == operator.nnz > 0
    # per epoch: 2 training forward, 2 backward and 2 eval products, plus
    # A_hat @ X computed once before the first epoch
    assert summary["graph.spmv_calls"] == 6 * 2 + 1
