import json

import jsonschema
import numpy as np
import pytest

from phishgraph.errors import InvalidConfig, ShapeMismatch
from phishgraph.evaluate import (
    ConfusionMatrix,
    confusion,
    emit_report,
    format_metrics_table,
    metrics,
    stratified_split,
)

from importlib import resources

from helpers import brute_force_metrics


def load_schema():
    schema_text = (
        resources.files("phishgraph") / "schemas" / "report.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(schema_text)


class TestStratifiedSplit:
    def test_counts_10_phishing_40_benign(self):
        labels = np.array([1] * 10 + [0] * 40)
        split = stratified_split(labels, 0.8, seed=0)
        assert int((split.train_mask & (labels == 1)).sum()) == 8
        assert int((split.train_mask & (labels == 0)).sum()) == 32
        assert int((split.test_mask & (labels == 1)).sum()) == 2
        assert int((split.test_mask & (labels == 0)).sum()) == 8

    def test_masks_partition_all_nodes(self):
        labels = (np.random.default_rng(1).random(101) < 0.3).astype(int)
        split = stratified_split(labels, 0.8, seed=3)
        assert not np.any(split.train_mask & split.test_mask)
        assert np.all(split.train_mask | split.test_mask)

    def test_deterministic_per_seed(self):
        labels = np.array([0, 1] * 25)
        a = stratified_split(labels, 0.8, seed=9)
        b = stratified_split(labels, 0.8, seed=9)
        c = stratified_split(labels, 0.8, seed=10)
        assert np.array_equal(a.train_mask, b.train_mask)
        assert not np.array_equal(a.train_mask, c.train_mask)

    def test_half_ratio_sides_are_complements(self):
        labels = np.array([0] * 10 + [1] * 10)
        split = stratified_split(labels, 0.5, seed=4)
        assert np.array_equal(split.test_mask, ~split.train_mask)
        assert int(split.train_mask.sum()) == 10

    def test_proportions_within_one_node_per_class(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            labels = (rng.random(73) < 0.25).astype(int)
            ratio = float(rng.uniform(0.3, 0.9))
            split = stratified_split(labels, ratio, seed=trial)
            for code in (0, 1):
                n_c = int((labels == code).sum())
                got = int((split.train_mask & (labels == code)).sum())
                assert abs(got - ratio * n_c) < 1.0

    def test_large_class_counts_match_floor_rule(self):
        # 671,865 / 2,687,460 at 0.8 cut exactly to 537,492 / 2,149,968
        labels = np.concatenate([np.ones(671_865, dtype=np.int64),
                                 np.zeros(2_687_460, dtype=np.int64)])
        split = stratified_split(labels, 0.8, seed=0)
        assert int((split.train_mask & (labels == 1)).sum()) == 537_492
        assert int((split.train_mask & (labels == 0)).sum()) == 2_149_968
        assert int((split.test_mask & (labels == 1)).sum()) == 134_373
        assert int((split.test_mask & (labels == 0)).sum()) == 537_492

    def test_invalid_ratio_rejected(self):
        with pytest.raises(InvalidConfig):
            stratified_split(np.array([0, 1]), 1.0, seed=0)


class TestConfusion:
    def test_all_correct(self):
        pred = truth = np.array([0, 1, 0, 1])
        cm = confusion(pred, truth)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 0, 0, 2)

    def test_all_benign_prediction_pattern(self):
        truth = np.array([0, 0, 0, 1, 1])
        pred = np.zeros(5, dtype=int)
        cm = confusion(pred, truth)
        assert cm.tp == 0
        assert cm.fn == 2  # equals the phishing support
        report = metrics(cm)
        assert report.recall["phishing"] == 0.0
        assert report.precision["phishing"] == 0.0  # 0/0 convention
        assert report.f1["phishing"] == 0.0

    def test_matches_brute_force_pairwise_count(self):
        rng = np.random.default_rng(6)
        pred = rng.integers(0, 2, 50)
        truth = rng.integers(0, 2, 50)
        cm = confusion(pred, truth)
        brute = brute_force_metrics(pred, truth)
        assert metrics(cm).accuracy == brute["accuracy"]

    def test_mask_restricts_counts(self):
        pred = np.array([1, 1, 0])
        truth = np.array([1, 0, 0])
        cm = confusion(pred, truth, np.array([True, False, True]))
        assert cm.total == 2 and cm.tp == 1 and cm.tn == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            confusion(np.array([0, 1]), np.array([0]))


class TestMetrics:
    def test_hand_evaluated_formulas(self):
        report = metrics(ConfusionMatrix(tp=1, fp=1, fn=0, tn=2))
        assert report.accuracy == 0.75
        assert report.precision["phishing"] == 0.5
        assert report.recall["phishing"] == 1.0
        assert report.f1["phishing"] == pytest.approx(2 / 3)

    def test_zero_over_zero_convention(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=5))
        assert report.precision["phishing"] == 0.0
        assert report.recall["phishing"] == 0.0
        assert report.f1["phishing"] == 0.0

    def test_scale_free_under_doubling(self):
        cm = ConfusionMatrix(tp=3, fp=2, fn=4, tn=11)
        doubled = ConfusionMatrix(tp=6, fp=4, fn=8, tn=22)
        a, b = metrics(cm), metrics(doubled)
        assert a.accuracy == b.accuracy
        assert a.precision == b.precision
        assert a.recall == b.recall
        assert a.f1 == b.f1
        assert a.weighted_f1 == b.weighted_f1

    def test_weighted_average_definition(self):
        cm = ConfusionMatrix(tp=3, fp=2, fn=4, tn=11)
        r = metrics(cm)
        support = r.support
        recomputed = (
            r.f1["phishing"] * support["phishing"] + r.f1["benign"] * support["benign"]
        ) / (support["phishing"] + support["benign"])
        assert abs(r.weighted_f1 - recomputed) <= 1e-12

    def test_random_vectors_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            pred = rng.integers(0, 2, n)
            truth = rng.integers(0, 2, n)
            got = metrics(confusion(pred, truth))
            want = brute_force_metrics(pred, truth)
            assert abs(got.accuracy - want["accuracy"]) <= 1e-12
            for cls in ("benign", "phishing"):
                assert abs(got.precision[cls] - want["precision"][cls]) <= 1e-12
                assert abs(got.recall[cls] - want["recall"][cls]) <= 1e-12
                assert abs(got.f1[cls] - want["f1"][cls]) <= 1e-12
            assert abs(got.weighted_f1 - want["weighted_f1"]) <= 1e-12


class TestReports:
    def sample_report(self):
        return metrics(ConfusionMatrix(tp=8, fp=3, fn=4, tn=35))

    def test_json_round_trip(self, tmp_path):
        report = self.sample_report()
        json_path, _ = emit_report(tmp_path, metrics_report=report)
        parsed = json.loads(json_path.read_text())
        assert parsed["metrics"] == report.to_dict()

    def test_validates_against_shipped_schema(self, tmp_path):
        report = self.sample_report()
        json_path, _ = emit_report(tmp_path, metrics_report=report)
        jsonschema.validate(json.loads(json_path.read_text()), load_schema())

    def test_sections_omitted_when_absent(self, tmp_path):
        json_path, text_path = emit_report(tmp_path, metrics_report=self.sample_report())
        doc = json.loads(json_path.read_text())
        assert set(doc) == {"metrics"}
        assert "Feature importance" not in text_path.read_text()

    def test_text_table_layout_two_decimals(self):
        table = format_metrics_table(self.sample_report())
        lines = table.splitlines()
        assert lines[0].split() == ["Metric", "Benign", "Phishing", "Weighted", "Avg"]
        # benign precision 35/39 = 0.90, phishing 8/11 = 0.73,
        # weighted (0.7273*12 + 0.8974*38)/50 = 0.86
        assert lines[2].split() == ["Precision", "0.90", "0.73", "0.86"]
        assert lines[5].startswith("Accuracy")
