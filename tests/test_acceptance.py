"""Acceptance suite: one test per criterion, each at its stated tolerance.

The terminal summary hook in conftest prints one pass/fail line per
criterion at the end of the run.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from ded.compress import select_hard
from ded.diagnostics import central_summary, pass_at_1, pca_shift, token_entropy
from ded.diversity import diversify_corpus, select_farthest
from ded.filtering import run_quality_gate
from ded.pipeline import EXIT_OK, run_pipeline, tree_hash
from ded.records import EmbeddingRecord, LogprobRecord, PassRateStats

from conftest import (build_pipeline_fixture, make_gate_fixture, make_question, make_trajectory,
                      pair_distance)
from oracles import brute_force_max_pair, min_dist_to_set, myers_distance, naive_levenshtein
from test_teacher import write_score_csv


def _random_string(rng: random.Random, max_len: int, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def test_criterion_01_levenshtein_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        a = _random_string(rng, 12, "abcd")
        b = _random_string(rng, 12, "abcd")
        assert pair_distance(a, b) == naive_levenshtein(a, b)

    for _ in range(200):
        a = _random_string(rng, 2000, "abcdefgh")
        b = _random_string(rng, 2000, "abcdefgh")
        assert pair_distance(a, b) == myers_distance(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"


def test_criterion_02_farthest_p_correctness():
    start = time.perf_counter()
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(2, 10)
        ids = [f"n{i:02d}" for i in range(n)]
        dist = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = rng.randint(0, 40)
        p = rng.randint(1, n)
        chosen = select_farthest(ids, dist, p)
        if p >= n:
            assert chosen == sorted(ids)
            continue
        idx = {tid: k for k, tid in enumerate(ids)}
        seed_i, seed_j = brute_force_max_pair(ids, dist)
        if p == 1:
            assert chosen == [ids[min(seed_i, seed_j, key=lambda k: ids[k])]]
            continue
        assert {idx[chosen[0]], idx[chosen[1]]} == {seed_i, seed_j}
        selected = [idx[c] for c in chosen]
        for step in range(2, len(selected)):
            prefix = selected[:step]
            chosen_val = min_dist_to_set(dist, selected[step], prefix)
            best_val = max(min_dist_to_set(dist, u, prefix)
                           for u in range(n) if u not in prefix)
            assert chosen_val == best_val
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s, budget 5s"


def test_criterion_03_planted_defect_gate_fixture():
    questions, trajectories = make_gate_fixture()
    baseline = None
    for order in (trajectories, trajectories[::-1]):
        result = run_quality_gate(order, questions)
        assert result.counts == {"kept": 151, "rejected": 9, "needs_judge": 0}
        ids = ([t.trajectory_id for t in result.kept],
               [t.trajectory_id for t in result.rejected],
               [t.trajectory_id for t in result.needs_judge])
        if baseline is None:
            baseline = ids
        else:
            assert ids == baseline


def test_criterion_04_compression_semantics():
    questions = [make_question(i) for i in range(5)]
    stats = [PassRateStats(q.question_id, runs=4, successes=s)
             for q, s in zip(questions, [0, 1, 2, 3, 4])]
    retained, _ = select_hard(questions, stats, tau=0.5)
    assert [q.question_id for q in retained] == ["q000", "q001", "q002"]

    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(1, 15)
        qs = [make_question(i) for i in range(n)]
        st = [PassRateStats(q.question_id, runs=16, successes=rng.randint(0, 16))
              for q in qs]
        t1, t2 = sorted((rng.random(), rng.random()))
        r1, _ = select_hard(qs, st, tau=t1)
        r2, _ = select_hard(qs, st, tau=t2)
        assert {q.question_id for q in r1} <= {q.question_id for q in r2}


def test_criterion_05_teacher_ranking_from_published_deltas(tmp_path):
    from ded.teacher import ingest_scores, rank_teachers
    records = ingest_scores(write_score_csv(tmp_path / "scores.csv"))
    by_key = {(r.teacher_id, r.benchmark): r.delta_acc for r in records}
    assert by_key[("QwQ-32B", "AIME2024")] == "13.95"
    assert by_key[("DeepSeek-R1", "AIME2024")] == "8.33"
    assert by_key[("Qwen3-32B", "AIME2024")] == "9.37"
    assert by_key[("Qwen3-235B-A22B", "AIME2024")] == "13.12"
    rankings = rank_teachers(records)
    assert rankings[0].teacher_id == "QwQ-32B"
    assert [r.teacher_id for r in rankings] == [
        "QwQ-32B", "Qwen3-235B-A22B", "Qwen3-32B", "DeepSeek-R1"]


def test_criterion_06_entropy_analytics():
    uniform2 = LogprobRecord("t", 0, [("a", 0.5), ("b", 0.5)], 0.0)
    assert abs(token_entropy(uniform2) - math.log(2)) <= 1e-9
    residual = LogprobRecord("t", 1, [("a", 0.5)], 0.5)
    assert abs(token_entropy(residual) - math.log(2)) <= 1e-9
    mean, median = central_summary([0.2, 0.4, 0.9])
    assert mean == 0.5
    assert median == 0.4


def test_criterion_07_pca_shift():
    rng = np.random.default_rng(707)
    points = rng.normal(size=(100, 2))
    before = [EmbeddingRecord(f"b{i}", "before", row.tolist())
              for i, row in enumerate(points)]
    after = [EmbeddingRecord(f"a{i}", "after", (row + np.array([3.0, 4.0])).tolist())
             for i, row in enumerate(points)]
    assert abs(pca_shift(before, after, k=2).dis - 5.0) <= 1e-6

    identical = [EmbeddingRecord(f"a{i}", "after", row.tolist())
                 for i, row in enumerate(points)]
    assert pca_shift(before, identical, k=2).dis <= 1e-9

    base = pca_shift(before, after, k=2).dis
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        rb = [EmbeddingRecord(r.item_id, r.phase, (np.array(r.vector) @ rot.T).tolist())
              for r in before]
        ra = [EmbeddingRecord(r.item_id, r.phase, (np.array(r.vector) @ rot.T).tolist())
              for r in after]
        assert abs(pca_shift(rb, ra, k=2).dis - base) <= 1e-9


def test_criterion_08_pass_at_1_aggregation():
    rng = random.Random(808)
    cells = [True] * 360 + [False] * 120
    rng.shuffle(cells)
    stats = [PassRateStats(f"q{i}", runs=16, successes=sum(cells[i * 16:(i + 1) * 16]))
             for i in range(30)]
    assert pass_at_1(stats) == 75.00


def test_criterion_09_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    config = build_pipeline_fixture(tmp_path)
    first = run_pipeline(config)
    assert first.exit_code == EXIT_OK
    hash1 = tree_hash(first.out_dir)
    second = run_pipeline(config)
    assert second.exit_code == EXIT_OK
    hash2 = tree_hash(second.out_dir)
    assert hash1 == hash2
    for stage in ("raw", "right", "right_hard", "right_hard_diverse"):
        assert (first.out_dir / f"manifest_{stage}.json").exists()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 9 took {elapsed:.1f}s, budget 60s"


def _scaling_corpus(rng: random.Random, n_questions: int = 200,
                    per_question: int = 8):
    words = ["lemma", "bound", "induct", "case", "sum", "solve", "expand",
             "factor", "root", "prime", "series", "graph", "modulo", "angle"]
    trajectories = []
    for qi in range(n_questions):
        q = make_question(qi)
        opening = (f"Restating problem {q.question_id}: " +
                   " ".join(rng.choices(words, k=260)) + ". ")
        closing = " Therefore " + " ".join(rng.choices(words, k=140)) + " holds."
        core_words = rng.choices(words, k=1150)
        for j in range(per_question):
            mutated = list(core_words)
            for _ in range(30):
                mutated[rng.randrange(len(mutated))] = rng.choice(words)
            body = opening + " ".join(mutated) + closing
            trajectories.append(make_trajectory(
                q, j, f"<think>{body}</think>The answer is \\boxed{{{q.ground_truth}}}.",
                token_len=None))
    return trajectories


def test_criterion_10_diversity_scaling_smoke():
    rng = random.Random(1010)
    trajectories = _scaling_corpus(rng)
    lengths = [len(t.text) for t in trajectories]
    assert min(lengths) > 8000 and max(lengths) < 12000  # ~10k chars each

    start = time.perf_counter()
    selected, report = diversify_corpus(trajectories, p=4, unit="char",
                                        cap_ratio=0.6, workers=2)
    elapsed = time.perf_counter() - start
    assert len(selected) == 200 * 4
    assert report["question_count"] == 200
    assert elapsed < 300.0, f"criterion 10 took {elapsed:.1f}s, budget 300s"
