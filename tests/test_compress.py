from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ded.clients import (CachingClient, HttpClient, MockClient, RetryBudgetExceededError,
                         RetryPolicy, map_concurrent)
from ded.compress import CompressError, pass_rate, select_hard, student_rollout
from ded.records import PassRateStats

from conftest import MockTransport, ProbeClient, make_question


class TestPassRate:
    def test_twelve_of_sixteen(self):
        stats = pass_rate([True] * 12 + [False] * 4, 16, question_id="q")
        assert stats.pass_rate == Fraction(3, 4)
        assert float(stats.pass_rate) == 0.75

    def test_zero_and_saturation(self):
        assert pass_rate([False] * 16, 16).pass_rate == 0
        assert pass_rate([True] * 16, 16).pass_rate == 1

    def test_zero_runs_errors(self):
        with pytest.raises(CompressError):
            pass_rate([], 0)

    def test_outcome_count_must_match_runs(self):
        with pytest.raises(CompressError):
            pass_rate([True], 2)


def _stats(qid: str, successes: int, runs: int = 4) -> PassRateStats:
    return PassRateStats(question_id=qid, runs=runs, successes=successes)


class TestSelectHard:
    def test_threshold_keeps_at_most_tau(self):
        questions = [make_question(i) for i in range(5)]
        stats = [_stats(q.question_id, s) for q, s in zip(questions, [0, 1, 2, 3, 4])]
        retained, report = select_hard(questions, stats, tau=0.5)
        assert [q.question_id for q in retained] == ["q000", "q001", "q002"]
        assert report.retained == 3
        assert report.filtered_ids == ["q003", "q004"]

    def test_tau_one_retains_all(self):
        questions = [make_question(i) for i in range(4)]
        stats = [_stats(q.question_id, i) for i, q in enumerate(questions)]
        retained, _ = select_hard(questions, stats, tau=1.0)
        assert len(retained) == 4

    def test_exact_threshold_with_inexact_float(self):
        # 3/10 must survive tau=0.3 even though float(0.3) < Fraction(3, 10)
        q = make_question(0)
        retained, _ = select_hard([q], [_stats(q.question_id, 3, runs=10)], tau=0.3)
        assert len(retained) == 1

    def test_missing_stats_errors_with_ids(self):
        questions = [make_question(i) for i in range(3)]
        stats = [_stats("q000", 1)]
        with pytest.raises(CompressError) as err:
            select_hard(questions, stats, tau=0.5)
        assert "q001" in str(err.value) and "q002" in str(err.value)

    def test_inconsistent_runs_errors(self):
        questions = [make_question(i) for i in range(2)]
        stats = [_stats("q000", 1, runs=4), _stats("q001", 1, runs=8)]
        with pytest.raises(CompressError):
            select_hard(questions, stats, tau=0.5)

    def test_idempotent(self):
        questions = [make_question(i) for i in range(6)]
        stats = [_stats(q.question_id, i % 5) for i, q in enumerate(questions)]
        once, _ = select_hard(questions, stats, tau=0.5)
        twice, _ = select_hard(once, [s for s in stats
                                      if s.question_id in {q.question_id for q in once}],
                               tau=0.5)
        assert once == twice

    def test_monotone_in_tau(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 12)
            questions = [make_question(i) for i in range(n)]
            stats = [_stats(q.question_id, rng.randint(0, 16), runs=16) for q in questions]
            t1, t2 = sorted((rng.random(), rng.random()))
            r1, _ = select_hard(questions, stats, tau=t1)
            r2, _ = select_hard(questions, stats, tau=t2)
            ids1 = {q.question_id for q in r1}
            ids2 = {q.question_id for q in r2}
            assert ids1 <= ids2


def _rollout_client(questions, correct_of_4: dict[str, int]) -> MockClient:
    samples = {}
    for q in questions:
        k = correct_of_4[q.question_id]
        responses = []
        for r in range(4):
            ans = q.ground_truth if r < k else str(int(q.ground_truth) + 1)
            responses.append(f"<think>s{r}</think>\\boxed{{{ans}}}")
        samples[("student", q.prompt)] = responses
    return MockClient(fixtures={"samples": samples})


class TestStudentRollout:
    def test_always_wrong_and_always_right(self):
        questions = [make_question(i) for i in range(3)]
        client = _rollout_client(questions, {q.question_id: 0 for q in questions})
        stats = student_rollout(questions, client, runs=4, student_id="student")
        assert all(s.pass_rate == 0 for s in stats)
        retained, _ = select_hard(questions, stats, tau=0.0)
        assert len(retained) == 3

        client = _rollout_client(questions, {q.question_id: 4 for q in questions})
        stats = student_rollout(questions, client, runs=4, student_id="student")
        assert all(s.pass_rate == 1 for s in stats)
        retained, _ = select_hard(questions, stats, tau=0.75)
        assert retained == []

    def test_scripted_mixed_rates(self):
        questions = [make_question(i) for i in range(4)]
        script = {"q000": 0, "q001": 2, "q002": 2, "q003": 4}
        client = _rollout_client(questions, script)
        stats = student_rollout(questions, client, runs=4, student_id="student")
        assert [s.successes for s in stats] == [0, 2, 2, 4]
        assert [s.question_id for s in stats] == ["q000", "q001", "q002", "q003"]

    def test_resumed_rollout_bills_no_requests(self, tmp_path):
        questions = [make_question(i) for i in range(3)]
        script = {q.question_id: 2 for q in questions}
        first = _rollout_client(questions, script)
        stats = student_rollout(questions, CachingClient(first, tmp_path / "cache"), runs=4,
                                student_id="student")
        assert first.requests_total == 3

        again = _rollout_client(questions, script)
        assert student_rollout(questions, CachingClient(again, tmp_path / "cache"), runs=4,
                               student_id="student") == stats
        assert again.requests_total == 0
        assert [s.successes for s in stats] == [2, 2, 2]

    def test_failed_rollout_rebills_only_unfinished_questions(self, tmp_path):
        questions = [make_question(i) for i in range(3)]
        script = {q.question_id: 1 for q in questions}

        def over_http(**rules):
            return HttpClient(base_url="http://model.test/v1",
                              retry=RetryPolicy(budget=2, sleep=lambda _: None),
                              transport=MockTransport(_rollout_client(questions, script),
                                                      **rules))

        # q000 is answered; q001 fails both its attempts, and q002 never starts
        failing = over_http(throttle=lambda model, prompt: 2 if prompt == questions[1].prompt
                            else 0)
        with pytest.raises(RetryBudgetExceededError):
            student_rollout(questions, CachingClient(failing, tmp_path / "cache"), runs=4,
                            student_id="student")
        assert failing.requests_total == 3

        resumed = over_http()
        stats = student_rollout(questions, CachingClient(resumed, tmp_path / "cache"), runs=4,
                                student_id="student")
        assert resumed.requests_total == 2
        assert [s.successes for s in stats] == [1, 1, 1]

    def test_concurrent_rollout_matches_serial(self, tmp_path):
        # one rollout per question from several threads, sharing a request cache
        questions = [make_question(i) for i in range(8)]
        script = {q.question_id: i % 5 for i, q in enumerate(questions)}
        serial = student_rollout(questions, _rollout_client(questions, script),
                                 runs=4, student_id="student")
        probe = ProbeClient(_rollout_client(questions, script))
        cached = CachingClient(probe, tmp_path / "cache")
        threaded = map_concurrent(
            lambda q: student_rollout([q], cached, runs=4, student_id="student")[0],
            questions, max_in_flight=4)
        assert serial == threaded
        assert probe.peak > 1
        # a serial re-run is answered from what the threads stored
        assert student_rollout(questions, cached, runs=4, student_id="student") == serial
        assert (cached.misses, cached.hits) == (8, 8)
