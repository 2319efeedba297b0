from __future__ import annotations

import pytest

from ded.mixer import MixError, compose_mix
from ded.records import write_manifest

from conftest import make_question, make_trajectory


def _corpus(prefix: str, n_questions: int, per_question: int = 2, domain: str = "math"):
    trajectories = []
    for i in range(n_questions):
        q = make_question(i, domain=domain)
        q.question_id = f"{prefix}{i:03d}"
        for j in range(per_question):
            t = make_trajectory(q, j, f"<think>{prefix}{i}</think>ans {j}")
            t.trajectory_id = f"{q.question_id}:t:{j:03d}"
            trajectories.append(t)
    return trajectories


class TestComposeMix:
    def test_counts_and_manifest(self):
        math = _corpus("m", 6)
        code = _corpus("c", 6, domain="code")
        mixed, provenance = compose_mix([(math, 4), (code, 4)], seed=7)
        qids = {t.question_id for t in mixed}
        assert len(qids) == 8
        assert len(mixed) == 16  # every selected question keeps both trajectories
        manifest = write_manifest("mixed", mixed, config={"mix": provenance})
        assert manifest.question_count == 8
        assert manifest.trajectory_count == 16
        assert len(provenance["sources"]) == 2
        assert provenance["sources"][0]["take"] == 4

    def test_single_source_take_all_is_identity(self):
        math = _corpus("m", 3)
        mixed, _ = compose_mix([(math, 3)], seed=1)
        assert sorted(t.trajectory_id for t in mixed) == \
            sorted(t.trajectory_id for t in math)

    def test_deterministic_under_seed(self):
        math = _corpus("m", 10)
        code = _corpus("c", 10, domain="code")
        a, _ = compose_mix([(math, 5), (code, 5)], seed=42)
        b, _ = compose_mix([(math, 5), (code, 5)], seed=42)
        c, _ = compose_mix([(math, 5), (code, 5)], seed=43)
        assert a == b
        assert {t.question_id for t in a} != {t.question_id for t in c}

    def test_sorted_by_question_id(self):
        math = _corpus("m", 5)
        code = _corpus("c", 5, domain="code")
        mixed, _ = compose_mix([(code, 3), (math, 3)], seed=0)
        qids = [t.question_id for t in mixed]
        assert qids == sorted(qids)

    def test_take_exceeding_available_errors(self):
        with pytest.raises(MixError) as err:
            compose_mix([(_corpus("m", 2), 3)], seed=0)
        assert "take 3 > 2" in str(err.value)

    def test_take_below_one_errors(self):
        with pytest.raises(MixError) as err:
            compose_mix([(_corpus("m", 2), 1), (_corpus("c", 2), 0)], seed=0)
        assert "source 1: take must be >= 1, got 0" in str(err.value)

    def test_duplicate_question_across_sources_errors(self):
        a = _corpus("m", 3)
        b = _corpus("m", 3)
        with pytest.raises(MixError):
            compose_mix([(a, 2), (b, 2)], seed=0)

    def test_no_question_sampled_twice(self):
        math = _corpus("m", 20, per_question=1)
        mixed, _ = compose_mix([(math, 15)], seed=9)
        qids = [t.question_id for t in mixed]
        assert len(qids) == len(set(qids)) == 15
