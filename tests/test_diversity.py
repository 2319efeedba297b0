from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ded import diversity
from ded.diversity import (DistanceMatrix, DiversityError, _myers_distance,
                           clamped_distance, diversify_corpus, levenshtein,
                           levenshtein_bounded, pairwise_distances, select_farthest,
                           surface_distances, trajectory_surface)

from conftest import make_question, make_trajectory
from oracles import (brute_force_max_pair, min_dist_to_set, naive_levenshtein,
                     triangle_violated)

short_strings = st.text(alphabet="abcd", max_size=24)
WORDS = ["lemma", "bound", "case", "sum", "root", "prime", "graph", "angle"]


@st.composite
def near_duplicates(draw, min_size: int, max_size: int, alphabet=tuple("abcd")):
    """A base sequence and a copy with a few edits: the distance is far
    below the length, which is the regime the band is for."""
    base = draw(st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=max_size))
    other = list(base)
    for op, where, item in draw(st.lists(
            st.tuples(st.sampled_from("ids"), st.integers(0, 10 ** 6),
                      st.sampled_from(alphabet)), max_size=12)):
        pos = where % (len(other) + 1)
        if op == "i":
            other.insert(pos, item)
        elif pos < len(other) and op == "d":
            del other[pos]
        elif pos < len(other):
            other[pos] = item
    return base, other


def full_width(a, b) -> int:
    """The full-width scanner alone, as the reference for long inputs."""
    if not a or not b:
        return max(len(a), len(b))
    return _myers_distance(a, b)


def near_duplicate_texts(seed: int) -> list[str]:
    """One question's worth of texts: variants of one core at growing
    distances, plus one far from the rest."""
    rng = random.Random(seed)
    core = rng.choices(WORDS, k=120)
    texts = []
    for j in range(6):
        words = list(core)
        for _ in range(3 + 6 * j):
            words[rng.randrange(len(words))] = rng.choice(WORDS)
        texts.append(" ".join(words))
    texts.append(" ".join(rng.choices(WORDS, k=60)))
    return texts


def bounded_want(true: int, cap) -> int | None:
    return true if true < cap else None


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_pure_insertions(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_kitten_sitting(self):
        assert naive_levenshtein("kitten", "sitting") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_token_sequences(self):
        a = "the quick brown fox".split()
        b = "the slow brown dog".split()
        assert levenshtein(a, b) == 2

    @given(short_strings, short_strings)
    @settings(max_examples=300)
    def test_matches_oracle(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(short_strings, short_strings)
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(short_strings, short_strings)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_strings, short_strings, short_strings)
    @settings(max_examples=150)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_strings, short_strings)
    def test_identity_of_indiscernibles(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)


class TestLevenshteinBounded:
    def test_under_cap_exact(self):
        assert levenshtein_bounded("kitten", "sitting", 10) == 3

    def test_at_or_over_cap_sentinel(self):
        assert levenshtein_bounded("aaaa", "zzzz", 2) is None
        assert naive_levenshtein("aaaa", "zzzz") == 4

    def test_cap_zero_boundary(self):
        assert levenshtein_bounded("same", "same", 0) is None
        assert levenshtein_bounded("same", "same", 1) == 0

    def test_infinite_cap_matches_full(self):
        rng = random.Random(0)
        for _ in range(40):
            a = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 60)))
            b = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 60)))
            assert levenshtein_bounded(a, b, math.inf) == levenshtein(a, b)

    def test_negative_cap_rejected(self):
        with pytest.raises(DiversityError):
            levenshtein_bounded("a", "b", -1)

    @given(short_strings, short_strings, st.integers(0, 30))
    @settings(max_examples=300)
    def test_agrees_with_oracle_under_any_cap(self, a, b, cap):
        true = naive_levenshtein(a, b)
        got = levenshtein_bounded(a, b, cap)
        assert got == (true if true < cap else None)

    def test_distance_exactly_cap_is_sentinel(self):
        # strict less-than: distance == cap must not be reported exactly
        assert naive_levenshtein("ab", "cd") == 2
        assert levenshtein_bounded("ab", "cd", 2) is None
        assert levenshtein_bounded("ab", "cd", 3) == 2


class TestClampedDistance:
    def test_no_cap_is_exact(self):
        assert clamped_distance("kitten", "sitting", None) == 3


class TestBandEngine:
    @given(near_duplicates(4, 40), st.integers(1, 8))
    @settings(max_examples=300)
    def test_short_matches_oracle_around_the_cap(self, pair, hint):
        a, b = ("".join(s) for s in pair)
        true = naive_levenshtein(a, b)
        for cap in (max(true - 1, 0), true, true + 1, math.inf):
            assert levenshtein_bounded(a, b, cap, hint) == bounded_want(true, cap)

    @given(near_duplicates(40, 400))
    @settings(max_examples=150)
    def test_long_matches_full_width_under_any_hint(self, pair):
        a, b = ("".join(s) for s in pair)
        true = full_width(a, b)
        for hint in (1, max(1, true // 2), true + 3):
            for cap in (max(true - 1, 0), true, true + 1):
                assert levenshtein_bounded(a, b, cap, hint) == bounded_want(true, cap)
                assert clamped_distance(a, b, cap, hint) == min(true, cap)

    @given(near_duplicates(40, 400), st.integers(1, 64))
    def test_length_gap_one_below_cap(self, pair, hint):
        a, b = ("".join(s) for s in pair)
        cap = abs(len(a) - len(b)) + 1
        true = full_width(a, b)
        assert levenshtein_bounded(a, b, cap, hint) == bounded_want(true, cap)

    @given(near_duplicates(20, 120, alphabet=tuple(WORDS)))
    @settings(max_examples=60)
    def test_token_surfaces(self, pair):
        q = make_question(0)
        ts = [make_trajectory(q, i, "<think>" + " ".join(words[:5]) + "</think>" +
                              " ".join(words[5:])) for i, words in enumerate(pair)]
        surfaces = [trajectory_surface(t.text, unit="token") for t in ts]
        true = full_width(*surfaces)
        assert pairwise_distances(ts, unit="token").distances[0, 1] == true
        for cap in (max(true - 1, 1), true + 1):
            assert pairwise_distances(ts, unit="token", cap=cap).distances[0, 1] == min(true, cap)

    def test_band_doubles_from_a_narrow_hint(self, monkeypatch):
        widths = []
        band = diversity._band_distance

        def recording(a, b, k):
            widths.append(k)
            return band(a, b, k)

        monkeypatch.setattr(diversity, "_band_distance", recording)
        rng = random.Random(5)
        a = "".join(rng.choice("abcd") for _ in range(400))
        b = "".join("x" if i % 40 == 20 else ch for i, ch in enumerate(a))
        true = full_width(a, b)
        assert levenshtein_bounded(a, b, math.inf, hint=1) == true
        assert widths == [1 << i for i in range(len(widths))]
        assert widths[-2] < true <= widths[-1]


def _matrix_from_texts(texts: dict[str, str], cap=None) -> DistanceMatrix:
    q = make_question(0)
    trajectories = [make_trajectory(q, i, f"<think>r</think>{text}")
                    for i, text in enumerate(texts.values())]
    for t, tid in zip(trajectories, texts.keys()):
        t.trajectory_id = tid
    return pairwise_distances(trajectories, unit="char", cap=cap)


class TestPairwiseDistances:
    def test_single_trajectory_zero_matrix(self):
        q = make_question(0)
        matrix = pairwise_distances([make_trajectory(q, 0, "<think>a</think>x")])
        assert matrix.distances.tolist() == [[0]]

    def test_identical_texts_zero_off_diagonal(self):
        matrix = _matrix_from_texts({"a": "same text", "b": "same text"})
        assert matrix.distances.tolist() == [[0, 0], [0, 0]]

    def test_matches_elementwise_oracle(self):
        texts = {"a": "alpha beta", "b": "alpha gamma", "c": "entirely different"}
        matrix = _matrix_from_texts(texts)
        matrix.validate()
        assert not triangle_violated(matrix.distances)
        ids = matrix.ids
        for i in range(3):
            for j in range(3):
                want = naive_levenshtein("r" + texts[ids[i]], "r" + texts[ids[j]])
                assert matrix.distances[i, j] == want

    def test_think_delimiters_are_stripped(self):
        assert trajectory_surface("<think>abc</think>xyz") == "abcxyz"
        assert trajectory_surface("<think>a b</think>c d", unit="token") == ["a", "b", "c", "d"]

    def test_mixed_questions_rejected(self):
        qa, qb = make_question(0), make_question(1)
        ts = [make_trajectory(qa, 0, "<think>a</think>x"),
              make_trajectory(qb, 0, "<think>a</think>x")]
        with pytest.raises(DiversityError):
            pairwise_distances(ts)

    def test_capped_matrix_is_truncated_metric(self):
        texts = {"a": "aaaaaaaaaa", "b": "bbbbbbbbbb", "c": "ababababab"}
        matrix = _matrix_from_texts(texts, cap=4)
        matrix.validate()
        assert not triangle_violated(matrix.distances)
        assert matrix.distances.max() == 4

    def test_token_mode(self):
        q = make_question(0)
        ts = [make_trajectory(q, 0, "<think>x</think>one two three"),
              make_trajectory(q, 1, "<think>x</think>one two four")]
        matrix = pairwise_distances(ts, unit="token")
        assert matrix.distances[0, 1] == 1


def _random_matrix(rng: random.Random, n: int) -> DistanceMatrix:
    ids = [f"m{i:02d}" for i in range(n)]
    dist = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = rng.randint(0, 50)
    return DistanceMatrix(ids=ids, distances=dist)


class TestSelectFarthest:
    def test_spec_example_tie_break(self):
        matrix = _matrix_from_texts({"a": "aaaa", "b": "aaab", "c": "zzzz"})
        assert select_farthest(matrix, 2) == ["a", "c"]

    def test_saturation_returns_all_in_id_order(self):
        rng = random.Random(1)
        matrix = _random_matrix(rng, 5)
        assert select_farthest(matrix, 5) == sorted(matrix.ids)
        assert select_farthest(matrix, 9) == sorted(matrix.ids)

    def test_p1_returns_first_of_max_pair(self):
        matrix = _matrix_from_texts({"a": "aaaa", "b": "aaab", "c": "zzzz"})
        assert select_farthest(matrix, 1) == ["a"]

    def test_p_below_one_rejected(self):
        matrix = _matrix_from_texts({"a": "x", "b": "y"})
        with pytest.raises(DiversityError):
            select_farthest(matrix, 0)

    def test_greedy_stepwise_max_min_property(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 10)
            matrix = _random_matrix(rng, n)
            p = rng.randint(1, n)
            chosen = select_farthest(matrix, p)
            assert len(chosen) == min(p, n)
            assert len(set(chosen)) == len(chosen)
            if p >= n:
                continue
            idx = {tid: k for k, tid in enumerate(matrix.ids)}
            d = matrix.distances
            if p >= 2:
                i, j = brute_force_max_pair(matrix.ids, d)
                assert {idx[chosen[0]], idx[chosen[1]]} == {i, j}
            selected = [idx[c] for c in chosen]
            for step in range(2, len(selected)):
                prefix = selected[:step]
                chosen_val = min_dist_to_set(d, selected[step], prefix)
                for other in range(n):
                    if other in prefix or other == selected[step]:
                        continue
                    other_val = min_dist_to_set(d, other, prefix)
                    assert chosen_val >= other_val
                    if other_val == chosen_val and other not in selected[:step + 1]:
                        # ties must resolve toward the smallest id
                        assert matrix.ids[selected[step]] < matrix.ids[other]

    def test_deterministic_across_runs(self):
        rng = random.Random(3)
        matrix = _random_matrix(rng, 8)
        first = select_farthest(matrix, 4)
        for _ in range(5):
            assert select_farthest(matrix, 4) == first


class TestDiversifyCorpus:
    def _corpus(self):
        trajectories = []
        for qi in range(3):
            q = make_question(qi)
            for j in range(6):
                body = f"route {j} " * (j + 2) + f"tail {qi}"
                trajectories.append(make_trajectory(q, j, f"<think>{body}</think>ans {j}"))
        return trajectories

    def test_selects_p_per_question(self):
        selected, report = diversify_corpus(self._corpus(), p=2, cap_ratio=None)
        assert len(selected) == 6
        per_q = report["per_question"]
        assert set(per_q) == {"q000", "q001", "q002"}
        assert all(len(row["selected"]) == 2 for row in per_q.values())

    def test_matches_brute_force_max_min(self):
        from oracles import brute_force_best_max_min
        trajectories = self._corpus()
        selected, _ = diversify_corpus(trajectories, p=2, cap_ratio=None)
        by_q: dict[str, list] = {}
        for t in trajectories:
            by_q.setdefault(t.question_id, []).append(t)
        for qid, members in by_q.items():
            matrix = pairwise_distances(members)
            chosen = [t.trajectory_id for t in selected if t.question_id == qid]
            idx = {tid: k for k, tid in enumerate(matrix.ids)}
            got = min(int(matrix.distances[idx[a], idx[b]])
                      for i, a in enumerate(chosen) for b in chosen[i + 1:])
            best = brute_force_best_max_min(matrix.ids, matrix.distances,
                                            len(members), 2)
            assert got == best  # for p=2 the greedy seed pair is optimal

    def test_fewer_than_p_keeps_all(self):
        q = make_question(0)
        ts = [make_trajectory(q, 0, "<think>a</think>only one")]
        selected, report = diversify_corpus(ts, p=4)
        assert selected == ts
        assert report["per_question"]["q000"]["available"] == 1

    def test_dropped_questions_reported(self):
        q_with = make_question(0)
        q_without = make_question(1)
        ts = [make_trajectory(q_with, 0, "<think>a</think>x")]
        _, report = diversify_corpus(ts, p=2, questions=[q_with, q_without])
        assert report["dropped_questions"] == ["q001"]

    def test_workers_do_not_change_result(self):
        # the second corpus is long enough for the band path and its hints
        long_corpus = [make_trajectory(make_question(qi), j, f"<think>{text}</think>ok")
                       for qi in range(3) for j, text in enumerate(near_duplicate_texts(qi))]
        for trajectories in (self._corpus(), long_corpus):
            serial, report_s = diversify_corpus(trajectories, p=3, cap_ratio=0.6)
            parallel, report_p = diversify_corpus(trajectories, p=3, cap_ratio=0.6,
                                                  workers=2)
            assert serial == parallel
            assert report_s == report_p

    def test_report_contains_distance_stats(self):
        _, report = diversify_corpus(self._corpus(), p=3, cap_ratio=None)
        row = report["per_question"]["q000"]
        assert row["min_distance"] is not None
        assert row["median_distance"] >= row["min_distance"]



class TestHintIndependence:
    """Each pair's band starts from the previous pair's distance; that start
    may change how long a pair takes, never its distance."""

    def test_pair_order_does_not_change_distances(self):
        texts = near_duplicate_texts(0)
        ids = [f"t{i}" for i in range(len(texts))]
        for cap in (None, 400):
            ref = surface_distances(ids, texts, cap=cap)
            for seed in range(3):
                perm = list(range(len(ids)))
                random.Random(seed).shuffle(perm)
                got = surface_distances([ids[p] for p in perm], [texts[p] for p in perm],
                                        cap=cap)
                pos = {tid: k for k, tid in enumerate(got.ids)}
                order = [pos[tid] for tid in ref.ids]
                assert (got.distances[np.ix_(order, order)] == ref.distances).all()
