from __future__ import annotations

import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ded import diversity
from ded.diversity import (DiversityError, _band_distances, _bounded_distances, _codes,
                           _pack_distances, _strip_common, diversify_corpus, select_farthest,
                           trajectory_surface)
from ded.forked import Forked

from conftest import make_question, make_trajectory, pair_distance, question_distances
from oracles import (brute_force_max_pair, min_dist_to_set, myers_distance,
                     naive_levenshtein, triangle_violated)

short_strings = st.text(alphabet="abcd", max_size=24)
WORDS = ["lemma", "bound", "case", "sum", "root", "prime", "graph", "angle"]


@st.composite
def edited(draw, base: list, alphabet, max_edits: int) -> list:
    """A copy of base with up to max_edits insertions, deletions and
    substitutions."""
    other = list(base)
    for op, where, item in draw(st.lists(
            st.tuples(st.sampled_from("ids"), st.integers(0, 10 ** 6),
                      st.sampled_from(alphabet)), max_size=max_edits)):
        pos = where % (len(other) + 1)
        if op == "i":
            other.insert(pos, item)
        elif pos < len(other) and op == "d":
            del other[pos]
        elif pos < len(other):
            other[pos] = item
    return other


@st.composite
def near_duplicates(draw, min_size: int, max_size: int, alphabet=tuple("abcd")):
    """A base sequence and a copy with a few edits: the distance is far
    below the length, which is the regime the band is for."""
    base = draw(st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=max_size))
    return base, draw(edited(base, alphabet, 12))


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


def question_matrix(trajectories, unit: str = "char", cap=None) -> tuple[list[str], np.ndarray]:
    """One question's ids and distance matrix, built the way diversify_corpus
    builds them."""
    ordered = sorted(trajectories, key=lambda t: t.trajectory_id)
    return ([t.trajectory_id for t in ordered],
            question_distances([trajectory_surface(t.text, unit) for t in ordered], cap))


def bounded_want(true: int, cap) -> int | None:
    return true if true < cap else None


class TestLevenshtein:
    def test_identity(self):
        assert pair_distance("abc", "abc") == 0

    def test_pure_insertions(self):
        assert pair_distance("", "abc") == 3
        assert pair_distance("abc", "") == 3

    def test_kitten_sitting(self):
        assert naive_levenshtein("kitten", "sitting") == 3
        assert pair_distance("kitten", "sitting") == 3

    def test_token_sequences(self):
        a = "the quick brown fox".split()
        b = "the slow brown dog".split()
        assert pair_distance(a, b) == 2

    @given(short_strings, short_strings)
    @settings(max_examples=300)
    def test_matches_oracle(self, a, b):
        assert pair_distance(a, b) == naive_levenshtein(a, b)

    @given(st.text(alphabet="aé€∑\U0001d11e\ud800", max_size=24),
           st.text(alphabet="aé€∑\U0001d11e\ud800", max_size=24))
    def test_any_code_point(self, a, b):
        assert pair_distance(a, b) == naive_levenshtein(a, b)

    @given(short_strings, short_strings)
    def test_bounds(self, a, b):
        d = pair_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(short_strings, short_strings)
    def test_symmetry(self, a, b):
        assert pair_distance(a, b) == pair_distance(b, a)

    @given(short_strings, short_strings, short_strings)
    @settings(max_examples=150)
    def test_triangle_inequality(self, a, b, c):
        ac, ab, bc = (pair_distance(x, y) for x, y in ((a, c), (a, b), (b, c)))
        assert ac <= ab + bc

    @given(short_strings, short_strings)
    def test_identity_of_indiscernibles(self, a, b):
        assert (pair_distance(a, b) == 0) == (a == b)


class TestLevenshteinBounded:
    def test_under_cap_exact(self):
        assert pair_distance("kitten", "sitting", 10) == 3

    def test_at_or_over_cap_clamped(self):
        assert pair_distance("aaaa", "zzzz", 2) == 2
        assert naive_levenshtein("aaaa", "zzzz") == 4

    def test_cap_zero_boundary(self):
        assert pair_distance("same", "same", 0) == 0
        assert pair_distance("same", "same", 1) == 0

    def test_infinite_cap_matches_full(self):
        rng = random.Random(0)
        for _ in range(40):
            a = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 60)))
            b = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 60)))
            assert pair_distance(a, b) == myers_distance(a, b)

    @given(short_strings, short_strings, st.integers(0, 30))
    @settings(max_examples=300)
    def test_agrees_with_oracle_under_any_cap(self, a, b, cap):
        true = naive_levenshtein(a, b)
        assert pair_distance(a, b, cap) == min(true, cap)

    def test_distance_exactly_cap_is_clamped(self):
        # a distance equal to the cap reads as the cap
        assert naive_levenshtein("ab", "cd") == 2
        assert pair_distance("ab", "cd", 2) == 2
        assert pair_distance("ab", "cd", 3) == 2


class TestClampedDistance:
    def test_no_cap_is_exact(self):
        assert pair_distance("kitten", "sitting", None) == 3


def bounded_from(a, b, cap, k) -> int | None:
    """The distance of a and b when it is below cap, else None, with the
    band search started at k."""
    return _bounded_distances([tuple(_codes([a, b]))], cap, k)[0][0]


class TestBandEngine:
    @given(near_duplicates(4, 40), st.integers(1, 8))
    @settings(max_examples=300)
    def test_short_matches_oracle_around_the_cap(self, pair, hint):
        a, b = ("".join(s) for s in pair)
        true = naive_levenshtein(a, b)
        for cap in (max(true - 1, 0), true, true + 1, math.inf):
            assert bounded_from(a, b, cap, hint) == bounded_want(true, cap)

    @given(near_duplicates(40, 400))
    @settings(max_examples=150)
    def test_long_matches_full_width_under_any_hint(self, pair):
        a, b = ("".join(s) for s in pair)
        true = myers_distance(a, b)
        for cap in (max(true - 1, 0), true, true + 1):
            for hint in (1, max(1, true // 2), true + 3):
                assert bounded_from(a, b, cap, hint) == bounded_want(true, cap)
            assert pair_distance(a, b, cap) == min(true, cap)

    @given(near_duplicates(40, 400), st.integers(1, 64))
    def test_length_gap_one_below_cap(self, pair, hint):
        a, b = ("".join(s) for s in pair)
        cap = abs(len(a) - len(b)) + 1
        true = myers_distance(a, b)
        assert bounded_from(a, b, cap, hint) == bounded_want(true, cap)

    @given(near_duplicates(20, 120, alphabet=tuple(WORDS)))
    @settings(max_examples=60)
    def test_token_surfaces(self, pair):
        q = make_question(0)
        ts = [make_trajectory(q, i, "<think>" + " ".join(words[:5]) + "</think>" +
                              " ".join(words[5:])) for i, words in enumerate(pair)]
        surfaces = [trajectory_surface(t.text, unit="token") for t in ts]
        true = myers_distance(*surfaces)
        assert question_matrix(ts, unit="token")[1][0, 1] == true
        for cap in (max(true - 1, 1), true + 1):
            assert question_matrix(ts, unit="token", cap=cap)[1][0, 1] == min(true, cap)

    def test_band_doubles_from_a_narrow_hint(self, monkeypatch):
        widths = []
        band = diversity._band_distances

        def recording(pairs, k):
            widths.append(k)
            return band(pairs, k)

        monkeypatch.setattr(diversity, "_band_distances", recording)
        rng = random.Random(5)
        a = "".join(rng.choice("abcd") for _ in range(400))
        b = "".join("x" if i % 40 == 20 else ch for i, ch in enumerate(a))
        true = myers_distance(a, b)
        assert bounded_from(a, b, math.inf, 1) == true
        assert widths == [1 << i for i in range(len(widths))]
        assert widths[-2] < true <= widths[-1]


def stripped_pairs(seqs, oracle=myers_distance) -> list[tuple]:
    """Every ordered pair of seqs as the engine takes it: stripped code
    arrays, shorter first, with the pair's distance by the oracle."""
    codes = _codes(seqs)
    pairs = []
    for i, x in enumerate(seqs):
        for j, y in enumerate(seqs):
            if i != j:
                a, b = _strip_common(codes[i], codes[j])
                pairs.append((*sorted((a, b), key=len), oracle(x, y)))
    return pairs


def band_want(true: int, k: int) -> int | None:
    return true if true <= k else None


@st.composite
def question_of_variants(draw, min_size: int, max_size: int, alphabet=tuple("abcd")):
    """Several edited copies of one base: lengths, length gaps, distances
    and so band widths differ from pair to pair."""
    base = draw(st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=max_size))
    copies = [draw(edited(base, alphabet, 30)) for _ in range(draw(st.integers(2, 5)))]
    return ["".join(v) for v in [base, *copies]]


class TestBatchedBand:
    """One call of the engine runs many pairs, each in its own segment."""

    @given(question_of_variants(4, 30), st.integers(0, 40))
    @settings(max_examples=200)
    def test_mixed_pairs_in_one_call_match_oracle(self, seqs, k):
        pairs = stripped_pairs(seqs, naive_levenshtein)
        got = _band_distances([(a, b) for a, b, _ in pairs], k)
        assert got == [band_want(true, k) for *_, true in pairs]

    @given(question_of_variants(60, 400))
    @settings(max_examples=60)
    def test_long_mixed_pairs_at_every_band_match_full_width(self, seqs):
        pairs = stripped_pairs(seqs)
        truths = sorted({true for *_, true in pairs})
        for k in {1, truths[0], truths[-1], (truths[0] + truths[-1]) // 2 + 1}:
            got = _band_distances([(a, b) for a, b, _ in pairs], k)
            assert got == [band_want(true, k) for *_, true in pairs]

    def test_neighbouring_segments_keep_their_own_counts(self):
        # a near-duplicate pair beside pairs of far more edits and other
        # lengths: a count read from the wrong segment changes a distance
        rng = random.Random(2)
        base = "".join(rng.choice("abcdef") for _ in range(300))
        near = base[:150] + "z" + base[151:]
        far = "".join(ch if i % 5 else "y" for i, ch in enumerate(base))
        short = base[40:200] + "qq"
        # two edits 298 symbols apart: a count of 298 in a band of k = 2
        ends = "y" + base[1:-1] + "y"
        seqs = [near, base, far, short, base[:260], ends]
        pairs = stripped_pairs(seqs)
        assert len({len(b) - len(a) for a, b, _ in pairs}) > 2
        for k in (2, 3, 64, 160, 400):
            got = _band_distances([(a, b) for a, b, _ in pairs], k)
            assert got == [band_want(true, k) for *_, true in pairs]

    def test_pairs_empty_after_stripping(self):
        seqs = ["abcabc", "abcabc", "abc", "", "abcabcab"]
        pairs = stripped_pairs(seqs, naive_levenshtein)
        assert any(not len(a) for a, _, _ in pairs)
        for k in (0, 1, 2, 3, 6, 10):
            got = _band_distances([(a, b) for a, b, _ in pairs], k)
            assert got == [band_want(true, k) for *_, true in pairs]
        want = [[naive_levenshtein(x, y) for y in seqs] for x in seqs]
        assert question_distances(seqs).tolist() == want

    @given(question_of_variants(1, 12))
    @settings(max_examples=100)
    def test_band_at_or_above_the_shorter_length(self, seqs):
        pairs = stripped_pairs(seqs, naive_levenshtein)
        shortest = min(len(a) for a, _, _ in pairs)
        longest = max(len(b) for _, b, _ in pairs)
        for k in (shortest, shortest + 1, 2 * longest + 3):
            got = _band_distances([(a, b) for a, b, _ in pairs], k)
            assert got == [band_want(true, k) for *_, true in pairs]

    @given(question_of_variants(20, 200), st.integers(1, 64))
    @settings(max_examples=60)
    def test_caps_around_each_distance(self, seqs, k):
        codes = _codes(seqs)
        index = [(i, j) for i in range(len(seqs)) for j in range(i + 1, len(seqs))]
        truths = [myers_distance(seqs[i], seqs[j]) for i, j in index]
        for true in {truths[0], truths[-1]}:
            for cap in (max(true - 1, 0), true, true + 1):
                got, _ = _bounded_distances(
                    [(codes[i], codes[j]) for i, j in index], cap, k)
                assert got == [bounded_want(t, cap) for t in truths]

    @given(st.lists(near_duplicates(20, 120, alphabet=tuple(WORDS)), min_size=1,
                    max_size=2))
    @settings(max_examples=40)
    def test_token_surfaces_of_a_question(self, groups):
        # at least three trajectories, so every pair after the first goes
        # through one shared pass
        q = make_question(0)
        word_lists = [words for pair in groups for words in pair] + [list(WORDS)]
        ts = [make_trajectory(q, i, "<think>" + " ".join(words[:5]) + "</think>" +
                              " ".join(words[5:])) for i, words in enumerate(word_lists)]
        surfaces = [trajectory_surface(t.text, unit="token") for t in ts]
        want = np.array([[myers_distance(x, y) for y in surfaces] for x in surfaces])
        _, dist = question_matrix(ts, unit="token")
        assert (dist == want).all()
        for cap in (max(int(want[0, 1]) - 1, 1), int(want[0, 1]) + 1):
            _, got = question_matrix(ts, unit="token", cap=cap)
            assert (got == np.minimum(want, cap)).all()

    def test_codes_leave_two_values_for_padding(self):
        # rows and columns past a pair's end hold the dtype's two largest
        # values, which must match no symbol
        for size in (253, 254, 255, 256, 65533, 65534, 65535):
            for seqs in (["".join(map(chr, range(0x100, 0x100 + size)))],
                         [list(range(size))]):
                (codes,) = _codes(seqs)
                assert len(set(codes.tolist())) == size
                assert codes.max() < np.iinfo(codes.dtype).max - 1

    def test_passes_count_every_engine_call(self, monkeypatch):
        calls = []
        band = diversity._band_distances

        def recording(pairs, k):
            calls.append(len(pairs))
            return band(pairs, k)

        monkeypatch.setattr(diversity, "_band_distances", recording)
        _, passes, _ = _pack_distances([(near_duplicate_texts(1), None)])
        assert passes == len(calls) >= 2
        assert calls[0] == 1


class TestMatchWords:
    """Each column's match words are byte slices of per-symbol occurrence
    bitmaps, shifted by the column's bit offset within its byte."""

    def test_every_length_residue_mod_8(self):
        # patterns and texts of every length mod 8, so windows start at
        # every bit of a byte and straddle byte boundaries
        rng = random.Random(8)
        seqs = []
        for r in range(8):
            base = "".join(rng.choice("abcde") for _ in range(40 + 9 * r))
            seqs += [base, base[:17] + "x" + base[18:] + "yz"[:r % 3]]
        triples = stripped_pairs(seqs)
        pairs = [(a, b) for a, b, _ in triples]
        assert {len(a) % 8 for a, _ in pairs} == {len(b) % 8 for _, b in pairs} == set(range(8))
        for k in (3, 12, 40, 200):
            assert _band_distances(pairs, k) == [band_want(t, k) for *_, t in triples]
        for a, b, true in triples[:30]:
            assert _band_distances([(a, b)], 40) == [band_want(true, 40)]

    @given(question_of_variants(10, 120))
    @settings(max_examples=60)
    def test_chunks_of_eight_columns(self, seqs):
        # the smallest chunks: bitmaps are rebuilt every 8 columns and a
        # block of match words never spans two chunks
        pairs = stripped_pairs(seqs)
        truths = sorted({true for *_, true in pairs})
        wide = _band_distances([(a, b) for a, b, _ in pairs], truths[-1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diversity, "_SCRATCH", 0)
            assert _band_distances([(a, b) for a, b, _ in pairs], truths[-1]) == wide
        assert wide == [true for *_, true in pairs]

    def test_uint16_codes(self):
        # more than 254 distinct tokens take two-byte codes
        rng = random.Random(16)
        vocab = [f"w{i}" for i in range(300)]
        base = rng.sample(vocab, 300)
        seqs = [base]
        for n in (5, 20, 60):
            words = list(base)
            for _ in range(n):
                words[rng.randrange(len(words))] = rng.choice(vocab)
            seqs.append(words[:len(words) - n // 5])
        assert _codes(seqs)[0].dtype == np.uint16
        want = [[myers_distance(x, y) for y in seqs] for x in seqs]
        assert question_distances(seqs).tolist() == want

    def test_thousands_of_distinct_tokens_in_bounded_scratch(self):
        # over 3,000 distinct tokens: bitmaps of every symbol over whole
        # rows would take 15 pairs x 3,000 symbols x ~3,000 rows, ~135 MB
        # unpacked; chunks keep them within _SCRATCH
        rng = random.Random(4)
        vocab = [f"w{i}" for i in range(50000)]
        base = rng.choices(vocab, k=3000)
        seqs = []
        for _ in range(6):
            words = list(base)
            for _ in range(40):
                words[rng.randrange(len(words))] = rng.choice(vocab)
            seqs.append(words)
        assert len({w for s in seqs for w in s}) > 3000
        tracemalloc.start()
        try:
            dist = question_distances(seqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * diversity._SCRATCH
        want = [[myers_distance(x, y) for y in seqs] for x in seqs]
        assert dist.tolist() == want

    def test_near_duplicate_texts_take_fewer_passes(self):
        # one wide pass for the first pair (doubling it from 32 took two
        # more, six in all), one shared pass for the rest, and three
        # doublings over their spread of distances, 54 to 420
        _, passes, _ = _pack_distances([(near_duplicate_texts(1), None)])
        assert passes <= 5


def long_variants(seed: int, size: int, copies: int, edits: int, clustered: bool = False,
                  alphabet: str = "abcd") -> list[str]:
    """A random base of `size` symbols and copies of it with up to `edits`
    insertions, deletions and substitutions each, spread over the whole
    base or clustered within 200 symbols of one point."""
    rng = random.Random(seed)
    base = rng.choices(alphabet, k=size)
    seqs = ["".join(base)]
    for _ in range(copies):
        other = list(base)
        centre = rng.randrange(size)
        for _ in range(rng.randint(edits // 2, edits)):
            pos = centre + rng.randint(-100, 100) if clustered else rng.randrange(len(other))
            pos = min(max(pos, 0), len(other))
            op = rng.choice("ids")
            if op == "i":
                other.insert(pos, rng.choice(alphabet))
            elif pos < len(other) and op == "d":
                del other[pos]
            elif pos < len(other):
                other[pos] = rng.choice(alphabet)
        seqs.append("".join(other))
    return seqs


def long_pairs(seqs) -> list[tuple]:
    """Each unordered pair of seqs as the engine takes it, with its distance
    by the full-width oracle."""
    codes = _codes(seqs)
    pairs = []
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            a, b = _strip_common(codes[i], codes[j])
            pairs.append((*sorted((a, b), key=len), myers_distance(seqs[i], seqs[j])))
    return pairs


def assert_cut_off_exact(triples, k) -> None:
    """The engine's distances at k match the oracle at its own cadence and
    with a check after every block and a re-pack whenever a byte can go;
    the cadence changes the time taken, never a result."""
    want = [band_want(true, k) for *_, true in triples]
    pairs = [(a, b) for a, b, _ in triples]
    assert _band_distances(pairs, k) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diversity, "_CUT", diversity._BLOCK)
        patch.setattr(diversity, "_REPACK", 1)
        assert _band_distances(pairs, k) == want


def record_packs(patch) -> list[tuple[int, int]]:
    """(pairs, slot bits) of each pack of the engine's int, in order."""
    packs = []
    match_blocks = diversity._match_blocks

    def recording(rows, text, ends, slot, start):
        packs.append((len(text), slot))
        return match_blocks(rows, text, ends, slot, start)

    patch.setattr(diversity, "_match_blocks", recording)
    return packs


class TestCutOff:
    """Every _CUT columns each band drops the rows that can no longer end
    within k, and the pairs left are re-packed into a narrower int."""

    @given(st.integers(0, 2 ** 32), st.integers(2000, 10000), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_near_duplicates_match_full_width(self, seed, size, clustered):
        triples = long_pairs(long_variants(seed, size, 3, size // 25, clustered))
        truths = sorted(true for *_, true in triples)
        for k in {truths[len(truths) // 2], truths[-1]}:
            assert_cut_off_exact(triples, k)

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=8, deadline=None)
    def test_mixed_length_gaps_in_one_pass(self, seed):
        rng = random.Random(seed)
        base, *copies = long_variants(seed, rng.randint(2000, 6000), 3, 150)
        # grow each copy at its start and cut either end, by up to 300 symbols
        seqs = [base]
        for c in copies:
            head = "".join(rng.choices("abcd", k=rng.randint(0, 300)))
            seqs.append(head + c[rng.randint(0, 300):len(c) - rng.randint(0, 300)])
        triples = long_pairs(seqs)
        assert len({len(b) - len(a) for a, b, _ in triples}) > 2
        truths = sorted(true for *_, true in triples)
        for k in {truths[0], truths[len(truths) // 2], truths[-1]}:
            assert_cut_off_exact(triples, k)

    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_just_below_at_and_above_k(self, seed):
        # copies with 300, 301 and 302 nested substitutions by a symbol the
        # base lacks, 20 apart: pairs at distances 1, 2, 300, 301 and 302
        rng = random.Random(seed)
        base = rng.choices("abcd", k=7000)
        spots = rng.sample(range(0, 7000, 20), 302)
        seqs = ["".join(base)]
        for s in (300, 301, 302):
            other = list(base)
            for pos in spots[:s]:
                other[pos] = "x"
            seqs.append("".join(other))
        triples = long_pairs(seqs)
        assert {300, 301, 302} <= {true for *_, true in triples}
        assert_cut_off_exact(triples, 301)
        with pytest.MonkeyPatch.context() as patch:
            packs = record_packs(patch)
            _band_distances([(a, b) for a, b, _ in triples], 301)
        assert len(packs) > 2  # re-packed more than once

    def test_a_pair_whose_end_diagonal_is_cut(self):
        # the pairs with one far text are far beyond k among near ones: the
        # cut-off drops them long before their texts end, and the pass goes
        # on without them
        rng = random.Random(7)
        near = long_variants(3, 8000, 3, 120)
        far = "".join(rng.choices("abcd", k=8000))
        triples = long_pairs(near + [far])
        k = max(true for *_, true in triples if true < 1000)
        assert_cut_off_exact(triples, k)
        with pytest.MonkeyPatch.context() as patch:
            packs = record_packs(patch)
            _band_distances([(a, b) for a, b, _ in triples], k)
        assert [pairs for pairs, _ in packs[:2]] == [len(triples), len(triples) - len(near)]

    @given(st.integers(0, 2 ** 32), st.integers(2000, 5000))
    @settings(max_examples=6, deadline=None)
    def test_token_surfaces(self, seed, size):
        rng = random.Random(seed)
        core = rng.choices(WORDS, k=size)
        word_lists = [core]
        for _ in range(3):
            words = list(core)
            for _ in range(rng.randint(20, 200)):
                words[rng.randrange(len(words))] = rng.choice(WORDS + ["other"])
            word_lists.append(words[:len(words) - rng.randint(0, 100)])
        want = [[myers_distance(x, y) for y in word_lists] for x in word_lists]
        assert question_distances(word_lists).tolist() == want

    def test_band_bytes_fall_on_a_long_near_duplicate_question(self):
        # eight ~7k-character variants of one core, 30 words apart
        rng = random.Random(12)
        core = rng.choices(WORDS, k=1150)
        texts = []
        for _ in range(8):
            words = list(core)
            for _ in range(30):
                words[rng.randrange(len(words))] = rng.choice(WORDS)
            texts.append(" ".join(words))
        (cut,), cut_passes, cut_bytes = _pack_distances([(texts, None)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diversity, "_CUT", 1 << 30)  # no check before the end
            (whole,), whole_passes, whole_bytes = _pack_distances([(texts, None)])
        assert (cut == whole).all()
        assert cut_passes == whole_passes
        assert cut_bytes < 0.8 * whole_bytes
        assert _pack_distances([(texts, None)])[2] == cut_bytes


def _matrix_from_texts(texts: dict[str, str], cap=None) -> tuple[list[str], np.ndarray]:
    q = make_question(0)
    trajectories = [make_trajectory(q, i, f"<think>r</think>{text}")
                    for i, text in enumerate(texts.values())]
    for t, tid in zip(trajectories, texts.keys()):
        t.trajectory_id = tid
    return question_matrix(trajectories, unit="char", cap=cap)


class TestPairwiseDistances:
    def test_single_trajectory_zero_matrix(self):
        q = make_question(0)
        _, dist = question_matrix([make_trajectory(q, 0, "<think>a</think>x")])
        assert dist.tolist() == [[0]]

    def test_identical_texts_zero_off_diagonal(self):
        _, dist = _matrix_from_texts({"a": "same text", "b": "same text"})
        assert dist.tolist() == [[0, 0], [0, 0]]

    def test_matches_elementwise_oracle(self):
        texts = {"a": "alpha beta", "b": "alpha gamma", "c": "entirely different"}
        ids, dist = _matrix_from_texts(texts)
        assert (dist == dist.T).all()
        assert not np.diag(dist).any()
        assert not triangle_violated(dist)
        for i in range(3):
            for j in range(3):
                want = naive_levenshtein("r" + texts[ids[i]], "r" + texts[ids[j]])
                assert dist[i, j] == want

    def test_think_delimiters_are_stripped(self):
        assert trajectory_surface("<think>abc</think>xyz") == "abcxyz"
        assert trajectory_surface("<think>a b</think>c d", unit="token") == ["a", "b", "c", "d"]

    def test_capped_matrix_is_truncated_metric(self):
        texts = {"a": "aaaaaaaaaa", "b": "bbbbbbbbbb", "c": "ababababab"}
        _, dist = _matrix_from_texts(texts, cap=4)
        assert (dist == dist.T).all()
        assert not np.diag(dist).any()
        assert not triangle_violated(dist)
        assert dist.max() == 4

    def test_token_mode(self):
        q = make_question(0)
        ts = [make_trajectory(q, 0, "<think>x</think>one two three"),
              make_trajectory(q, 1, "<think>x</think>one two four")]
        _, dist = question_matrix(ts, unit="token")
        assert dist[0, 1] == 1


def _random_matrix(rng: random.Random, n: int) -> tuple[list[str], np.ndarray]:
    ids = [f"m{i:02d}" for i in range(n)]
    dist = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = rng.randint(0, 50)
    return ids, dist


class TestSelectFarthest:
    def test_spec_example_tie_break(self):
        ids, dist = _matrix_from_texts({"a": "aaaa", "b": "aaab", "c": "zzzz"})
        assert select_farthest(ids, dist, 2) == ["a", "c"]

    def test_saturation_returns_all_in_id_order(self):
        rng = random.Random(1)
        ids, dist = _random_matrix(rng, 5)
        assert select_farthest(ids, dist, 5) == sorted(ids)
        assert select_farthest(ids, dist, 9) == sorted(ids)

    def test_p1_returns_first_of_max_pair(self):
        ids, dist = _matrix_from_texts({"a": "aaaa", "b": "aaab", "c": "zzzz"})
        assert select_farthest(ids, dist, 1) == ["a"]

    def test_p_below_one_rejected(self):
        ids, dist = _matrix_from_texts({"a": "x", "b": "y"})
        with pytest.raises(DiversityError):
            select_farthest(ids, dist, 0)

    def test_greedy_stepwise_max_min_property(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 10)
            ids, d = _random_matrix(rng, n)
            p = rng.randint(1, n)
            chosen = select_farthest(ids, d, p)
            assert len(chosen) == min(p, n)
            assert len(set(chosen)) == len(chosen)
            if p >= n:
                continue
            idx = {tid: k for k, tid in enumerate(ids)}
            if p >= 2:
                i, j = brute_force_max_pair(ids, d)
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
                        assert ids[selected[step]] < ids[other]

    def test_deterministic_across_runs(self):
        rng = random.Random(3)
        ids, dist = _random_matrix(rng, 8)
        first = select_farthest(ids, dist, 4)
        for _ in range(5):
            assert select_farthest(ids, dist, 4) == first


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
            ids, dist = question_matrix(members)
            chosen = [t.trajectory_id for t in selected if t.question_id == qid]
            idx = {tid: k for k, tid in enumerate(ids)}
            got = min(int(dist[idx[a], idx[b]])
                      for i, a in enumerate(chosen) for b in chosen[i + 1:])
            best = brute_force_best_max_min(ids, dist, len(members), 2)
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
            results = {}
            for workers in (1, 2, 3):
                runs = [diversify_corpus(trajectories, p=3, cap_ratio=0.6, workers=workers)
                        for _ in range(2)]
                engines = []
                for _, report in runs:
                    # distance times are wall-clock telemetry, one per question
                    engine = report.pop("engine")
                    times = engine.pop("distance_ms")
                    assert sorted(times) == sorted(report["per_question"])
                    assert all(ms >= 0 for ms in times.values())
                    engines.append(engine)
                # packs depend on workers, so engine counts repeat only at
                # the same workers
                assert engines[0] == engines[1]
                assert runs[0] == runs[1]
                results[workers] = runs[0]
            assert results[1] == results[2] == results[3]

    def test_pool_leaves_the_heap_unfrozen(self):
        # the heap is frozen only while the pool's workers fork
        long_corpus = [make_trajectory(make_question(qi), j, f"<think>{text}</think>ok")
                       for qi in range(3) for j, text in enumerate(near_duplicate_texts(qi))]
        assert gc.get_freeze_count() == 0
        diversify_corpus(long_corpus, p=3, workers=2)
        assert gc.get_freeze_count() == 0

    def test_report_contains_distance_stats(self):
        _, report = diversify_corpus(self._corpus(), p=3, cap_ratio=None)
        row = report["per_question"]["q000"]
        assert row["min_distance"] is not None
        assert row["median_distance"] >= row["min_distance"]



@st.composite
def packs_of_questions(draw):
    """1-4 questions of 2-5 edited copies of a base each, all on character
    or all on word-token surfaces, of lengths up to 20 or 200 symbols, and
    a cap for each, None among them."""
    tokens = draw(st.booleans())
    alphabet = tuple(WORDS) if tokens else tuple("abcd")
    questions = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from([20, 200]))
        base = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=size))
        seqs = [base] + [draw(edited(base, alphabet, 30)) for _ in range(draw(st.integers(1, 4)))]
        questions.append((seqs if tokens else ["".join(x) for x in seqs],
                          draw(st.one_of(st.none(), st.integers(1, 60)))))
    return questions


def far_apart_pack() -> list[tuple[list[str], int]]:
    """Three questions of near-duplicate ~1.9k-character texts and one of
    independent texts whose distances all reach its cap."""
    questions = []
    for seed in range(3):
        rng = random.Random(seed)
        core = rng.choices(WORDS, k=300)
        texts = []
        for _ in range(5):
            words = list(core)
            for _ in range(20):
                words[rng.randrange(len(words))] = rng.choice(WORDS)
            texts.append(" ".join(words))
        questions.append(texts)
    rng = random.Random(9)
    questions.append([" ".join(rng.choices(WORDS, k=300)) for _ in range(5)])
    return [(texts, math.ceil(0.4 * max(map(len, texts)))) for texts in questions]


class PackFailed(Exception):
    pass


def fail_in_pack(ids, distances, p, cap):
    raise PackFailed(f"selection over {len(ids)} trajectories failed")


class TestPacks:
    """A pack's questions share engine passes: each pair keeps its own band
    and cap, so a pack gives each question the distances it gets alone."""

    @given(packs_of_questions(), st.sampled_from([16, 256, diversity._PASS_BYTES]))
    @settings(max_examples=80, deadline=None)
    def test_a_pack_matches_its_questions_alone(self, questions, pass_bytes):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diversity, "_PASS_BYTES", pass_bytes)
            dists, _, _ = _pack_distances(questions)
        assert len(dists) == len(questions)
        for (seqs, cap), dist in zip(questions, dists):
            assert (dist == question_distances(seqs, cap)).all()
            want = [[myers_distance(x, y) for y in seqs] for x in seqs]
            assert dist.tolist() == (want if cap is None else np.minimum(want, cap).tolist())

    def test_far_apart_bands_do_not_share_a_pass(self):
        # a pass's slots are as wide as its widest band: the near-duplicate
        # pairs would pay the far question's band of ~800 rows
        questions = far_apart_pack()
        dists, _, packed = _pack_distances(questions)
        for (texts, cap), dist in zip(questions, dists):
            assert (dist == question_distances(texts, cap)).all()
        assert (dists[-1][np.triu_indices(5, 1)] == questions[-1][1]).all()
        alone = sum(_pack_distances([question])[2] for question in questions)
        assert packed <= 1.1 * alone

    def test_a_pack_shares_its_retries(self):
        # distances within each question spread from ~50 to ~420, so each
        # takes several retries alone
        questions = [(near_duplicate_texts(seed), None) for seed in range(4)]
        _, packed, _ = _pack_distances(questions)
        alone = [_pack_distances([question])[1] for question in questions]
        assert min(alone) >= 5
        assert packed <= max(alone)

    def test_a_wide_pass_is_split(self):
        # 12 questions of 20 pairs after the first: each pass starts within
        # _PASS_BYTES, unless it holds one pair
        questions = [(near_duplicate_texts(seed), None) for seed in range(12)]
        want, passes, _ = _pack_distances(questions)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diversity, "_PASS_BYTES", 512)
            packs = record_packs(patch)
            got, split, _ = _pack_distances(questions)
        assert all((g == w).all() for g, w in zip(got, want))
        assert split > passes
        assert all(pairs * slot <= 8 * 512 or pairs == 1 for pairs, slot in packs)

    def test_a_wide_pack_gathers_whole_intervals(self, monkeypatch):
        # 4 + 108 pairs over ~3.3k columns: chunks keep whole _CUT intervals,
        # so each scan of the int builds at most one shorter chunk, its last
        events = []
        match_blocks, bitmaps = diversity._match_blocks, diversity._bitmaps

        def recording_scan(rows, text, ends, slot, start):
            events.append(("scan", slot // 8))
            return match_blocks(rows, text, ends, slot, start)

        def recording_chunk(rows, codes, c0, nbytes):
            events.append(("chunk", nbytes))
            return bitmaps(rows, codes, c0, nbytes)

        rng = random.Random(3)
        questions = []
        for _ in range(4):
            core = rng.choices(WORDS, k=600)
            texts = []
            for _ in range(8):
                words = list(core)
                for _ in range(10):
                    words[rng.randrange(len(words))] = rng.choice(WORDS)
                texts.append(" ".join(words))
            questions.append((texts, None))
        monkeypatch.setattr(diversity, "_match_blocks", recording_scan)
        monkeypatch.setattr(diversity, "_bitmaps", recording_chunk)
        dists, _, _ = _pack_distances(questions)
        for (texts, _), dist in zip(questions, dists):
            assert dist.tolist() == [[myers_distance(x, y) for y in texts] for x in texts]
        scans = short = 0
        for kind, size in events:
            if kind == "scan":
                scans, step = scans + 1, size
            elif 8 * (size - step + 1) < diversity._CUT:
                short += 1
        assert short <= scans

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_pack_that_raises_is_raised_here_as_itself(self, monkeypatch, workers):
        corpus = [make_trajectory(make_question(qi), j, f"<think>{text}</think>ok")
                  for qi in range(3) for j, text in enumerate(near_duplicate_texts(qi))]
        monkeypatch.setattr(diversity, "_select_for_question", fail_in_pack)
        frozen = gc.get_freeze_count()
        with pytest.raises(PackFailed, match="selection over 7 trajectories failed"):
            diversify_corpus(corpus, p=3, workers=workers)
        with pytest.raises(ChildProcessError):  # every pack's process was joined
            os.waitpid(-1, os.WNOHANG)
        assert gc.get_freeze_count() == frozen

    def test_a_pack_process_freezes_the_heap_it_forked_with(self):
        frozen = gc.get_freeze_count()
        child = Forked("a test process")
        try:
            assert child(gc.get_freeze_count) > frozen
        finally:
            child.close()
        assert gc.get_freeze_count() == frozen

    def test_importing_the_engine_starts_no_pool(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", "import sys, ded.diversity; print(sorted(m for m in sys.modules"
             " if m == 'concurrent.futures.process' or m.startswith('multiprocessing')))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
            check=True)
        assert out.stdout.strip() == "[]"


class TestHintIndependence:
    """Each pair's band starts from the previous pair's distance; that start
    may change how long a pair takes, never its distance."""

    def test_pair_order_does_not_change_distances(self):
        texts = near_duplicate_texts(0)
        for cap in (None, 400):
            ref = question_distances(texts, cap)
            for seed in range(3):
                perm = list(range(len(texts)))
                random.Random(seed).shuffle(perm)
                got = question_distances([texts[p] for p in perm], cap)
                # text i sits at row and column order[i] of got
                order = np.argsort(perm)
                assert (got[np.ix_(order, order)] == ref).all()
