"""Independent reference implementations used only to check the real ones.

These stay deliberately naive: the edit-distance oracle is the textbook
recursion with memoization, and the dispersion oracle enumerates subsets.
Neither shares code with the library.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def naive_levenshtein(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1,
                   rec(i, j - 1) + 1,
                   rec(i - 1, j - 1) + cost)

    result = rec(len(a), len(b))
    rec.cache_clear()
    return result


def brute_force_max_pair(ids: list[str], dist) -> tuple[int, int]:
    """Index pair maximizing distance; ties by lexicographically smallest id pair."""
    best = None
    best_key = None
    for i, j in itertools.combinations(range(len(ids)), 2):
        lo, hi = (i, j) if ids[i] < ids[j] else (j, i)
        key = (-int(dist[lo][hi]), ids[lo], ids[hi])
        if best_key is None or key < best_key:
            best_key = key
            best = (lo, hi)
    assert best is not None
    return best


def brute_force_best_max_min(ids: list[str], dist, n: int, p: int) -> int:
    """The optimal max-min dispersion value over all subsets of size p."""
    best = -1
    for subset in itertools.combinations(range(n), p):
        val = min(int(dist[i][j]) for i, j in itertools.combinations(subset, 2))
        best = max(best, val)
    return best


def min_dist_to_set(dist, candidate: int, selected: list[int]) -> int:
    return min(int(dist[candidate][s]) for s in selected)


def triangle_violated(dist) -> bool:
    """True when some dist[i][k] exceeds dist[i][j] + dist[j][k]."""
    n = len(dist)
    return any(dist[i][k] > dist[i][j] + dist[j][k]
               for i, j, k in itertools.product(range(n), repeat=3))
