"""Independent reference implementations used only to check the real ones.

These stay deliberately simple: the short edit-distance oracle is the
textbook recursion with memoization, the long one Myers's full-width
bit-parallel scanner, and the dispersion oracle enumerates subsets. The
hash oracles build their whole payload and hash it at once. None shares
code with the library beyond a record's `to_dict`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache
from pathlib import Path


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


def myers_distance(a, b) -> int:
    """Edit distance by Myers's (1999) bit-parallel scanner, one
    arbitrary-precision word spanning all of a."""
    m = len(a)
    if not m or not b:
        return max(m, len(b))
    full = (1 << m) - 1
    top = 1 << (m - 1)
    peq: dict = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    vp, vn, score = full, 0, m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | (~(xh | vp) & full)
        mh = vp & xh
        if ph & top:
            score += 1
        if mh & top:
            score -= 1
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        vp = mh | (~(xv | ph) & full)
        vn = ph & xv
    return score


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


# each record type's key fields, in the order its kind sorts before the next
_KEY_FIELDS = {"QuestionRecord": ("question_id",), "TrajectoryRecord": ("trajectory_id",),
               "LogprobRecord": ("trajectory_id", "position"),
               "EmbeddingRecord": ("item_id", "phase"),
               "ScoreRecord": ("teacher_id", "student_id", "benchmark")}


def reference_content_hash(records) -> str:
    """SHA-256 of the records' compact, key-sorted JSON lines, sorted by
    kind and then key, joined by newlines into one payload."""
    kinds = list(_KEY_FIELDS)

    def key(record):
        name = type(record).__name__
        return kinds.index(name), tuple(getattr(record, f) for f in _KEY_FIELDS[name])

    lines = [json.dumps(r.to_dict(), sort_keys=True, ensure_ascii=False, separators=(",", ":"))
             for r in sorted(records, key=key)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def reference_tree_hash(root) -> str:
    """SHA-256 over each file's path and whole bytes under root, in sorted
    path order, leaving out every path with a logs or .cache part."""
    root = Path(root)
    payload = b""
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and not {"logs", ".cache"} & set(rel.parts):
            payload += str(rel).encode("utf-8") + b"\0" + path.read_bytes() + b"\0"
    return hashlib.sha256(payload).hexdigest()
