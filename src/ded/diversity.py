"""Pairwise edit distances within a question and farthest-point selection.

One engine computes the Levenshtein distance: Myers's bit-parallel column
step run on a diagonal band of 2k+1 rows (Hyyrö 2003), which gives the exact
distance when it is at most k and otherwise reports "more than k". The band
starts at a hint, the previous pair's distance within a question, and doubles
until the distance fits or k reaches the cap; a band too narrow is detected
and widened, so the hint changes only the time taken, never a result. Once
the band would span the shorter sequence, a full-width scanner runs instead.
Selection is greedy max-min dispersion, deterministic under explicit
tie-breaks.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Any, Sequence

import numpy as np

from .filtering import THINK_CLOSE, THINK_OPEN
from .records import TrajectoryRecord

# smallest starting band; narrower bands save little and double more often
_MIN_BAND = 32
# fills the rows past the end of the shorter sequence; equal to nothing
_PAD = object()


class DiversityError(ValueError):
    pass


def _strip_common(a: Sequence, b: Sequence) -> tuple[Sequence, Sequence]:
    """Drop the shared prefix and suffix; neither affects the distance."""
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    return a[lo:hi_a], b[lo:hi_b]


def _myers_distance(a: Sequence, b: Sequence) -> int:
    # Bit-parallel column scanner; one arbitrary-precision word spans all of a.
    m = len(a)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    peq: dict[Any, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    vp, vn, score = full, 0, m
    get = peq.get
    for ch in b:
        eq = get(ch, 0)
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


def _band_distance(a: Sequence, b: Sequence, k: int) -> int | None:
    """Exact distance if it is at most k, else None; needs len(a) <= len(b),
    len(b) - len(a) <= k and 2k+1 < len(a).

    At column j (b[j-1]) bit r stands for row j-k+r, so the band slides down
    one row per column and the vertical deltas are stored pre-shifted for
    the next column. A cell just outside the band reads as a delta of 0 or
    +1, which never undercuts the in-band minimum. score follows the band's
    bottom diagonal, D[j+k][j].
    """
    m, n = len(a), len(b)
    mask = (1 << (2 * k + 1)) - 1
    top = 1 << (2 * k)
    # pm[ch] = [bits, column]: ch's rows in the band as of that column
    pm = {ch: [0, -k] for ch in {*a, *b, _PAD}}
    rows = chain(a, repeat(_PAD, n + k - m))
    for j, ch in zip(range(1 - k, 1), rows):
        e = pm[ch]
        e[0] = (e[0] >> (j - e[1])) | top
        e[1] = j
    vp = (mask ^ ((1 << (k + 1)) - 1)) >> 1    # D[i][0] = i for rows 1..k
    vn = 0
    score = k
    # score never falls along a diagonal, and the final walk up n+k-m rows
    # to row m lowers it by at most one per row
    give_up = 2 * k + n - m
    for j, ach, bch in zip(count(1), rows, b):
        e = pm[ach]
        e[0] = (e[0] >> (j - e[1])) | top
        e[1] = j
        e = pm[bch]
        x = e[0] >> (j - e[1])
        d0 = ((((x & vp) + vp) ^ vp) | x | vn) & mask
        hp = vn | ((d0 | vp) ^ mask)
        hn = d0 & vp
        if not d0 & top:
            score += 1
            if score > give_up:
                return None
        d0 >>= 1
        vp = hn | ((d0 | hp) ^ mask)
        vn = d0 & hp
    # walk up the last column from row n+k to row m; rows past m match
    # nothing, so each of their vertical deltas is 0 or +1
    below = ((1 << (n + k - m)) - 1) << (m - n + k)
    score -= (vp & below).bit_count()
    return score if score <= k else None


def levenshtein_bounded(a: str | Sequence, b: str | Sequence, cap: int | float,
                        hint: int = _MIN_BAND) -> int | None:
    """Exact distance when it is below cap, else None meaning "at least cap".

    The band starts at `hint` (at least the length difference) and doubles
    until the distance fits or the band reaches cap - 1; `hint` changes the
    time taken, never the result. cap may be math.inf.
    """
    if cap < 0:
        raise DiversityError("cap must be >= 0")
    a, b = _strip_common(a, b)
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if n - m >= cap:
        return None
    if m == 0:
        return n
    limit = n if cap > n else math.ceil(cap) - 1
    k = min(max(hint, n - m, 1), limit)
    while 2 * k + 1 < m:
        d = _band_distance(a, b, k)
        if d is not None:
            return d
        if k >= limit:
            return None
        k = min(2 * k, limit)
    d = _myers_distance(a, b)
    return d if d < cap else None


def levenshtein(a: str | Sequence, b: str | Sequence) -> int:
    """Unit-cost edit distance between two sequences (characters or tokens)."""
    return levenshtein_bounded(a, b, math.inf)


def clamped_distance(a: str | Sequence, b: str | Sequence,
                     cap: int | None, hint: int = _MIN_BAND) -> int:
    """min(levenshtein(a, b), cap): the truncated metric used for selection.

    A pair at or beyond the cap is treated as maximally distant. `hint` is
    where the band search starts (see levenshtein_bounded).
    """
    if cap is None:
        return levenshtein_bounded(a, b, math.inf, hint)
    if cap <= 0:
        return 0
    d = levenshtein_bounded(a, b, cap, hint)
    return cap if d is None else d


@dataclass
class DistanceMatrix:
    """Symmetric pairwise distances for one question's trajectories."""

    ids: list[str]
    distances: np.ndarray
    cap: int | None = None

    def validate(self) -> None:
        n = len(self.ids)
        if self.distances.shape != (n, n):
            raise DiversityError(f"distance matrix shape {self.distances.shape} != ({n}, {n})")
        if (self.distances < 0).any():
            raise DiversityError("distances must be non-negative")
        if (np.diag(self.distances) != 0).any():
            raise DiversityError("diagonal must be zero")
        if (self.distances != self.distances.T).any():
            raise DiversityError("matrix must be symmetric")

    def to_dict(self) -> dict[str, Any]:
        return {"ids": list(self.ids), "distances": self.distances.tolist(),
                "cap": self.cap}


def trajectory_surface(text: str, unit: str = "char") -> str | list[str]:
    """Comparison surface: the think delimiters themselves carry no signal.

    In token mode the delimiters act as separators so they never fuse the
    think segment's last token with the answer's first.
    """
    if unit == "char":
        return text.replace(THINK_OPEN, "").replace(THINK_CLOSE, "")
    if unit == "token":
        return text.replace(THINK_OPEN, " ").replace(THINK_CLOSE, " ").split()
    raise DiversityError(f"unknown unit {unit!r}; expected char or token")


def pairwise_distances(trajectories: Sequence[TrajectoryRecord],
                       unit: str = "char",
                       cap: int | None = None) -> DistanceMatrix:
    """Full symmetric distance matrix over one question's trajectories."""
    if not trajectories:
        raise DiversityError("at least one trajectory required")
    qids = {t.question_id for t in trajectories}
    if len(qids) > 1:
        raise DiversityError(f"mixed question_ids in one distance matrix: {sorted(qids)}")
    ordered = sorted(trajectories, key=lambda t: t.trajectory_id)
    ids = [t.trajectory_id for t in ordered]
    surfaces = [trajectory_surface(t.text, unit) for t in ordered]
    return surface_distances(ids, surfaces, cap=cap)


def surface_distances(ids: Sequence[str], surfaces: Sequence,
                      cap: int | None = None) -> DistanceMatrix:
    n = len(ids)
    dist = np.zeros((n, n), dtype=np.int64)
    # one question's trajectories lie at similar distances, so each pair's
    # band starts just above the previous pair's distance
    hint = _MIN_BAND
    for i in range(n):
        for j in range(i + 1, n):
            d = clamped_distance(surfaces[i], surfaces[j], cap, hint=hint)
            dist[i, j] = dist[j, i] = d
            hint = max(_MIN_BAND, d + d // 4)
    return DistanceMatrix(ids=list(ids), distances=dist, cap=cap)


def select_farthest(matrix: DistanceMatrix, p: int) -> list[str]:
    """Greedy max-min dispersion: seed with the farthest pair, then grow.

    Ties break toward the lexicographically smallest pair and then the
    smallest id, making the selection fully deterministic.
    """
    if p < 1:
        raise DiversityError("p must be >= 1")
    n = len(matrix.ids)
    if p >= n:
        return sorted(matrix.ids)

    order = sorted(range(n), key=lambda i: matrix.ids[i])
    d = matrix.distances
    best_pair: tuple[int, int] | None = None
    best_val = -1
    for oi in range(n):
        for oj in range(oi + 1, n):
            i, j = order[oi], order[oj]
            val = int(d[i, j])
            if val > best_val:
                best_val = val
                best_pair = (i, j)
    assert best_pair is not None
    i, j = best_pair
    if p == 1:
        return [matrix.ids[i]]

    selected = [i, j]
    chosen = {i, j}
    min_dist = np.minimum(d[i], d[j])
    while len(selected) < p:
        best_idx = -1
        best_min = -1
        for oi in range(n):
            c = order[oi]
            if c in chosen:
                continue
            val = int(min_dist[c])
            if val > best_min:
                best_min = val
                best_idx = c
        selected.append(best_idx)
        chosen.add(best_idx)
        np.minimum(min_dist, d[best_idx], out=min_dist)
    return [matrix.ids[k] for k in selected]


def _select_for_question(args: tuple) -> tuple[str, list[str], dict[str, Any]]:
    qid, ids, surfaces, p, cap = args
    matrix = surface_distances(ids, surfaces, cap=cap)
    chosen = select_farthest(matrix, p)
    idx = {tid: k for k, tid in enumerate(matrix.ids)}
    pair_dists = sorted(
        int(matrix.distances[idx[x], idx[y]])
        for a_i, x in enumerate(chosen) for y in chosen[a_i + 1:])
    row: dict[str, Any] = {
        "available": len(ids),
        "selected": list(chosen),
        "cap": cap,
        "min_distance": pair_dists[0] if pair_dists else None,
        "median_distance": pair_dists[(len(pair_dists) - 1) // 2] if pair_dists else None,
    }
    return qid, chosen, row


def diversify_corpus(trajectories: Sequence[TrajectoryRecord],
                     p: int,
                     unit: str = "char",
                     cap_ratio: float | None = 0.6,
                     questions: Sequence | None = None,
                     workers: int = 1) -> tuple[list[TrajectoryRecord], dict[str, Any]]:
    """Keep the farthest p trajectories per question.

    Returns the diversified corpus sorted by (question_id, trajectory_id)
    and a report with per-question selection stats. Questions with no
    surviving trajectory are recorded as dropped.
    """
    if p < 1:
        raise DiversityError("p must be >= 1")
    if cap_ratio is not None and not (0 < cap_ratio <= 1):
        raise DiversityError("cap_ratio must be in (0, 1]")

    groups: dict[str, list[TrajectoryRecord]] = {}
    for t in trajectories:
        groups.setdefault(t.question_id, []).append(t)

    tasks = []
    for qid in sorted(groups):
        members = sorted(groups[qid], key=lambda t: t.trajectory_id)
        ids = [t.trajectory_id for t in members]
        surfaces = [trajectory_surface(t.text, unit) for t in members]
        cap = None
        if cap_ratio is not None:
            longest = max((len(s) for s in surfaces), default=0)
            cap = max(1, math.ceil(cap_ratio * longest))
        tasks.append((qid, ids, surfaces, p, cap))

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_select_for_question, tasks, chunksize=1))
    else:
        outcomes = [_select_for_question(task) for task in tasks]

    by_id = {t.trajectory_id: t for t in trajectories}
    selected: list[TrajectoryRecord] = []
    per_question: dict[str, Any] = {}
    for qid, chosen, row in outcomes:
        per_question[qid] = row
        selected.extend(by_id[tid] for tid in chosen)
    selected.sort(key=lambda t: (t.question_id, t.trajectory_id))

    dropped = []
    if questions is not None:
        dropped = sorted(q.question_id for q in questions if q.question_id not in groups)

    report = {
        "p": p,
        "unit": unit,
        "cap_ratio": cap_ratio,
        "question_count": len(groups),
        "selected_count": len(selected),
        "dropped_questions": dropped,
        "per_question": per_question,
    }
    return selected, report
