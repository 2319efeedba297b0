"""Pairwise edit distances within a question and farthest-point selection.

One engine computes the Levenshtein distance: Myers's bit-parallel column
step on the diagonal band that any alignment of cost at most k stays in
(Ukkonen 1985), about k+1 rows wide, which gives the exact distance when it
is at most k and otherwise reports "more than k". One column step serves
many pairs at once: each pair owns a segment of a single int, and each
column's match words are byte slices of per-symbol occurrence bitmaps. A
question's first pair starts in a wide band that doubles until its distance
fits; every other pair then shares one pass at a band just above that
distance, and a pair that does not fit is sent again at double the band. A
band too narrow is detected and widened, so the starting band changes only
the time taken, never a result. Selection is greedy max-min dispersion,
deterministic under explicit tie-breaks.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .filtering import THINK_CLOSE, THINK_OPEN
from .records import TrajectoryRecord

# smallest starting band; narrower bands save little and double more often
_MIN_BAND = 32
# a question's first pair starts at this band, or at a sixteenth of its
# longer surface if that is wider
_FIRST_BAND = 256
# columns whose match words are gathered, and whose scores are checked, at once
_BLOCK = 64
# each column's bit offset within its byte, over one block
_SHIFTS = tuple(range(8)) * (_BLOCK // 8)
# bytes a chunk's bitmaps may take before they are packed
_SCRATCH = 1 << 20


class DiversityError(ValueError):
    pass


def _codes(seqs: Sequence[str | Sequence]) -> list[np.ndarray]:
    """One array of symbol codes per sequence: equal symbols get equal codes,
    in the narrowest unsigned dtype that leaves its two largest values
    unused. Narrow codes make the engine's match words cheaper to gather."""
    table: dict[Any, int] = {}
    if all(isinstance(s, str) for s in seqs):
        joined = "".join(seqs)
        table = {ord(c): i for i, c in enumerate(set(joined))}
        flat = np.frombuffer(joined.translate(table).encode("utf-32-le", "surrogatepass"),
                             dtype=np.uint32)
    else:
        flat = np.fromiter((table.setdefault(x, len(table)) for s in seqs for x in s),
                           dtype=np.int64)
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if len(table) < np.iinfo(t).max)
    return np.split(flat.astype(dtype), np.cumsum([len(s) for s in seqs[:-1]]))


def _common_prefix(a: np.ndarray, b: np.ndarray) -> int:
    n = min(len(a), len(b))
    differ = np.flatnonzero(a[:n] != b[:n])
    return int(differ[0]) if len(differ) else n


def _strip_common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the shared prefix and suffix; neither affects the distance."""
    lo = _common_prefix(a, b)
    a, b = a[lo:], b[lo:]
    hi = _common_prefix(a[::-1], b[::-1])
    return a[:len(a) - hi], b[:len(b) - hi]


def _match_blocks(rows: np.ndarray, text: np.ndarray, ends: np.ndarray,
                  slot: int) -> Iterator[bytes]:
    """The match words of _BLOCK columns at a time, one slot of slot // 8
    bytes per pair and column, pair 0 first.

    Column c's slot for pair p holds bit r = rows[p, c - c % 8 + r] ==
    text[p, c], taken from a bitmap of that symbol's occurrences in pair p's
    rows that starts at a whole byte; columns past ends[p] match nothing.
    The bitmaps are built per chunk of columns, only for the symbols in the
    chunk's text, and a chunk takes as many columns as keep the unpacked
    bitmaps within _SCRATCH bytes (at least 8), so scratch memory is
    bounded whatever the alphabet.
    """
    pairs, cols = text.shape
    step = slot // 8
    span = cols
    c0 = 0
    while c0 < cols:
        chunk = text[:, c0:c0 + span]
        syms = np.flatnonzero(np.bincount(chunk.ravel()))
        fit = _SCRATCH // (pairs * (len(syms) + 1)) - slot
        if fit < chunk.shape[1] and span > 8:
            # fewer columns may hold fewer symbols, so shrink by half at most
            span = max(8, fit, span // 2) // 8 * 8
            continue
        c1 = c0 + chunk.shape[1]
        nbytes = (c1 - 1) // 8 - c0 // 8 + step
        # per pair, a bitmap of each symbol over the rows the chunk reads,
        # and one of a value no row holds, all zero, for columns past ends
        codes = np.append(syms, np.iinfo(rows.dtype).max - 1).astype(rows.dtype)
        bitmaps = np.packbits(rows[:, None, c0:c0 + 8 * nbytes] == codes[:, None],
                              axis=2, bitorder="little").ravel()
        # column c reads pair p's bitmap of text[p, c] from byte c // 8 on
        entry = np.zeros(syms[-1] + 1, dtype=np.intp)
        entry[syms] = np.arange(0, len(syms) * nbytes, nbytes)
        pair_start = np.arange(0, len(bitmaps), len(codes) * nbytes)
        offsets = np.where(np.arange(c0, c1)[:, None] < ends,
                           entry[chunk.T] + pair_start + (np.arange(c1 - c0) >> 3)[:, None],
                           len(syms) * nbytes)
        windows = np.lib.stride_tricks.as_strided(
            bitmaps, (len(bitmaps) - step + 1, step), (1, 1), writeable=False)
        for at in range(0, c1 - c0, _BLOCK):
            yield windows[offsets[at:at + _BLOCK]].tobytes()
        c0 = c1


def _band_distances(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                    k: int) -> list[int | None]:
    """For each (shorter, longer) pair of code arrays from one _codes call,
    the exact distance if it is at most k, else None.

    One Myers column step serves every pair. With m <= n the pair's lengths
    and gap = n - m, a path of cost at most k keeps to the rows j-kl..j+ku of
    column j (Ukkonen 1985), where ku = (k - gap) // 2 and kl = gap + ku:
    about k+1 rows, against 2k+1 for a band symmetric about the diagonal.
    Each pair owns a slot of the same whole number of bytes in one int; its
    band's bottom row sits just below a guard bit that stops the add's
    carry, with a spare byte above, and the int is masked after the add and
    the shift. Bit r of a band stands for row j-kl+r, so the band slides down
    one row per column (Hyyrö 2003); a cell just outside it reads as a
    delta of 0 or +1, which never undercuts the in-band minimum. Rows above
    the pattern and below its end match nothing. The bottom row's score
    D[j+ku][j] rises by one in every column whose diagonal delta is not 0,
    so one add counts the zeros of every pair. After the last column each
    pair's score is walked up kl rows to the cell on the diagonal of D[m][n].
    """
    out: list[int | None] = [None] * len(pairs)
    live = []  # (index, pattern, text, ku, kl)
    for idx, (a, b) in enumerate(pairs):
        gap = len(b) - len(a)
        if gap > k:
            continue
        if not len(a):
            out[idx] = gap
            continue
        ku = (k - gap) // 2
        live.append((idx, a, b, ku, gap + ku))
    if not live:
        return out
    cols = max(len(b) for _, _, b, _, _ in live)
    # room for k+1 rows, the guard, one spare row and a count of up to cols,
    # plus the spare byte that a gather starting at a whole byte reads in
    slot = (-(-max(k + 3, cols.bit_length() + 1) // 8) + 1) * 8
    top = slot - 10
    # rows past either end of a pattern hold a value that no code takes
    dtype = live[0][1].dtype
    rows = np.full((len(live), -(-(cols + slot) // 8) * 8), np.iinfo(dtype).max, dtype=dtype)
    # columns past a text's end match nothing whatever they hold: the
    # gather reads them from an all-zero bitmap
    text = np.zeros((len(live), cols), dtype=dtype)
    ends = np.array([len(b) for _, _, b, _, _ in live])
    mask = tops = vp = 0
    for p, (_, a, b, ku, kl) in enumerate(live):
        base = p * slot + top
        # rows[p, t] holds row t + ku + 1 - top, so column j's slot reads
        # rows[p, j-1 : j-1+slot] and row j+ku lands on bit top
        rows[p, top - ku:top - ku + len(a)] = a
        text[p, :len(b)] = b
        mask |= ((1 << (kl + ku + 1)) - 1) << (base - kl - ku)
        tops |= 1 << base
        vp |= ((1 << ku) - 1) << (base - ku)  # D[i][0] = i for rows 1..ku
    width = len(live) * slot // 8
    vn = cnt = done = 0
    for raw in _match_blocks(rows, text, ends, slot):
        # each slot was gathered from the whole byte holding its first row,
        # so one shift by the column's bit offset aligns them all
        for at, shift in zip(range(0, len(raw), width), _SHIFTS):
            x = int.from_bytes(raw[at:at + width], "little") >> shift
            d0 = ((((x & vp) + vp) ^ vp) | x | vn) & mask
            hp = vn | ((d0 | vp) ^ mask)
            hn = d0 & vp
            cnt += d0 & tops
            d0 = (d0 >> 1) & mask
            vp = hn | ((d0 | hp) ^ mask)
            vn = d0 & hp
        done += len(raw) // width
        # a score never falls along a diagonal and the walk up lowers it by
        # at most kl, so a pair whose score passes k + kl is out of reach
        if all(len(b) <= done or ku + done - ((cnt >> (p * slot + top)) & ((1 << slot) - 1))
               > k + kl for p, (_, _, b, ku, kl) in enumerate(live)):
            break
    for p, (idx, _, b, ku, kl) in enumerate(live):
        if len(b) > done:
            continue
        base = p * slot + top
        # past column n nothing matches, so the diagonal through D[m][n]
        # rises by exactly one per column: D[m][n] = D[m+t][n+t] - t
        score = ku + len(b) - ((cnt >> base) & ((1 << slot) - 1))
        # rows below match nothing: each vertical delta there is 0 or +1
        score -= ((vp >> (base - kl)) & ((1 << kl) - 1)).bit_count()
        out[idx] = score if score <= k else None
    return out


def _bounded_distances(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                       cap: int | float, k: int) -> tuple[list[int | None], int]:
    """Each pair's exact distance when it is below cap, else None, and the
    number of engine passes that took.

    Every pair is stripped and starts in a band of k, at least its length
    difference; a pair that does not fit is sent again at double the band
    until it fits or the band reaches cap - 1. k changes the time taken,
    never a result.
    """
    out: list[int | None] = [None] * len(pairs)
    todo = []  # (index, shorter, longer, widest band it can need)
    for idx, (a, b) in enumerate(pairs):
        a, b = _strip_common(a, b)
        if len(a) > len(b):
            a, b = b, a
        if len(b) - len(a) < cap:
            todo.append((idx, a, b, len(b) if cap > len(b) else math.ceil(cap) - 1))
    passes = 0
    k = max(k, 1)
    while todo:
        k = min(max(k, min(len(b) - len(a) for _, a, b, _ in todo)),
                max(limit for *_, limit in todo))
        found = _band_distances([(a, b) for _, a, b, _ in todo], k)
        passes += 1
        retry = []
        for item, d in zip(todo, found):
            if d is not None:
                out[item[0]] = d if d < cap else None
            elif k < item[3]:
                retry.append(item)
        todo = retry
        k *= 2
    return out, passes


def levenshtein_bounded(a: str | Sequence, b: str | Sequence, cap: int | float,
                        hint: int = _MIN_BAND) -> int | None:
    """Exact distance when it is below cap, else None meaning "at least cap".

    The band starts at `hint` (at least the length difference) and doubles
    until the distance fits or the band reaches cap - 1; `hint` changes the
    time taken, never the result. cap may be math.inf.
    """
    if cap < 0:
        raise DiversityError("cap must be >= 0")
    return _bounded_distances([tuple(_codes([a, b]))], cap, hint)[0][0]


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
    band_passes: int = 0  # engine passes that computed the distances

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
    """Distance matrix over one question's surfaces, clamped at cap.

    The first pair starts in a wide band: a pass over one pair costs about
    the same at any band up to a few hundred rows, so a wide start saves
    the narrow passes that would fail. One question's trajectories lie at
    similar distances, so every other pair then shares one pass at the
    first pair's distance plus 3/16: a wider band costs every pair in the
    pass, a narrower one more often costs a second pass for the few beyond
    it.
    """
    n = len(ids)
    dist = np.zeros((n, n), dtype=np.int64)
    index = [(i, j) for i in range(n) for j in range(i + 1, n)]
    passes = 0
    if index and (cap is None or cap > 0):
        limit = math.inf if cap is None else cap
        codes = _codes(surfaces)
        pairs = [(codes[i], codes[j]) for i, j in index]
        wide = max(_FIRST_BAND, max(len(codes[0]), len(codes[1])) // 16)
        first, passes = _bounded_distances(pairs[:1], limit, wide)
        hint = cap if first[0] is None else first[0]
        rest, more = _bounded_distances(pairs[1:], limit,
                                        max(_MIN_BAND, hint + 3 * hint // 16))
        passes += more
        for (i, j), d in zip(index, first + rest):
            dist[i, j] = dist[j, i] = cap if d is None else d
    return DistanceMatrix(ids=list(ids), distances=dist, cap=cap, band_passes=passes)


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


def _select_for_question(args: tuple) -> tuple[str, list[str], dict[str, Any], int, float]:
    """One question's selection, its report row, and the engine passes and
    milliseconds its distance matrix took."""
    qid, ids, surfaces, p, cap = args
    t0 = time.perf_counter()
    matrix = surface_distances(ids, surfaces, cap=cap)
    distance_ms = round(1000 * (time.perf_counter() - t0), 3)
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
    return qid, chosen, row, matrix.band_passes, distance_ms


def diversify_corpus(trajectories: Sequence[TrajectoryRecord],
                     p: int,
                     unit: str = "char",
                     cap_ratio: float | None = 0.6,
                     questions: Sequence | None = None,
                     workers: int = 1) -> tuple[list[TrajectoryRecord], dict[str, Any]]:
    """Keep the farthest p trajectories per question.

    Returns the diversified corpus sorted by (question_id, trajectory_id)
    and a report with per-question selection stats. Questions with no
    surviving trajectory are recorded as dropped. The report's "engine"
    entry counts the pairs measured and the engine passes they took, and
    holds each question's distance time in milliseconds; it is run
    telemetry, which callers log rather than write with the report.
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
    passes = 0
    distance_ms = {}
    for qid, chosen, row, band_passes, ms in outcomes:
        per_question[qid] = row
        passes += band_passes
        distance_ms[qid] = ms
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
        "engine": {"pairs": sum(len(ids) * (len(ids) - 1) // 2 for _, ids, *_ in tasks),
                   "band_passes": passes, "distance_ms": distance_ms},
    }
    return selected, report
