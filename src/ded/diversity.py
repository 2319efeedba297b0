"""Pairwise edit distances within a question and farthest-point selection.

One engine computes the Levenshtein distance: Myers's bit-parallel column
step on the diagonal band that any alignment of cost at most k stays in
(Ukkonen 1985), about k+1 rows wide, which gives the exact distance when it
is at most k and otherwise reports "more than k". One column step serves
many pairs at once: each pair owns a segment of a single int, and each
column's match words are byte slices of per-symbol occurrence bitmaps. As
the scan goes on, each band drops the rows that can no longer end within k
(Ukkonen's cut-off) and the pairs are re-packed into a narrower int. A
question's first pair starts in a wide band that doubles until its distance
fits; every other pair then shares one pass at a band just above that
distance, and a pair that does not fit is sent again at double the band. A
band too narrow is detected and widened, so the starting band changes only
the time taken, never a result. Selection is greedy max-min dispersion,
deterministic under explicit tie-breaks.
"""

from __future__ import annotations

import gc
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
# columns whose match words are gathered at once
_BLOCK = 64
# each column's bit offset within its byte, over one block
_SHIFTS = tuple(range(8)) * (_BLOCK // 8)
# bytes a chunk's bitmaps may take before they are packed
_SCRATCH = 1 << 20
# columns between two reads of the bands' scores for the cut-off, a multiple
# of _BLOCK: a read or a re-pack costs about as much as stepping a few dozen
# columns of a wide int
_CUT = 1024
# bytes the packed int must lose before it is re-packed; an int of a pair or
# two costs about the same to step whatever its size
_REPACK = 64


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
                  slot: int, start: int) -> Iterator[bytes]:
    """The match words of _BLOCK columns at a time from column `start` (a
    multiple of 8) on, one slot of slot // 8 bytes per pair and column,
    pair 0 first.

    Column c's slot for pair p holds bit r = rows[p, c - c % 8 + r] ==
    text[p, c], taken from a bitmap of that symbol's occurrences in pair p's
    rows that starts at a whole byte; columns past ends[p] match nothing.
    The bitmaps are built per chunk of columns, only for the symbols in the
    chunk's text, and a chunk takes as many columns as keep the unpacked
    bitmaps within _SCRATCH bytes (at least 8), so scratch memory is bounded
    whatever the alphabet. Chunks start at _CUT columns and grow by whole
    intervals of _CUT, so that a re-pack at a cut-off check seldom throws
    bitmaps away.
    """
    pairs, cols = text.shape
    step = slot // 8
    span = _CUT
    c0 = start
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
        # the next chunk takes as many intervals as fit with this one's symbols
        span = max(span, fit // _CUT * _CUT)


def _slot_bits(rows: int, count: int) -> int:
    """Bits per pair in the packed int: room for `rows` band rows, the guard,
    one spare row and a count of up to `count`, plus the spare byte that a
    gather starting at a whole byte reads in."""
    return (-(-max(rows + 2, count.bit_length() + 1) // 8) + 1) * 8


def _pack(bits: np.ndarray) -> int:
    """The int whose bits are a (pairs, slot) array's, pair 0 lowest."""
    return int.from_bytes(np.packbits(bits, axis=None, bitorder="little").tobytes(), "little")


class _Found(list):
    """One pass's distances. `band_bytes` is the packed int's size in bytes
    summed over every column the pass stepped: a count of its work that
    repeats exactly from run to run."""

    band_bytes = 0


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
    so one add counts the zeros of every pair.

    Every _CUT columns each band's scores are read back, walking up from
    its bottom row's. A cell D[i][j] still needs |gap - (j - i)| edits to
    reach D[m][n], so once that sum passes k no path of cost at most k runs
    through it, and the band drops it (Ukkonen's cut-off). The sum never
    falls going away from the end diagonal, so each edge loses a run of
    rows, and a pair whose end diagonal goes is out of reach. A pair past
    its text's end is done: past column n nothing matches, so the diagonal
    through D[m][n] rises by exactly one per column. Once the pairs left fit
    in at least _REPACK fewer bytes, they are re-packed into the narrowest
    slots that hold all their bands. Every cell of a path of cost at most k
    passes the test, so the distances stay exact.
    """
    out = _Found([None] * len(pairs))
    live = []  # index in pairs of each pair in the pass
    for idx, (a, b) in enumerate(pairs):
        if len(b) - len(a) <= k:
            if len(a):
                live.append(idx)
            else:
                out[idx] = len(b)
    if not live:
        return out
    patterns = [pairs[i][0] for i in live]
    n = np.array([len(pairs[i][1]) for i in live])
    gap = n - np.array([len(a) for a in patterns])
    ku = (k - gap) // 2
    kl = gap + ku
    cols = int(n.max())
    dtype = patterns[0].dtype
    # columns past a text's end match nothing whatever they hold: the
    # gather reads them from an all-zero bitmap
    text = np.zeros((len(live), cols), dtype=dtype)
    for p, i in enumerate(live):
        text[p, :n[p]] = pairs[i][1]
    slot = _slot_bits(int((kl + ku).max()) + 1, cols)
    top = slot - 10
    bit = np.arange(slot)
    band = (bit >= (top - kl - ku)[:, None]) & (bit <= top)
    # each band's vertical deltas, +1 and -1, before column 1, bit top-1
    # standing for row ku: D[i][0] = i for rows 1..ku
    deltas = np.zeros((2, len(live), slot), dtype=np.uint8)
    deltas[0] = (bit >= top - ku[:, None]) & (bit < top)
    start = ku  # each bottom row's score where the pack starts: D[ku][0] = ku
    done = 0
    while True:
        width = len(live) * slot // 8
        mask = _pack(band)
        tops = ((1 << len(live) * slot) - 1) // ((1 << slot) - 1) << top  # bit top of each slot
        vp, vn, cnt = _pack(deltas[0]), _pack(deltas[1]), 0
        # rows past either end of a pattern hold a value that no code takes;
        # rows[p, t] holds row t + ku + 1 - top, so column j's slot reads
        # rows[p, j-1 : j-1+slot] and row j+ku lands on bit top
        rows = np.full((len(live), -(-(cols + slot) // 8) * 8), np.iinfo(dtype).max,
                       dtype=dtype)
        for p, a in enumerate(patterns):
            rows[p, top - ku[p]:top - ku[p] + len(a)] = a
        # at a check, bit b of a band holds the vertical delta of row
        # done+ku-(top-1-b) in column done, on diagonal diag[p, b], whose
        # cell needs[p, b] more edits to reach the end diagonal; bits
        # outside the band's rows of column done are never alive
        diag = (top - 1 - ku)[:, None] - bit
        needs = np.where(np.roll(band, -1, axis=1), np.abs(gap[:, None] - diag), 1 << 40)
        packed_at = done
        gone = np.zeros(len(live), dtype=bool)  # done or out of reach
        blocks = _match_blocks(rows, text, n, slot, done)
        while True:
            check = min(cols, done + _CUT)
            for raw in blocks:
                # each slot was gathered from the whole byte holding its first
                # row, so one shift by the column's bit offset aligns them all
                for at, shift in zip(range(0, len(raw), width), _SHIFTS):
                    x = int.from_bytes(raw[at:at + width], "little") >> shift
                    d0 = ((((x & vp) + vp) ^ vp) | x | vn) & mask
                    hp = vn | ((d0 | vp) ^ mask)
                    hn = d0 & vp
                    cnt += d0 & tops
                    d0 = (d0 >> 1) & mask
                    vp = hn | ((d0 | hp) ^ mask)
                    vn = d0 & hp
                out.band_bytes += len(raw)
                done += len(raw) // width
                if done >= check:
                    break
            deltas = np.unpackbits(np.frombuffer(
                vp.to_bytes(width, "little") + vn.to_bytes(width, "little"), dtype=np.uint8),
                bitorder="little").reshape(2, len(live), slot)
            # band p's score at bit b is base[p] + walk[p, b], walked up from
            # its bottom row's, D[done+ku][done]
            walk = np.cumsum(deltas[0].view(np.int8) - deltas[1].view(np.int8),
                             dtype=np.int32).reshape(len(live), slot)
            counts = np.array([(cnt >> (p * slot + top)) & ((1 << slot) - 1)
                               for p in range(len(live))])
            base = start + (done - packed_at) - counts - walk[:, top - 1]
            finished = ~gone & (n <= done)
            for p in np.flatnonzero(finished):
                # D[m][n] = D[m+t][n+t] - t
                d = base[p] + walk[p, top - 1 - ku[p] - gap[p]] - (done - n[p])
                out[live[p]] = int(d) if d <= k else None
            alive = walk + needs <= (k - base)[:, None]
            gone |= finished | ~alive.any(axis=1)
            keep = np.flatnonzero(~gone)
            if not len(keep):
                return out
            # the rows that stay: from the first alive to the last
            new_kl = diag[keep, alive.argmax(axis=1)[keep]]
            new_ku = -diag[keep, slot - 1 - alive[:, ::-1].argmax(axis=1)[keep]]
            narrow = _slot_bits(int((new_kl + new_ku).max()) + 1, cols - done)
            if (len(live) * slot - len(keep) * narrow) // 8 >= _REPACK:
                break
        # re-pack: each row keeps its deltas, their bit moving from
        # top-(done+1+ku-row) to narrow-10-(done+1+new_ku-row)
        start = base[keep] + walk[keep, top - 1 - (ku[keep] - new_ku)]  # D[done+new_ku][done]
        source = keep * slot + (slot - narrow) - ku[keep] + new_ku
        slot, top, bit = narrow, narrow - 10, np.arange(narrow)
        band = (bit >= (top - new_kl - new_ku)[:, None]) & (bit <= top)
        deltas = deltas.reshape(2, -1).take(np.where(band, bit + source[:, None], 0),
                                            axis=1) & band
        live = [live[p] for p in keep]
        patterns = [patterns[p] for p in keep]
        n, gap, text = n[keep], gap[keep], text[keep]
        ku, kl = new_ku, new_kl


def _bounded_distances(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                       cap: int | float, k: int) -> tuple[list[int | None], tuple[int, int]]:
    """Each pair's exact distance when it is below cap, else None, and the
    number of engine passes that took with their `band_bytes` (see _Found).

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
    passes = band_bytes = 0
    k = max(k, 1)
    while todo:
        k = min(max(k, min(len(b) - len(a) for _, a, b, _ in todo)),
                max(limit for *_, limit in todo))
        found = _band_distances([(a, b) for _, a, b, _ in todo], k)
        passes += 1
        band_bytes += found.band_bytes
        retry = []
        for item, d in zip(todo, found):
            if d is not None:
                out[item[0]] = d if d < cap else None
            elif k < item[3]:
                retry.append(item)
        todo = retry
        k *= 2
    return out, (passes, band_bytes)


def levenshtein_bounded(a: str | Sequence, b: str | Sequence,
                        cap: int | float) -> int | None:
    """Exact distance when it is below cap, else None meaning "at least cap".

    The band starts at _MIN_BAND (at least the length difference) and
    doubles until the distance fits or the band reaches cap - 1. cap may be
    math.inf.
    """
    if cap < 0:
        raise DiversityError("cap must be >= 0")
    return _bounded_distances([tuple(_codes([a, b]))], cap, _MIN_BAND)[0][0]


def clamped_distance(a: str | Sequence, b: str | Sequence, cap: int | None) -> int:
    """min(edit distance, cap): the truncated metric used for selection.

    A pair at or beyond the cap is treated as maximally distant.
    """
    if cap is None:
        return levenshtein_bounded(a, b, math.inf)
    if cap <= 0:
        return 0
    d = levenshtein_bounded(a, b, cap)
    return cap if d is None else d


@dataclass
class DistanceMatrix:
    """Symmetric pairwise distances for one question's trajectories."""

    ids: list[str]
    distances: np.ndarray
    band_passes: int = 0  # engine passes that computed the distances
    band_bytes: int = 0  # bytes of packed int those passes stepped, over their columns

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
    passes = band_bytes = 0
    if index and (cap is None or cap > 0):
        limit = math.inf if cap is None else cap
        codes = _codes(surfaces)
        pairs = [(codes[i], codes[j]) for i, j in index]
        wide = max(_FIRST_BAND, max(len(codes[0]), len(codes[1])) // 16)
        first, (passes, band_bytes) = _bounded_distances(pairs[:1], limit, wide)
        hint = cap if first[0] is None else first[0]
        rest, (more, more_bytes) = _bounded_distances(
            pairs[1:], limit, max(_MIN_BAND, hint + 3 * hint // 16))
        passes += more
        band_bytes += more_bytes
        for (i, j), d in zip(index, first + rest):
            dist[i, j] = dist[j, i] = cap if d is None else d
    return DistanceMatrix(ids=list(ids), distances=dist, band_passes=passes,
                          band_bytes=band_bytes)


def select_farthest(matrix: DistanceMatrix, p: int) -> list[str]:
    """Greedy max-min dispersion: seed with the farthest pair, then grow.

    Ties break toward the lexicographically smallest pair and then the
    smallest id, making the selection fully deterministic: in id order, the
    seed is the first maximum of the upper triangle in row-major order and
    each next pick the first maximum of the distance to the picks so far.
    """
    if p < 1:
        raise DiversityError("p must be >= 1")
    n = len(matrix.ids)
    if p >= n:
        return sorted(matrix.ids)
    order = sorted(range(n), key=matrix.ids.__getitem__)
    d = matrix.distances[np.ix_(order, order)]
    upper = np.where(np.triu(np.ones((n, n), dtype=bool), 1), d, -1)
    selected = list(divmod(int(np.argmax(upper)), n))[:p]
    nearest = d[selected].min(axis=0)
    nearest[selected] = -1
    while len(selected) < p:
        k = int(np.argmax(nearest))
        selected.append(k)
        np.minimum(nearest, d[k], out=nearest)
        nearest[k] = -1
    return [matrix.ids[order[k]] for k in selected]


def _select_for_question(args: tuple) -> tuple[str, list[str], dict[str, Any], int, int, float]:
    """One question's selection, its report row, and the engine passes,
    band bytes and milliseconds its distance matrix took."""
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
    return qid, chosen, row, matrix.band_passes, matrix.band_bytes, distance_ms


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
    entry counts the pairs measured, the engine passes they took and the
    bytes those passes stepped (`band_bytes`), and holds each question's
    distance time in milliseconds; it is run telemetry, which callers log
    rather than write with the report.
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
        # each worker freezes the heap it forked with, so that its collections
        # leave the pages it shares with this process alone
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 initializer=gc.freeze) as pool:
            outcomes = list(pool.map(_select_for_question, tasks, chunksize=1))
    else:
        outcomes = [_select_for_question(task) for task in tasks]

    by_id = {t.trajectory_id: t for t in trajectories}
    selected: list[TrajectoryRecord] = []
    per_question: dict[str, Any] = {}
    passes = band_bytes = 0
    distance_ms = {}
    for qid, chosen, row, band_passes, scanned, ms in outcomes:
        per_question[qid] = row
        passes += band_passes
        band_bytes += scanned
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
                   "band_passes": passes, "band_bytes": band_bytes,
                   "distance_ms": distance_ms},
    }
    return selected, report
