"""Pairwise edit distances within a question and farthest-point selection.

One engine computes the Levenshtein distance: Myers's bit-parallel column
step on the diagonal band that any alignment of cost at most k stays in
(Ukkonen 1985), about k+1 rows wide, which gives the exact distance when it
is at most k and otherwise reports "more than k". One column step serves
many pairs at once: each pair owns a segment of a single int, with its own
band, and each column's match words are byte slices of per-symbol
occurrence bitmaps. As the scan goes on, each band drops the rows that can
no longer end within k (Ukkonen's cut-off) and the pairs are re-packed
into a narrower int.

Diversify splits its questions into up to `workers` packs of about equal
work, each in a process of its own when there are several, and
`_pack_distances`, the one entry to the engine, measures a pack. A pack's
questions share their passes: the first pair of every question starts in
a wide band, all of them in one pass, and doubles until its distance fits;
every other pair of the pack then shares one pass, each at a band just
above its own question's first distance, and the pairs that do not fit
are sent again together at double their bands. A pass holds only bands
within 2x of each other, since every segment is as wide as the widest. A
band too narrow is detected and widened, so the starting band and the
packing change only the time taken, never a result. Selection is greedy
max-min dispersion, deterministic under explicit tie-breaks.
"""

from __future__ import annotations

import math
import time
from typing import Any, Iterator, Sequence

import numpy as np

from .filtering import THINK_CLOSE, THINK_OPEN
from .forked import Forked
from .records import TrajectoryRecord

# smallest band a question's other pairs start at; narrower bands save
# little and double more often
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
# bytes of packed int a pass may start with: an int of a few kB costs
# about as little per byte to step as any wider one, while a wider one
# shortens the chunks its bitmaps fit in, each of which re-reads a slot
_PASS_BYTES = 1 << 13
# bytes the packed int must lose before it is re-packed; an int of a pair or
# two costs about the same to step whatever its size
_REPACK = 64
# each code dtype, and the encoding that writes a character below its top
# as one unit of that dtype
_NARROW = (("u1", "latin-1"), ("<u2", "utf-16-le"), ("<u4", "utf-32-le"))


def _narrow(symbols: int) -> tuple[str, str]:
    """`_codes`'s dtype for codes 0 .. symbols - 1, and its encoding."""
    return next(pair for pair in _NARROW if symbols < np.iinfo(pair[0]).max)


class DiversityError(ValueError):
    pass


def _codes(seqs: Sequence[str | Sequence]) -> list[np.ndarray]:
    """One array of symbol codes per sequence: equal symbols get equal codes,
    in the narrowest unsigned dtype that leaves its two largest values
    unused. Narrow codes make the engine's match words cheaper to gather.
    Strings are encoded straight into that dtype, one unit per code."""
    if all(isinstance(s, str) for s in seqs):
        joined = "".join(seqs)
        table = {ord(c): i for i, c in enumerate(set(joined))}
        dtype, encoding = _narrow(len(table))
        flat = np.frombuffer(joined.translate(table).encode(encoding, "surrogatepass"),
                             dtype=dtype)
    else:
        symbols: dict[Any, int] = {}
        flat = np.fromiter((symbols.setdefault(x, len(symbols)) for s in seqs for x in s),
                           dtype=np.int64)
        flat = flat.astype(_narrow(len(symbols))[0])
    return np.split(flat, np.cumsum([len(s) for s in seqs[:-1]]))


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


def _bitmaps(rows: np.ndarray, codes: np.ndarray, c0: int, nbytes: int) -> np.ndarray:
    """Per pair, a bitmap of each of `codes` over nbytes bytes of its rows
    from column c0 on, and one of no symbol, all zero, packed: one code's
    bitmaps are unpacked at a time."""
    window = rows[:, c0:c0 + 8 * nbytes]
    bitmaps = np.zeros((len(rows), len(codes) + 1, nbytes), dtype=np.uint8)
    for i, code in enumerate(codes):
        bitmaps[:, i] = np.packbits(window == code, axis=1, bitorder="little")
    return bitmaps


def _match_blocks(rows: np.ndarray, text: np.ndarray, ends: np.ndarray,
                  slot: int, start: int) -> Iterator[bytes]:
    """The match words of _BLOCK columns at a time from column `start` (a
    multiple of 8) on, one slot of slot // 8 bytes per pair and column,
    pair 0 first.

    Column c's slot for pair p holds bit r = rows[p, c - c % 8 + r] ==
    text[p, c], taken from a bitmap of that symbol's occurrences in pair p's
    rows that starts at a whole byte; columns past ends[p] match nothing.
    The bitmaps are built per chunk of columns, only for the symbols in the
    chunk's text and one symbol at a time, and a chunk takes as many
    columns as keep its packed bitmaps and one symbol's unpacked ones within
    _SCRATCH bytes (at least 8), so scratch memory is bounded whatever the
    alphabet. Chunks start at _CUT columns and grow by whole intervals of
    _CUT, so that a re-pack at a cut-off check seldom throws bitmaps away.
    """
    pairs, cols = text.shape
    step = slot // 8
    span = _CUT
    c0 = start
    while c0 < cols:
        chunk = text[:, c0:c0 + span]
        syms = np.flatnonzero(np.bincount(chunk.ravel()))
        # per pair and byte of rows: a packed byte per symbol and one more,
        # and the eight bytes of one symbol unpacked, with its packed copy
        fit = 8 * (_SCRATCH // (pairs * (len(syms) + 10)) - step)
        if fit < chunk.shape[1] and span > 8:
            # fewer columns may hold fewer symbols, so shrink by half at most
            span = max(8, fit, span // 2) // 8 * 8
            continue
        c1 = c0 + chunk.shape[1]
        nbytes = (c1 - 1) // 8 - c0 // 8 + step
        # the last bitmap, all zero, serves columns past ends
        bitmaps = _bitmaps(rows, syms.astype(rows.dtype), c0, nbytes).ravel()
        # column c0 + at + i reads pair p's bitmap of text[p, c0 + at + i]
        # from byte (at + i) // 8 on
        entry = np.zeros(syms[-1] + 1, dtype=np.intp)
        entry[syms] = np.arange(0, len(syms) * nbytes, nbytes)
        start_of = (np.arange(0, len(bitmaps), (len(syms) + 1) * nbytes)
                    + (np.arange(_BLOCK) >> 3)[:, None])
        windows = np.lib.stride_tricks.as_strided(
            bitmaps, (len(bitmaps) - step + 1, step), (1, 1), writeable=False)
        for at in range(0, c1 - c0, _BLOCK):
            block = chunk[:, at:at + _BLOCK].T
            offsets = entry[block] + start_of[:len(block)] + (at >> 3)
            if c0 + at + len(block) > ends.min():
                offsets[np.arange(c0 + at, c0 + at + len(block))[:, None] >= ends] = (
                    len(syms) * nbytes)
            yield windows[offsets].tobytes()
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
                    k: int | Sequence[int]) -> list[int | None]:
    """For each (shorter, longer) pair of code arrays from one _codes call,
    the exact distance if it is at most its k, else None. k is one band for
    every pair, or one per pair.

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
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), len(pairs))
    live = []  # index in pairs of each pair in the pass
    for idx, (a, b) in enumerate(pairs):
        if len(b) - len(a) <= k[idx]:
            if len(a):
                live.append(idx)
            else:
                out[idx] = len(b)
    if not live:
        return out
    patterns = [pairs[i][0] for i in live]
    n = np.array([len(pairs[i][1]) for i in live])
    gap = n - np.array([len(a) for a in patterns])
    k = k[live]
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
            # each band's count fills the slot from its bit top up
            counts = np.zeros((len(live), 8), dtype=np.uint8)
            counts[:, :slot // 8] = np.frombuffer((cnt >> top).to_bytes(width, "little"),
                                                  dtype=np.uint8).reshape(len(live), -1)[:, :8]
            counts = counts.view("<u8")[:, 0].astype(np.int64)
            base = start + (done - packed_at) - counts - walk[:, top - 1]
            finished = ~gone & (n <= done)
            for p in np.flatnonzero(finished):
                # D[m][n] = D[m+t][n+t] - t
                d = base[p] + walk[p, top - 1 - ku[p] - gap[p]] - (done - n[p])
                out[live[p]] = int(d) if d <= k[p] else None
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
        n, gap, text, k = n[keep], gap[keep], text[keep], k[keep]
        ku, kl = new_ku, new_kl


def _bounded_distances(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                       cap: int | float | Sequence[int | float],
                       k: int | Sequence[int]) -> tuple[list[int | None], tuple[int, int]]:
    """Each pair's exact distance when it is below its cap, else None, and
    the number of engine passes that took with their `band_bytes` (see
    _Found). cap and k are one for every pair, or one per pair.

    Every pair is stripped and starts in a band of its k; a pair that does
    not fit, or whose band cannot span its length difference, is sent again
    at double its band until it fits or the band reaches its cap - 1. A
    packed int's slots are as wide as its widest band, so each round sends
    its pairs in passes whose bands lie within 2x of each other, and whose
    int starts within _PASS_BYTES. k changes the time taken, never a
    result.
    """
    out: list[int | None] = [None] * len(pairs)
    todo = []  # [band, index, shorter, longer, cap, widest band it can need]
    for idx, ((a, b), limit, band) in enumerate(zip(
            pairs, np.broadcast_to(cap, len(pairs)).tolist(),
            np.broadcast_to(k, len(pairs)).tolist())):
        a, b = _strip_common(a, b)
        if len(a) > len(b):
            a, b = b, a
        if len(b) - len(a) < limit:
            todo.append([max(band, 1), idx, a, b, limit,
                         len(b) if limit > len(b) else math.ceil(limit) - 1])
    passes = band_bytes = 0
    while todo:
        for item in todo:
            item[0] = min(item[0], item[5])
        # a pair whose band cannot span its length difference waits for a wider one
        ready = sorted((item for item in todo if len(item[3]) - len(item[2]) <= item[0]),
                       key=lambda item: item[:2])
        todo = [item for item in todo if len(item[3]) - len(item[2]) > item[0]]
        for item in todo:
            item[0] *= 2
        while ready:
            # a pass takes pairs in band order while their bands lie within 2x
            # of its first and its int within _PASS_BYTES
            cut = 1
            while (cut < len(ready) and ready[cut][0] <= 2 * ready[0][0]
                   and (cut + 1) * _slot_bits(ready[cut][0] + 1, len(ready[cut][3]))
                   <= 8 * _PASS_BYTES):
                cut += 1
            group, ready = ready[:cut], ready[cut:]
            found = _band_distances([(a, b) for _, _, a, b, *_ in group],
                                    np.array([item[0] for item in group]))
            passes += 1
            band_bytes += found.band_bytes
            for item, d in zip(group, found):
                if d is not None:
                    out[item[1]] = d if d < item[4] else None
                elif item[0] < item[5]:
                    item[0] *= 2
                    todo.append(item)
    return out, (passes, band_bytes)


def trajectory_surface(text: str, unit: str = "char") -> str | list[str]:
    """Comparison surface: the think delimiters themselves carry no signal.

    In token mode the delimiters act as separators so they never fuse the
    think segment's last token with the answer's first.
    """
    if unit == "token":
        return text.replace(THINK_OPEN, " ").replace(THINK_CLOSE, " ").split()
    return text.replace(THINK_OPEN, "").replace(THINK_CLOSE, "")


def _pack_distances(questions: Sequence[tuple[Sequence, int | None]]) -> tuple[
        list[np.ndarray], int, int]:
    """Each question's distance matrix over its surfaces, clamped at its
    cap, and the engine passes and band bytes they took together.

    The first pair of every question shares one pass, in a wide band: a
    pass over a few pairs costs about the same at any band up to a few
    hundred rows, so a wide start saves the narrow passes that would fail.
    One question's trajectories lie at similar distances, so every other
    pair then shares one more pass, at its question's first distance plus
    3/16: a wider band costs every pair in the pass, a narrower one more
    often costs a retry for the few beyond it. Retries are shared too.
    """
    dists = [np.zeros((len(surfaces), len(surfaces)), dtype=np.int64)
             for surfaces, _ in questions]
    measured = [q for q, (surfaces, cap) in enumerate(questions)
                if len(surfaces) > 1 and (cap is None or cap > 0)]
    codes = iter(_codes([s for q in measured for s in questions[q][0]]) if measured else ())
    firsts, rest = [], []  # (question, i, j, codes of i, codes of j)
    for q in measured:
        own = [next(codes) for _ in questions[q][0]]
        pairs = [(q, i, j, own[i], own[j])
                 for i in range(len(own)) for j in range(i + 1, len(own))]
        firsts.append(pairs[0])
        rest.extend(pairs[1:])
    limits = [math.inf if cap is None else cap for _, cap in questions]
    first, (passes, band_bytes) = _bounded_distances(
        [(a, b) for *_, a, b in firsts], [limits[q] for q, *_ in firsts],
        [max(_FIRST_BAND, max(len(a), len(b)) // 16) for *_, a, b in firsts])
    hints = {}
    for (q, *_), d in zip(firsts, first):
        hint = questions[q][1] if d is None else d
        hints[q] = max(_MIN_BAND, hint + 3 * hint // 16)
    found, (more, more_bytes) = _bounded_distances(
        [(a, b) for *_, a, b in rest], [limits[q] for q, *_ in rest],
        [hints[q] for q, *_ in rest])
    for (q, i, j, _, _), d in zip(firsts + rest, first + found):
        dists[q][i, j] = dists[q][j, i] = questions[q][1] if d is None else d
    return dists, passes + more, band_bytes + more_bytes


def surface_distances(surfaces: Sequence, cap: int | None = None) -> np.ndarray:
    """Distance matrix over one question's surfaces, clamped at cap: a pack
    of one question. The benchmark's tracer wraps it by name."""
    return _pack_distances([(surfaces, cap)])[0][0]


def clamped_distance(a: str | Sequence, b: str | Sequence, cap: int | None) -> int:
    """min(edit distance, cap), exact when cap is None and 0 when cap <= 0:
    a question of two surfaces. The benchmark's tracer wraps it by name."""
    return int(_pack_distances([([a, b], cap)])[0][0][0, 1])


def select_farthest(ids: Sequence[str], distances: np.ndarray, p: int) -> list[str]:
    """Greedy max-min dispersion over one question's ids and their distance
    matrix: seed with the farthest pair, then grow.

    Ties break toward the lexicographically smallest pair and then the
    smallest id, making the selection fully deterministic: in id order, the
    seed is the first maximum of the upper triangle in row-major order and
    each next pick the first maximum of the distance to the picks so far.
    """
    if p < 1:
        raise DiversityError("p must be >= 1")
    n = len(ids)
    if p >= n:
        return sorted(ids)
    order = sorted(range(n), key=ids.__getitem__)
    d = distances[np.ix_(order, order)]
    upper = np.where(np.triu(np.ones((n, n), dtype=bool), 1), d, -1)
    selected = list(divmod(int(np.argmax(upper)), n))[:p]
    nearest = d[selected].min(axis=0)
    nearest[selected] = -1
    while len(selected) < p:
        k = int(np.argmax(nearest))
        selected.append(k)
        np.minimum(nearest, d[k], out=nearest)
        nearest[k] = -1
    return [ids[order[k]] for k in selected]


def _select_for_question(ids: Sequence[str], distances: np.ndarray, p: int,
                         cap: int | None) -> tuple[list[str], dict[str, Any]]:
    """One question's selection from its distance matrix, and its report row."""
    chosen = select_farthest(ids, distances, p)
    idx = {tid: k for k, tid in enumerate(ids)}
    pair_dists = sorted(
        int(distances[idx[x], idx[y]])
        for a_i, x in enumerate(chosen) for y in chosen[a_i + 1:])
    row: dict[str, Any] = {
        "available": len(ids),
        "selected": list(chosen),
        "cap": cap,
        "min_distance": pair_dists[0] if pair_dists else None,
        "median_distance": pair_dists[(len(pair_dists) - 1) // 2] if pair_dists else None,
    }
    return chosen, row


def _diversify_pack(tasks: Sequence[tuple]) -> tuple[list[tuple[str, list[str], dict[str, Any]]],
                                                     int, int, float]:
    """Each (qid, ids, surfaces, p, cap) task's selection and report row, and
    the engine passes, band bytes and milliseconds their distances took."""
    t0 = time.perf_counter()
    dists, passes, band_bytes = _pack_distances([(surfaces, cap)
                                                 for _, _, surfaces, _, cap in tasks])
    distance_ms = round(1000 * (time.perf_counter() - t0), 3)
    rows = [(qid, *_select_for_question(ids, dist, p, cap))
            for (qid, ids, _, p, cap), dist in zip(tasks, dists)]
    return rows, passes, band_bytes, distance_ms


def _packs(tasks: Sequence[tuple], count: int) -> list[list[tuple]]:
    """The tasks split into up to `count` packs of about equal work, pairs
    times longest surface, each in the tasks' order."""
    def work(task: tuple) -> int:
        _, ids, surfaces, *_ = task
        return len(ids) * (len(ids) - 1) // 2 * max(map(len, surfaces), default=0)

    packs: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for i in sorted(range(len(tasks)), key=lambda i: -work(tasks[i])):
        least = min(range(count), key=lambda j: (loads[j], len(packs[j])))
        packs[least].append(i)
        loads[least] += work(tasks[i])
    return [[tasks[i] for i in sorted(pack)] for pack in packs if pack]


def diversify_corpus(trajectories: Sequence[TrajectoryRecord],
                     p: int,
                     unit: str = "char",
                     cap_ratio: float | None = 0.6,
                     questions: Sequence | None = None,
                     workers: int = 1) -> tuple[list[TrajectoryRecord], dict[str, Any]]:
    """Keep the farthest p trajectories per question.

    Returns the diversified corpus sorted by (question_id, trajectory_id)
    and a report with per-question selection stats. Questions with no
    surviving trajectory are recorded as dropped. The questions are split
    into up to `workers` packs whose distances share engine passes; with
    more than one pack, each runs in a process forked from this one. The
    report's "engine" entry counts the pairs measured, the engine passes
    they took and the bytes those passes stepped (`band_bytes`), and holds
    each question's distance time in milliseconds, its pack's; it is run
    telemetry, which callers log rather than write with the report.
    """
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

    packs = _packs(tasks, min(workers, len(tasks)))
    # with several packs, each runs in a child and this process only
    # collects: running one of them here as well saves a fork, but it raised
    # perfbench diverse-long's peak_rss_mb by ~5 MB (47.7-48.6 MB to
    # 52.9-53.5 MB, 4 runs of 4 on 2 vCPUs)
    if len(packs) > 1:
        children: list[Forked] = []
        try:
            for pack in packs:
                children.append(Forked("a diversify engine process"))
                children[-1].send(_diversify_pack, pack)
            outcomes = [child.receive() for child in children]
        finally:
            for child in children:
                child.close()
    else:
        outcomes = [_diversify_pack(pack) for pack in packs]

    by_id = {t.trajectory_id: t for t in trajectories}
    selected: list[TrajectoryRecord] = []
    per_question: dict[str, Any] = {}
    passes = band_bytes = 0
    distance_ms = {}
    for rows, band_passes, scanned, ms in outcomes:
        passes += band_passes
        band_bytes += scanned
        for qid, chosen, row in rows:
            per_question[qid] = row
            distance_ms[qid] = ms
            selected.extend(by_id[tid] for tid in chosen)
    per_question = dict(sorted(per_question.items()))
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
                   "distance_ms": dict(sorted(distance_ms.items()))},
    }
    return selected, report
