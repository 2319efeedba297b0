"""Mixed-domain corpus composition (math + code).

Sampling is question-level so that a selected question keeps its whole
diverse trajectory set; splitting it would silently undo the diversity
stage.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from .records import TrajectoryRecord, content_hash


class MixError(ValueError):
    pass


def compose_mix(sources: Sequence[tuple[Sequence[TrajectoryRecord], int]],
                seed: int) -> tuple[list[TrajectoryRecord], dict[str, Any]]:
    """Seeded uniform question sampling without replacement from each source.

    Returns the mixed corpus, stable-sorted by question_id, plus per-source
    provenance for the manifest. Question ids must be disjoint across
    sources.
    """
    seen: dict[str, int] = {}
    for idx, (records, _take) in enumerate(sources):
        for qid in {t.question_id for t in records}:
            if qid in seen:
                raise MixError(
                    f"duplicate question_id {qid!r} across sources {seen[qid]} and {idx}")
            seen[qid] = idx

    rng = random.Random(seed)
    mixed: list[TrajectoryRecord] = []
    provenance: list[dict[str, Any]] = []
    for idx, (records, take) in enumerate(sources):
        qids = sorted({t.question_id for t in records})
        if take < 1:
            raise MixError(f"source {idx}: take must be >= 1, got {take}")
        if take > len(qids):
            raise MixError(f"source {idx}: take {take} > {len(qids)} available questions")
        chosen = set(rng.sample(qids, take))
        carried = [t for t in records if t.question_id in chosen]
        mixed.extend(carried)
        provenance.append({
            "source_index": idx,
            "take": take,
            "available": len(qids),
            "selected_questions": sorted(chosen),
            "content_hash": content_hash(records),
        })
    mixed.sort(key=lambda t: t.question_id)
    return mixed, {"seed": seed, "sources": provenance}
