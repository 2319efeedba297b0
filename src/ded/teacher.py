"""Teacher sampling and ranking by distilled-student improvement.

The expensive fine-tuning step between corpus construction and scoring is
external by design: `ded smoke` emits per-teacher smoke corpora plus a
training manifest, and this module later ingests a score file to rank the
candidates by how much each one improved the student, not by the teacher's
own benchmark numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .clients import Client, SamplingRequest
from .records import QuestionRecord, ScoreRecord, TrajectoryRecord, parse_corpus

# Echoed into every training manifest so the external fine-tuning step and
# the corpus stay in one auditable bundle.
TRAINING_HYPERPARAMETERS = {
    "context_window": 16384,
    "batch_size": 48,
    "learning_rate": 1e-5,
    "optimizer": "adamw",
    "epochs": 10,
}


class TeacherSelectError(ValueError):
    pass


def sample_teacher(question: QuestionRecord, client: Client, teacher_id: str, samples: int,
                   temperature: float = 0.7, seed: int | None = None) -> list[TrajectoryRecord]:
    """`samples` trajectories of question, in one request."""
    texts = client.sample_trajectories(SamplingRequest(
        prompt=question.prompt, teacher_id=teacher_id, samples=samples,
        temperature=temperature, seed=seed))
    return [TrajectoryRecord(trajectory_id=f"{question.question_id}:{teacher_id}:{i:03d}",
                             question_id=question.question_id, teacher_id=teacher_id,
                             sample_index=i, text=text)
            for i, text in enumerate(texts)]


def ingest_scores(path: str | Path) -> list[ScoreRecord]:
    """The score rows of a CSV or JSONL file (see `records.parse_corpus`)."""
    return parse_corpus(path, "scores")


@dataclass
class TeacherRanking:
    teacher_id: str
    score: Fraction
    mean_response_len: float


def rank_teachers(records: Sequence[ScoreRecord],
                  weights: dict[str, float | Fraction] | None = None) -> list[TeacherRanking]:
    """Order teachers by weighted mean delta accuracy, descending.

    Ties break toward the smaller mean response length (cheaper student
    inference), then the teacher id. The score matrix must be complete for
    the chosen benchmark set.
    """
    if not records:
        raise TeacherSelectError("no score records")
    teachers = sorted({r.teacher_id for r in records})
    benchmarks = sorted({r.benchmark for r in records})
    weights = ({b: Fraction(1, len(benchmarks)) for b in benchmarks} if weights is None
               else {b: Fraction(str(w)) for b, w in weights.items()})
    wsum = sum(weights.values())
    if abs(wsum - 1) > Fraction(1, 10 ** 9):
        raise TeacherSelectError(f"benchmark weights must sum to 1, got {float(wsum)}")

    rows: dict[tuple[str, str], list[ScoreRecord]] = {}
    for r in records:
        rows.setdefault((r.teacher_id, r.benchmark), []).append(r)
    # one student's scores per cell: scores of different students do not average
    shared = {k: sorted(r.student_id for r in rs) for k, rs in rows.items() if len(rs) > 1}
    if shared:
        raise TeacherSelectError(f"more than one score row per (teacher, benchmark): {shared}")
    cell = {k: rs[0] for k, rs in rows.items()}
    missing = [(t, b) for t in teachers for b in weights if (t, b) not in cell]
    if missing:
        raise TeacherSelectError(f"incomplete score matrix, missing cells: {missing}")

    rankings = []
    for t in teachers:
        score = Fraction(0)
        lens = []
        for b, w in weights.items():
            r = cell[(t, b)]
            score += w * Fraction(r.delta_acc)
            lens.append(r.mean_response_len)
        rankings.append(TeacherRanking(teacher_id=t, score=score,
                                       mean_response_len=sum(lens) / len(lens)))
    rankings.sort(key=lambda r: (-r.score, r.mean_response_len, r.teacher_id))
    return rankings
