"""Teacher smoke tests and ranking by distilled-student improvement.

The expensive fine-tuning step between corpus construction and scoring is
external by design: this module emits per-teacher smoke corpora plus a
training manifest, and later ingests a score file to rank the candidates
by how much each one improved the student, not by the teacher's own
benchmark numbers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from .clients import Client, SamplingRequest, map_concurrent
from .filtering import FilterConfig, GateResult, run_quality_gate
from .records import (QuestionRecord, ScoreRecord, TrajectoryRecord, content_hash, read_jsonl,
                      write_corpus, write_json)

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


@dataclass
class SmokeCorpus:
    gate: GateResult
    dropped_questions: list[str]


def sample_teacher(questions: Sequence[QuestionRecord], client: Client, teacher_id: str,
                   samples: int, temperature: float = 0.7, seed: int | None = None,
                   max_in_flight: int = 1) -> list[TrajectoryRecord]:
    """`samples` trajectories per question, in question-id order. Up to
    max_in_flight requests are out at once, which changes only the speed."""
    ordered = sorted(questions, key=lambda q: q.question_id)
    batches = map_concurrent(lambda q: client.sample_trajectories(SamplingRequest(
        prompt=q.prompt, teacher_id=teacher_id, samples=samples,
        temperature=temperature, seed=seed)), ordered, max_in_flight=max_in_flight)
    return [TrajectoryRecord(trajectory_id=f"{q.question_id}:{teacher_id}:{i:03d}",
                             question_id=q.question_id, teacher_id=teacher_id,
                             sample_index=i, text=text)
            for q, texts in zip(ordered, batches) for i, text in enumerate(texts)]


def _smoke_paths(out: Path, teacher_id: str) -> tuple[Path, Path]:
    """A teacher's smoke corpus and training manifest under out."""
    return out / f"smoke_{teacher_id}.jsonl", out / f"training_{teacher_id}.json"


def build_smoke_corpus(questions: Sequence[QuestionRecord],
                       teacher_ids: Sequence[str],
                       client: Client,
                       out_dir: str | Path,
                       temperature: float = 0.7,
                       seed: int | None = None) -> dict[str, SmokeCorpus]:
    """One trajectory per question per teacher, passed through the gate.

    Each teacher gets a corpus file of the kept trajectories and a training
    manifest naming that file, relative to out_dir, with its content hash,
    its counts and the fine-tuning hyperparameters.
    """
    out = Path(out_dir)
    # an id may name subdirectories, as in org/model, but may not climb out
    outside = [t for t in teacher_ids if not all(
        path.resolve().is_relative_to(out.resolve()) for path in _smoke_paths(out, t))]
    if outside:
        raise TeacherSelectError(f"teacher ids {outside} would write outside {out}")
    results: dict[str, SmokeCorpus] = {}
    for teacher_id in teacher_ids:
        trajectories = sample_teacher(questions, client, teacher_id, samples=1,
                                      temperature=temperature, seed=seed,
                                      max_in_flight=client.max_in_flight)
        gate = run_quality_gate(trajectories, questions, FilterConfig())
        kept_qids = {t.question_id for t in gate.kept}
        dropped = sorted(q.question_id for q in questions if q.question_id not in kept_qids)
        corpus_path, training_path = _smoke_paths(out, teacher_id)
        lines = write_corpus(corpus_path, gate.kept)
        write_json(training_path, {
            "teacher_id": teacher_id,
            "corpus_files": [corpus_path.relative_to(out).as_posix()],
            "content_hash": content_hash(gate.kept, lines),
            "trajectory_count": len(gate.kept),
            "dropped_questions": dropped,
            "hyperparameters": TRAINING_HYPERPARAMETERS,
        })
        results[teacher_id] = SmokeCorpus(gate=gate, dropped_questions=dropped)
    return results


_SCORE_FIELDS = ("teacher_id", "student_id", "benchmark", "acc", "mean_response_len", "base_acc")


def _score_from_row(row: dict[str, Any]) -> ScoreRecord:
    missing = [f for f in _SCORE_FIELDS if row.get(f) in (None, "")]
    if missing:
        raise TeacherSelectError(f"missing fields {missing}")

    def number(name: str, convert: Callable[[Any], Any]) -> Any:
        try:
            return convert(row[name])
        except (InvalidOperation, TypeError, ValueError) as exc:
            raise TeacherSelectError(f"{name}: not a number: {row[name]!r}") from exc

    acc = number("acc", lambda v: Decimal(str(v)))
    base = number("base_acc", lambda v: Decimal(str(v)))
    mean_response_len = number("mean_response_len", float)
    for name, value in (("acc", acc), ("base_acc", base)):
        if not (value.is_finite() and 0 <= value <= 100):
            raise TeacherSelectError(f"{name} {value} outside [0, 100]")
    record = ScoreRecord(teacher_id=str(row["teacher_id"]), student_id=str(row["student_id"]),
                         benchmark=str(row["benchmark"]), acc=str(acc),
                         mean_response_len=mean_response_len, delta_acc=str(acc - base))
    record.validate()
    return record


def ingest_scores(path: str | Path) -> list[ScoreRecord]:
    """Load a score file (CSV or JSONL) and compute deltas against the base.

    Accuracies are percentages; delta_acc = acc - base_acc with exact
    decimal arithmetic, so 79.58 - 65.63 really is 13.95.
    """
    records: list[ScoreRecord] = []
    seen: dict[tuple[str, str, str], int] = {}  # (teacher, student, benchmark) -> line

    def load(i: int, row: dict[str, Any]) -> None:
        record = _score_from_row(row)
        key = (record.teacher_id, record.student_id, record.benchmark)
        first = seen.setdefault(key, i)
        if first != i:
            raise TeacherSelectError(f"duplicate score row {key!r} (lines {first} and {i})")
        records.append(record)

    if Path(path).suffix.lower() != ".csv":
        read_jsonl(path, load)
        return records
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                load(reader.line_num, row)
        except UnicodeDecodeError as exc:
            raise TeacherSelectError(f"{path}: invalid UTF-8: {exc}") from exc
        except ValueError as exc:
            raise type(exc)(f"{path} line {reader.line_num}: {exc}") from exc
    return records


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
            score += w * Fraction(Decimal(r.delta_acc))
            lens.append(r.mean_response_len)
        rankings.append(TeacherRanking(teacher_id=t, score=score,
                                       mean_response_len=sum(lens) / len(lens)))
    rankings.sort(key=lambda r: (-r.score, r.mean_response_len, r.teacher_id))
    return rankings
