"""Question compression: estimate student pass rates, keep hard questions.

Pass rates come from fresh student rollouts, not from reused teacher
trajectories. The keep boundary is inclusive: a question survives when its
pass rate is at most the threshold, since anything strictly above it is
considered too easy for the student.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .clients import Client, JudgeRequest
from .filtering import candidate_answer, extract_final_answer, rule_verify
from .records import PassRateStats, QuestionRecord
from .teacher import sample_teacher


class CompressError(ValueError):
    pass


def pass_rate(outcomes: Sequence[bool], runs: int, question_id: str = "") -> PassRateStats:
    """Exact rational success rate over a fixed number of runs."""
    if runs < 1:
        raise CompressError("runs must be >= 1")
    if len(outcomes) != runs:
        raise CompressError(f"expected {runs} outcomes, got {len(outcomes)}")
    stats = PassRateStats(question_id=question_id, runs=runs,
                          successes=sum(1 for o in outcomes if o))
    stats.validate()
    return stats


def _as_fraction(tau: float | Fraction | str) -> Fraction:
    # Going through str keeps decimal thresholds like 0.3 exact.
    if isinstance(tau, Fraction):
        return tau
    return Fraction(str(tau))


@dataclass
class CompressionReport:
    tau: float
    runs: int
    total: int
    retained: int
    filtered_ids: list[str]

    @property
    def retention_ratio(self) -> float:
        return self.retained / self.total if self.total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"tau": self.tau, "runs": self.runs, "total": self.total,
                "retained": self.retained, "retention_ratio": self.retention_ratio,
                "filtered_ids": list(self.filtered_ids)}


def select_hard(questions: Sequence[QuestionRecord],
                stats: Sequence[PassRateStats],
                tau: float | Fraction) -> tuple[list[QuestionRecord], CompressionReport]:
    """Retain questions whose pass rate is at most tau, ordered by id."""
    tau_frac = _as_fraction(tau)
    if not (0 <= tau_frac <= 1):
        raise CompressError("tau must be in [0, 1]")
    by_qid = {s.question_id: s for s in stats}
    missing = sorted(q.question_id for q in questions if q.question_id not in by_qid)
    if missing:
        raise CompressError(f"missing pass-rate stats for questions: {missing}")
    runs = {by_qid[q.question_id].runs for q in questions}
    if len(runs) > 1:
        raise CompressError(f"inconsistent runs counts across questions: {sorted(runs)}")

    ordered = sorted(questions, key=lambda q: q.question_id)
    retained = [q for q in ordered if by_qid[q.question_id].pass_rate <= tau_frac]
    filtered = [q.question_id for q in ordered if by_qid[q.question_id].pass_rate > tau_frac]
    report = CompressionReport(tau=float(tau_frac), runs=next(iter(runs)) if runs else 0,
                               total=len(ordered), retained=len(retained),
                               filtered_ids=filtered)
    return retained, report


def judge_request(question: QuestionRecord, candidate: str) -> JudgeRequest:
    """The judge's request for one candidate answer to question."""
    return JudgeRequest(question=question.prompt, candidate_answer=candidate,
                        ground_truth=str(question.ground_truth or "unspecified"))


def response_is_correct(text: str, question: QuestionRecord, client: Client) -> bool:
    """Correctness path shared with the quality gate.

    Math with ground truth goes through boxed extraction and rule
    verification; everything else is delegated to the judge, and counts as
    a failure when it has no candidate answer or the verdict is not correct.
    """
    if question.domain == "math" and question.ground_truth:
        answer = extract_final_answer(text)
        if answer is None:
            return False
        return rule_verify(answer, question.ground_truth).status == "correct"
    candidate = candidate_answer(text)
    if not candidate:
        return False
    return client.judge(judge_request(question, candidate)).status == "correct"


def student_rollout(questions: Sequence[QuestionRecord],
                    client: Client,
                    runs: int = 16,
                    student_id: str = "student",
                    temperature: float = 0.7,
                    seed: int | None = None) -> list[PassRateStats]:
    """Sample the student on every question and verify each response.

    Each question gets `runs` independent samples in one batched request.
    Pass rates are ordered by question id. Through a `CachingClient`, an
    interrupted roll-out resumes without re-billing: the samples and judge
    calls that finished are answered from the cache, and only those that
    never did go to the backend.
    """
    if runs < 1:
        raise CompressError("runs must be >= 1")
    stats = []
    for question in questions:
        responses = sample_teacher([question], client, student_id, runs,
                                   temperature=temperature, seed=seed)
        outcomes = [response_is_correct(r.text, question, client) for r in responses]
        stats.append(pass_rate(outcomes, runs, question_id=question.question_id))
    return sorted(stats, key=lambda s: s.question_id)
