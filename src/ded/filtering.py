"""Format, length, and rule-correctness gates for sampled trajectories.

Gate order is fixed: format, then length, then correctness. The order is
echoed into every manifest config snapshot so downstream consumers can see
which convention produced a corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .config import FIELDS
from .records import QuestionRecord, TrajectoryRecord, VerificationVerdict

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"

GATE_ORDER = ("format", "length", "correctness")


class FilterError(ValueError):
    pass


@dataclass
class FilterConfig:
    max_token_len: int = FIELDS["max_token_len"].default
    require_single_think_pair: bool = FIELDS["require_single_think_pair"].default
    token_estimator: str = FIELDS["token_estimator"].default


def check_format(trajectory: TrajectoryRecord,
                 config: FilterConfig) -> VerificationVerdict | None:
    """Return a malformed_format verdict, or None when the text is well formed.

    Well formed means exactly one <think>...</think> pair, opener before
    closer, with non-empty visible content after the closer. When
    require_single_think_pair is off, any positive number of properly
    alternating pairs is accepted.
    """
    text = trajectory.text

    def fail(detail: str) -> VerificationVerdict:
        return VerificationVerdict(status="malformed_format", checker="format", detail=detail)

    tags = re.findall(r"</?think>", text)
    opens, closes = tags.count(THINK_OPEN), tags.count(THINK_CLOSE)
    if not tags:
        return fail("missing think pair")
    if opens > closes:
        return fail("unclosed think tag")
    if closes > opens:
        return fail("unopened think closer")
    if config.require_single_think_pair and opens > 1:
        return fail("multiple think pairs")
    # tags must strictly alternate: open, close, open, close ...
    for i, tag in enumerate(tags):
        if (tag == THINK_OPEN) != (i % 2 == 0):
            return fail("nested think pair" if i % 2 else "think closer precedes opener")
    if not candidate_answer(text):
        return fail("no answer after think block")
    return None


def effective_token_len(trajectory: TrajectoryRecord,
                        config: FilterConfig) -> tuple[int, bool]:
    """Token length used by the gate, plus whether it was estimated.

    The fallback estimate is ceil(char_len / 4), a deliberately rough
    chars-per-token constant; precomputed counts are always preferred.
    """
    if trajectory.token_len is not None:
        return trajectory.token_len, False
    if config.token_estimator == "precomputed_only":
        raise FilterError(
            f"trajectory {trajectory.trajectory_id}: token_len missing and estimator is precomputed_only")
    return -(-(trajectory.char_len or 0) // 4), True


def token_lengths(trajectories: Sequence[TrajectoryRecord],
                  config: FilterConfig) -> tuple[list[int], bool]:
    """Each trajectory's `effective_token_len`, and whether any was estimated."""
    counted = [effective_token_len(t, config) for t in trajectories]
    return [length for length, _ in counted], any(estimated for _, estimated in counted)


def check_length(trajectory: TrajectoryRecord,
                 config: FilterConfig) -> VerificationVerdict | None:
    """Return an overlength verdict, or None when within the budget.

    The threshold is strict: a trajectory of exactly max_token_len passes.
    """
    length, estimated = effective_token_len(trajectory, config)
    if length > config.max_token_len:
        detail = f"token length {length} > {config.max_token_len}"
        if estimated:
            detail += " (estimated from char_len / 4)"
        return VerificationVerdict(status="overlength", checker="length", detail=detail)
    return None


def _last_boxed(text: str) -> str | None:
    idx = text.rfind("\\boxed")
    if idx < 0:
        return None
    pos = idx + len("\\boxed")
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text) or text[pos] != "{":
        return None
    depth = 0
    start = pos + 1
    for i in range(pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start:i]
    return None  # unbalanced braces: extraction failure, not a crash


def candidate_answer(text: str) -> str:
    """The visible answer: the text after the last think closer, stripped."""
    idx = text.rfind(THINK_CLOSE)
    return text[idx + len(THINK_CLOSE):].strip() if idx >= 0 else text.strip()


def extract_final_answer(text: str) -> str | None:
    """Content of the last \\boxed{...} group after the think closer, if any."""
    return _last_boxed(candidate_answer(text))


_FRAC_RE = re.compile(r"\\frac\{([^{}]*)\}\{([^{}]*)\}")
_RATIONAL_RE = re.compile(r"^[+-]?(\d+|\d*\.\d+|\d+/\d+)$")


def normalize_answer(answer: str) -> str:
    """Canonical form for rule verification.

    Whitespace is removed, \\frac{a}{b} becomes a/b (innermost first),
    comparison is case-insensitive, and anything that parses as a rational
    (integer, terminating decimal, or a/b) collapses to its exact reduced
    fraction.
    """
    s = re.sub(r"\s+", "", answer)
    while True:
        t = _FRAC_RE.sub(r"\1/\2", s)
        if t == s:
            break
        s = t
    s = s.lower()
    if _RATIONAL_RE.match(s):
        try:
            return str(Fraction(s))
        except (ValueError, ZeroDivisionError):
            return s
    return s


def rule_verify(answer: str, ground_truth: str) -> VerificationVerdict:
    """Exact-match verification on normalized answers; an empty answer, such
    as that of an empty `\\boxed{}`, is incorrect."""
    if not ground_truth:
        raise FilterError("rule_verify requires a non-empty ground truth")
    na, nt = normalize_answer(answer), normalize_answer(ground_truth)
    status = "correct" if na and na == nt else "incorrect"
    return VerificationVerdict(status=status, checker="rule",
                               detail=f"normalized {na!r} vs {nt!r}")


@dataclass
class GateResult:
    """Disjoint partition of the input; union equals the input."""

    kept: list[TrajectoryRecord] = field(default_factory=list)
    rejected: list[TrajectoryRecord] = field(default_factory=list)
    needs_judge: list[TrajectoryRecord] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        return {"kept": len(self.kept), "rejected": len(self.rejected),
                "needs_judge": len(self.needs_judge)}


def _classify(trajectory: TrajectoryRecord,
              question: QuestionRecord,
              config: FilterConfig) -> tuple[str, TrajectoryRecord]:
    verdict = check_format(trajectory, config)
    if verdict is not None:
        return "rejected", replace(trajectory, verdict=verdict)
    verdict = check_length(trajectory, config)
    if verdict is not None:
        return "rejected", replace(trajectory, verdict=verdict)

    if question.domain == "math" and question.ground_truth:
        answer = extract_final_answer(trajectory.text)
        if answer is None:
            verdict = VerificationVerdict(status="unverifiable", checker="rule",
                                          detail="no boxed answer found")
            return "needs_judge", replace(trajectory, verdict=verdict)
        verdict = rule_verify(answer, question.ground_truth)
        bucket = "kept" if verdict.status == "correct" else "rejected"
        return bucket, replace(trajectory, verdict=verdict)

    # Code answers and math without ground truth cannot be rule-verified.
    reason = ("code domain requires judge verification"
              if question.domain == "code" else "no ground truth for rule verification")
    verdict = VerificationVerdict(status="unverifiable", checker="rule", detail=reason)
    return "needs_judge", replace(trajectory, verdict=verdict)


def run_quality_gate(trajectories: Sequence[TrajectoryRecord],
                     questions: Iterable[QuestionRecord],
                     config: FilterConfig | None = None) -> GateResult:
    """Partition trajectories into kept / rejected / needs_judge.

    Pure function of its inputs: the partition is identical for any input
    order, with each bucket sorted by trajectory_id.
    """
    config = config or FilterConfig()
    qmap = {q.question_id: q for q in questions}
    dangling = sorted({t.question_id for t in trajectories if t.question_id not in qmap})
    if dangling:
        raise FilterError(f"trajectories reference unknown question_ids: {dangling}")

    result = GateResult()
    for t in trajectories:
        bucket, record = _classify(t, qmap[t.question_id], config)
        getattr(result, bucket).append(record)
    for bucket_list in (result.kept, result.rejected, result.needs_judge):
        bucket_list.sort(key=lambda t: t.trajectory_id)
    return result
