from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ded.clients import Client, TransportError
from ded.config import STAGE_SEQUENCE
from ded.records import (PHASES, EmbeddingRecord, LogprobRecord, QuestionRecord,
                         TrajectoryRecord, write_corpus)


def make_question(i: int, domain: str = "math", gt: str | None = None) -> QuestionRecord:
    qid = f"q{i:03d}"
    return QuestionRecord(
        question_id=qid,
        domain=domain,
        prompt=f"Problem {qid}: evaluate expression number {i}.",
        ground_truth=gt if gt is not None else str(3 * i + 1),
        source="fixture",
        tags=["unit"],
    )


def make_trajectory(q: QuestionRecord, sample_index: int, text: str,
                    teacher_id: str = "t-alpha",
                    token_len: int | None = 100) -> TrajectoryRecord:
    return TrajectoryRecord(
        trajectory_id=f"{q.question_id}:{teacher_id}:{sample_index:03d}",
        question_id=q.question_id,
        teacher_id=teacher_id,
        sample_index=sample_index,
        text=text,
        token_len=token_len,
    )


def well_formed_text(q: QuestionRecord, j: int, answer: str | None = None) -> str:
    answer = answer if answer is not None else q.ground_truth
    filler = f"Attempt {j}: " + "reason step; " * (3 + j)
    return f"<think>{filler}</think>The answer is \\boxed{{{answer}}}."


def make_gate_fixture() -> tuple[list[QuestionRecord], list[TrajectoryRecord]]:
    """20 math questions x 8 samples with 9 planted defects.

    Plants: 3 overlength, 2 unpaired think tags, 4 wrong answers, all at
    distinct slots, so the gate must report kept=151, rejected=9,
    needs_judge=0.
    """
    questions = [make_question(i) for i in range(20)]
    overlength_slots = {(0, 1), (5, 2), (10, 3)}
    unpaired_slots = {(3, 4), (12, 5)}
    wrong_slots = {(7, 6), (9, 0), (15, 7), (18, 2)}
    trajectories = []
    for i, q in enumerate(questions):
        for j in range(8):
            if (i, j) in overlength_slots:
                t = make_trajectory(q, j, well_formed_text(q, j), token_len=16385)
            elif (i, j) in unpaired_slots:
                text = f"<think>Attempt {j}: never closes the block, answer {q.ground_truth}"
                t = make_trajectory(q, j, text)
            elif (i, j) in wrong_slots:
                wrong = str(int(q.ground_truth) + 1)
                t = make_trajectory(q, j, well_formed_text(q, j, answer=wrong))
            else:
                t = make_trajectory(q, j, well_formed_text(q, j))
            trajectories.append(t)
    return questions, trajectories


def build_pipeline_fixture(tmp_path: Path, out_name: str = "out") -> dict:
    """Questions, scripted mock fixtures, and a config for an end-to-end run.

    12 math questions, 8 teacher samples each with planted defects, and a
    4-run student rollout where the first 6 questions are easy (pass rate
    above 0.5) and the rest are hard.
    """
    questions = []
    fixture_rows = []
    for i in range(12):
        q = make_question(i, gt=str(7 * i + 3))
        questions.append(q)
        responses = []
        for j in range(8):
            filler = f"Route {j} for {q.question_id}: " + f"expand term {j}; " * (4 + 3 * j)
            text = f"<think>{filler}</think>Thus the answer is \\boxed{{{q.ground_truth}}}."
            responses.append(text)
        if i % 4 == 1:
            wrong = str(int(q.ground_truth) + 1)
            responses[5] = f"<think>Route 5 slips.</think>The answer is \\boxed{{{wrong}}}."
        elif i % 4 == 2:
            responses[6] = f"<think>Route 6 for {q.question_id} never closes"
        elif i % 4 == 3:
            responses[7] = ("<think>" + "pad " * 2300 +
                            f"</think>The answer is \\boxed{{{q.ground_truth}}}.")
        fixture_rows.append({"kind": "sample", "teacher_id": "t-alpha",
                             "prompt": q.prompt, "responses": responses})
        # student rollout: 3/4 correct for easy questions, at most 2/4 for hard
        correct = 3 if i < 6 else (i % 3)
        student = []
        for r in range(4):
            ans = q.ground_truth if r < correct else str(int(q.ground_truth) + 5)
            student.append(f"<think>student try {r}.</think>\\boxed{{{ans}}}")
        fixture_rows.append({"kind": "sample", "teacher_id": "s-base",
                             "prompt": q.prompt, "responses": student})

    questions_path = tmp_path / "questions.jsonl"
    with open(questions_path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps(q.to_dict(), sort_keys=True) + "\n")
    fixtures_path = tmp_path / "fixtures.jsonl"
    with open(fixtures_path, "w", encoding="utf-8") as fh:
        for row in fixture_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    config = {
        "questions": str(questions_path),
        "out_dir": str(tmp_path / out_name),
        "teacher_id": "t-alpha",
        "student_id": "s-base",
        "samples_per_question": 8,
        "runs": 4,
        "pass_threshold": 0.5,
        "diverse_per_question": 2,
        "max_token_len": 2048,
        "seed": 7,
        "client": {"mode": "mock", "fixtures": str(fixtures_path)},
    }
    return config


def mix_sources(tmp_path: Path) -> list[dict]:
    """`mix_sources` of one source: a question of its own with two trajectories."""
    q = make_question(40)
    source = tmp_path / "other_domain.jsonl"
    write_corpus(source, [make_trajectory(q, j, well_formed_text(q, j)) for j in range(2)])
    return [{"path": str(source), "take": 1}]


def six_stage_config(tmp_path: Path) -> dict:
    """The pipeline fixture's config, with a mix source and the logprobs and
    embeddings stats analyses, running all six stages."""
    config = build_pipeline_fixture(tmp_path)
    logprobs, embeddings = tmp_path / "logprobs.jsonl", tmp_path / "embeddings.jsonl"
    write_corpus(logprobs, [LogprobRecord("q000:t-alpha:000", i, [("a", 0.6), ("b", 0.4)])
                            for i in range(3)])
    write_corpus(embeddings, [EmbeddingRecord(f"e{i}", phase, [float(i), float(len(phase))])
                              for i in range(4) for phase in PHASES])
    return dict(config, stages=list(STAGE_SEQUENCE), mix_sources=mix_sources(tmp_path),
                logprobs=str(logprobs), embeddings=str(embeddings))


def read_events(out_dir: Path) -> list[dict]:
    """The events of the last run logged in out_dir: those that carry the
    `run` id of the log's last line."""
    with open(Path(out_dir) / "logs" / "events.jsonl", "r", encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    return [e for e in events if e["run"] == events[-1]["run"]]


class ProbeClient(Client):
    """Wraps a client for fan-out tests: a call waits `delay(request)`
    seconds, a call whose request `fails` picks raises TransportError, and
    `peak` is the most calls that were ever in flight at once."""

    def __init__(self, inner: Client, delay=lambda request: 0.01,
                 fails=lambda request: False):
        self.inner = inner
        self.delay = delay
        self.fails = fails
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def _call(self, method, request):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(self.delay(request))
            if self.fails(request):
                raise TransportError("scripted failure")
            return method(request)
        finally:
            with self._lock:
                self.active -= 1

    def sample_trajectories(self, request):
        return self._call(self.inner.sample_trajectories, request)

    def judge(self, request):
        return self._call(self.inner.judge, request)


@pytest.fixture
def gate_fixture():
    return make_gate_fixture()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid:
                name = report.nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(lines):
            terminalreporter.write_line(f"{outcome:>6}  {name}")
