from __future__ import annotations

import json
import os
import re
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ded.clients import JUDGE_RUBRICS, Client, JudgeRequest, SamplingRequest, TransportError
from ded.config import STAGE_SEQUENCE
from ded.diversity import _pack_distances
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


def question_distances(surfaces, cap: int | None = None) -> np.ndarray:
    """One question's distance matrix over its surfaces, clamped at cap and
    exact when cap is None: a pack of one question, through the engine's one
    entry."""
    (dist,), _, _ = _pack_distances([(surfaces, cap)])
    return dist


def pair_distance(a, b, cap: int | None = None) -> int:
    """min(edit distance, cap) of two sequences, exact when cap is None."""
    return int(question_distances([a, b], cap)[0, 1])


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


# Runs the config of argv[1] in this process, counting the `replacing`
# blocks of every module that writes; with argv[2] = k > 0, the process dies
# with exit code 9 inside the k-th block, after a partial write. Each
# block's path is appended to the file argv[3].
_KILL_AT_WRITE = """
import contextlib, itertools, json, os, sys
import numpy  # noqa: F401 - loaded here, so that no helper forks and one process writes all
from ded import clients, diagnostics, pipeline, records
config, kill_at, paths = json.loads(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
real, count = records.replacing, itertools.count(1)

@contextlib.contextmanager
def replacing(path):
    with real(path) as fh:
        with open(paths, "a", encoding="utf-8") as log:
            log.write(str(path) + chr(10))
        if next(count) == kill_at:
            fh.write("partial")
            fh.flush()
            os._exit(9)
        yield fh

for module in (records, pipeline, diagnostics, clients):
    module.replacing = replacing
sys.exit(pipeline.run_pipeline(config).exit_code)
"""


def src_env() -> dict[str, str]:
    """This environment, with the checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


def killed_run(config: dict, out: Path,
               kill_at: int) -> tuple[subprocess.CompletedProcess, list[str]]:
    """config run in out in a process of its own that dies inside its
    kill_at-th write (none if 0), and the paths of the writes it began, in
    order and relative to out."""
    paths = out.with_name(f"{out.name}.paths")
    proc = subprocess.run([sys.executable, "-c", _KILL_AT_WRITE,
                           json.dumps(dict(config, out_dir=str(out))), str(kill_at), str(paths)],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    return proc, [Path(p).relative_to(out).as_posix()
                  for p in paths.read_text(encoding="utf-8").splitlines()]


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


_JUDGE_PROMPT = re.compile("^" + "".join(
    re.escape(part) if i % 2 == 0 else f"(?P<{part}>.*?)"
    for i, part in enumerate(re.split(r"\{(\w+)\}", JUDGE_RUBRICS["default"]))) + "$",
    re.DOTALL)


class MockTransport:
    """An in-process chat-completion endpoint for `HttpClient`, the one
    place tests script a backend's failures: it answers each request as
    `MockClient` over the same fixtures would. Each rule takes the
    request's model and prompt: the first `throttle` attempts of a request
    get HTTP 429 (True counts as one), every attempt of one `refuse` picks
    gets HTTP 401, and `delay` gives the seconds before each reply. `peak`
    is the most attempts ever in progress at once."""

    def __init__(self, mock, throttle=lambda model, prompt: False,
                 refuse=lambda model, prompt: False, delay=lambda model, prompt: 0.002):
        self.mock = mock
        self.throttle = throttle
        self.refuse = refuse
        self.delay = delay
        self.requests = 0
        self.throttled = 0
        self.active = 0
        self.peak = 0
        self._attempts: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def _reply(self, model, prompt, payload):
        if model == "judge":
            fields = _JUDGE_PROMPT.match(prompt).groupdict()
            return [self.mock.judge(JudgeRequest(**fields)).detail]
        return self.mock.sample_trajectories(SamplingRequest(
            prompt=prompt, teacher_id=model, samples=payload["n"],
            temperature=payload["temperature"], max_tokens=payload["max_tokens"],
            seed=payload.get("seed")))

    def __call__(self, url, payload, headers):
        model, prompt = payload["model"], payload["messages"][0]["content"]
        with self._lock:
            self.requests += 1
            self.active += 1
            self.peak = max(self.peak, self.active)
            attempt = self._attempts.get((model, prompt), 0)
            self._attempts[(model, prompt)] = attempt + 1
        try:
            time.sleep(self.delay(model, prompt))
            if self.refuse(model, prompt):
                return 401, b"denied"
            if attempt < self.throttle(model, prompt):
                with self._lock:
                    self.throttled += 1
                return 429, b""
            texts = self._reply(model, prompt, payload)
            return 200, json.dumps(
                {"choices": [{"message": {"content": t}} for t in texts]}).encode()
        finally:
            with self._lock:
                self.active -= 1


# replies an HTTP endpoint may send that are not HTTP responses in full
MALFORMED_REPLIES = {
    "truncated body": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                      b"Content-Length: 100\r\n\r\n{\"choices\": [",
    "status line not HTTP": b"not an http reply\r\n\r\n",
}


class _CannedReply(socketserver.StreamRequestHandler):
    """Reads one HTTP request, answers it with the server's `reply` bytes
    and closes the connection."""

    def handle(self):
        length = 0
        for line in iter(self.rfile.readline, b""):
            if line == b"\r\n":
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        self.server.requests += 1
        self.wfile.write(self.server.reply)


@pytest.fixture
def loopback(monkeypatch):
    """`serve(reply)` starts a server on 127.0.0.1 that answers every
    request with the bytes `reply`, and returns it; its `base_url` is for
    `HttpClient` and `requests` counts the requests it read."""
    for key in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    started = []

    def serve(reply: bytes) -> socketserver.TCPServer:
        server = socketserver.TCPServer(("127.0.0.1", 0), _CannedReply)
        server.reply, server.requests = reply, 0
        server.base_url = f"http://127.0.0.1:{server.server_address[1]}/v1"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield serve
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join()


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
