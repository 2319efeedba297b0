"""Teacher-sampler and judge clients.

Two implementations share one contract: an HTTP chat-completion client for
real runs, which retries transient failures, and a deterministic mock for
offline runs and tests, which answers every request on its first attempt.
A caching wrapper keyed on request content makes re-runs free.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, TypeVar

from .filtering import normalize_answer
from .records import (CorpusError, Spec, VerificationVerdict, check_object, load_json, read_jsonl,
                      replacing, strings_only)

T = TypeVar("T")
R = TypeVar("R")


class ClientError(Exception):
    retryable = False


class AuthenticationError(ClientError):
    retryable = False


class TransportError(ClientError):
    retryable = True


class SchemaError(ClientError):
    """Response shape violation, including partial batches. Not retryable."""
    retryable = False


class RetryBudgetExceededError(ClientError):
    retryable = False


def _texts(texts: Any, n: int) -> list[str]:
    """texts if it is the n strings that answer a request for n completions,
    else SchemaError; replies on the wire and in the cache are read through it."""
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise SchemaError(f"completion content is not a string: {texts!r:.100}")
    if len(texts) != n:
        raise SchemaError(f"partial batch: got {len(texts)} of {n} samples")
    return texts


@dataclass
class SamplingRequest:
    prompt: str
    teacher_id: str
    samples: int = 1
    temperature: float = 0.7
    max_tokens: int = 32768
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def cache_key(self) -> str:
        return _digest({"kind": "sample", "prompt": self.prompt, "teacher_id": self.teacher_id,
                        "samples": self.samples, "temperature": self.temperature,
                        "max_tokens": self.max_tokens, "seed": self.seed})


@dataclass
class JudgeRequest:
    question: str
    candidate_answer: str
    ground_truth: str

    def __post_init__(self) -> None:
        for name in ("question", "candidate_answer", "ground_truth"):
            if not getattr(self, name):
                raise ValueError(f"judge request field {name} must be non-empty")

    def cache_key(self) -> str:
        return _digest({"kind": "judge", "question": self.question,
                        "candidate_answer": self.candidate_answer,
                        "ground_truth": self.ground_truth, "rubric": "default"})


def _digest(payload: dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


JUDGE_RUBRICS = {
    "default": (
        "Grade the candidate answer against the reference.\n"
        "Question:\n{question}\n\nCandidate answer:\n{candidate_answer}\n\n"
        "Reference answer:\n{ground_truth}\n\n"
        "Reply with exactly one line: VERDICT: correct or VERDICT: incorrect."
    ),
}


def parse_judge_reply(reply: str) -> str:
    """Strict marker convention: a VERDICT line decides, anything else is unverifiable."""
    for line in reply.splitlines():
        stripped = line.strip()
        if stripped.startswith("VERDICT:"):
            value = stripped[len("VERDICT:"):].strip().lower()
            if value in ("correct", "incorrect"):
                return value
    return "unverifiable"


@dataclass
class RetryPolicy:
    """Exponential backoff over a fixed attempt budget."""

    budget: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    sleep: Callable[[float], None] = time.sleep

    def run(self, fn: Callable[[], T], on_retry: Callable[[], None] | None = None) -> T:
        last: ClientError | None = None
        for attempt in range(self.budget):
            try:
                return fn()
            except ClientError as exc:
                if not exc.retryable:
                    raise
                last = exc
                if attempt + 1 < self.budget:
                    if on_retry:
                        on_retry()
                    self.sleep(min(self.base_delay * (2 ** attempt), self.max_delay))
        raise RetryBudgetExceededError(
            f"retry budget of {self.budget} attempts exhausted: {last}") from last


class Client:
    """Contract shared by all sampler/judge backends.

    Implementations are safe to call from several threads at once.
    `max_in_flight` is how many requests the backend serves at once: 1 for
    an in-process backend, which answers in microseconds, so threads would
    only add interpreter-lock hand-offs; for a remote one, the bound on its
    requests on the wire. `backend` names who answers, so that answers
    stored for one backend are never served for another.
    """

    max_in_flight = 1

    @property
    def backend(self) -> str:
        return type(self).__name__

    def sample_trajectories(self, request: SamplingRequest) -> list[str]:
        """Exactly request.samples response texts, indexed 0..samples-1."""
        raise NotImplementedError

    def judge(self, request: JudgeRequest) -> VerificationVerdict:
        raise NotImplementedError


class _Backend(Client):
    """A client that answers requests itself: `requests_total` counts the
    attempts it made and `retries_total` the retries."""

    def __init__(self) -> None:
        self.requests_total = 0
        self.retries_total = 0
        self._lock = threading.Lock()

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)


# an http run's refusal without an endpoint
NO_ENDPOINT = "no endpoint configured (set client.base_url)"


class HttpClient(_Backend):
    """Chat-completion style JSON endpoint at `base_url`, keyed by `DED_API_KEY`.

    Transport failures are retried with exponential backoff up to the
    policy budget; a reply that is not the texts asked for (a partial batch,
    a content that is not a string) is an error, never retried or truncated.
    At most `max_in_flight` attempts are on the wire at once, whichever
    threads make them; a request sleeping out its backoff holds no slot.
    """

    def __init__(self,
                 base_url: str | None = None,
                 api_key: str | None = None,
                 retry: RetryPolicy | None = None,
                 timeout: float = 120.0,
                 transport: Callable[[str, dict, dict], tuple[int, bytes]] | None = None,
                 max_in_flight: int = 1):
        super().__init__()
        self.retry = retry or RetryPolicy()
        self.base_url = (base_url or "").rstrip("/")
        self.api_key = api_key or os.environ.get("DED_API_KEY", "")
        self.timeout = timeout
        if transport is None:  # loaded here, not in the first requests' wire slots
            import urllib.request  # noqa: F401
        self.transport = transport or self._urllib_transport
        self.max_in_flight = max_in_flight
        self._wire = threading.BoundedSemaphore(max_in_flight)

    @property
    def backend(self) -> str:
        return f"http {self.base_url}"

    def _urllib_transport(self, url: str, payload: dict, headers: dict) -> tuple[int, bytes]:
        import http.client  # loaded by __init__, with urllib.request
        import urllib.error
        import urllib.request
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **headers}, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        # HTTPException: a reply cut short or not HTTP at all
        except (urllib.error.URLError, TimeoutError, ConnectionError,
                http.client.HTTPException) as exc:
            raise TransportError(f"transport failure: {exc}") from exc

    def _replies(self, payload: dict) -> list[str]:
        """The `payload["n"]` reply texts of payload's chat completion."""
        if not self.base_url:
            raise AuthenticationError(NO_ENDPOINT)
        url = f"{self.base_url}/chat/completions"
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}

        def attempt() -> dict:
            self._count("requests_total")
            with self._wire:
                status, body = self.transport(url, payload, headers)
            if status in (401, 403):
                raise AuthenticationError(f"authentication failed (HTTP {status})")
            if status == 429 or status >= 500:
                raise TransportError(f"transient HTTP {status}")
            if status != 200:
                raise SchemaError(f"unexpected HTTP {status}: {body[:200]!r}")
            try:
                return load_json(body)
            except CorpusError as exc:
                raise SchemaError(f"response body: {exc}") from exc

        data = self.retry.run(attempt, on_retry=partial(self._count, "retries_total"))
        try:
            texts = [c["message"]["content"] for c in data["choices"]]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed completion response: {exc}") from exc
        return _texts(texts, payload["n"])

    def sample_trajectories(self, request: SamplingRequest) -> list[str]:
        payload = {
            "model": request.teacher_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "n": request.samples,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        return self._replies(payload)

    def judge(self, request: JudgeRequest) -> VerificationVerdict:
        prompt = JUDGE_RUBRICS["default"].format(question=request.question,
                                                 candidate_answer=request.candidate_answer,
                                                 ground_truth=request.ground_truth)
        [reply] = self._replies({"model": "judge", "messages": [{"role": "user", "content": prompt}],
                                 "n": 1, "temperature": 0.0, "max_tokens": 64})
        return VerificationVerdict(status=parse_judge_reply(reply), checker="judge", detail=reply)


# the fields of each kind of fixture row; status and reply may be absent, not null
_FIXTURE_FIELDS = {
    "sample": {"teacher_id": Spec(str), "prompt": Spec(str),
               "responses": Spec(list, check=strings_only)},
    "judge": {"question": Spec(str), "candidate_answer": Spec(str),
              "status": Spec(str, ""), "reply": Spec(str, "")},
}


def load_mock_fixtures(path: str | Path) -> dict[str, Any]:
    """Fixture JSONL: sample lines carry (teacher_id, prompt, responses),
    judge lines carry (question, candidate_answer, status and/or reply).
    Raises CorpusError naming the file and line of a row that is not a JSON
    object of kind sample or judge, or lacks or mistypes a field of its kind.
    Rows are stored as read, since `MockClient.backend` hashes the judge rows."""
    samples: dict[tuple[str, str], list[str]] = {}
    judges: dict[tuple[str, str], dict[str, Any]] = {}

    def load(lineno: int, row: dict[str, Any]) -> None:
        kind = row.get("kind")
        if kind not in _FIXTURE_FIELDS:
            raise CorpusError(f"kind must be sample or judge, got {kind!r}")
        _, problems = check_object(_FIXTURE_FIELDS[kind], row)
        if problems:
            name, problem = problems[0]
            raise CorpusError(f"{kind} row without field {name!r}" if name not in row
                              else f"{kind} row field {name}: {problem}")
        if kind == "sample":
            samples[(row["teacher_id"], row["prompt"])] = list(row["responses"])
        else:
            judges[(row["question"], row["candidate_answer"])] = row

    read_jsonl(path, load)
    return {"samples": samples, "judges": judges}


def _stable_int(*parts: Any) -> int:
    blob = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class MockClient(_Backend):
    """Deterministic offline stand-in for both teacher and judge roles.

    Its answers depend on the fixture table, the seed and the request and
    on nothing else, and it answers every request on its first attempt, so
    two runs with the same fixtures and seed are byte-identical. Responses
    come from the fixture table when one matches; otherwise a well-formed
    trajectory is synthesized from a seeded hash. The fallback judge
    compares the candidate against the reference with the rule normalizer.
    """

    def __init__(self, fixtures: str | Path | dict[str, Any] | None = None, seed: int = 0):
        super().__init__()
        if isinstance(fixtures, (str, Path)):
            fixtures = load_mock_fixtures(fixtures)
        fixtures = fixtures or {}
        self.samples = dict(fixtures.get("samples", {}))
        self.judges = dict(fixtures.get("judges", {}))
        self.seed = seed
        # the answers depend on the fixture table and on the seed of the
        # synthesized ones, so the cache keys on both. Sample texts, which
        # can run to megabytes, are hashed as they are, each after its
        # length, rather than encoded as JSON first
        digest = hashlib.sha256(json.dumps(
            [seed, sorted(self.judges.items(), key=lambda item: item[0])],
            sort_keys=True).encode("ascii"))
        for key, texts in sorted(self.samples.items(), key=lambda item: item[0]):
            digest.update(json.dumps([key, len(texts)]).encode("ascii"))
            for text in texts:
                data = text.encode("utf-8", "surrogatepass")
                digest.update(b"%d:" % len(data))
                digest.update(data)
        self._backend = f"mock {digest.hexdigest()}"

    @property
    def backend(self) -> str:
        return self._backend

    def _synthesize(self, request: SamplingRequest, index: int) -> str:
        h = _stable_int(self.seed, request.teacher_id, request.prompt,
                        request.temperature, index)
        steps = 3 + h % 4
        filler = " ".join(
            f"Step {i + 1}: consider case {(h >> (4 * i)) % 97}." for i in range(steps))
        answer = h % 1000
        return f"<think>{filler}</think>The answer is \\boxed{{{answer}}}."

    def sample_trajectories(self, request: SamplingRequest) -> list[str]:
        self._count("requests_total")
        canned = self.samples.get((request.teacher_id, request.prompt), [])
        texts = list(canned[:request.samples])
        return texts + [self._synthesize(request, i)
                        for i in range(len(texts), request.samples)]

    def judge(self, request: JudgeRequest) -> VerificationVerdict:
        self._count("requests_total")
        row = self.judges.get((request.question, request.candidate_answer))
        if row is not None:
            reply = row.get("reply", f"VERDICT: {row.get('status', '')}")
            return VerificationVerdict(status=parse_judge_reply(reply),
                                       checker="judge", detail=reply)
        correct = normalize_answer(request.candidate_answer) == normalize_answer(
            request.ground_truth)
        status = "correct" if correct else "incorrect"
        return VerificationVerdict(status=status, checker="judge",
                                   detail=f"VERDICT: {status}")


class CachingClient(Client):
    """On-disk request cache so pipeline re-runs never re-bill sampling.

    Keys cover the backend, prompt, model, seed, temperature, and batch
    shape; values are JSON files under the cache directory. Requests are
    single-flight: while one thread's call for a key is out, other callers
    of that key wait for it and then read its entry as a hit, so hits and
    misses come out as in a serial run. A call that fails leaves no entry,
    and the next caller makes its own. An entry that cannot be read, or does
    not hold what the backend's reply must, counts as a miss and is rewritten.
    """

    def __init__(self, inner: Client, cache_dir: str | Path):
        self.inner = inner
        self.max_in_flight = inner.max_in_flight
        self.cache_dir = Path(cache_dir)  # made by the first write to it
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._flights: dict[str, threading.Event] = {}
        self._counted: tuple[CachingClient, ...] = (self,)

    @property
    def backend(self) -> str:
        return self.inner.backend

    def view(self) -> CachingClient:
        """This client with hit and miss counts of its own. Its calls still
        count here too, and it shares the cache and its flights."""
        view = copy.copy(self)
        view.hits = view.misses = 0
        view._counted = (*self._counted, view)
        return view

    def _count(self, attr: str) -> None:
        with self._lock:
            for client in self._counted:
                setattr(client, attr, getattr(client, attr) + 1)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{_digest({'backend': self.backend, 'request': key})}.json"

    def _read(self, key: str, decode: Callable[[Any], R]) -> R | None:
        try:
            return decode(load_json(self._path(key).read_bytes()))
        except (FileNotFoundError, ValueError, KeyError, TypeError, SchemaError):
            return None  # absent, undecodable, missing a field or holding a bad one: a miss

    def _write(self, key: str, value: dict) -> None:
        # writers sharing a cache directory each fill their own temp file
        with replacing(self._path(key)) as fh:
            json.dump(value, fh, sort_keys=True, ensure_ascii=False)

    def _cached(self, key: str, call: Callable[[], R],
                encode: Callable[[R], dict], decode: Callable[[Any], R]) -> R:
        """The entry under key, or else call's result, stored under key."""
        while True:
            with self._lock:
                cached = self._read(key, decode)
                flight = self._flights.get(key)
                if cached is None and flight is None:
                    flight = self._flights[key] = threading.Event()
                    break
            if cached is not None:
                self._count("hits")
                return cached
            flight.wait()
        try:
            result = call()
            self._count("misses")
            self._write(key, encode(result))
            return result
        finally:
            with self._lock:
                del self._flights[key]
            flight.set()

    def sample_trajectories(self, request: SamplingRequest) -> list[str]:
        return self._cached(request.cache_key(),
                            lambda: self.inner.sample_trajectories(request),
                            lambda responses: {"responses": responses},
                            lambda entry: _texts(entry["responses"], request.samples))

    def judge(self, request: JudgeRequest) -> VerificationVerdict:
        return self._cached(request.cache_key(),
                            lambda: self.inner.judge(request),
                            lambda v: {"status": v.status, "detail": v.detail},
                            lambda entry: VerificationVerdict.from_dict(
                                {"status": entry["status"], "checker": "judge",
                                 "detail": entry["detail"]}))
