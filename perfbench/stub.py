"""Loopback chat-completion stub that answers like `MockClient`.

`HttpClient` posts `{model, messages, n, temperature, max_tokens, seed}` to
`<base_url>/chat/completions` and reads `choices[i].message.content`. The
stub rebuilds the `SamplingRequest` or, for `model == "judge"`, parses the
`JUDGE_RUBRICS["default"]` prompt back into a `JudgeRequest`, and answers
with `MockClient` over the workload's fixtures and the request's seed.

Every request sleeps a fixed latency before its reply. The first attempt of
each request whose content is in `fail_once` gets HTTP 429, so the client's
retry count is known exactly in advance. Requests are served by a pool of
at most `threads` workers.
"""

from __future__ import annotations

import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ded.clients import (JUDGE_RUBRICS, HttpClient, JudgeRequest, MockClient, RetryPolicy,
                         SamplingRequest, load_mock_fixtures)

_FIELDS = ("question", "candidate_answer", "ground_truth")


def _judge_pattern() -> re.Pattern:
    parts = re.split(r"\{(\w+)\}", JUDGE_RUBRICS["default"])
    regex = "".join(re.escape(p) if i % 2 == 0 else f"(?P<{p}>.*?)"
                    for i, p in enumerate(parts))
    return re.compile(f"^{regex}$", re.DOTALL)


def request_key(payload: dict[str, Any]) -> str:
    """Content key of one request: the model and its prompt."""
    return f"{payload.get('model')}\0{payload['messages'][0]['content']}"


class ModelStub:
    """Owns the server, its bounded worker pool and the request counters."""

    def __init__(self, fixtures: str, latency_s: float, threads: int):
        self.fixtures = load_mock_fixtures(fixtures)
        self._mocks: dict[Any, MockClient] = {}
        self.latency_s = latency_s
        self.fail_once: set[str] = set()
        self._judge_re = _judge_pattern()
        self._lock = threading.Lock()
        self.reset()
        self._pool = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="stub")
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 - http.server naming
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                status, reply = stub.handle(self.path, body)
                data = json.dumps(reply).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args: Any) -> None:
                pass

        class Server(ThreadingHTTPServer):
            def process_request(self, request, client_address) -> None:
                stub._pool.submit(self._serve, request, client_address)

            def _serve(self, request, client_address) -> None:
                try:
                    self.finish_request(request, client_address)
                except Exception:  # noqa: BLE001 - keep serving; report like socketserver
                    self.handle_error(request, client_address)
                finally:
                    self.shutdown_request(request)

        self.server = Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}/v1"

    def reset(self) -> None:
        """Clear counters and 429 memory before a run."""
        with self._lock:
            self.requests = 0
            self.throttled = 0
            self._failed: set[str] = set()
            self._in_flight = 0
            self._busy_integral = 0.0
            self._last = time.perf_counter()

    def in_flight_integral(self) -> float:
        """Seconds of request time summed over concurrent requests since reset."""
        with self._lock:
            self._advance(time.perf_counter())
            return self._busy_integral

    def _advance(self, now: float) -> None:
        self._busy_integral += self._in_flight * (now - self._last)
        self._last = now

    def _mock(self, seed: Any) -> MockClient:
        with self._lock:
            if seed not in self._mocks:
                self._mocks[seed] = MockClient(fixtures=self.fixtures,
                                               seed=seed if seed is not None else 0)
            return self._mocks[seed]

    def answer(self, payload: dict[str, Any]) -> list[str]:
        """The reply texts MockClient gives for this chat-completion payload."""
        prompt = payload["messages"][0]["content"]
        if payload.get("model") == "judge":
            match = self._judge_re.match(prompt)
            if match is None:
                raise ValueError("judge prompt does not follow the default rubric")
            verdict = self._mock(None).judge(
                JudgeRequest(**{f: match.group(f) for f in _FIELDS}))
            return [verdict.detail]
        request = SamplingRequest(prompt=prompt, teacher_id=payload["model"],
                                  samples=payload["n"], temperature=payload["temperature"],
                                  max_tokens=payload["max_tokens"], seed=payload.get("seed"))
        return self._mock(payload.get("seed")).sample_trajectories(request)

    def handle(self, path: str, body: bytes) -> tuple[int, dict[str, Any]]:
        with self._lock:
            self._advance(time.perf_counter())
            self._in_flight += 1
            self.requests += 1
        try:
            time.sleep(self.latency_s)
            if not path.endswith("/chat/completions"):
                return 404, {"error": f"no route {path}"}
            try:
                payload = json.loads(body)
                key = request_key(payload)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return 400, {"error": f"bad request: {exc}"}
            with self._lock:
                throttle = key in self.fail_once and key not in self._failed
                if throttle:
                    self._failed.add(key)
                    self.throttled += 1
            if throttle:
                return 429, {"error": "rate limited"}
            try:
                texts = self.answer(payload)
            except (ValueError, KeyError, TypeError) as exc:
                return 400, {"error": f"bad request: {exc}"}
            return 200, {"choices": [{"index": i, "message": {"role": "assistant",
                                                              "content": t}}
                                     for i, t in enumerate(texts)]}
        finally:
            with self._lock:
                self._advance(time.perf_counter())
                self._in_flight -= 1

    def close(self) -> None:
        self.server.shutdown()
        self._thread.join(timeout=10)
        self.server.server_close()
        self._pool.shutdown(wait=True)


def self_check(stub: ModelStub, requests: list[SamplingRequest | JudgeRequest]) -> list[str]:
    """Send each request through `HttpClient` to the stub and compare the
    reply with `MockClient`'s for the same request. Returns the mismatches."""
    http = HttpClient(base_url=stub.base_url, retry=RetryPolicy(budget=1))
    problems = []
    for req in requests:
        if isinstance(req, JudgeRequest):
            want = MockClient(fixtures=stub.fixtures).judge(req)
            got = http.judge(req)
            same = (got.status, got.detail) == (want.status, want.detail)
        else:
            want = MockClient(fixtures=stub.fixtures, seed=req.seed or 0).sample_trajectories(req)
            got = http.sample_trajectories(req)
            same = got == want
        if not same:
            problems.append(f"stub reply differs from MockClient for {req!r}: {got!r} != {want!r}")
    return problems
