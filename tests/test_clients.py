from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ded.clients import (AuthenticationError, CachingClient, Client, HttpClient, JudgeRequest,
                         MockClient, RetryBudgetExceededError, RetryPolicy, SamplingRequest,
                         SchemaError, TransportError, load_mock_fixtures, parse_judge_reply)
from ded.records import CorpusError

from conftest import (MALFORMED_REPLIES, MockTransport, build_pipeline_fixture,
                      completion_reply)


def _fan_out(fn, items, width):
    """fn of each item, `width` threads at once, in item order."""
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, items))


def _request(m=1, prompt="p", teacher="t"):
    return SamplingRequest(prompt=prompt, teacher_id=teacher, samples=m, seed=3)


class TestRequests:
    def test_sampling_request_validates(self):
        with pytest.raises(ValueError):
            SamplingRequest(prompt="p", teacher_id="t", samples=0)
        with pytest.raises(ValueError):
            SamplingRequest(prompt="p", teacher_id="t", temperature=-1)

    def test_judge_request_requires_non_empty(self):
        with pytest.raises(ValueError):
            JudgeRequest(question="q", candidate_answer="", ground_truth="g")

    def test_cache_key_covers_seed_and_temperature(self):
        a = SamplingRequest(prompt="p", teacher_id="t", seed=1).cache_key()
        b = SamplingRequest(prompt="p", teacher_id="t", seed=2).cache_key()
        c = SamplingRequest(prompt="p", teacher_id="t", seed=1, temperature=0.1).cache_key()
        assert len({a, b, c}) == 3


class TestMockClient:
    def test_fixture_identity(self):
        client = MockClient(fixtures={"samples": {("t", "p"): ["canned reply"]}})
        assert client.sample_trajectories(_request()) == ["canned reply"]

    def test_cardinality_contract(self):
        client = MockClient(seed=5)
        texts = client.sample_trajectories(_request(m=4))
        assert len(texts) == 4
        assert len(set(texts)) == 4  # indices 0..3 give distinct texts

    def test_deterministic_under_seed(self):
        a = MockClient(seed=11).sample_trajectories(_request(m=3))
        b = MockClient(seed=11).sample_trajectories(_request(m=3))
        c = MockClient(seed=12).sample_trajectories(_request(m=3))
        assert a == b
        assert a != c

    def test_synthesized_text_is_well_formed(self):
        from ded.filtering import FilterConfig, check_format, extract_final_answer
        from conftest import make_question, make_trajectory
        text = MockClient(seed=1).sample_trajectories(_request())[0]
        t = make_trajectory(make_question(0), 0, text)
        assert check_format(t, FilterConfig()) is None
        assert extract_final_answer(text) is not None

    def test_every_request_is_one_attempt(self):
        client = MockClient(seed=5)
        client.sample_trajectories(_request(m=3))
        client.judge(JudgeRequest(question="q", candidate_answer="1", ground_truth="1"))
        assert (client.requests_total, client.retries_total) == (2, 0)

    def test_judge_fixture_and_fallback(self):
        client = MockClient(fixtures={"judges": {("q1", "42"): {"status": "correct"}}})
        verdict = client.judge(JudgeRequest(question="q1", candidate_answer="42",
                                            ground_truth="41"))
        assert verdict.status == "correct"
        # fallback compares with the rule normalizer
        verdict = client.judge(JudgeRequest(question="q2", candidate_answer="0.5",
                                            ground_truth="1/2"))
        assert verdict.status == "correct"
        verdict = client.judge(JudgeRequest(question="q2", candidate_answer="3",
                                            ground_truth="1/2"))
        assert verdict.status == "incorrect"

    def test_unparsable_judge_reply_is_unverifiable(self):
        fixtures = {"judges": {("q", "a"): {"reply": "the model rambled"}}}
        verdict = MockClient(fixtures=fixtures).judge(
            JudgeRequest(question="q", candidate_answer="a", ground_truth="g"))
        assert verdict.status == "unverifiable"
        assert verdict.detail == "the model rambled"

    def test_fixture_file_loading(self, tmp_path):
        path = tmp_path / "fx.jsonl"
        rows = [
            {"kind": "sample", "teacher_id": "t", "prompt": "p", "responses": ["r1", "r2"]},
            {"kind": "judge", "question": "q", "candidate_answer": "c", "status": "incorrect"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        fixtures = load_mock_fixtures(path)
        client = MockClient(fixtures=fixtures)
        assert client.sample_trajectories(_request(m=2)) == ["r1", "r2"]
        assert client.judge(JudgeRequest(question="q", candidate_answer="c",
                                         ground_truth="x")).status == "incorrect"


    @pytest.mark.parametrize("line,problem", [
        ('{"kind": "sample", "prompt": "p", "responses": []}',
         "sample row without field 'teacher_id'"),
        ('{"kind": "judge", "question": "q"}', "judge row without field 'candidate_answer'"),
        ('{"kind": "sample", ', "invalid JSON"),
        ('["sample"]', "not a JSON object"),
        ('{"kind": "samples", "teacher_id": "t", "prompt": "p", "responses": []}',
         "kind must be sample or judge, got 'samples'"),
        ('{"kind": "sample", "teacher_id": "t", "prompt": "p", "responses": 5}',
         "sample row field responses: expected list, got int"),
        ('{"kind": "sample", "teacher_id": "t", "prompt": "p", "responses": "abc"}',
         "sample row field responses: expected list, got str"),
        ('{"kind": "sample", "teacher_id": "t", "prompt": "p", "responses": ["r", 5]}',
         "sample row field responses: must hold strings only"),
        ('{"kind": "sample", "teacher_id": 1, "prompt": "p", "responses": []}',
         "sample row field teacher_id: expected string, got int"),
        ('{"kind": "sample", "teacher_id": "t", "prompt": null, "responses": []}',
         "sample row field prompt: expected string, got NoneType"),
        ('{"kind": "judge", "question": ["q"], "candidate_answer": "c"}',
         "judge row field question: expected string, got list"),
        ('{"kind": "judge", "question": "q", "candidate_answer": 2.5}',
         "judge row field candidate_answer: expected string, got float"),
        ('{"kind": "judge", "question": "q", "candidate_answer": "c", "reply": 5}',
         "judge row field reply: expected string, got int"),
        ('{"kind": "judge", "question": "q", "candidate_answer": "c", "reply": null}',
         "judge row field reply: expected string, got NoneType"),
        ('{"kind": "judge", "question": "q", "candidate_answer": "c", "status": 5}',
         "judge row field status: expected string, got int"),
    ])
    def test_bad_fixture_row_names_file_and_line(self, tmp_path, line, problem):
        path = tmp_path / "fx.jsonl"
        good = {"kind": "sample", "teacher_id": "t", "prompt": "p", "responses": ["r"]}
        path.write_text(json.dumps(good) + "\n\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_mock_fixtures(path)
        assert f"{path} line 3: {problem}" in str(err.value)


class TestJudgeReplyParsing:
    def test_marker_line(self):
        assert parse_judge_reply("VERDICT: correct") == "correct"
        assert parse_judge_reply("preface\nVERDICT: incorrect\n") == "incorrect"

    def test_strictness(self):
        assert parse_judge_reply("verdict correct") == "unverifiable"
        assert parse_judge_reply("VERDICT: maybe") == "unverifiable"
        assert parse_judge_reply("") == "unverifiable"


class TestHttpClient:
    def _client(self, responses, budget=3):
        calls = []

        def transport(url, payload, headers):
            calls.append(payload)
            status, body = responses.pop(0)
            return status, body

        client = HttpClient(base_url="http://api.test", api_key="k",
                            retry=RetryPolicy(budget=budget, sleep=lambda _: None),
                            transport=transport)
        return client, calls

    @staticmethod
    def _ok_body(texts):
        return 200, json.dumps(
            {"choices": [{"message": {"content": t}} for t in texts]}).encode()

    def test_sampling_happy_path(self):
        client, calls = self._client([self._ok_body(["a", "b"])])
        texts = client.sample_trajectories(_request(m=2))
        assert texts == ["a", "b"]
        assert calls[0]["n"] == 2

    def test_partial_batch_is_schema_error(self):
        client, _ = self._client([self._ok_body(["only one"])])
        with pytest.raises(SchemaError) as err:
            client.sample_trajectories(_request(m=3))
        assert "partial batch" in str(err.value)

    def test_auth_failure_not_retried(self):
        client, calls = self._client([(401, b"denied"), self._ok_body(["x"])])
        with pytest.raises(AuthenticationError):
            client.sample_trajectories(_request())
        assert len(calls) == 1
        assert client.retries_total == 0

    def test_transient_retried_then_succeeds(self):
        client, calls = self._client([(503, b""), (429, b""), self._ok_body(["x"])])
        assert client.sample_trajectories(_request()) == ["x"]
        assert client.retries_total == 2
        assert len(calls) == 3

    def test_budget_exhausted(self):
        client, calls = self._client([(503, b"")] * 5, budget=3)
        with pytest.raises(RetryBudgetExceededError):
            client.sample_trajectories(_request())
        assert len(calls) == 3
        assert client.retries_total == 2

    def test_judge_round_trip(self):
        client, calls = self._client([self._ok_body(["VERDICT: correct"])])
        verdict = client.judge(JudgeRequest(question="q", candidate_answer="a",
                                            ground_truth="a"))
        assert verdict.status == "correct"
        assert "VERDICT" in calls[0]["messages"][0]["content"]

    @pytest.mark.parametrize("content", [None, 7])
    @pytest.mark.parametrize("call", ["sample", "judge"])
    def test_content_not_a_string_is_schema_error(self, call, content):
        client, calls = self._client([self._ok_body([content])] * 2)
        with pytest.raises(SchemaError, match="not a string"):
            if call == "sample":
                client.sample_trajectories(_request())
            else:
                client.judge(JudgeRequest(question="q", candidate_answer="a", ground_truth="a"))
        assert len(calls) == 1
        assert client.retries_total == 0

    def test_a_reply_that_repeats_a_key_is_a_schema_error_never_cached(self, tmp_path):
        body = b'{"choices": [{"message": {"content": "a", "content": "b"}}]}'
        client, calls = self._client([(200, body)] * 2)
        cached = CachingClient(client, tmp_path / "cache")
        with pytest.raises(SchemaError, match="repeated key 'content'"):
            cached.sample_trajectories(_request())
        assert len(calls) == 1 and client.retries_total == 0
        assert not (tmp_path / "cache").exists()


    def test_an_unexpected_status_is_a_schema_error_after_one_attempt(self):
        client, calls = self._client([(404, b"no such route"), self._ok_body(["x"])])
        with pytest.raises(SchemaError, match="unexpected HTTP 404: b'no such route'"):
            client.sample_trajectories(_request())
        assert len(calls) == 1 and client.retries_total == 0

    def test_a_choice_without_a_message_is_a_malformed_completion(self):
        client, calls = self._client([(200, b'{"choices": [{}]}')] * 2)
        with pytest.raises(SchemaError, match="malformed completion response: 'message'"):
            client.sample_trajectories(_request())
        assert len(calls) == 1 and client.retries_total == 0

    def test_a_transient_status_over_urllib_is_retried(self, loopback):
        server = loopback(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
                          completion_reply(["x"]))
        client = HttpClient(base_url=server.base_url, timeout=10,
                            retry=RetryPolicy(budget=2, sleep=lambda _: None))
        assert client.sample_trajectories(_request()) == ["x"]
        assert (server.requests, client.requests_total, client.retries_total) == (2, 2, 1)

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES)
    def test_a_malformed_reply_is_retried_as_transient(self, loopback, reply):
        server = loopback(MALFORMED_REPLIES[reply])
        client = HttpClient(base_url=server.base_url, timeout=10,
                            retry=RetryPolicy(budget=2, sleep=lambda _: None))
        with pytest.raises(RetryBudgetExceededError) as err:
            client.sample_trajectories(_request())
        assert isinstance(err.value.__cause__, TransportError)
        assert (server.requests, client.requests_total, client.retries_total) == (2, 2, 1)


class TestCachingClient:
    def test_cache_hits_skip_inner(self, tmp_path):
        inner = MockClient(seed=2)
        client = CachingClient(inner, tmp_path / "cache")
        first = client.sample_trajectories(_request(m=2))
        second = client.sample_trajectories(_request(m=2))
        assert first == second
        assert client.hits == 1 and client.misses == 1
        assert inner.requests_total == 1

    def test_judge_cached(self, tmp_path):
        inner = MockClient()
        client = CachingClient(inner, tmp_path / "cache")
        req = JudgeRequest(question="q", candidate_answer="1", ground_truth="1")
        assert client.judge(req).status == "correct"
        assert client.judge(req).status == "correct"
        assert client.hits == 1

    def test_cache_survives_client_restart(self, tmp_path):
        cache = tmp_path / "cache"
        first = CachingClient(MockClient(seed=9), cache).sample_trajectories(_request())
        fresh = CachingClient(MockClient(seed=9), cache)
        assert fresh.sample_trajectories(_request()) == first
        assert fresh.hits == 1


    @pytest.mark.parametrize("content", ['{"responses": ["a", "b"', '{"other": 1}', "[1]", "",
                                         '{"responses": [null, null]}', '{"responses": ["one"]}',
                                         '{"responses": "ab"}',
                                         '{"responses": ["a", "b"], "responses": ["c", "d"]}'])
    def test_unreadable_entry_is_a_miss_and_rewritten(self, tmp_path, content):
        client = CachingClient(MockClient(seed=2), tmp_path)  # a directory that exists
        path = client._path(_request(m=2).cache_key())
        path.write_text(content, encoding="utf-8")
        texts = client.sample_trajectories(_request(m=2))
        assert texts == MockClient(seed=2).sample_trajectories(_request(m=2))
        assert client.hits == 0 and client.misses == client.inner.requests_total == 1
        assert json.loads(path.read_text(encoding="utf-8")) == {"responses": texts}
        assert client.sample_trajectories(_request(m=2)) == texts
        assert client.hits == 1

    def test_judge_entry_without_status_is_a_miss(self, tmp_path):
        client = CachingClient(MockClient(), tmp_path)  # a directory that exists
        req = JudgeRequest(question="q", candidate_answer="1", ground_truth="1")
        client._path(req.cache_key()).write_text('{"detail": "x"}', encoding="utf-8")
        assert client.judge(req).status == "correct"
        assert client.misses == 1
        assert client.judge(req).status == "correct"
        assert client.hits == 1

    @pytest.mark.parametrize("entry", [{"status": "maybe", "detail": "x"},
                                       {"status": "overlength", "detail": "x"},
                                       {"status": "correct", "detail": None}])
    def test_judge_entry_a_verdict_refuses_is_a_miss_and_rewritten(self, tmp_path, entry):
        client = CachingClient(MockClient(), tmp_path)  # a directory that exists
        req = JudgeRequest(question="q", candidate_answer="1", ground_truth="1")
        path = client._path(req.cache_key())
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert client.judge(req).status == "correct"
        assert (client.hits, client.misses) == (0, 1)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "status": "correct", "detail": "VERDICT: correct"}

    def test_writers_of_one_key_use_their_own_temp_files(self, tmp_path, monkeypatch):
        # two processes sharing a cache directory, interleaved by hand: the
        # second writes and renames its entry while the first is mid-write
        cache = tmp_path / "cache"
        first = CachingClient(MockClient(seed=4), cache)
        second = CachingClient(MockClient(seed=4), cache)
        real_dump = json.dump

        def interleaved(value, fh, **kwargs):
            monkeypatch.setattr(json, "dump", real_dump)
            fh.write(" ")
            fh.flush()
            second.sample_trajectories(_request())
            real_dump(value, fh, **kwargs)

        monkeypatch.setattr(json, "dump", interleaved)
        texts = first.sample_trajectories(_request())
        fresh = CachingClient(MockClient(seed=4), cache)
        assert fresh.sample_trajectories(_request()) == texts
        assert fresh.hits == 1
        assert sorted(p.suffix for p in cache.iterdir()) == [".json"]


class _Gate(Client):
    """Inner client whose calls block until `release` is set; the first
    `failures` calls then raise TransportError."""

    def __init__(self, failures=0):
        self.release = threading.Event()
        self.calls = 0
        self.failures = failures
        self._lock = threading.Lock()

    def sample_trajectories(self, request):
        with self._lock:
            self.calls += 1
            call = self.calls
        assert self.release.wait(timeout=10)
        if call <= self.failures:
            raise TransportError("first call fails")
        return [f"reply {call}"]


def _call_together(client, threads):
    """Run client.sample_trajectories(_request()) from `threads` threads that
    start at once; return each thread's result or exception."""
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def work(i):
        barrier.wait(timeout=10)
        try:
            results[i] = client.sample_trajectories(_request())
        except TransportError as exc:
            results[i] = exc

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for w in workers:
        w.start()
    time.sleep(0.2)  # let every thread reach the inner call or the wait for it
    client.inner.release.set()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    return results


class TestSingleFlight:
    def test_concurrent_identical_requests_make_one_call(self, tmp_path):
        client = CachingClient(_Gate(), tmp_path / "cache")
        results = _call_together(client, 8)
        assert client.inner.calls == 1
        assert results == [["reply 1"]] * 8
        assert client.hits == 7 and client.misses == 1

    def test_failed_call_is_not_handed_to_waiters(self, tmp_path):
        client = CachingClient(_Gate(failures=1), tmp_path / "cache")
        results = _call_together(client, 2)
        errors = [r for r in results if isinstance(r, TransportError)]
        assert len(errors) == 1
        assert [r for r in results if not isinstance(r, TransportError)] == [["reply 2"]]
        assert client.inner.calls == 2
        assert client.hits == 0 and client.misses == 1


@pytest.mark.parametrize("backend", ["mock", "http"])
def test_counters_are_exact_under_concurrency(backend):
    # over http, the first attempt of a quarter of the prompts is throttled
    calls, failures = 600, 150 if backend == "http" else 0
    mock = MockClient()
    transport = MockTransport(mock, throttle=lambda model, prompt: int(prompt[1:]) < failures,
                              delay=lambda model, prompt: 0)
    client = mock if backend == "mock" else HttpClient(
        base_url="http://api.test", retry=RetryPolicy(budget=2, sleep=lambda _: None),
        transport=transport)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _fan_out(lambda i: client.sample_trajectories(_request(prompt=f"p{i}")), range(calls), 8)
    finally:
        sys.setswitchinterval(interval)
    assert transport.throttled == failures
    assert client.retries_total == failures
    assert client.requests_total == calls + failures


class TestWire:
    def test_max_in_flight_bounds_attempts_under_nested_fan_out(self):
        active, peak = [0], [0]
        lock = threading.Lock()

        def transport(url, payload, headers):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.005)
            with lock:
                active[0] -= 1
            return TestHttpClient._ok_body(["x"])

        client = HttpClient(base_url="http://api.test", transport=transport,
                            max_in_flight=2)

        def outer(i):
            return _fan_out(lambda j: client.sample_trajectories(_request(prompt=f"p{i}.{j}")),
                            range(4), 4)

        assert _fan_out(outer, range(4), 4) == [[["x"]] * 4] * 4
        assert client.requests_total == 16
        assert peak[0] == 2

    def test_backoff_holds_no_slot(self):
        # one slot: "b" can only reach the wire while "a" sleeps out its backoff
        sleeping, b_sent = threading.Event(), threading.Event()
        first_a = [True]

        def transport(url, payload, headers):
            prompt = payload["messages"][0]["content"]
            if prompt == "a" and first_a[0]:
                first_a[0] = False
                return 429, b""
            if prompt == "b":
                b_sent.set()
            return TestHttpClient._ok_body([prompt])

        def backoff(seconds):
            sleeping.set()
            assert b_sent.wait(timeout=10)

        client = HttpClient(base_url="http://api.test", transport=transport,
                            retry=RetryPolicy(sleep=backoff), max_in_flight=1)
        results = {}

        def call(prompt):
            results[prompt] = client.sample_trajectories(_request(prompt=prompt))

        a = threading.Thread(target=call, args=("a",))
        a.start()
        assert sleeping.wait(timeout=10)
        b = threading.Thread(target=call, args=("b",))
        b.start()
        for t in (a, b):
            t.join(timeout=10)
            assert not t.is_alive()
        assert results == {"a": ["a"], "b": ["b"]}
        assert client.retries_total == 1


def test_cache_keys_cover_the_backend(tmp_path):
    cache = tmp_path / "cache"
    mock = CachingClient(MockClient(seed=1), cache)
    mock.sample_trajectories(_request())
    sent = []

    def transport(url, payload, headers):
        sent.append(url)
        return TestHttpClient._ok_body(["from http"])

    for base_url in ("http://one.test", "http://two.test", "http://one.test"):
        http = CachingClient(HttpClient(base_url=base_url, transport=transport), cache)
        assert http.sample_trajectories(_request()) == ["from http"]
    assert sent == ["http://one.test/chat/completions", "http://two.test/chat/completions"]
    assert CachingClient(MockClient(seed=1), cache).sample_trajectories(_request()) != [
        "from http"]


def test_cache_entry_names_are_pinned(tmp_path):
    # a renamed entry is a miss, which in http mode bills the call again
    client = CachingClient(HttpClient(base_url="http://one.test"), tmp_path)
    sample = _request().cache_key()
    judge = JudgeRequest(question="What is 6 * 7?", candidate_answer="42",
                         ground_truth="42").cache_key()
    assert sample == "1cb23d6fca39fbbe097cf53e6f65469cee1a107a87a8130377f8c0685ab38c45"
    assert judge == "e1749f32c70e1ec81ce9ff0437d25aa84304225ab0e0b167c0c158bece2b1ff5"
    assert client._path(sample).name == (
        "c66062802f1b5dbb31d0223f0d876ffecbe407d36d00bccdc62b0b4cb3c2ef7c.json")
    assert client._path(judge).name == (
        "b34e35231d2ed449c2700c4d5ae0ca6eb20d63f337a896fec54583b8dcc0b0bf.json")


def test_mock_backend_is_pinned(tmp_path):
    # the mock's cache entries are named after its backend, so a change in
    # how fixture rows are stored renames them all
    rows = [{"kind": "sample", "teacher_id": "t", "prompt": "p",
             "responses": ["<think>a</think>1", "r2"]},
            {"kind": "judge", "question": "q", "candidate_answer": "a", "status": "correct"},
            {"kind": "judge", "question": "q", "candidate_answer": "b",
             "reply": "VERDICT: incorrect"}]
    path = tmp_path / "fx.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert MockClient(path, seed=3).backend == (
        "mock 602bf900bbfbf60e6ca141c698143da4c99d641cece8ae3dc39cfe8c48d6aeff")


def test_mock_backend_covers_what_its_answers_depend_on(tmp_path):
    fixtures = {"samples": {("t", "p"): ["canned reply"]},
                "judges": {("q", "a"): {"status": "correct"}}}
    base = MockClient(fixtures=fixtures, seed=1)
    assert MockClient(fixtures=copy.deepcopy(fixtures), seed=1).backend == base.backend
    edited = copy.deepcopy(fixtures)
    edited["samples"][("t", "p")] = ["edited reply"]
    judged = copy.deepcopy(fixtures)
    judged["judges"][("q", "a")] = {"status": "incorrect"}
    others = [MockClient(fixtures=edited, seed=1), MockClient(fixtures=judged, seed=1),
              MockClient(fixtures=fixtures, seed=2)]
    assert len({base.backend, *(c.backend for c in others)}) == 4
    # an entry written under one fixture table is not served under another
    cache = tmp_path / "cache"
    assert CachingClient(base, cache).sample_trajectories(_request()) == ["canned reply"]
    assert CachingClient(others[0], cache).sample_trajectories(_request()) == [
        "edited reply"]


def test_views_count_their_own_calls_and_the_whole(tmp_path):
    # 400 calls through two views, each view's over its own 25 prompts
    client = CachingClient(MockClient(), tmp_path / "cache")
    views = [client.view(), client.view()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _fan_out(lambda i: views[i % 2].sample_trajectories(_request(prompt=f"p{i % 50}")),
                 range(400), 8)
    finally:
        sys.setswitchinterval(interval)
    assert [(v.hits, v.misses) for v in views] == [(175, 25), (175, 25)]
    assert (client.hits, client.misses) == (350, 50)


def test_importing_the_cli_leaves_urllib_request_out():
    code = "import sys, ded.cli; print('urllib.request' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_only_an_http_client_over_urllib_imports_urllib_request(tmp_path):
    # in a fresh interpreter: a mock run never loads it, and an http client
    # loads it when it is built, before any request
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(build_pipeline_fixture(tmp_path),
                                      stages=["sample", "filter", "compress"])),
                      encoding="utf-8")
    code = ("import sys\n"
            "from ded.cli import main\n"
            "from ded.clients import HttpClient\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
            "HttpClient(transport=lambda url, payload, headers: (200, b'{}'))\n"
            "seen = ['urllib.request' in sys.modules]\n"
            "HttpClient(base_url='http://model.test/v1')\n"
            "print(seen + ['urllib.request' in sys.modules])\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[False, True]"
