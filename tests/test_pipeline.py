from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

import pytest

from ded.clients import (JUDGE_RUBRICS, HttpClient, JudgeRequest, MockClient,
                         SamplingRequest)
from ded.config import STAGE_SEQUENCE
from ded.pipeline import (EXIT_CLIENT, EXIT_OK, EXIT_STAGE, STAGE_TABLE, run_pipeline,
                          tree_hash)
from ded.records import (EPOCH_ISO, PHASES, STAGES, EmbeddingRecord, LogprobRecord,
                         QuestionRecord, lineage_chain, load_manifest, parse_corpus,
                         write_corpus)

from conftest import (build_pipeline_fixture, make_question, make_trajectory,
                      well_formed_text)


def _read_events(out_dir):
    events = []
    with open(out_dir / "logs" / "events.jsonl", "r", encoding="utf-8") as fh:
        for line in fh:
            events.append(json.loads(line))
    return events


class TestPipelineEndToEnd:
    def test_stage_ledger_counts(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        result = run_pipeline(config)
        assert result.exit_code == EXIT_OK
        out = result.out_dir

        raw = load_manifest(out / "manifest_raw.json")
        right = load_manifest(out / "manifest_right.json")
        hard = load_manifest(out / "manifest_right_hard.json")
        diverse = load_manifest(out / "manifest_right_hard_diverse.json")

        assert (raw.question_count, raw.trajectory_count) == (12, 96)
        assert (right.question_count, right.trajectory_count) == (12, 87)
        assert (hard.question_count, hard.trajectory_count) == (6, 43)
        assert (diverse.question_count, diverse.trajectory_count) == (6, 12)

        # lineage chain links by content hash
        assert right.parent_manifest == raw.content_hash
        assert hard.parent_manifest == right.content_hash
        assert diverse.parent_manifest == hard.content_hash
        assert raw.parent_manifest is None

        # stage outputs parse back as valid corpora
        assert len(parse_corpus(out / "right_trajectories.jsonl", "trajectories")) == 87
        assert len(parse_corpus(out / "rejected_trajectories.jsonl", "trajectories")) == 9
        assert len(parse_corpus(out / "right_hard_diverse_trajectories.jsonl",
                                "trajectories")) == 12
        assert (out / "report.md").exists()

    def test_manifest_config_snapshot(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        result = run_pipeline(config)
        manifest = load_manifest(result.out_dir / "manifest_right.json")
        snap = manifest.config_snapshot
        assert snap["max_token_len"] == 2048
        assert snap["pass_threshold"] == 0.5
        assert snap["samples_per_question"] == 8
        assert snap["gate_order"] == ["format", "length", "correctness"]
        assert manifest.created_at == "1970-01-01T00:00:00+00:00"

    def test_rerun_is_byte_identical_and_uses_cache(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        first = run_pipeline(config)
        hash1 = tree_hash(first.out_dir)
        second = run_pipeline(config)
        hash2 = tree_hash(second.out_dir)
        assert first.exit_code == second.exit_code == EXIT_OK
        assert hash1 == hash2
        done = [e for e in _read_events(second.out_dir)
                if e["event"] == "done"][0]
        assert done["cache_hits"] > 0

    def test_prefix_of_stages_runs_alone(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        config["stages"] = ["sample", "filter"]
        result = run_pipeline(config)
        assert result.exit_code == EXIT_OK
        assert set(result.manifests) == {"raw", "right"}
        # downstream stages pick the corpus up from disk
        config2 = dict(config)
        config2["stages"] = ["filter", "compress", "diversify"]
        result2 = run_pipeline(config2)
        assert result2.exit_code == EXIT_OK
        assert set(result2.manifests) == {"right", "right_hard", "right_hard_diverse"}

    def test_interrupted_compress_resumes_without_resampling(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        result = run_pipeline(config)
        assert result.exit_code == EXIT_OK
        ckpt = result.out_dir / ".cache" / "rollout_checkpoint.jsonl"
        assert ckpt.exists()
        lines_before = ckpt.read_text().count("\n")

        # truncate the checkpoint to simulate an interruption mid-compress
        content = ckpt.read_text().splitlines()[: lines_before // 2]
        ckpt.write_text("\n".join(content) + "\n", encoding="utf-8")
        second = run_pipeline(config)
        assert second.exit_code == EXIT_OK
        events = _read_events(second.out_dir)
        done = [e for e in events if e["event"] == "done"][0]
        assert done["cache_hits"] > 0

    def test_checkpoint_rows_of_other_rollout_settings_are_not_reused(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        assert run_pipeline(config).exit_code == EXIT_OK
        config.update(runs=2, student_id="s-other")
        result = run_pipeline(config)
        assert result.exit_code == EXIT_OK
        rows = [json.loads(line) for line in
                (result.out_dir / "pass_rates.jsonl").read_text().splitlines()]
        assert rows and all(row["runs"] == 2 for row in rows)

    def test_missing_questions_is_stage_failure(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        config["questions"] = None
        result = run_pipeline(config)
        assert result.exit_code == EXIT_STAGE
        assert result.failed_stage == "sample"

    def test_structured_log_fields(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        result = run_pipeline(config)
        events = _read_events(result.out_dir)
        stages = {e["stage"] for e in events}
        assert {"sample", "filter", "compress", "diversify", "stats"} <= stages
        sample_events = [e for e in events
                         if e["stage"] == "sample" and e["event"] == "question_done"]
        assert all("question_id" in e and "ts" in e for e in sample_events)
        done = [e for e in events if e["event"] == "stage_done"]
        assert all("duration_ms" in e for e in done)

    def test_mix_stage(self, tmp_path):
        config = build_pipeline_fixture(tmp_path, out_name="math_out")
        result = run_pipeline(config)
        diverse_path = result.out_dir / "right_hard_diverse_trajectories.jsonl"

        # build a second source with disjoint question ids
        code_rows = []
        for t in parse_corpus(diverse_path, "trajectories"):
            row = t.to_dict()
            row["question_id"] = row["question_id"].replace("q", "c")
            row["trajectory_id"] = row["trajectory_id"].replace("q", "c")
            code_rows.append(row)
        code_path = tmp_path / "code_diverse.jsonl"
        with open(code_path, "w", encoding="utf-8") as fh:
            for row in code_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

        mix_config = dict(build_pipeline_fixture(tmp_path, out_name="mix_out"))
        mix_config["stages"] = ["mix"]
        mix_config["mix_sources"] = [
            {"path": str(diverse_path), "take": 4},
            {"path": str(code_path), "take": 4},
        ]
        mixed_result = run_pipeline(mix_config)
        assert mixed_result.exit_code == EXIT_OK
        manifest = mixed_result.manifests["mixed"]
        assert manifest.question_count == 8
        assert manifest.stage == "mixed"
        sources = manifest.config_snapshot["mix"]["sources"]
        assert [s["take"] for s in sources] == [4, 4]


class TestPartialRuns:
    """A run that starts after sample reads the output of the stage before
    its first stage, and only if that output is what its manifest says."""

    STAGE_FILES = {"compress": ("right_hard_questions.jsonl",
                                "right_hard_trajectories.jsonl", "compression_report.json",
                                "pass_rates.jsonl", "manifest_right_hard.json"),
                   "diversify": ("right_hard_diverse_trajectories.jsonl",
                                 "diversity_report.json",
                                 "manifest_right_hard_diverse.json")}

    @pytest.mark.parametrize("stage", ["compress", "diversify"])
    def test_stage_alone_rebuilds_the_full_run_output(self, tmp_path, stage):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        before = {name: (out / name).read_bytes() for name in self.STAGE_FILES[stage]}
        for name in before:
            (out / name).unlink()
        result = run_pipeline(dict(config, stages=[stage]))
        assert result.exit_code == EXIT_OK
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_diversify_alone_keeps_to_right_hard(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        result = run_pipeline(dict(config, stages=["diversify"]))
        assert result.exit_code == EXIT_OK
        hard = load_manifest(out / "manifest_right_hard.json")
        diverse = result.manifests["right_hard_diverse"]
        assert diverse.parent_manifest == hard.content_hash
        assert (diverse.question_count, diverse.trajectory_count) == (6, 12)
        hard_ids = {t.trajectory_id for t in
                    parse_corpus(out / "right_hard_trajectories.jsonl", "trajectories")}
        kept = parse_corpus(out / "right_hard_diverse_trajectories.jsonl", "trajectories")
        assert {t.trajectory_id for t in kept} <= hard_ids

    @pytest.mark.parametrize("stage,changed", [
        ("filter", "raw_trajectories.jsonl"),
        ("compress", "right_trajectories.jsonl"),
        ("diversify", "right_hard_trajectories.jsonl"),
        ("diversify", "right_hard_questions.jsonl"),
        ("stats", "right_hard_diverse_trajectories.jsonl"),
    ])
    def test_output_unlike_its_manifest_is_refused(self, tmp_path, stage, changed):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        lines = (out / changed).read_text(encoding="utf-8").splitlines(keepends=True)
        (out / changed).write_text("".join(lines[:-1]), encoding="utf-8")
        manifests = {p.name: p.read_bytes() for p in out.glob("manifest_*.json")}
        result = run_pipeline(dict(config, stages=list(dict.fromkeys([stage, "stats"]))))
        assert result.exit_code == EXIT_STAGE
        assert result.failed_stage == stage
        assert "manifest" in result.error
        assert {p.name: p.read_bytes() for p in out.glob("manifest_*.json")} == manifests

    def test_compress_first_refuses_edited_questions(self, tmp_path):
        # right's manifest hashes its trajectories only; the configured
        # questions are checked against raw's, which covers them too
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        questions = Path(config["questions"])
        lines = questions.read_text(encoding="utf-8").splitlines(keepends=True)
        questions.write_text("".join(lines[:-1]), encoding="utf-8")
        manifests = {p.name: p.read_bytes() for p in out.glob("manifest_*.json")}
        result = run_pipeline(dict(config, stages=["compress", "diversify"]))
        assert result.exit_code == EXIT_STAGE
        assert result.failed_stage == "compress"
        assert "manifest_raw.json" in result.error
        assert {p.name: p.read_bytes() for p in out.glob("manifest_*.json")} == manifests

    def test_missing_parent_manifest_is_refused(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        (out / "manifest_right.json").unlink()
        result = run_pipeline(dict(config, stages=["compress"]))
        assert result.exit_code == EXIT_STAGE
        assert result.failed_stage == "compress"


def _outputs(out_dir):
    """The files of out_dir outside logs/ and .cache/, relative to it."""
    return {str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
            if p.is_file() and p.relative_to(out_dir).parts[0] not in ("logs", ".cache")}


def _report(out_dir):
    return {name: (out_dir / name).read_bytes() for name in _outputs(out_dir)
            if name == "report.md" or name.startswith("tables")}


class TestStageTable:
    def test_rows_follow_the_config_and_manifest_orders(self):
        assert tuple(row.name for row in STAGE_TABLE) == STAGE_SEQUENCE
        assert tuple(row.manifest for row in STAGE_TABLE if row.manifest) == STAGES
        written = set()
        for row in STAGE_TABLE:
            assert row.parent is None or row.parent in written
            written.add(row.manifest)

    def test_a_six_stage_run_writes_exactly_the_table_outputs(self, tmp_path):
        # a new output file must be listed in the table, or a re-run that
        # replaces its stage would leave the old one behind
        config = build_pipeline_fixture(tmp_path)
        q = make_question(40)
        source = tmp_path / "other_domain.jsonl"
        write_corpus(source, [make_trajectory(q, j, well_formed_text(q, j)) for j in range(2)])
        logprobs, embeddings = tmp_path / "logprobs.jsonl", tmp_path / "embeddings.jsonl"
        write_corpus(logprobs, [LogprobRecord("q000:t-alpha:000", i, [("a", 0.6), ("b", 0.4)])
                                for i in range(3)])
        write_corpus(embeddings, [EmbeddingRecord(f"e{i}", phase, [float(i), float(len(phase))])
                                  for i in range(4) for phase in PHASES])
        result = run_pipeline(dict(config, stages=list(STAGE_SEQUENCE),
                                   mix_sources=[{"path": str(source), "take": 1}],
                                   logprobs=str(logprobs), embeddings=str(embeddings)))
        assert result.exit_code == EXIT_OK
        assert _outputs(result.out_dir) == {name for row in STAGE_TABLE for name in row.outputs}


class TestUsedOutDir:
    """A run in an out_dir that holds an earlier run's files builds what a
    run in a fresh out_dir would, or refuses with exit 3."""

    def test_a_run_removes_the_stages_it_makes_stale(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        edited = run_pipeline(dict(config, stages=["sample", "filter"], max_token_len=50))
        assert edited.exit_code == EXIT_OK
        manifests = [load_manifest(p) for p in out.glob("manifest_*.json")]
        by_hash = {m.content_hash: m for m in manifests}
        for manifest in manifests:
            lineage_chain(manifest, by_hash)
        assert sorted(m.stage for m in manifests) == ["raw", "right"]
        removed = [e["path"] for e in _read_events(out) if e["event"] == "removed"]
        assert "manifest_right_hard.json" in removed and "report.md" in removed
        result = run_pipeline(dict(config, stages=["diversify"]))
        assert result.exit_code == EXIT_STAGE
        assert result.failed_stage == "diversify"

    def test_stats_alone_reports_what_the_full_run_did(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        full = _report(out)
        assert "tables/lengths.csv" in full
        assert run_pipeline(dict(config, stages=["stats"])).exit_code == EXIT_OK
        assert _report(out) == full

    @pytest.mark.parametrize("first", ["sample", "filter", "compress", "diversify"])
    def test_an_edited_run_builds_the_fresh_tree(self, tmp_path, first):
        config = build_pipeline_fixture(tmp_path)
        before = list(STAGE_SEQUENCE[:STAGE_SEQUENCE.index(first)])
        for key, value in (("max_token_len", 50), ("pass_threshold", 0.25),
                           ("diverse_per_question", 1)):
            edited = dict(config, stages=[first, "stats"], **{key: value})
            used, fresh = tmp_path / f"used_{key}", tmp_path / f"fresh_{key}"
            assert run_pipeline(config, out_dir=used).exit_code == EXIT_OK
            if before:
                assert run_pipeline(dict(config, stages=before), out_dir=fresh).exit_code == EXIT_OK
            assert run_pipeline(edited, out_dir=used).exit_code == EXIT_OK
            assert run_pipeline(edited, out_dir=fresh).exit_code == EXIT_OK
            assert tree_hash(used) == tree_hash(fresh), key


def test_edited_fixtures_in_a_used_out_dir_build_the_fresh_tree(tmp_path):
    # answers cached, and pass rates checkpointed, under the old fixture
    # table must not be served once the table changes
    config = build_pipeline_fixture(tmp_path)
    used = run_pipeline(config).out_dir
    before = tree_hash(used)
    path = Path(config["client"]["fixtures"])
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[0]["responses"][0] = rows[0]["responses"][0].replace("expand", "factor")
    # question 6's student gets every run right, so it is no longer hard
    rows[13]["responses"] = [f"<think>student try {r}.</think>\\boxed{{45}}" for r in range(4)]
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
                    encoding="utf-8")
    assert run_pipeline(config).exit_code == EXIT_OK
    fresh = run_pipeline(config, out_dir=tmp_path / "fresh").out_dir
    assert tree_hash(used) == tree_hash(fresh) != before


def test_diversify_logs_its_pairs_and_band_passes(tmp_path):
    config = build_pipeline_fixture(tmp_path)
    counts = []
    for _ in range(2):
        out = run_pipeline(config).out_dir
        done = [e for e in _read_events(out)
                if e["stage"] == "diversify" and e["event"] == "stage_done"]
        counts.append((done[0]["pairs"], done[0]["band_passes"]))
    sizes: dict[str, int] = {}
    for t in parse_corpus(out / "right_hard_trajectories.jsonl", "trajectories"):
        sizes[t.question_id] = sizes.get(t.question_id, 0) + 1
    assert counts[0] == counts[1]
    assert counts[0][0] == sum(n * (n - 1) // 2 for n in sizes.values()) > 0
    assert counts[0][1] >= sum(1 for n in sizes.values() if n > 1)
    assert "engine" not in json.loads((out / "diversity_report.json").read_text())


def test_diversify_logs_its_band_bytes(tmp_path):
    config = build_pipeline_fixture(tmp_path)
    logged = []
    for _ in range(2):
        out = run_pipeline(config).out_dir
        done = [e for e in _read_events(out)
                if e["stage"] == "diversify" and e["event"] == "stage_done"]
        logged.append(done[0]["band_bytes"])
    assert logged[0] == logged[1] > 0
    assert "band_bytes" not in (out / "diversity_report.json").read_text(encoding="utf-8")


def test_diversify_logs_each_questions_distance_time(tmp_path):
    out = run_pipeline(build_pipeline_fixture(tmp_path)).out_dir
    done = [e for e in _read_events(out)
            if e["stage"] == "diversify" and e["event"] == "stage_done"]
    questions = {q.question_id for q in parse_corpus(out / "right_hard_questions.jsonl",
                                                     "questions")}
    times = done[0]["distance_ms"]
    assert set(times) == questions
    assert all(isinstance(ms, float) and ms >= 0 for ms in times.values())
    assert "distance_ms" not in (out / "diversity_report.json").read_text(encoding="utf-8")


def test_tree_hash_ignores_logs_and_cache(tmp_path):
    (tmp_path / "a.txt").write_text("same", encoding="utf-8")
    (tmp_path / "logs").mkdir()
    (tmp_path / "logs" / "events.jsonl").write_text("one", encoding="utf-8")
    h1 = tree_hash(tmp_path)
    (tmp_path / "logs" / "events.jsonl").write_text("two", encoding="utf-8")
    assert tree_hash(tmp_path) == h1
    (tmp_path / "a.txt").write_text("changed", encoding="utf-8")
    assert tree_hash(tmp_path) != h1


class TestJudgeAdjudication:
    def _code_config(self, tmp_path):
        import json as _json
        from ded.records import QuestionRecord
        questions = []
        fixture_rows = []
        for i in range(4):
            q = QuestionRecord(question_id=f"k{i:03d}", domain="code",
                               prompt=f"Write a function for task {i}.",
                               ground_truth="reference tests")
            questions.append(q)
            answer = f"def solve():\n    return {i}"
            fixture_rows.append({"kind": "sample", "teacher_id": "t-code",
                                 "prompt": q.prompt,
                                 "responses": [f"<think>plan {j} for task {i}"
                                               f"</think>{answer} # v{j}"
                                               for j in range(2)]})
            for j in range(2):
                status = "correct" if (i + j) % 2 == 0 else "incorrect"
                row = {"kind": "judge", "question": q.prompt,
                       "candidate_answer": f"{answer} # v{j}", "status": status}
                if i == 3 and j == 1:
                    row = {"kind": "judge", "question": q.prompt,
                           "candidate_answer": f"{answer} # v{j}",
                           "reply": "inconclusive rambling"}
                fixture_rows.append(row)
        qpath = tmp_path / "code_questions.jsonl"
        with open(qpath, "w", encoding="utf-8") as fh:
            for q in questions:
                fh.write(_json.dumps(q.to_dict(), sort_keys=True) + "\n")
        fx = tmp_path / "code_fixtures.jsonl"
        with open(fx, "w", encoding="utf-8") as fh:
            for row in fixture_rows:
                fh.write(_json.dumps(row, sort_keys=True) + "\n")
        return {
            "questions": str(qpath),
            "out_dir": str(tmp_path / "code_out"),
            "teacher_id": "t-code",
            "samples_per_question": 2,
            "stages": ["sample", "filter"],
            "seed": 1,
            "client": {"mode": "mock", "fixtures": str(fx)},
        }

    def test_judged_items_merge_into_kept_and_rejected(self, tmp_path):
        config = self._code_config(tmp_path)
        result = run_pipeline(config)
        assert result.exit_code == EXIT_OK
        out = result.out_dir
        kept = parse_corpus(out / "right_trajectories.jsonl", "trajectories")
        rejected = parse_corpus(out / "rejected_trajectories.jsonl", "trajectories")
        queued = parse_corpus(out / "needs_judge.jsonl", "trajectories")
        # 8 samples: (i+j) even would be judged correct, but the (3, 1) slot
        # is planted with an unparsable reply and must stay queued
        assert len(kept) == 3
        assert len(queued) == 1
        assert len(rejected) == 4
        assert queued[0].trajectory_id == "k003:t-code:001"
        assert all(t.verdict.checker == "judge" for t in kept)

    def test_client_error_keeps_item_queued(self, tmp_path):
        from ded.clients import FaultInjector, MockClient, RetryPolicy, TransportError
        from ded.pipeline import EventLog, _adjudicate
        from conftest import make_question, make_trajectory
        q = make_question(0, domain="code", gt="ref")
        t = make_trajectory(q, 0, "<think>plan</think>candidate code")
        faults = FaultInjector({"judge": [TransportError("down")] * 5})
        client = MockClient(faults=faults,
                            retry=RetryPolicy(budget=2, sleep=lambda _: None))
        log = EventLog(tmp_path / "logs" / "events.jsonl")
        kept, rejected, queued = _adjudicate([t], {q.question_id: q}, client, log)
        log.close()
        assert kept == [] and rejected == []
        assert queued == [t]


class TestClientFailureExitCode:
    def test_http_without_endpoint_is_client_failure(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DED_API_BASE", raising=False)
        monkeypatch.delenv("DED_API_KEY", raising=False)
        config = build_pipeline_fixture(tmp_path)
        config["client"] = {"mode": "http"}
        result = run_pipeline(config)
        assert result.exit_code == 4
        assert result.failed_stage == "sample"


_JUDGE_PROMPT = re.compile("^" + "".join(
    re.escape(part) if i % 2 == 0 else f"(?P<{part}>.*?)"
    for i, part in enumerate(re.split(r"\{(\w+)\}", JUDGE_RUBRICS["default"]))) + "$",
    re.DOTALL)


class MockTransport:
    """An in-process chat-completion endpoint for `HttpClient`: it answers
    each request as `MockClient` over the same fixtures would. Each rule
    takes the request's model and prompt: the first attempt of a request
    `throttle` picks gets HTTP 429, every attempt of one `refuse` picks gets
    HTTP 401, and `delay` gives the seconds before each reply. `peak` is the
    most attempts ever in progress at once."""

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
        self._seen = set()
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
            first = (model, prompt) not in self._seen
            self._seen.add((model, prompt))
        try:
            time.sleep(self.delay(model, prompt))
            if self.refuse(model, prompt):
                return 401, b"denied"
            if first and self.throttle(model, prompt):
                with self._lock:
                    self.throttled += 1
                return 429, b""
            texts = self._reply(model, prompt, payload)
            return 200, json.dumps(
                {"choices": [{"message": {"content": t}} for t in texts]}).encode()
        finally:
            with self._lock:
                self.active -= 1


def _task(prompt):
    return int(re.search(r"Task (\d+):", prompt).group(1))


def _mixed_fixture(tmp_path):
    """8 questions, the odd ones code, with 4 teacher samples and 4 student
    runs each. Code answers go to the judge in filter, and student answers
    that repeat a teacher's are judged again in compress."""
    questions, rows = [], []
    for i in range(8):
        code = i % 2 == 1
        gt = f"ok {i}" if code else str(7 * i + 3)
        q = QuestionRecord(question_id=f"m{i:03d}", domain="code" if code else "math",
                           prompt=f"Task {i}: produce the reference.", ground_truth=gt)
        questions.append(q)

        def answer(right, j):
            if code:
                return gt if right else f"no {i}.{j}"
            return f"\\boxed{{{gt if right else int(gt) + 1}}}"
        rows.append({"kind": "sample", "teacher_id": "t-mix", "prompt": q.prompt,
                     "responses": [f"<think>route {j} for task {i}</think>"
                                   f"{answer(j != i % 4, j)}" for j in range(4)]})
        rows.append({"kind": "sample", "teacher_id": "s-mix", "prompt": q.prompt,
                     "responses": [f"<think>try {r}</think>{answer(r < i % 5, r)}"
                                   for r in range(4)]})
    qpath = tmp_path / "mixed_questions.jsonl"
    qpath.write_text("".join(json.dumps(q.to_dict(), sort_keys=True) + "\n"
                             for q in questions), encoding="utf-8")
    fpath = tmp_path / "mixed_fixtures.jsonl"
    fpath.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                     encoding="utf-8")
    return {"questions": str(qpath), "out_dir": str(tmp_path / "out"),
            "teacher_id": "t-mix", "student_id": "s-mix", "samples_per_question": 4,
            "runs": 4, "diverse_per_question": 2, "seed": 3, "timestamp": EPOCH_ISO,
            "client": {"mode": "mock", "fixtures": str(fpath)}}


def _over_http(config, max_in_flight, out_dir):
    return dict(config, out_dir=str(out_dir),
                client={"mode": "http", "base_url": "http://model.test/v1",
                        "max_in_flight": max_in_flight})


def _done(out_dir):
    return next(e for e in _read_events(out_dir) if e["event"] == "done")


class TestQuestionChains:
    """Sample, filter and compress run as one chain of calls per question."""

    @pytest.fixture
    def transport(self, monkeypatch):
        def install(config, **rules):
            fake = MockTransport(MockClient(fixtures=config["client"]["fixtures"],
                                            seed=config["seed"]), **rules)
            monkeypatch.setattr(HttpClient, "_urllib_transport", fake)
            return fake
        return install

    def test_http_at_any_width_builds_the_mock_tree(self, tmp_path, transport):
        config = _mixed_fixture(tmp_path)
        mock = run_pipeline(config)
        assert mock.exit_code == EXIT_OK
        done = _done(mock.out_dir)
        want = (tree_hash(mock.out_dir), done["cache_hits"], done["cache_misses"])
        assert want[1] > 0
        for width in (1, 4):
            fake = transport(config, throttle=lambda model, prompt:
                             model == "t-mix" and _task(prompt) == 3)
            result = run_pipeline(_over_http(config, width, tmp_path / f"w{width}"))
            assert result.exit_code == EXIT_OK
            done = _done(result.out_dir)
            assert (tree_hash(result.out_dir), done["cache_hits"],
                    done["cache_misses"]) == want
            assert fake.throttled == 1
            assert fake.requests == want[2] + 1
            assert fake.peak == 1 if width == 1 else 1 < fake.peak <= width

    def test_stage_done_counts_its_own_calls(self, tmp_path):
        result = run_pipeline(_mixed_fixture(tmp_path))
        events = _read_events(result.out_dir)
        done = {e["stage"]: e for e in events if e["event"] == "stage_done"}
        # 8 teacher requests; 4 right and 4 wrong code answers to judge, the
        # right ones 3 times each; student answers repeat judged ones
        assert (done["sample"]["cache_hits"], done["sample"]["cache_misses"]) == (0, 8)
        assert (done["filter"]["cache_hits"], done["filter"]["cache_misses"]) == (8, 8)
        assert done["compress"]["cache_hits"] > 0
        total = _done(result.out_dir)
        for key in ("cache_hits", "cache_misses"):
            assert sum(done[s][key] for s in ("sample", "filter", "compress")) == total[key]
        assert all(e["duration_ms"] >= 0 for e in done.values())

    def test_judge_errors_are_logged_in_queue_order_at_any_width(self, tmp_path,
                                                                   transport):
        config = dict(_mixed_fixture(tmp_path), stages=["sample", "filter"])
        logged = {}
        for width in (1, 4):
            # every wrong code answer fails to be judged, fastest for the last tasks
            transport(config, refuse=lambda model, prompt: model == "judge" and
                      "Candidate answer:\nno " in prompt,
                      delay=lambda model, prompt: 0.03 - 0.003 * _task(prompt))
            result = run_pipeline(_over_http(config, width, tmp_path / f"w{width}"))
            assert result.exit_code == EXIT_OK
            logged[width] = [e["trajectory_id"] for e in _read_events(result.out_dir)
                             if e["event"] == "judge_error"]
            queued = parse_corpus(result.out_dir / "needs_judge.jsonl", "trajectories")
            assert logged[width] == [t.trajectory_id for t in queued]
        assert logged[1] == logged[4] == ["m001:t-mix:001", "m003:t-mix:003",
                                          "m005:t-mix:001", "m007:t-mix:003"]

    @pytest.mark.parametrize("width", [1, 4])
    def test_sample_client_error_writes_no_stage_files(self, tmp_path, transport, width):
        config = _mixed_fixture(tmp_path)
        transport(config, refuse=lambda model, prompt: model == "t-mix" and
                  _task(prompt) == 5)
        result = run_pipeline(_over_http(config, width, tmp_path / "http"))
        assert result.exit_code == EXIT_CLIENT
        assert result.failed_stage == "sample"
        assert result.manifests == {}
        assert sorted(p.name for p in result.out_dir.iterdir()) == [".cache", "logs"]
        events = [e["event"] for e in _read_events(result.out_dir)
                  if e["stage"] == "sample"]
        assert events == ["client_failed"]

    def test_a_run_that_fails_before_its_first_write_removes_nothing(self, tmp_path,
                                                                     transport):
        config = _mixed_fixture(tmp_path)
        used = run_pipeline(config).out_dir
        before = tree_hash(used)
        transport(config, refuse=lambda model, prompt: model == "t-mix" and
                  _task(prompt) == 5)
        result = run_pipeline(_over_http(config, 2, used))
        assert (result.exit_code, result.failed_stage) == (EXIT_CLIENT, "sample")
        assert tree_hash(used) == before
        assert not [e for e in _read_events(used) if e["event"] == "removed"]

    def test_compress_client_error_keeps_earlier_stages(self, tmp_path, transport):
        config = _mixed_fixture(tmp_path)
        full = run_pipeline(dict(config, stages=["sample", "filter"]))
        transport(config, refuse=lambda model, prompt: model == "s-mix" and
                  _task(prompt) == 6)
        result = run_pipeline(_over_http(config, 4, tmp_path / "http"))
        assert result.exit_code == EXIT_CLIENT
        assert result.failed_stage == "compress"
        assert set(result.manifests) == {"raw", "right"}
        for name in ("raw_trajectories.jsonl", "right_trajectories.jsonl",
                     "rejected_trajectories.jsonl", "needs_judge.jsonl",
                     "manifest_raw.json", "manifest_right.json"):
            assert (result.out_dir / name).read_bytes() == (full.out_dir / name).read_bytes()
        assert not (result.out_dir / "pass_rates.jsonl").exists()
        assert not (result.out_dir / "manifest_right_hard.json").exists()

    def test_answers_of_another_backend_are_not_reused(self, tmp_path, transport):
        config = _mixed_fixture(tmp_path)
        mock = run_pipeline(config)
        billed = _done(mock.out_dir)["cache_misses"]
        fake = transport(config)
        # same output directory, so the same .cache and rollout checkpoint
        result = run_pipeline(_over_http(config, 2, mock.out_dir))
        assert result.exit_code == EXIT_OK
        assert _done(result.out_dir)["cache_misses"] == fake.requests == billed
