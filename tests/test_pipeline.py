from __future__ import annotations

import json

from ded.pipeline import EXIT_OK, EXIT_STAGE, run_pipeline, tree_hash
from ded.records import load_manifest, parse_corpus

from conftest import build_pipeline_fixture


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

    def test_width_does_not_change_verdicts_or_error_order(self, tmp_path):
        from ded.clients import CachingClient, MockClient
        from ded.pipeline import EventLog, _adjudicate
        from conftest import ProbeClient, make_question, make_trajectory
        questions = [make_question(i, domain="code", gt="ok") for i in range(6)]
        queue = [make_trajectory(q, j, f"<think>try {j}</think>{answer}")
                 for i, q in enumerate(questions)
                 for j, answer in enumerate(["ok", "no", "ok", f"down {i}"])]

        def delay(request):
            # failures come back fastest for the last questions
            down = request.candidate_answer.startswith("down")
            return 0.05 - 0.008 * int(request.candidate_answer[5:]) if down else 0.01

        runs = {}
        for width in (1, 4):
            probe = ProbeClient(MockClient(), delay=delay,
                                fails=lambda r: r.candidate_answer.startswith("down"))
            client = CachingClient(probe, tmp_path / f"w{width}" / "cache")
            path = tmp_path / f"w{width}" / "events.jsonl"
            log = EventLog(path)
            buckets = _adjudicate(queue, {q.question_id: q for q in questions}, client, log,
                                  max_in_flight=width)
            log.close()
            errors = [json.loads(line)["trajectory_id"]
                      for line in path.read_text(encoding="utf-8").splitlines()]
            runs[width] = (buckets, errors, (client.hits, client.misses), probe.peak)
        kept, rejected, queued = runs[1][0]
        assert (len(kept), len(rejected), len(queued)) == (12, 6, 6)
        assert runs[4][:3] == runs[1][:3]
        assert runs[1][1] == [t.trajectory_id for t in queue[3::4]]
        assert runs[1][2] == (6, 12)
        assert runs[4][3] > 1


class TestClientFailureExitCode:
    def test_http_without_endpoint_is_client_failure(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DED_API_BASE", raising=False)
        monkeypatch.delenv("DED_API_KEY", raising=False)
        config = build_pipeline_fixture(tmp_path)
        config["client"] = {"mode": "http"}
        result = run_pipeline(config)
        assert result.exit_code == 4
        assert result.failed_stage == "sample"
