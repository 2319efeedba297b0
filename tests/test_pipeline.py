from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ded import pipeline
from ded.cli import main
from ded.clients import HttpClient, MockClient, RetryPolicy, SamplingRequest
from ded.config import STAGE_SEQUENCE, validate_config
from ded.filtering import extract_final_answer
from ded.pipeline import (EXIT_CLIENT, EXIT_OK, EXIT_STAGE, SNAPSHOT_KEYS, STAGE_TABLE,
                          manifest_snapshot, run_pipeline, tree_hash)
from ded.records import (EPOCH_ISO, STAGES, QuestionRecord, content_hash, load_manifest,
                         parse_corpus)

from conftest import (MALFORMED_REPLIES, MockTransport, build_pipeline_fixture, killed_run,
                      make_question, make_trajectory, mix_sources, read_events,
                      six_stage_config, src_env)


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
        done = [e for e in read_events(second.out_dir)
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

    def test_interrupted_compress_resumes_without_resampling(self, tmp_path, monkeypatch):
        config = build_pipeline_fixture(tmp_path)
        fresh = run_pipeline(config, out_dir=tmp_path / "fresh").out_dir

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        # every roll-out finishes, then compress dies before writing its files
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "select_hard", disk_full)
            interrupted = run_pipeline(config)
        assert (interrupted.exit_code, interrupted.failed_stage) == (EXIT_STAGE, "compress")
        second = run_pipeline(config)
        assert second.exit_code == EXIT_OK
        assert _done(second.out_dir)["cache_misses"] == 0
        assert _done(second.out_dir)["cache_hits"] == _done(fresh)["cache_misses"]
        assert tree_hash(second.out_dir) == tree_hash(fresh)

    def test_pass_rates_of_other_rollout_settings_are_not_reused(self, tmp_path):
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

    @pytest.mark.parametrize("fixtures,problem", [
        ('{"kind": "sample", "prompt": "p", "responses": []}\n', "line 1: sample row without"),
        (None, "No such file"),
    ])
    def test_bad_fixtures_file_is_a_logged_stage_failure(self, tmp_path, fixtures, problem):
        config = build_pipeline_fixture(tmp_path)
        path = tmp_path / "fixtures.jsonl"
        if fixtures is None:
            path.unlink()
        else:
            path.write_text(fixtures, encoding="utf-8")
        result = run_pipeline(config)
        assert result.exit_code == EXIT_STAGE and problem in result.error
        events = [(e["stage"], e["event"], e.get("exit_code"))
                  for e in read_events(result.out_dir)]
        assert events == [("sample", "stage_failed", None), ("pipeline", "done", EXIT_STAGE)]

    def test_structured_log_fields(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        result = run_pipeline(config)
        events = read_events(result.out_dir)
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

    @pytest.mark.parametrize("key,value,stages,refused_by", [
        ("teacher_id", "t-beta", ["compress", "diversify", "stats"], "manifest_raw.json"),
        ("samples_per_question", 4, ["compress", "diversify", "stats"], "manifest_raw.json"),
        ("max_token_len", 4096, ["compress", "diversify", "stats"], "manifest_right.json"),
        ("diverse_per_question", 1, ["stats"], "manifest_right_hard_diverse.json"),
    ])
    def test_input_built_under_other_settings_is_refused(self, tmp_path, key, value, stages,
                                                         refused_by):
        # the corpus it would read is what its manifest says, but was built
        # under another value of a key of the stage that wrote it
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        manifests = {p.name: p.read_bytes() for p in out.glob("manifest_*.json")}
        result = run_pipeline(dict(config, stages=stages, **{key: value}))
        assert result.exit_code == EXIT_STAGE
        assert result.failed_stage == stages[0]
        assert refused_by in result.error and key in result.error
        assert {p.name: p.read_bytes() for p in out.glob("manifest_*.json")} == manifests

    @pytest.mark.parametrize("stage,deleted", [
        ("compress", ("manifest_right.json",)),
        # raw lies two stages behind diversify's input, on the walk to it
        ("diversify", ("manifest_raw.json", "raw_trajectories.jsonl")),
    ])
    def test_missing_parent_manifest_is_refused(self, tmp_path, stage, deleted):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        for name in deleted:
            (out / name).unlink()
        built = tree_hash(out)
        result = run_pipeline(dict(config, stages=[stage]))
        assert (result.exit_code, result.failed_stage) == (EXIT_STAGE, stage)
        assert f"{deleted[0]} is missing from {out}" in result.error
        assert tree_hash(out) == built

    @pytest.mark.parametrize("stage,edited,fields,problem,rerun", [
        ("compress", "right", {"stage": "right_hard"}, "records stage 'right_hard'", "filter"),
        ("diversify", "right", {"stage": "raw"}, "records stage 'raw'", "filter"),
        ("diversify", "right_hard", {"parent_manifest": "0" * 64},
         f"records parent_manifest '{'0' * 64}', not '", "compress"),
        ("stats", "right", {"parent_manifest": None}, "records parent_manifest None, not '",
         "filter"),
        ("filter", "raw", {"parent_manifest": "0" * 64},
         f"records parent_manifest '{'0' * 64}', not None", "sample"),
    ], ids=["relabelled", "relabelled ancestor", "unlinked", "unlinked ancestor",
            "raw with a parent"])
    def test_a_broken_lineage_is_refused(self, tmp_path, stage, edited, fields, problem,
                                         rerun):
        # the walk from the manifest read back to raw's follows the table's
        # parents: each manifest on it must record its own stage and link to
        # its parent's content hash
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        path = out / f"manifest_{edited}.json"
        path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), **fields}),
                        encoding="utf-8")
        built = tree_hash(out)
        result = run_pipeline(dict(config, stages=list(dict.fromkeys([stage, "stats"]))))
        assert (result.exit_code, result.failed_stage) == (EXIT_STAGE, stage)
        assert (f"manifest_{edited}.json {problem}" in result.error
                and f"run {rerun} and the stages after it again" in result.error)
        assert tree_hash(out) == built

    def test_filter_first_refuses_a_trajectory_of_an_unconfigured_question(self, tmp_path):
        # raw's manifest is rehashed over the added line, so that only the
        # configured questions tell the orphan apart
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(dict(config, stages=["sample"])).out_dir
        orphan = make_trajectory(make_question(99), 0, "<think>s</think>\\boxed{298}",
                                 teacher_id=config["teacher_id"])
        with open(out / "raw_trajectories.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(orphan.to_dict(), sort_keys=True) + "\n")
        raw = json.loads((out / "manifest_raw.json").read_text(encoding="utf-8"))
        raw["content_hash"] = content_hash(
            parse_corpus(config["questions"], "questions")
            + parse_corpus(out / "raw_trajectories.jsonl", "trajectories"))
        (out / "manifest_raw.json").write_text(json.dumps(raw), encoding="utf-8")
        result = run_pipeline(dict(config, stages=["filter"]))
        assert (result.exit_code, result.failed_stage) == (EXIT_STAGE, "filter")
        assert "q099" in result.error

    def test_diversify_first_reads_a_right_hard_that_hashes_like_raw(self, tmp_path):
        # every trajectory of the questions without a planted defect passes
        # filter, and a student that always slips makes every question hard;
        # raw's trajectories are then swapped for the judged ones, so that
        # right_hard holds raw's records, which the walk by stage tells apart
        config = build_pipeline_fixture(tmp_path)
        questions = Path(config["questions"])
        lines = questions.read_text(encoding="utf-8").splitlines(keepends=True)
        questions.write_text("".join(lines[::4]), encoding="utf-8")
        fixtures = Path(config["client"]["fixtures"])
        rows = [json.loads(line) for line in fixtures.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            if row["teacher_id"] == config["student_id"]:
                row["responses"] = ["<think>student slips.</think>\\boxed{-1}"] * config["runs"]
        fixtures.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out = run_pipeline(config).out_dir
        shutil.copyfile(out / "right_trajectories.jsonl", out / "raw_trajectories.jsonl")
        raw, right, hard = (json.loads((out / f"manifest_{s}.json").read_text(encoding="utf-8"))
                            for s in ("raw", "right", "right_hard"))
        raw["content_hash"] = right["parent_manifest"] = content_hash(
            parse_corpus(questions, "questions")
            + parse_corpus(out / "raw_trajectories.jsonl", "trajectories"))
        assert raw["content_hash"] == hard["content_hash"]
        for stage, manifest in (("raw", raw), ("right", right)):
            (out / f"manifest_{stage}.json").write_text(json.dumps(manifest), encoding="utf-8")
        diverse = (out / "right_hard_diverse_trajectories.jsonl").read_bytes()
        result = run_pipeline(dict(config, stages=["diversify"]))
        assert result.exit_code == EXIT_OK, result.error
        assert (out / "right_hard_diverse_trajectories.jsonl").read_bytes() == diverse


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

    def test_manifests_record_every_stage_key(self):
        snapshot = manifest_snapshot(validate_config({}))
        assert {key for row in STAGE_TABLE for key in row.keys} == set(snapshot) - {"gate_order"}

    def test_a_six_stage_run_writes_exactly_the_table_outputs(self, tmp_path):
        # a new output file must be listed in the table, or a re-run that
        # replaces its stage would leave the old one behind
        result = run_pipeline(six_stage_config(tmp_path))
        assert result.exit_code == EXIT_OK
        assert _outputs(result.out_dir) == {name for row in STAGE_TABLE for name in row.outputs}


# `ded run` in an interpreter of its own, as the `ded` script runs it, after
# the statement in argv[2]; prints its exit code, whether numpy was loaded,
# the count of multiprocessing children alive, and whether any child
# process is left that was not waited for
_FRESH_RUN = """
import json, multiprocessing, os, sys
from ded import cli, pipeline
exec(sys.argv[2])
try:
    code = cli.main(["run", "--config", sys.argv[1]])
except KeyboardInterrupt:
    code = "interrupted"
try:
    os.waitpid(-1, os.WNOHANG)
    unjoined = True
except ChildProcessError:
    unjoined = False
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "children": len(multiprocessing.active_children()), "unjoined": unjoined}))
"""
_CLEAN = {"numpy": False, "children": 0, "unjoined": False}


def _fresh_run(tmp_path: Path, config: dict, before: str = "") -> tuple[dict, str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(path), before], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


class TestProcessLayout:
    """`ded run` imports numpy only in the helper process that runs diversify
    and stats, and leaves no process behind."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_of_its_own_builds_the_tree_without_numpy(self, tmp_path, workers):
        config = dict(six_stage_config(tmp_path), workers=workers)
        fresh, err = _fresh_run(tmp_path, dict(config, out_dir=str(tmp_path / "fresh")))
        assert fresh == {"code": EXIT_OK, **_CLEAN}, err
        here = run_pipeline(config, out_dir=tmp_path / "here")
        assert here.exit_code == EXIT_OK
        assert tree_hash(tmp_path / "fresh") == tree_hash(here.out_dir)

    def test_a_caller_that_holds_numpy_runs_diversify_and_stats_itself(self, tmp_path,
                                                                        monkeypatch):
        import numpy  # noqa: F401 - the caller holds numpy
        monkeypatch.setattr(pipeline, "_Helper", None)  # forking a helper would fail
        assert run_pipeline(six_stage_config(tmp_path)).exit_code == EXIT_OK

    def test_a_caller_with_other_threads_runs_diversify_and_stats_itself(self, tmp_path):
        config = six_stage_config(tmp_path)
        fresh, err = _fresh_run(tmp_path, config, "import threading; threading.Thread("
                                "target=threading.Event().wait, daemon=True).start()")
        assert fresh == {"code": EXIT_OK, **_CLEAN, "numpy": True}, err

    def test_importing_the_cli_leaves_numpy_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", "import sys, ded.cli; "
                              "print('numpy' in sys.modules)"],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_a_bad_logprobs_line_fails_stats_naming_file_and_line(self, tmp_path):
        config = six_stage_config(tmp_path)
        with open(config["logprobs"], "a", encoding="utf-8") as fh:
            fh.write("{oops\n")
        fresh, err = _fresh_run(tmp_path, config)
        assert fresh == {"code": EXIT_STAGE, **_CLEAN}, err
        assert f"failed at stage stats: {config['logprobs']} line 4: invalid JSON" in err
        assert (Path(config["out_dir"]) / "manifest_right_hard_diverse.json").exists()

    def test_a_helper_that_dies_fails_its_stage(self, tmp_path):
        config = six_stage_config(tmp_path)
        # a function of __main__, so that it is sent to the helper by name
        fresh, err = _fresh_run(tmp_path, config, "def die(*args, **kwargs):\n    os._exit(9)\n"
                                "pipeline.diversify_corpus = die")
        assert fresh == {"code": EXIT_STAGE, **_CLEAN}, err
        assert "failed at stage diversify: the helper process" in err
        failed = [e for e in read_events(Path(config["out_dir"]))
                  if e["event"] == "stage_failed"]
        assert [e["stage"] for e in failed] == ["diversify"]

    @pytest.mark.parametrize("before,code", [
        ('os.environ.pop("DED_API_BASE", None)', EXIT_CLIENT),
        ("def interrupt(*args, **kwargs):\n    raise KeyboardInterrupt\n"
         "pipeline.compose_mix = interrupt", "interrupted"),
    ], ids=["client failure", "interrupt"])
    def test_a_run_that_ends_early_joins_the_helper(self, tmp_path, before, code):
        config = six_stage_config(tmp_path)
        if code == EXIT_CLIENT:
            config["client"] = {"mode": "http"}
        fresh, err = _fresh_run(tmp_path, config, before)
        assert fresh == {"code": code, **_CLEAN}, err


class TestUsedOutDir:
    """A run in an out_dir that holds an earlier run's files builds what a
    run in a fresh out_dir would, or refuses with exit 3."""

    def test_a_run_removes_the_stages_it_makes_stale(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        edited = run_pipeline(dict(config, stages=["sample", "filter"], max_token_len=50))
        assert edited.exit_code == EXIT_OK
        manifests = {m.stage: m for m in map(load_manifest, out.glob("manifest_*.json"))}
        assert sorted(manifests) == ["raw", "right"]
        assert manifests["raw"].parent_manifest is None
        assert manifests["right"].parent_manifest == manifests["raw"].content_hash
        removed = [e["path"] for e in read_events(out) if e["event"] == "removed"]
        assert "manifest_right_hard.json" in removed and "report.md" in removed
        result = run_pipeline(dict(config, stages=["diversify"]))
        assert result.exit_code == EXIT_STAGE
        assert result.failed_stage == "diversify"

    def test_a_full_run_replaces_a_relabelled_manifest(self, tmp_path):
        # the stage check is made on the read path only, so a run that reads
        # nothing back rebuilds a tree whose manifests say the wrong stage
        config = six_stage_config(tmp_path)
        out = run_pipeline(config).out_dir
        fresh = tree_hash(out)
        path = out / "manifest_right.json"
        path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")),
                                    "stage": "right_hard"}), encoding="utf-8")
        assert run_pipeline(config).exit_code == EXIT_OK
        assert tree_hash(out) == fresh

    def test_stats_alone_reports_what_the_full_run_did(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        out = run_pipeline(config).out_dir
        full = _report(out)
        assert "tables/lengths.csv" in full
        assert run_pipeline(dict(config, stages=["stats"])).exit_code == EXIT_OK
        assert _report(out) == full

    @pytest.mark.parametrize("first", STAGE_SEQUENCE)
    def test_an_edited_run_builds_the_fresh_tree(self, tmp_path, full_run, first):
        # a run that reads a corpus built under another value of a key of the
        # stage that wrote it, or of an earlier one, refuses and writes nothing;
        # any other edited run builds in a used out_dir what it builds in a fresh one
        config, full = full_run
        before = list(STAGE_SEQUENCE[:STAGE_SEQUENCE.index(first)])
        read_keys = {key for row in STAGE_TABLE if row.name in before for key in row.keys}
        prefix = tmp_path / "prefix"
        if before:
            assert run_pipeline(dict(config, stages=before), out_dir=prefix).exit_code == EXIT_OK
        for key, value in _EDITS.items():
            edited = dict(config, stages=sorted({first, "stats"}, key=STAGE_SEQUENCE.index),
                          **{key: value})
            used, fresh = tmp_path / f"used_{key}", tmp_path / f"fresh_{key}"
            shutil.copytree(full, used)
            if before:
                shutil.copytree(prefix, fresh)
            built = tree_hash(used)
            code = run_pipeline(edited, out_dir=used).exit_code
            assert code == run_pipeline(edited, out_dir=fresh).exit_code, key
            if key in read_keys or _FAILS_AT.get(key) in edited["stages"]:
                assert code == EXIT_STAGE and tree_hash(used) == built, key
            else:
                assert code == EXIT_OK, key
                assert tree_hash(used) == tree_hash(fresh), key

    def test_every_snapshot_key_is_edited(self):
        assert sorted(_EDITS) == sorted(SNAPSHOT_KEYS)


def test_a_run_killed_inside_a_write_is_repaired_by_the_next(tmp_path, monkeypatch):
    # one kill inside the first write of each stage's files; the re-run of
    # the same config in the same out_dir builds the fresh tree
    monkeypatch.delenv("DED_CACHE_DIR", raising=False)
    config = six_stage_config(tmp_path)
    fresh = tmp_path / "fresh"
    proc, writes = killed_run(config, fresh, 0)
    assert proc.returncode == EXIT_OK, proc.stderr
    kills = {row.name: 1 + next(k for k, name in enumerate(writes) if name in row.outputs)
             for row in STAGE_TABLE}
    assert writes[kills["stats"] - 1].startswith("tables/")
    for stage, k in kills.items():
        out = tmp_path / f"kill_{stage}"
        proc = killed_run(config, out, k)[0]
        assert proc.returncode == 9, proc.stderr
        assert list(out.rglob(writes[k - 1] + ".*.tmp")), stage
        assert run_pipeline(config, out_dir=out).exit_code == EXIT_OK, stage
        assert tree_hash(out) == tree_hash(fresh), stage
        assert [p for p in out.rglob("*.tmp") if ".cache" not in p.relative_to(out).parts] == []


# `ded run` of the config file argv[2] in an interpreter of its own, which
# leaves numpy to the helper process: `replacing` is patched before the
# helper forks, and the helper's diagnostics binds the patch when it
# imports it. The write of argv[1], relative to out_dir, dies with exit code
# 9 after a partial write.
_KILL_IN_HELPER = """
import contextlib, os, sys
from pathlib import Path
from ded import records
real = records.replacing

@contextlib.contextmanager
def replacing(path):
    with real(path) as fh:
        if Path(path).as_posix().endswith("/" + sys.argv[1]):
            fh.write("partial")
            fh.flush()
            os._exit(9)
        yield fh

records.replacing = replacing
from ded import cli
sys.exit(cli.main(["run", "--config", sys.argv[2]]))
"""


@pytest.mark.parametrize("target", ["report.md", "tables/stage_ledger.csv",
                                    "tables/pca_shift.csv"])
def test_a_helper_killed_inside_a_write_is_repaired_by_the_next(tmp_path, monkeypatch,
                                                                target):
    monkeypatch.delenv("DED_CACHE_DIR", raising=False)
    config = six_stage_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _KILL_IN_HELPER, target, str(path)],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_STAGE, proc.stderr
    assert "the helper process of diversify and stats died" in proc.stderr
    out = Path(config["out_dir"])
    assert list(out.rglob(target + ".*.tmp"))
    assert run_pipeline(config).exit_code == EXIT_OK
    fresh = run_pipeline(config, out_dir=tmp_path / "fresh").out_dir
    assert tree_hash(out) == tree_hash(fresh)
    assert [p for p in out.rglob("*.tmp") if ".cache" not in p.relative_to(out).parts] == []


# One other value for each key a stage's corpus depends on. timestamp and
# mix_sources are left out: created_at is provenance, and mix's files are
# kept across runs.
_EDITS = {"teacher_id": "t-beta", "samples_per_question": 4, "temperature": 0.3, "seed": 8,
          "max_token_len": 50, "require_single_think_pair": False,
          "token_estimator": "precomputed_only", "tokenizer": "tok-b", "student_id": "s-other",
          "runs": 2, "pass_threshold": 0.25, "diverse_per_question": 1, "unit": "token",
          "cap_ratio": 0.3}
# The stage an edit fails wherever it runs: the fixture's sampled trajectories
# carry no token_len, so filter refuses them under precomputed_only.
_FAILS_AT = {"token_estimator": "filter"}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The pipeline fixture's config and the out_dir of a full run of it."""
    root = tmp_path_factory.mktemp("full_run")
    config = dict(build_pipeline_fixture(root), mix_sources=mix_sources(root))
    assert run_pipeline(config).exit_code == EXIT_OK
    return config, Path(config["out_dir"])


def test_edited_fixtures_in_a_used_out_dir_build_the_fresh_tree(tmp_path):
    # answers cached under the old fixture table must not be served once
    # the table changes
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


def test_an_edited_question_in_a_used_out_dir_gets_a_fresh_pass_rate(tmp_path):
    # a pass rate stored under a question id must not outlive the prompt and
    # ground truth it was measured on
    config = build_pipeline_fixture(tmp_path)
    used = run_pipeline(config).out_dir
    before = _pass_rates(used)["q000"]
    # no fixture answers the new prompt: the teacher's first synthesized
    # answer becomes the ground truth, so q000 still reaches compress
    prompt = "Problem q000, edited: evaluate the expression."
    first = MockClient(seed=config["seed"]).sample_trajectories(SamplingRequest(
        prompt=prompt, teacher_id=config["teacher_id"], samples=1, seed=config["seed"]))[0]
    path = Path(config["questions"])
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[0].update(prompt=prompt, ground_truth=extract_final_answer(first))
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
                    encoding="utf-8")
    assert run_pipeline(config).exit_code == EXIT_OK
    fresh = run_pipeline(config, out_dir=tmp_path / "fresh").out_dir
    assert _pass_rates(used)["q000"] == _pass_rates(fresh)["q000"] != before
    assert tree_hash(used) == tree_hash(fresh)


def _pass_rates(out_dir):
    lines = (out_dir / "pass_rates.jsonl").read_text(encoding="utf-8").splitlines()
    return {row["question_id"]: row for row in map(json.loads, lines)}


def test_a_question_with_no_kept_sample_gets_no_roll_out(tmp_path):
    # every teacher sample of q007, a question its student finds hard,
    # answers wrong, so filter keeps none of them
    config = build_pipeline_fixture(tmp_path)
    fixtures = Path(config["client"]["fixtures"])
    rows = [json.loads(line) for line in fixtures.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if row["teacher_id"] == config["teacher_id"] and row["prompt"].startswith("Problem q007:"):
            row["responses"] = ["<think>slips.</think>\\boxed{-1}"] * len(row["responses"])
    fixtures.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    result = run_pipeline(config)
    assert result.exit_code == EXIT_OK
    out = result.out_dir
    rates = _pass_rates(out)
    assert len(rates) == 11 and "q007" not in rates
    # one batched student request per question rolled out, and no judge call
    done = {e["stage"]: e for e in read_events(out) if e["event"] == "stage_done"}
    assert done["compress"]["cache_misses"] == 11
    hard = parse_corpus(out / "right_hard_questions.jsonl", "questions")
    assert hard and "q007" not in {q.question_id for q in hard}


def test_diversify_logs_its_pairs_and_band_passes(tmp_path):
    for workers in (1, 2):
        config = dict(build_pipeline_fixture(tmp_path, f"out{workers}"), workers=workers)
        counts = []
        for _ in range(2):
            out = run_pipeline(config).out_dir
            done = [e for e in read_events(out)
                    if e["stage"] == "diversify" and e["event"] == "stage_done"]
            counts.append((done[0]["pairs"], done[0]["band_passes"]))
        sizes: dict[str, int] = {}
        for t in parse_corpus(out / "right_hard_trajectories.jsonl", "trajectories"):
            sizes[t.question_id] = sizes.get(t.question_id, 0) + 1
        assert counts[0] == counts[1]
        assert counts[0][0] == sum(n * (n - 1) // 2 for n in sizes.values()) > 0
        # at least one pass per pack; a question with pairs goes to each pack
        # before any pack takes a second
        assert counts[0][1] >= min(workers, sum(1 for n in sizes.values() if n > 1))
        assert "engine" not in json.loads((out / "diversity_report.json").read_text())


def test_diversify_logs_its_band_bytes(tmp_path):
    config = build_pipeline_fixture(tmp_path)
    logged = []
    for _ in range(2):
        out = run_pipeline(config).out_dir
        done = [e for e in read_events(out)
                if e["stage"] == "diversify" and e["event"] == "stage_done"]
        logged.append(done[0]["band_bytes"])
    assert logged[0] == logged[1] > 0
    assert "band_bytes" not in (out / "diversity_report.json").read_text(encoding="utf-8")


def test_diversify_logs_each_questions_distance_time(tmp_path):
    out = run_pipeline(build_pipeline_fixture(tmp_path)).out_dir
    done = [e for e in read_events(out)
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
        from ded.pipeline import _adjudicate
        q = make_question(0, domain="code", gt="ref")
        t = make_trajectory(q, 0, "<think>plan</think>candidate code")
        client = HttpClient(base_url="http://model.test/v1",
                            retry=RetryPolicy(budget=2, sleep=lambda _: None),
                            transport=MockTransport(MockClient(), throttle=lambda m, p: 5))
        kept, rejected, queued, errors = _adjudicate([t], q, client)
        assert kept == [] and rejected == []
        assert queued == [t]
        assert [(e["question_id"], e["trajectory_id"]) for e in errors] == [
            (q.question_id, t.trajectory_id)]
        assert "HTTP 429" in errors[0]["error"]


class TestClientFailureExitCode:
    def test_http_without_endpoint_is_client_failure(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DED_API_BASE", raising=False)
        monkeypatch.delenv("DED_API_KEY", raising=False)
        config = build_pipeline_fixture(tmp_path)
        config["client"] = {"mode": "http"}
        result = run_pipeline(config)
        assert result.exit_code == 4
        assert result.failed_stage == "sample"

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES)
    def test_a_malformed_reply_is_a_client_failure(self, tmp_path, loopback, reply):
        server = loopback(MALFORMED_REPLIES[reply])
        config = dict(build_pipeline_fixture(tmp_path), stages=["sample"],
                      client={"mode": "http", "base_url": server.base_url, "retry_budget": 1})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_CLIENT
        failed = [e for e in read_events(tmp_path / "out") if e["event"] == "client_failed"]
        assert [e["stage"] for e in failed] == ["sample"]
        assert server.requests > 0


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
    return next(e for e in read_events(out_dir) if e["event"] == "done")


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
        events = read_events(result.out_dir)
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

    def test_done_counts_the_backends_requests_and_retries(self, tmp_path, transport):
        config = six_stage_config(tmp_path)
        mock = _done(run_pipeline(config).out_dir)
        assert mock["cache_misses"] > 0
        assert (mock["requests"], mock["retries"]) == (mock["cache_misses"], 0)
        # over http, the first attempt of one teacher request gets HTTP 429
        fake = transport(config, throttle=lambda model, prompt: model == "t-alpha" and
                         prompt.startswith("Problem q003:"))
        http = _done(run_pipeline(_over_http(config, 2, tmp_path / "http")).out_dir)
        assert (http["exit_code"], fake.throttled) == (EXIT_OK, 1)
        assert (http["requests"], http["retries"]) == (http["cache_misses"] + 1, 1)

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
            logged[width] = [e["trajectory_id"] for e in read_events(result.out_dir)
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
        events = [e["event"] for e in read_events(result.out_dir)
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
        assert not [e for e in read_events(used) if e["event"] == "removed"]

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
        # same output directory, so the same .cache
        result = run_pipeline(_over_http(config, 2, mock.out_dir))
        assert result.exit_code == EXIT_OK
        assert _done(result.out_dir)["cache_misses"] == fake.requests == billed
