from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ded.cli import main
from ded.clients import MockClient
from ded.pipeline import tree_hash
from ded.records import load_manifest, parse_corpus

from conftest import (build_pipeline_fixture, make_gate_fixture, make_question,
                      make_trajectory, read_events, six_stage_config, well_formed_text)


def _write_corpus_files(tmp_path):
    from ded.records import write_corpus
    questions, trajectories = make_gate_fixture()
    qpath = tmp_path / "questions.jsonl"
    tpath = tmp_path / "trajectories.jsonl"
    write_corpus(qpath, questions)
    write_corpus(tpath, trajectories)
    return qpath, tpath


def _config_file(tmp_path, **overrides) -> Path:
    """`build_pipeline_fixture`'s config with overrides, written to a file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**build_pipeline_fixture(tmp_path), **overrides}),
                    encoding="utf-8")
    return path


class TestIngestCommand:
    def test_ingest_writes_manifest(self, tmp_path, capsys):
        qpath, _ = _write_corpus_files(tmp_path)
        manifest_path = tmp_path / "raw.json"
        code = main(["ingest", "--in", str(qpath), "--kind", "questions",
                     "--manifest-out", str(manifest_path)])
        assert code == 0
        data = json.loads(manifest_path.read_text())
        assert data["stage"] == "raw"
        assert data["question_count"] == 20


_BAD_FIXTURE = '{"kind": "sample", "prompt": "p", "responses": ["r"]}\n'


class TestBadFixtures:
    def test_sample_exits_3_naming_the_row(self, tmp_path, capsys):
        config = _config_file(tmp_path)
        fx = tmp_path / "fixtures.jsonl"
        fx.write_text(_BAD_FIXTURE, encoding="utf-8")
        assert main(["sample", "--config", str(config)]) == 3
        assert f"{fx} line 1: sample row without field 'teacher_id'" in capsys.readouterr().err

    def test_run_exits_3_and_logs_the_failure(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        Path(config["client"]["fixtures"]).write_text(_BAD_FIXTURE, encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 3
        assert "sample row without field 'teacher_id'" in capsys.readouterr().err
        events = read_events(Path(config["out_dir"]))
        assert [e["event"] for e in events] == ["stage_failed", "done"]


def _stage_done(out):
    """Each `stage_done` event of the last run in out, by stage, without its timing."""
    return {e["stage"]: {k: v for k, v in e.items()
                         if k not in ("ts", "run", "stage", "event", "duration_ms",
                                      "distance_ms")}
            for e in read_events(out) if e["event"] == "stage_done"}


_STAGE_MANIFESTS = {"sample": "raw", "filter": "right", "compress": "right_hard",
                    "diversify": "right_hard_diverse"}
# each stage command, and the stage it runs
_STAGE_COMMANDS = {**{stage: stage for stage in _STAGE_MANIFESTS}, "mix": "mix",
                   "report": "stats"}


class TestStageCommands:
    """`ded <stage> --config C` is `ded run` with `stages: [<stage>]`."""

    def test_four_stage_commands_build_the_tree_of_one_run(self, tmp_path):
        config = _config_file(tmp_path, stages=list(_STAGE_MANIFESTS))
        out = tmp_path / "stepwise"
        done = {}
        for stage, manifest in _STAGE_MANIFESTS.items():
            assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 0
            assert (out / f"manifest_{manifest}.json").exists()
            (fields,) = _stage_done(out).values()
            done[stage] = fields
        assert done == {
            "sample": {"trajectories": 96, "cache_hits": 0, "cache_misses": 12},
            "filter": {"kept": 87, "rejected": 9, "needs_judge": 0,
                       "cache_hits": 0, "cache_misses": 0},
            "compress": {"retained": 6, "cache_hits": 0, "cache_misses": 12},
            "diversify": {**done["diversify"], "selected": 12},
        }
        assert len(parse_corpus(out / "rejected_trajectories.jsonl", "trajectories")) == 9
        rates = [json.loads(line) for line in (out / "pass_rates.jsonl").read_text().splitlines()]
        assert [r["successes"] for r in rates] == [3] * 6 + [0, 1, 2] * 2
        report = json.loads((out / "diversity_report.json").read_text())
        assert report["p"] == 2 and len(report["per_question"]) == 6

        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(config), "--out-dir", str(fresh)]) == 0
        assert set(_stage_done(fresh)) == set(_STAGE_MANIFESTS)
        assert tree_hash(out) == tree_hash(fresh)

    def test_six_stage_commands_build_the_tree_of_one_run(self, tmp_path):
        config = tmp_path / "six.json"
        config.write_text(json.dumps(six_stage_config(tmp_path)), encoding="utf-8")
        out = tmp_path / "stepwise"
        for command in _STAGE_COMMANDS:
            assert main([command, "--config", str(config), "--out-dir", str(out)]) == 0
        # the log keeps every command's events, each under a run id of its own
        lines = (out / "logs" / "events.jsonl").read_text(encoding="utf-8").splitlines()
        done = [(e["run"], e["stage"]) for e in map(json.loads, lines)
                if e["event"] == "stage_done"]
        assert [stage for _, stage in done] == list(_STAGE_COMMANDS.values())
        assert len({run for run, _ in done}) == len(_STAGE_COMMANDS)

        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(config), "--out-dir", str(fresh)]) == 0
        assert [e["stage"] for e in read_events(fresh)
                if e["event"] == "stage_done"] == list(_STAGE_COMMANDS.values())
        assert tree_hash(out) == tree_hash(fresh)

    def test_a_bad_input_line_exits_3_naming_file_and_line(self, tmp_path, capsys):
        config = _config_file(tmp_path)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(config), "--out-dir", str(out)]) == 0
        raw = out / "raw_trajectories.jsonl"
        raw.write_text(raw.read_text(encoding="utf-8") + "{\n", encoding="utf-8")
        assert main(["filter", "--config", str(config), "--out-dir", str(out)]) == 3
        assert f"{raw} line 97: " in capsys.readouterr().err
        assert not (out / "manifest_right.json").exists()

    @pytest.mark.parametrize("stage,missing", [("filter", "manifest_raw.json"),
                                               ("compress", "manifest_raw.json"),
                                               ("diversify", "manifest_right_hard.json")])
    def test_a_stage_alone_in_an_empty_out_dir_names_the_missing_manifest(
            self, tmp_path, capsys, stage, missing):
        out = tmp_path / "out"
        assert main([stage, "--config", str(_config_file(tmp_path)), "--out-dir", str(out)]) == 3
        assert (f"{missing} is missing from {out}; run the stages before {stage} again"
                in capsys.readouterr().err)
        assert [p for p in out.rglob("*")
                if not {"logs", ".cache"} & set(p.relative_to(out).parts)] == []

    def test_a_missing_parent_corpus_is_named(self, tmp_path, capsys):
        config = _config_file(tmp_path)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(config), "--out-dir", str(out)]) == 0
        (out / "raw_trajectories.jsonl").unlink()
        assert main(["filter", "--config", str(config), "--out-dir", str(out)]) == 3
        assert ("raw_trajectories.jsonl is missing from" in capsys.readouterr().err)

    def test_stage_commands_take_only_config_and_out_dir(self):
        from ded.cli import _build_parser
        (commands,) = [a.choices for a in _build_parser()._actions if a.choices]
        for command in _STAGE_COMMANDS:
            assert ({o for a in commands[command]._actions for o in a.option_strings}
                    == {"-h", "--help", "--config", "--out-dir"})


class TestStageCommandCache:
    """Stage commands build their client as `ded run` does, so a repeated
    call is answered from the request cache."""

    def test_sample_caches_in_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DED_CACHE_DIR", raising=False)
        out = tmp_path / "out"
        args = ["sample", "--config", str(_config_file(tmp_path)), "--out-dir", str(out)]
        assert main(args) == 0
        assert len(list((out / ".cache").glob("*.json"))) == 12  # one per question
        first = (out / "raw_trajectories.jsonl").read_bytes()
        monkeypatch.setattr(MockClient, "sample_trajectories",
                            lambda self, request: pytest.fail("sampled again"))
        assert main(args) == 0
        assert (out / "raw_trajectories.jsonl").read_bytes() == first

    def test_compress_caches_under_ded_cache_dir(self, tmp_path, monkeypatch):
        cache = tmp_path / "shared_cache"
        monkeypatch.setenv("DED_CACHE_DIR", str(cache))
        config = _config_file(tmp_path)
        out = tmp_path / "out"
        for stage in ("sample", "filter"):
            assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 0
        args = ["compress", "--config", str(config), "--out-dir", str(out)]
        assert main(args) == 0
        assert len(list(cache.glob("*.json"))) == 24  # 12 samples, then 12 roll-outs
        assert not (out / ".cache").exists()
        # a repeated or resumed compress is answered from the cache
        first = (out / "right_hard_questions.jsonl").read_bytes()
        monkeypatch.setattr(MockClient, "sample_trajectories",
                            lambda self, request: pytest.fail("rolled out again"))
        assert main(args) == 0
        assert (out / "right_hard_questions.jsonl").read_bytes() == first


def _sampled(tmp_path, samples: int) -> Path:
    """The trajectories `ded sample` writes with `samples` per question."""
    assert main(["sample", "--config", str(_config_file(tmp_path,
                                                        samples_per_question=samples))]) == 0
    return tmp_path / "out" / "raw_trajectories.jsonl"


class TestMixCommand:
    """`ded mix --config C` is `ded run` with `stages: [mix]`."""

    def _mix(self, tmp_path, sources: list[tuple[Path, int]]) -> int:
        config = _config_file(tmp_path, seed=5, mix_sources=[
            {"path": str(path), "take": take} for path, take in sources])
        return main(["mix", "--config", str(config)])

    def test_mix_sources(self, tmp_path):
        a = _sampled(tmp_path, 2)
        rows = [json.loads(l) for l in a.read_text().splitlines()]
        for row in rows:
            row["question_id"] = row["question_id"].replace("q", "z")
            row["trajectory_id"] = row["trajectory_id"].replace("q", "z")
        b = tmp_path / "b.jsonl"
        b.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        assert self._mix(tmp_path, [(a, 3), (b, 3)]) == 0
        out = tmp_path / "out"
        mixed = parse_corpus(out / "mixed_trajectories.jsonl", "trajectories")
        assert len({t.question_id for t in mixed}) == 6
        snapshot = load_manifest(out / "manifest_mixed.json").config_snapshot
        assert snapshot["seed"] == snapshot["mix"]["seed"] == 5
        assert snapshot["teacher_id"] == "t-alpha"

    def test_take_of_zero_is_refused(self, tmp_path, capsys):
        a = _sampled(tmp_path, 1)
        assert self._mix(tmp_path, [(a, 0)]) == 2
        assert "mix_sources: item 0: take: must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mixed_trajectories.jsonl").exists()

    @pytest.mark.parametrize("item,problem", [
        ({"path": 3, "take": 1}, "item 0: path: expected string, got int"),
        ({"path": "a.jsonl", "take": True}, "item 0: take: expected integer, got boolean"),
        ({"path": "a.jsonl", "take": 1, "tkae": 5}, "item 0: unknown key 'tkae'"),
    ], ids=["path a number", "take a boolean", "a misspelt key"])
    def test_a_mistyped_item_exits_2_and_writes_nothing(self, tmp_path, capsys, item, problem):
        # a path of 3 would be opened as the run's file descriptor 3
        config = tmp_path / "six.json"
        config.write_text(json.dumps(dict(six_stage_config(tmp_path), mix_sources=[item])),
                          encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert f"mix_sources: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mix_without_mix_sources_exits_2_and_removes_nothing(self, tmp_path, capsys):
        six = tmp_path / "six.json"
        six.write_text(json.dumps(six_stage_config(tmp_path)), encoding="utf-8")
        assert main(["run", "--config", str(six)]) == 0
        out = tmp_path / "out"
        built = tree_hash(out)
        capsys.readouterr()
        assert main(["mix", "--config", str(_config_file(tmp_path))]) == 2
        assert ("stages: mix needs mix_sources, a list of {path, take}"
                in capsys.readouterr().err)
        assert tree_hash(out) == built

    @pytest.mark.parametrize("takes,problem", [
        ((13,), "source 0: take 13 > 12 available questions"),
        ((1, 1), "across sources 0 and 1"),
    ])
    def test_a_take_above_the_questions_or_a_repeated_id_exits_3(self, tmp_path, capsys,
                                                                 takes, problem):
        a = _sampled(tmp_path, 1)
        assert self._mix(tmp_path, [(a, take) for take in takes]) == 3
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out" / "mixed_trajectories.jsonl").exists()


class TestRankCommand:
    def test_rank_prints_order(self, tmp_path, capsys):
        from test_teacher import write_score_csv
        path = write_score_csv(tmp_path / "scores.csv")
        assert main(["rank", "--scores", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("1. QwQ-32B")
        assert out[-1].startswith("4. DeepSeek-R1")


    def test_repeated_score_rows_are_refused(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                        "ta,s1,aime,80,100,50\nta,s1,aime,90,100,50\nta,s2,aime,10,100,50\n",
                        encoding="utf-8")
        assert main(["rank", "--scores", str(path)]) == 3
        assert "(lines 2 and 3)" in capsys.readouterr().err
        path.write_text("teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                        "ta,s1,aime,80,100,50\nta,s2,aime,10,100,50\n", encoding="utf-8")
        assert main(["rank", "--scores", str(path)]) == 3
        assert "['s1', 's2']" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["[1]", '{"AIME2024": "half"}', "{oops"])
    def test_weights_that_are_not_a_benchmark_map_are_refused(self, tmp_path, capsys, weights):
        from test_teacher import write_score_csv
        scores = write_score_csv(tmp_path / "scores.csv")
        path = tmp_path / "weights.json"
        path.write_text(weights, encoding="utf-8")
        assert main(["rank", "--scores", str(scores), "--weights", str(path)]) == 3
        assert f"{path}: " in capsys.readouterr().err


class TestStatsCommands:
    def test_entropy_and_svg(self, tmp_path, capsys):
        lp = tmp_path / "lp.jsonl"
        rows = [{"trajectory_id": "t", "position": i,
                 "top_k": [["a", 0.5], ["b", 0.5]], "residual_mass": 0.0}
                for i in range(3)]
        lp.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        svg = tmp_path / "h.svg"
        assert main(["stats", "entropy", "--logprobs", str(lp), "--svg", str(svg)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mean"] == pytest.approx(0.6931471805599453)
        assert svg.exists()

    def test_pca_shift_command(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        rows = []
        for i in range(10):
            rows.append({"item_id": f"b{i}", "phase": "before",
                         "vector": [float(i), float(i % 3)]})
            rows.append({"item_id": f"a{i}", "phase": "after",
                         "vector": [float(i) + 3.0, float(i % 3) + 4.0]})
        emb.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        assert main(["stats", "pca-shift", "--embeddings", str(emb), "--k", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dis"] == pytest.approx(5.0, abs=1e-6)

    def test_pass1_command(self, tmp_path, capsys):
        rows = [{"question_id": f"q{i}", "runs": 16, "successes": 12} for i in range(30)]
        path = tmp_path / "rates.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        assert main(["stats", "pass1", "--outcomes", str(path)]) == 0
        assert "75.00" in capsys.readouterr().out

    def test_lengths_command(self, tmp_path, capsys):
        from conftest import make_question, make_trajectory
        from ded.records import write_corpus
        q = make_question(0)
        ts = [make_trajectory(q, j, "<think>a</think>x", token_len=1000 + j)
              for j in range(4)]
        path = tmp_path / "t.jsonl"
        write_corpus(path, ts)
        assert main(["stats", "lengths", "--in", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mean"] == 1001.5

    def test_lengths_of_a_run_corpus_equal_its_lengths_row(self, tmp_path, capsys):
        import csv
        assert main(["run", "--config", str(_config_file(tmp_path))]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["stats", "lengths", "--in",
                     str(out / "right_hard_diverse_trajectories.jsonl")]) == 0
        data = json.loads(capsys.readouterr().out)
        with open(out / "tables" / "lengths.csv", encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["estimated"] == "yes" and data["estimated"]
        assert ([data["count"], data["median"], data["percentiles"]["p95"]]
                == [int(row["count"]), int(row["median"]), int(row["p95"])])


class TestRunCommand:
    def test_run_and_report(self, tmp_path, capsys):
        config_path = _config_file(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        printed = capsys.readouterr().out
        assert "right_hard_diverse" in printed
        assert printed.endswith(f"wrote report {out / 'report.md'}\n")
        built = tree_hash(out)
        (out / "report.md").unlink()

        assert main(["report", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out == f"wrote report {out / 'report.md'}\n"
        assert tree_hash(out) == built
        assert [e["stage"] for e in read_events(out) if e["event"] == "stage_done"] == ["stats"]

    @pytest.mark.parametrize("content", ["{}", "{not json"])
    def test_unreadable_manifest_is_stage_failure(self, tmp_path, capsys, content):
        config_path = _config_file(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        (out / "manifest_right.json").write_text(content, encoding="utf-8")
        capsys.readouterr()

        assert main(["report", "--config", str(config_path)]) == 3
        assert "manifest_right.json" in capsys.readouterr().err
        assert main(["run", "--config", str(config_path)]) == 3
        assert "manifest_right.json" in capsys.readouterr().err
        events = read_events(out)
        assert [(e["stage"], e["event"]) for e in events] == [
            ("sample", "stage_failed"), ("pipeline", "done")]
        assert events[-1]["exit_code"] == 3

    def test_manifest_field_of_the_wrong_type_is_stage_failure(self, tmp_path, capsys):
        config_path = _config_file(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / "manifest_right.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["question_count"] = "twelve"
        path.write_text(json.dumps(data), encoding="utf-8")
        report = (tmp_path / "out" / "report.md").read_bytes()
        capsys.readouterr()

        assert main(["report", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "manifest_right.json" in err and "question_count" in err
        assert (tmp_path / "out" / "report.md").read_bytes() == report
        assert main(["run", "--config", str(config_path)]) == 3

    def test_report_refuses_manifests_built_with_other_stage_keys(self, tmp_path, capsys):
        assert main(["run", "--config", str(_config_file(tmp_path))]) == 0
        report = (tmp_path / "out" / "report.md").read_bytes()
        capsys.readouterr()
        assert main(["report", "--config", str(_config_file(tmp_path, runs=8))]) == 3
        assert ("manifest_right_hard.json was built with runs 4, not the configured 8"
                in capsys.readouterr().err)
        assert (tmp_path / "out" / "report.md").read_bytes() == report

    def test_config_error_exit_code(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"pass_threshold": 2}), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_a_missing_config_exits_2_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "missing.json"
        assert main([command, "--config", str(path)]) == 2
        assert f"cannot read config {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_a_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"teacher_id": "caf\xe9"}')
        assert main([command, "--config", str(path)]) == 2
        assert f"cannot read config {path}: " in capsys.readouterr().err


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m ded.cli` runs console_main, as the installed `ded` script does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps({"no_such_key": 1}), encoding="utf-8")
    good.write_text(json.dumps(build_pipeline_fixture(tmp_path)), encoding="utf-8")
    for path, code in ((bad, 2), (good, 0)):
        run = subprocess.run([sys.executable, "-m", "ded.cli", "run", "--config", str(path)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == code, run.stderr


class TestSmokeCommand:
    def test_smoke_builds_corpora(self, tmp_path, capsys):
        from conftest import make_question
        from ded.records import write_corpus
        questions = [make_question(i) for i in range(3)]
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, questions)
        rows = []
        for q in questions:
            for teacher in ("ta", "tb"):
                ans = q.ground_truth if teacher == "ta" or q.question_id != "q001" else "nope"
                rows.append({"kind": "sample", "teacher_id": teacher, "prompt": q.prompt,
                             "responses": [f"<think>s</think>\\boxed{{{ans}}}"]})
        fx = tmp_path / "fx.jsonl"
        fx.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        out_dir = tmp_path / "smoke"
        assert main(["smoke", "--questions", str(qpath), "--teachers", "ta,tb",
                     "--fixtures", str(fx), "--out-dir", str(out_dir)]) == 0
        output = capsys.readouterr().out
        assert "ta: kept 3 of 3" in output
        assert "tb: kept 2 of 3" in output
        assert (out_dir / "ta" / "right_trajectories.jsonl").exists()
        assert (out_dir / "training_tb.json").exists()

    def test_training_manifest_hash_is_the_ingested_corpus_hash(self, tmp_path):
        from ded.records import load_manifest, write_corpus
        questions = [make_question(i) for i in range(3)]
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, questions)
        # q001's sample answers wrong and is left out of the corpus
        fx = tmp_path / "fx.jsonl"
        fx.write_text("".join(json.dumps({
            "kind": "sample", "teacher_id": "ta", "prompt": q.prompt,
            "responses": [f"<think>s</think>\\boxed{{{q.ground_truth if i != 1 else 0}}}"]})
            + "\n" for i, q in enumerate(questions)), encoding="utf-8")
        out_dir = tmp_path / "smoke"
        assert main(["smoke", "--questions", str(qpath), "--teachers", "ta",
                     "--fixtures", str(fx), "--out-dir", str(out_dir)]) == 0
        training = json.loads((out_dir / "training_ta.json").read_text())
        assert (training["trajectory_count"], training["dropped_questions"]) == (2, ["q001"])
        manifest = tmp_path / "manifest.json"
        assert main(["ingest", "--in", str(out_dir / "ta" / "right_trajectories.jsonl"),
                     "--kind", "trajectories",
                     "--manifest-out", str(manifest)]) == 0
        ingested = load_manifest(manifest)
        assert ingested.content_hash == training["content_hash"]
        assert ingested.trajectory_count == training["trajectory_count"]

    def test_an_answer_two_teachers_share_is_judged_once(self, tmp_path, monkeypatch):
        from ded.records import write_corpus
        monkeypatch.delenv("DED_CACHE_DIR", raising=False)
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, [make_question(0, domain="code", gt="def f(x): return x + 1")])
        fx = tmp_path / "fx.jsonl"
        fx.write_text("".join(json.dumps({
            "kind": "sample", "teacher_id": teacher, "prompt": make_question(0).prompt,
            "responses": ["<think>add one</think>def f(x): return x + 1"]}) + "\n"
            for teacher in ("ta", "tb")), encoding="utf-8")
        out_dir = tmp_path / "smoke"
        runs = []
        for _ in range(2):
            assert main(["smoke", "--questions", str(qpath), "--teachers", "ta,tb",
                         "--fixtures", str(fx), "--out-dir", str(out_dir)]) == 0
            runs.append([(read_events(out_dir / t)[-1]["cache_misses"],
                          (out_dir / t / "right_trajectories.jsonl").read_bytes(),
                          (out_dir / f"training_{t}.json").read_bytes()) for t in ("ta", "tb")])
        # a sample each, and one judge call for the answer they share
        assert [billed for billed, *_ in runs[0]] == [2, 1]
        assert [billed for billed, *_ in runs[1]] == [0, 0]
        assert [files for _, *files in runs[0]] == [files for _, *files in runs[1]]
        assert all(b"def f(x)" in right for _, right, _ in runs[0])

    def test_a_slashed_teacher_id_lists_its_corpus_relative_to_out_dir(self, tmp_path):
        from ded.records import write_corpus
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, [make_question(i) for i in range(2)])
        out_dir = tmp_path / "smoke"
        assert main(["smoke", "--questions", str(qpath), "--teachers", "org/model",
                     "--out-dir", str(out_dir)]) == 0
        training = json.loads((out_dir / "training_org" / "model.json").read_text())
        assert training["corpus_files"] == ["org/model/right_trajectories.jsonl"]
        assert (out_dir / training["corpus_files"][0]).is_file()

    def test_a_teacher_id_that_leaves_out_dir_is_refused(self, tmp_path, capsys):
        from ded.records import write_corpus
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, [make_question(0)])
        out_dir = tmp_path / "a" / "smoke"
        assert main(["smoke", "--questions", str(qpath), "--teachers", "ta,a/../../x",
                     "--out-dir", str(out_dir)]) == 3
        assert "['a/../../x'] would write outside" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("teachers", ["ta,,tb", "ta,."])
    def test_a_teacher_id_that_names_out_dir_itself_is_refused(self, tmp_path, capsys,
                                                               teachers):
        from ded.records import write_corpus
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, [make_question(0)])
        out_dir = tmp_path / "smoke"
        assert main(["smoke", "--questions", str(qpath), "--teachers", teachers,
                     "--out-dir", str(out_dir)]) == 3
        assert "would write outside a directory of their own" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_a_failed_run_stops_smoke_with_its_exit_code_naming_the_teacher(self, tmp_path,
                                                                           capsys):
        from ded.records import write_corpus
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, [make_question(0)])
        fx = tmp_path / "fx.jsonl"
        fx.write_text('{"kind": "samples"}\n', encoding="utf-8")
        out_dir = tmp_path / "smoke"
        assert main(["smoke", "--questions", str(qpath), "--teachers", "ta,tb",
                     "--fixtures", str(fx), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ta: pipeline failed at stage ") and f"{fx} line 1: " in err
        assert not list(out_dir.glob("training_*")) and not (out_dir / "tb").exists()


_SCORE = {"teacher_id": "t", "student_id": "s", "benchmark": "b", "acc": "50",
          "mean_response_len": 100}
_Q = make_question(0)
# each entry point that reads a JSONL file: a valid row of the file, and the
# arguments ({input} is the file's path, {tmp} the test's directory, where
# sample.json configures `ded sample` with the file as its fixtures)
_LINE_FILES = {
    "ingest questions": (_Q.to_dict(), ["ingest", "--kind", "questions", "--in", "{input}"]),
    "ingest trajectories": (make_trajectory(_Q, 0, well_formed_text(_Q, 0)).to_dict(),
                            ["ingest", "--kind", "trajectories", "--in", "{input}"]),
    "ingest logprobs": ({"trajectory_id": "t", "position": 0, "top_k": [["a", 1.0]]},
                        ["ingest", "--kind", "logprobs", "--in", "{input}"]),
    "ingest embeddings": ({"item_id": "a", "phase": "before", "vector": [1.0]},
                          ["ingest", "--kind", "embeddings", "--in", "{input}"]),
    "ingest scores": ({**_SCORE, "delta_acc": "10"},
                      ["ingest", "--kind", "scores", "--in", "{input}"]),
    "sample --fixtures": ({"kind": "sample", "teacher_id": "t", "prompt": "p", "responses": ["r"]},
                          ["sample", "--config", "{tmp}/sample.json", "--out-dir", "{tmp}/out"]),
    "rank --scores": ({**_SCORE, "base_acc": "40"}, ["rank", "--scores", "{input}"]),
    "stats pass1": ({"question_id": "q", "runs": 2, "successes": 1},
                    ["stats", "pass1", "--outcomes", "{input}"]),
}
_BAD_LINES = {"invalid JSON": b"{oops", "invalid UTF-8": b'{"x": "\xff"}',
              "not an object": b"[1, 2]", "misspelt kind": b'{"kind": "samples"}',
              "responses a number": b'{"kind": "sample", "teacher_id": "t", "prompt": "p", '
                                    b'"responses": 5}'}


@pytest.mark.parametrize("entry,line", [
    *((entry, line) for entry in _LINE_FILES for line in ["invalid JSON", "invalid UTF-8",
                                                          "not an object", "blank"]),
    ("sample --fixtures", "misspelt kind"),
    ("sample --fixtures", "responses a number"),
])
def test_every_line_file_refuses_a_bad_line_naming_file_and_line(tmp_path, capsys, entry, line):
    """A JSONL input's second line: blank is skipped, anything else that is
    not a row of the file exits 3 naming the file and the line."""
    from ded.records import write_corpus
    write_corpus(tmp_path / "questions.jsonl", [_Q])
    row, args = _LINE_FILES[entry]
    path = tmp_path / "input.jsonl"
    path.write_bytes(json.dumps(row).encode() + b"\n" + _BAD_LINES.get(line, b" \t") + b"\n")
    (tmp_path / "sample.json").write_text(json.dumps({
        "questions": str(tmp_path / "questions.jsonl"), "teacher_id": "t",
        "samples_per_question": 1, "client": {"fixtures": str(path)}}), encoding="utf-8")
    code = main([arg.format(tmp=tmp_path, input=path) for arg in args])
    err = capsys.readouterr().err
    if line == "blank":
        assert code == 0, err
    else:
        assert code == 3 and f"{path} line 2: " in err, err
