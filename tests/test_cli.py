from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ded.cli import main
from ded.clients import MockClient
from ded.records import parse_corpus

from conftest import (build_pipeline_fixture, make_gate_fixture, make_question,
                      make_trajectory, well_formed_text)


def _write_corpus_files(tmp_path):
    from ded.records import write_corpus
    questions, trajectories = make_gate_fixture()
    qpath = tmp_path / "questions.jsonl"
    tpath = tmp_path / "trajectories.jsonl"
    write_corpus(qpath, questions)
    write_corpus(tpath, trajectories)
    return qpath, tpath


class TestFilterCommand:
    def test_filter_partitions(self, tmp_path, capsys):
        qpath, tpath = _write_corpus_files(tmp_path)
        code = main(["filter", "--in", str(tpath), "--questions", str(qpath),
                     "--max-token-len", "16384",
                     "--out", str(tmp_path / "kept.jsonl"),
                     "--rejects", str(tmp_path / "rejects.jsonl"),
                     "--needs-judge", str(tmp_path / "judge.jsonl")])
        assert code == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts == {"kept": 151, "rejected": 9, "needs_judge": 0}
        assert len(parse_corpus(tmp_path / "kept.jsonl", "trajectories")) == 151

    def test_bad_input_is_stage_failure(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n", encoding="utf-8")
        qpath, _ = _write_corpus_files(tmp_path)
        code = main(["filter", "--in", str(bad), "--questions", str(qpath),
                     "--out", str(tmp_path / "k.jsonl"),
                     "--rejects", str(tmp_path / "r.jsonl"),
                     "--needs-judge", str(tmp_path / "j.jsonl")])
        assert code == 3


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


class TestSampleAndDiversify:
    def test_sample_then_diversify(self, tmp_path):
        qpath, _ = _write_corpus_files(tmp_path)
        out = tmp_path / "sampled.jsonl"
        assert main(["sample", "--questions", str(qpath), "--teacher", "t-x",
                     "--m", "5", "--seed", "3", "--out", str(out)]) == 0
        sampled = parse_corpus(out, "trajectories")
        assert len(sampled) == 100  # 20 questions x 5

        diverse = tmp_path / "diverse.jsonl"
        report = tmp_path / "div_report.json"
        assert main(["diversify", "--in", str(out), "--p", "2",
                     "--out", str(diverse), "--report", str(report)]) == 0
        assert len(parse_corpus(diverse, "trajectories")) == 40
        data = json.loads(report.read_text())
        assert data["p"] == 2 and len(data["per_question"]) == 20


_BAD_FIXTURE = '{"kind": "sample", "prompt": "p", "responses": ["r"]}\n'


class TestBadFixtures:
    def test_sample_exits_3_naming_the_row(self, tmp_path, capsys):
        qpath, _ = _write_corpus_files(tmp_path)
        fx = tmp_path / "fx.jsonl"
        fx.write_text(_BAD_FIXTURE, encoding="utf-8")
        assert main(["sample", "--questions", str(qpath), "--teacher", "t", "--fixtures",
                     str(fx), "--out", str(tmp_path / "out.jsonl")]) == 3
        assert f"{fx} line 1: sample row without field 'teacher_id'" in capsys.readouterr().err

    def test_run_exits_3_and_logs_the_failure(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        Path(config["client"]["fixtures"]).write_text(_BAD_FIXTURE, encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 3
        assert "sample row without field 'teacher_id'" in capsys.readouterr().err
        log = Path(config["out_dir"]) / "logs" / "events.jsonl"
        events = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert [e["event"] for e in events] == ["stage_failed", "done"]


class TestCompressCommand:
    def test_compress_with_fixture_student(self, tmp_path, capsys):
        from conftest import make_question
        from ded.records import write_corpus
        questions = [make_question(i) for i in range(4)]
        qpath = tmp_path / "q.jsonl"
        write_corpus(qpath, questions)
        rows = []
        for i, q in enumerate(questions):
            responses = []
            for r in range(4):
                ans = q.ground_truth if r < i else "999999"
                responses.append(f"<think>t</think>\\boxed{{{ans}}}")
            rows.append({"kind": "sample", "teacher_id": "stu", "prompt": q.prompt,
                         "responses": responses})
        fx = tmp_path / "fx.jsonl"
        fx.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")

        out = tmp_path / "hard.jsonl"
        stats = tmp_path / "rates.jsonl"
        code = main(["compress", "--questions", str(qpath), "--student", "stu",
                     "--runs", "4", "--tau", "0.5", "--fixtures", str(fx),
                     "--out", str(out), "--stats", str(stats)])
        assert code == 0
        # pass rates 0, .25, .5, .75 -> first three retained at tau=0.5
        assert len(parse_corpus(out, "questions")) == 3
        lines = [json.loads(l) for l in stats.read_text().splitlines()]
        assert [l["successes"] for l in lines] == [0, 1, 2, 3]


class TestSubcommandCache:
    """Subcommands that sample build their client as `ded run` does, so a
    repeated call is answered from the request cache."""

    def test_sample_caches_beside_its_output(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DED_CACHE_DIR", raising=False)
        qpath, _ = _write_corpus_files(tmp_path)
        out = tmp_path / "sampled" / "trajectories.jsonl"
        args = ["sample", "--questions", str(qpath), "--teacher", "t-x", "--m", "2",
                "--out", str(out)]
        assert main(args) == 0
        assert len(list((out.parent / ".cache").glob("*.json"))) == 20  # one per question
        first = out.read_bytes()
        monkeypatch.setattr(MockClient, "sample_trajectories",
                            lambda self, request: pytest.fail("sampled again"))
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_compress_caches_under_ded_cache_dir(self, tmp_path, monkeypatch):
        cache = tmp_path / "shared_cache"
        monkeypatch.setenv("DED_CACHE_DIR", str(cache))
        qpath, _ = _write_corpus_files(tmp_path)
        out = tmp_path / "hard" / "questions.jsonl"
        args = ["compress", "--questions", str(qpath), "--student", "s-x", "--runs", "2",
                "--out", str(out), "--stats", str(tmp_path / "rates.jsonl")]
        assert main(args) == 0
        assert len(list(cache.glob("*.json"))) == 20
        assert not (out.parent / ".cache").exists()
        # a repeated or resumed compress is answered from the cache
        first = out.read_bytes()
        monkeypatch.setattr(MockClient, "sample_trajectories",
                            lambda self, request: pytest.fail("rolled out again"))
        assert main(args) == 0
        assert out.read_bytes() == first


class TestMixCommand:
    def test_mix_sources(self, tmp_path):
        qpath, _ = _write_corpus_files(tmp_path)
        a = tmp_path / "a.jsonl"
        main(["sample", "--questions", str(qpath), "--teacher", "t1",
              "--m", "2", "--out", str(a)])
        rows = [json.loads(l) for l in a.read_text().splitlines()]
        for row in rows:
            row["question_id"] = row["question_id"].replace("q", "z")
            row["trajectory_id"] = row["trajectory_id"].replace("q", "z")
        b = tmp_path / "b.jsonl"
        b.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        out = tmp_path / "mixed.jsonl"
        assert main(["mix", "--source", f"{a}:3", "--source", f"{b}:3",
                     "--seed", "5", "--out", str(out)]) == 0
        mixed = parse_corpus(out, "trajectories")
        assert len({t.question_id for t in mixed}) == 6
        assert out.with_suffix(".manifest.json").exists()

    def test_take_of_zero_is_refused(self, tmp_path, capsys):
        qpath, _ = _write_corpus_files(tmp_path)
        a = tmp_path / "a.jsonl"
        main(["sample", "--questions", str(qpath), "--teacher", "t1", "--m", "1", "--out", str(a)])
        out = tmp_path / "mixed.jsonl"
        assert main(["mix", "--source", f"{a}:0", "--seed", "5", "--out", str(out)]) == 3
        assert "take must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


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


class TestRunCommand:
    def test_run_and_report(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "right_hard_diverse" in out

        report_dir = tmp_path / "report_out"
        assert main(["report", "--manifest-dir", config["out_dir"],
                     "--out-dir", str(report_dir)]) == 0
        assert (report_dir / "report.md").exists()

    @pytest.mark.parametrize("content", ["{}", "{not json"])
    def test_unreadable_manifest_is_stage_failure(self, tmp_path, capsys, content):
        config = build_pipeline_fixture(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        (out / "manifest_right.json").write_text(content, encoding="utf-8")
        capsys.readouterr()

        assert main(["report", "--manifest-dir", str(out),
                     "--out-dir", str(tmp_path / "report_out")]) == 3
        assert "manifest_right.json" in capsys.readouterr().err
        assert main(["run", "--config", str(config_path)]) == 3
        assert "manifest_right.json" in capsys.readouterr().err
        events = [json.loads(line) for line in
                  (out / "logs" / "events.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(e["stage"], e["event"]) for e in events] == [
            ("sample", "stage_failed"), ("pipeline", "done")]
        assert events[-1]["exit_code"] == 3

    def test_manifest_field_of_the_wrong_type_is_stage_failure(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / "manifest_right.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["question_count"] = "twelve"
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()

        assert main(["report", "--manifest-dir", str(tmp_path / "out"),
                     "--out-dir", str(tmp_path / "report_out")]) == 3
        err = capsys.readouterr().err
        assert "manifest_right.json" in err and "question_count" in err
        assert not (tmp_path / "report_out" / "report.md").exists()
        assert main(["run", "--config", str(config_path)]) == 3

    def test_config_error_exit_code(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"pass_threshold": 2}), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2



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
        assert (out_dir / "smoke_ta.jsonl").exists()
        assert (out_dir / "training_tb.json").exists()


_SCORE = {"teacher_id": "t", "student_id": "s", "benchmark": "b", "acc": "50",
          "mean_response_len": 100}
_Q = make_question(0)
# each entry point that reads a JSONL file: a valid row of the file, and the
# arguments that come before the file's path ({tmp} is the test's directory)
_LINE_FILES = {
    "ingest questions": (_Q.to_dict(), ["ingest", "--kind", "questions", "--in"]),
    "ingest trajectories": (make_trajectory(_Q, 0, well_formed_text(_Q, 0)).to_dict(),
                            ["ingest", "--kind", "trajectories", "--in"]),
    "ingest logprobs": ({"trajectory_id": "t", "position": 0, "top_k": [["a", 1.0]]},
                        ["ingest", "--kind", "logprobs", "--in"]),
    "ingest embeddings": ({"item_id": "a", "phase": "before", "vector": [1.0]},
                          ["ingest", "--kind", "embeddings", "--in"]),
    "ingest scores": ({**_SCORE, "delta_acc": "10"}, ["ingest", "--kind", "scores", "--in"]),
    "sample --fixtures": ({"kind": "sample", "teacher_id": "t", "prompt": "p", "responses": ["r"]},
                          ["sample", "--questions", "{tmp}/questions.jsonl", "--teacher", "t",
                           "--m", "1", "--out", "{tmp}/sampled.jsonl", "--fixtures"]),
    "rank --scores": ({**_SCORE, "base_acc": "40"}, ["rank", "--scores"]),
    "stats pass1": ({"question_id": "q", "runs": 2, "successes": 1},
                    ["stats", "pass1", "--outcomes"]),
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
    code = main([arg.format(tmp=tmp_path) for arg in args] + [str(path)])
    err = capsys.readouterr().err
    if line == "blank":
        assert code == 0, err
    else:
        assert code == 3 and f"{path} line 2: " in err, err
