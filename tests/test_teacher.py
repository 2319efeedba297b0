from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from ded import records
from ded.cli import main
from ded.clients import MockClient
from ded.records import ScoreRecord, write_corpus
from ded.teacher import TeacherSelectError, ingest_scores, rank_teachers, sample_teacher

from conftest import make_question, read_events

# Published evaluation block used as ranking input: per benchmark,
# (teacher accuracy, base accuracy, teacher mean response length).
DS32B_SCORES = {
    "DeepSeek-R1": {
        "AIME2024": ("73.96", "65.63", 11255),
        "AIME2025": ("65.83", "53.54", 12930),
        "MATH500": ("94.6", "89.8", 3576),
        "GPQA": ("64.65", "62.10", 7506),
    },
    "QwQ-32B": {
        "AIME2024": ("79.58", "65.63", 14096),
        "AIME2025": ("73.22", "53.54", 16275),
        "MATH500": ("95.6", "89.8", 4910),
        "GPQA": ("67.17", "62.10", 9726),
    },
    "Qwen3-32B": {
        "AIME2024": ("75.00", "65.63", 14675),
        "AIME2025": ("69.73", "53.54", 16371),
        "MATH500": ("94.2", "89.8", 5242),
        "GPQA": ("62.63", "62.10", 9682),
    },
    "Qwen3-235B-A22B": {
        "AIME2024": ("78.75", "65.63", 13991),
        "AIME2025": ("68.75", "53.54", 16277),
        "MATH500": ("90.8", "89.8", 7201),
        "GPQA": ("67.68", "62.10", 11071),
    },
}


def write_score_csv(path, scores=DS32B_SCORES, student="DS-32B"):
    lines = ["teacher_id,student_id,benchmark,acc,mean_response_len,base_acc"]
    for teacher, rows in scores.items():
        for bench, (acc, base, length) in rows.items():
            lines.append(f"{teacher},{student},{bench},{acc},{length},{base}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestIngestScores:
    def test_delta_is_exact_decimal(self, tmp_path):
        path = write_score_csv(tmp_path / "scores.csv")
        records = ingest_scores(path)
        by_key = {(r.teacher_id, r.benchmark): r for r in records}
        assert by_key[("QwQ-32B", "AIME2024")].delta_acc == "13.95"
        assert by_key[("DeepSeek-R1", "AIME2024")].delta_acc == "8.33"
        assert by_key[("Qwen3-32B", "AIME2024")].delta_acc == "9.37"
        assert by_key[("Qwen3-235B-A22B", "AIME2024")].delta_acc == "13.12"

    def test_zero_delta(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                        "t,s,b,50.00,1000,50.00\n", encoding="utf-8")
        records = ingest_scores(path)
        assert records[0].delta_acc == "0.00"

    def test_jsonl_input(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        row = {"teacher_id": "t", "student_id": "s", "benchmark": "b",
               "acc": "79.58", "mean_response_len": 14096, "base_acc": "65.63"}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert ingest_scores(path)[0].delta_acc == "13.95"

    def test_acc_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                        "t,s,b,101,1000,50\n", encoding="utf-8")
        with pytest.raises(TeacherSelectError) as err:
            ingest_scores(path)
        assert "outside [0, 100]" in str(err.value)

    @pytest.mark.parametrize("name,row,problem", [
        ("scores.jsonl", '{"teacher_id": "t", "student_id": "s", "benchmark": "b", '
                         '"acc": "NaN", "mean_response_len": 1, "base_acc": "40"}',
         "acc NaN outside [0, 100]"),
        ("scores.jsonl", '{"teacher_id": "t", "student_id": "s", "benchmark": "b", '
                         '"acc": "50", "mean_response_len": [1], "base_acc": "40"}',
         "mean_response_len: not a number: [1]"),
        ("scores.csv", "teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                       "t,s,b,50,1,40\nt,s,b2,50,long,40",
         "mean_response_len: not a number: 'long'"),
        ("scores.csv", "teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                       "t,s,b,50,1,4\x000", "base_acc: not a number: '4\\x000'"),
        ("scores.csv", "teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                       "t,s,b,5O,1,40", "acc: not a number: '5O'"),
    ], ids=["acc NaN", "length a list", "length a word", "base a NUL byte", "acc a letter"])
    def test_bad_number_names_file_and_line(self, tmp_path, name, row, problem):
        path = tmp_path / name
        path.write_text(row + "\n", encoding="utf-8")
        with pytest.raises(TeacherSelectError) as err:
            ingest_scores(path)
        assert str(err.value) == f"{path} line {row.count(chr(10)) + 1}: {problem}"

    def test_csv_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                         b"t\xff,s,b,50,1,40\n")
        with pytest.raises(TeacherSelectError) as err:
            ingest_scores(path)
        assert f"{path}: invalid UTF-8" in str(err.value)

    def test_missing_base_errors(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        row = {"teacher_id": "t", "student_id": "s", "benchmark": "b",
               "acc": "50", "mean_response_len": 100}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(TeacherSelectError) as err:
            ingest_scores(path)
        assert "base_acc" in str(err.value)


    def test_repeated_score_row_names_both_lines(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("teacher_id,student_id,benchmark,acc,mean_response_len,base_acc\n"
                        "ta,s1,aime,80,100,50\nta,s1,aime,90,100,50\nta,s2,aime,10,100,50\n",
                        encoding="utf-8")
        with pytest.raises(TeacherSelectError) as err:
            ingest_scores(path)
        assert "duplicate score row ('ta', 's1', 'aime') (lines 2 and 3)" in str(err.value)

    def test_repeated_jsonl_score_row_is_refused(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        row = {"teacher_id": "t", "student_id": "s", "benchmark": "b",
               "acc": "50", "mean_response_len": 100, "base_acc": "40"}
        path.write_text(json.dumps(row) + "\n\n" + json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(TeacherSelectError, match="lines 1 and 3"):
            ingest_scores(path)


class TestRankTeachers:
    def _records(self, tmp_path):
        return ingest_scores(write_score_csv(tmp_path / "scores.csv"))

    def test_published_block_order(self, tmp_path):
        rankings = rank_teachers(self._records(tmp_path))
        assert [r.teacher_id for r in rankings] == [
            "QwQ-32B", "Qwen3-235B-A22B", "Qwen3-32B", "DeepSeek-R1"]
        assert rankings[0].score == Fraction(445, 40)  # 44.50 / 4

    def test_one_hot_weights_equal_single_benchmark(self, tmp_path):
        records = self._records(tmp_path)
        rankings = rank_teachers(records, weights={"MATH500": 1})
        by_id = {r.teacher_id: r.score for r in rankings}
        assert by_id["QwQ-32B"] == Fraction(Decimal("5.8"))
        assert by_id["Qwen3-235B-A22B"] == Fraction(Decimal("1.0"))
        assert rankings[0].teacher_id == "QwQ-32B"

    def test_single_teacher_trivial(self):
        records = [ScoreRecord("only", "s", "b", "50.00", 100.0, "5.00")]
        rankings = rank_teachers(records)
        assert len(rankings) == 1 and rankings[0].teacher_id == "only"

    def test_tie_breaks_on_shorter_responses(self):
        records = [
            ScoreRecord("long", "s", "b", "50.00", 14000.0, "5.00"),
            ScoreRecord("short", "s", "b", "50.00", 12000.0, "5.00"),
        ]
        rankings = rank_teachers(records)
        assert [r.teacher_id for r in rankings] == ["short", "long"]

    def test_incomplete_matrix_lists_missing_cells(self, tmp_path):
        records = [r for r in self._records(tmp_path)
                   if not (r.teacher_id == "Qwen3-32B" and r.benchmark == "GPQA")]
        with pytest.raises(TeacherSelectError) as err:
            rank_teachers(records)
        assert "Qwen3-32B" in str(err.value) and "GPQA" in str(err.value)

    def test_cell_scored_on_two_students_names_them(self):
        records = [ScoreRecord("ta", "s1", "aime", "80", 100.0, "30"),
                   ScoreRecord("ta", "s2", "aime", "10", 100.0, "-40"),
                   ScoreRecord("tb", "s1", "aime", "60", 100.0, "10")]
        with pytest.raises(TeacherSelectError) as err:
            rank_teachers(records)
        assert "('ta', 'aime'): ['s1', 's2']" in str(err.value)

    def test_weights_must_sum_to_one(self, tmp_path):
        with pytest.raises(TeacherSelectError):
            rank_teachers(self._records(tmp_path), weights={"AIME2024": 0.6, "GPQA": 0.6})

    def test_record_order_irrelevant(self, tmp_path):
        records = self._records(tmp_path)
        assert rank_teachers(records) == rank_teachers(list(reversed(records)))

    def test_shift_invariance(self, tmp_path):
        records = self._records(tmp_path)
        shifted = []
        for r in records:
            if r.benchmark == "AIME2024":
                shifted.append(ScoreRecord(r.teacher_id, r.student_id, r.benchmark,
                                           r.acc, r.mean_response_len,
                                           str(Decimal(r.delta_acc) + Decimal("3"))))
            else:
                shifted.append(r)
        base_order = [r.teacher_id for r in rank_teachers(records)]
        shifted_order = [r.teacher_id for r in rank_teachers(shifted)]
        assert base_order == shifted_order


def _smoke(tmp_path, questions, samples, teachers="t-one", seed=0, out="smoke"):
    """`ded smoke` of questions for teachers, over mock fixtures of the
    responses `samples` maps (teacher, prompt) to; returns its exit code and
    out_dir."""
    write_corpus(tmp_path / "q.jsonl", questions)
    (tmp_path / "fx.jsonl").write_text("".join(json.dumps({
        "kind": "sample", "teacher_id": teacher, "prompt": prompt, "responses": responses})
        + "\n" for (teacher, prompt), responses in samples.items()), encoding="utf-8")
    out_dir = tmp_path / out
    code = main(["smoke", "--questions", str(tmp_path / "q.jsonl"), "--teachers", teachers,
                 "--fixtures", str(tmp_path / "fx.jsonl"), "--seed", str(seed),
                 "--out-dir", str(out_dir)])
    return code, out_dir


def _training(out_dir, teacher_id="t-one"):
    return json.loads((out_dir / f"training_{teacher_id}.json").read_text())


def _kept(out_dir, teacher_id="t-one"):
    """The trajectories of teacher_id's smoke corpus under out_dir."""
    return records.parse_corpus(out_dir / teacher_id / "right_trajectories.jsonl",
                                "trajectories")


def _requests(out_dir, teacher_id="t-one"):
    """The calls teacher_id's last smoke run billed."""
    return read_events(out_dir / teacher_id)[-1]["requests"]


class TestBuildSmokeCorpus:
    @pytest.fixture(autouse=True)
    def _own_cache(self, monkeypatch):
        # the teachers' runs cache under --out-dir
        monkeypatch.delenv("DED_CACHE_DIR", raising=False)

    def test_cardinality(self, tmp_path):
        questions = [make_question(i) for i in range(3)]
        samples = {}
        for q in questions:
            for teacher in ("t-one", "t-two"):
                samples[(teacher, q.prompt)] = [
                    f"<think>smoke</think>\\boxed{{{q.ground_truth}}}"]
        code, out_dir = _smoke(tmp_path, questions, samples, "t-one,t-two")
        assert code == 0
        for teacher_id in ("t-one", "t-two"):
            training = _training(out_dir, teacher_id)
            assert len(_kept(out_dir, teacher_id)) == training["trajectory_count"] == 3
            assert training["dropped_questions"] == []
        manifest = _training(out_dir)
        assert manifest["hyperparameters"]["context_window"] == 16384
        assert manifest["hyperparameters"]["batch_size"] == 48

    def test_each_kept_trajectory_is_serialised_once(self, tmp_path, monkeypatch):
        # the training manifest hashes the lines the corpus file was written from
        questions = [make_question(i) for i in range(3)]
        samples = {("t-one", q.prompt): [f"<think>s</think>\\boxed{{{q.ground_truth}}}"]
                   for q in questions[:2]}
        calls = []
        dumps = records.dumps_record
        monkeypatch.setattr(records, "dumps_record", lambda r: calls.append(r) or dumps(r))
        code, out_dir = _smoke(tmp_path, questions, samples)
        monkeypatch.undo()
        assert code == 0
        kept = _kept(out_dir)
        training = _training(out_dir)
        # no rejected sample is serialised as a kept one
        assert [t.trajectory_id for t in calls if t in kept] == ["q000:t-one:000",
                                                                 "q001:t-one:000"]
        assert training["content_hash"] == records.content_hash(kept)

    def test_failed_question_reported(self, tmp_path):
        questions = [make_question(i) for i in range(3)]
        samples = {}
        for q in questions:
            answer = q.ground_truth if q.question_id != "q001" else "wrong"
            samples[("t-one", q.prompt)] = [f"<think>s</think>\\boxed{{{answer}}}"]
        code, out_dir = _smoke(tmp_path, questions, samples)
        assert code == 0
        training = _training(out_dir)
        assert training["dropped_questions"] == ["q001"]
        assert training["trajectory_count"] == 2
        assert training["content_hash"] == records.content_hash(_kept(out_dir))

    def test_a_judged_correct_code_sample_is_kept_and_a_wrong_one_dropped(self, tmp_path):
        math, right, wrong = (make_question(0), make_question(1, domain="code", gt="x + 1"),
                              make_question(2, domain="code", gt="x + 2"))
        samples = {("t-one", math.prompt): [f"<think>s</think>\\boxed{{{math.ground_truth}}}"],
                   ("t-one", right.prompt): ["<think>s</think>x  +  1"],
                   ("t-one", wrong.prompt): ["<think>s</think>x - 2"]}
        code, out_dir = _smoke(tmp_path, [math, right, wrong], samples)
        assert code == 0
        training = _training(out_dir)
        kept = _kept(out_dir)
        assert [(t.question_id, t.verdict.checker) for t in kept] == [("q000", "rule"),
                                                                      ("q001", "judge")]
        # three samples, and one judge call for each code sample
        assert _requests(out_dir) == 3 + 2
        assert (training["trajectory_count"], training["dropped_questions"]) == (2, ["q002"])
        assert training["content_hash"] == records.content_hash(kept)

    def test_a_repeated_smoke_bills_no_calls(self, tmp_path):
        questions = [make_question(0), make_question(1, domain="code", gt="x + 1")]
        samples = {("t-one", questions[1].prompt): ["<think>s</think>x + 1"]}
        written = []
        for _ in range(2):
            assert _smoke(tmp_path, questions, samples, seed=1)[0] == 0
            out_dir = tmp_path / "smoke"
            written.append((_requests(out_dir), *(
                (out_dir / name).read_bytes()
                for name in ("t-one/right_trajectories.jsonl", "training_t-one.json"))))
        assert written[0][0] == 3
        assert written[1] == (0, *written[0][1:])


class TestSampleTeacher:
    def test_ids_and_sample_indices(self):
        trajectories = sample_teacher(make_question(2), MockClient(seed=3), "t-one", samples=2)
        assert [t.trajectory_id for t in trajectories] == ["q002:t-one:000", "q002:t-one:001"]
        assert [t.sample_index for t in trajectories] == [0, 1]
        assert {t.question_id for t in trajectories} == {"q002"}
