from __future__ import annotations

import hashlib
import json
import random
import tracemalloc

import pytest

from ded.records import (CorpusError, CorpusManifest, EmbeddingRecord, LogprobRecord,
                         PassRateStats, ScoreRecord, TrajectoryRecord, VerificationVerdict,
                         content_hash, dumps_record, load_json, load_manifest, parse_corpus,
                         save_manifest, write_corpus, write_json, write_manifest)

from conftest import make_question, make_trajectory, well_formed_text
from oracles import reference_content_hash


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def test_parse_trajectories_round_trip(tmp_path):
    q = make_question(1)
    records = [make_trajectory(q, j, well_formed_text(q, j)) for j in range(3)]
    records[1].extra["custom_field"] = {"nested": [1, 2]}
    path = tmp_path / "traj.jsonl"
    write_corpus(path, records)
    parsed = parse_corpus(path, "trajectories")
    assert parsed == records
    assert parsed[1].extra["custom_field"] == {"nested": [1, 2]}


def test_parse_reports_line_number(tmp_path):
    q = make_question(1)
    good = json.dumps(make_trajectory(q, 0, well_formed_text(q, 0)).to_dict())
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n{\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        parse_corpus(path, "trajectories")
    assert f"{path} line 2: " in str(err.value)


def test_parse_duplicate_sample_key_names_both_lines(tmp_path):
    q = make_question(2)
    a = make_trajectory(q, 0, well_formed_text(q, 0))
    b = make_trajectory(q, 0, well_formed_text(q, 1))
    b.trajectory_id = "distinct-id"
    path = tmp_path / "dup.jsonl"
    _write_lines(path, [a.to_dict(), b.to_dict()])
    with pytest.raises(CorpusError) as err:
        parse_corpus(path, "trajectories")
    assert "lines 1 and 2" in str(err.value)


def test_parse_rejects_char_len_mismatch(tmp_path):
    q = make_question(3)
    row = make_trajectory(q, 0, well_formed_text(q, 0)).to_dict()
    row["char_len"] = 1
    path = tmp_path / "chlen.jsonl"
    _write_lines(path, [row])
    with pytest.raises(CorpusError) as err:
        parse_corpus(path, "trajectories")
    assert "char_len" in str(err.value)


def test_parse_questions_rejects_bad_domain(tmp_path):
    row = make_question(0).to_dict()
    row["domain"] = "chemistry"
    path = tmp_path / "q.jsonl"
    _write_lines(path, [row])
    with pytest.raises(CorpusError) as err:
        parse_corpus(path, "questions")
    assert "domain" in str(err.value)


def test_parse_logprobs_validates_mass_and_order(tmp_path):
    path = tmp_path / "lp.jsonl"
    _write_lines(path, [
        {"trajectory_id": "t", "position": 0, "top_k": [["a", 0.6], ["b", 0.4]],
         "residual_mass": 0.0},
    ])
    recs = parse_corpus(path, "logprobs")
    assert recs[0].top_k == [("a", 0.6), ("b", 0.4)]

    _write_lines(path, [
        {"trajectory_id": "t", "position": 0, "top_k": [["a", 0.3], ["b", 0.4]],
         "residual_mass": 0.3},
    ])
    with pytest.raises(CorpusError):
        parse_corpus(path, "logprobs")

    _write_lines(path, [
        {"trajectory_id": "t", "position": 0, "top_k": [["a", 0.5]], "residual_mass": 0.1},
    ])
    with pytest.raises(CorpusError):
        parse_corpus(path, "logprobs")


def test_parse_embeddings_rejects_mixed_dimension(tmp_path):
    path = tmp_path / "emb.jsonl"
    _write_lines(path, [
        {"item_id": "a", "phase": "before", "vector": [1.0, 2.0]},
        {"item_id": "b", "phase": "after", "vector": [1.0, 2.0, 3.0]},
    ])
    with pytest.raises(CorpusError) as err:
        parse_corpus(path, "embeddings")
    assert "dimension" in str(err.value)


def test_round_trip_all_kinds(tmp_path):
    # one field no kind declares rides along on each, a verdict's included
    unknown = {"model": "m-1"}
    q = make_question(4)
    q.extra.update(unknown)
    t = make_trajectory(q, 0, well_formed_text(q, 0))
    t.extra.update(unknown)
    t.verdict = VerificationVerdict("correct", "rule", "matched", extra=dict(unknown))
    cases = {
        "questions": [q],
        "trajectories": [t],
        "logprobs": [LogprobRecord("t", 0, [("x", 0.9), ("y", 0.05)], 0.05, extra=unknown)],
        "embeddings": [EmbeddingRecord("a", "before", [0.5, -1.5], extra=unknown)],
        "scores": [ScoreRecord("t1", "s1", "bench", "79.58", 14096.0, "65.63", extra=unknown)],
    }
    for kind, records in cases.items():
        path = tmp_path / f"{kind}.jsonl"
        write_corpus(path, records)
        parsed = parse_corpus(path, kind)
        assert parsed == records
        assert parsed[0].extra == unknown
        records[0].validate()
        assert json.loads(path.read_text(encoding="utf-8"))["model"] == "m-1"
    assert parse_corpus(tmp_path / "trajectories.jsonl", "trajectories")[0].verdict.extra == unknown


def test_pass_rates_keep_unknown_fields_and_derive_pass_rate():
    stats = PassRateStats("q", runs=4, successes=3, extra={"model": "m-1"})
    row = json.loads(json.dumps(stats.to_dict()))
    assert row["pass_rate"] == 0.75 and row["model"] == "m-1"
    assert PassRateStats.from_dict(row) == stats


@pytest.mark.parametrize("kind,row,field", [
    ("questions", {"question_id": "q1", "domain": "math"}, "prompt"),
    ("questions", {"question_id": "q1", "domain": "math", "prompt": 7}, "prompt"),
    ("questions", {"question_id": "q1", "domain": "math", "prompt": "p", "tags": "a"}, "tags"),
    ("trajectories", {"trajectory_id": "t1", "question_id": "q1", "teacher_id": "t",
                      "sample_index": "0", "text": "x"}, "sample_index"),
    ("trajectories", {"trajectory_id": "t1", "question_id": "q1", "teacher_id": "t",
                      "sample_index": 0, "text": "x", "verdict": "correct"}, "verdict"),
    ("logprobs", {"trajectory_id": "t", "position": 0, "top_k": [["a", 0.5, 1]],
                  "residual_mass": 0.5}, "top_k"),
    ("embeddings", {"item_id": "a", "phase": "before", "vector": ["1"]}, "vector"),
    ("scores", {"teacher_id": "t", "student_id": "s", "benchmark": "b", "acc": "high",
                "mean_response_len": 1, "base_acc": "1"}, "acc"),
    ("pass_rates", {"question_id": "", "runs": 1, "successes": 0}, "question_id"),
])
def test_parse_names_a_missing_or_mistyped_field(tmp_path, kind, row, field):
    path = tmp_path / f"{kind}.jsonl"
    _write_lines(path, [row])
    with pytest.raises(CorpusError) as err:
        parse_corpus(path, kind)
    assert f"{path} line 1: " in str(err.value) and field in str(err.value)


@pytest.mark.parametrize("document,problem", [
    (b'{"a": 1, "a": 2}', "repeated key 'a'"),
    (b'[{"a": 1}, {"b": {"c": [{"d": 1, "e": 2, "d": 1}]}}]', "repeated key 'd'"),
    (b'{"a": 1', "invalid JSON: Expecting ',' delimiter"),
    (b'{"a": "\xff"}', "invalid UTF-8: invalid start byte"),
])
def test_load_json_refuses_what_is_not_json_or_repeats_a_key(document, problem):
    with pytest.raises(CorpusError, match=f"^{problem}"):
        load_json(document)
    # the same key in sibling objects is no repeat
    assert load_json('[{"a": 1}, {"a": 2}]') == [{"a": 1}, {"a": 2}]


def test_a_key_repeated_inside_a_verdict_names_the_line_and_key(tmp_path):
    row = {"trajectory_id": "t1", "question_id": "q1", "teacher_id": "t", "sample_index": 0,
           "text": "x", "verdict": {"status": "correct", "checker": "rule"}}
    path = tmp_path / "trajectories.jsonl"
    path.write_text(json.dumps(row).replace('"checker": "rule"',
                                            '"checker": "rule", "checker": "judge"') + "\n",
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{path} line 1: repeated key 'checker'$"):
        parse_corpus(path, "trajectories")


def test_a_verdict_that_does_not_check_is_named_with_its_trajectory():
    row = {"trajectory_id": "t1", "question_id": "q1", "teacher_id": "t", "sample_index": 0,
           "text": "x", "verdict": {"status": "maybe", "checker": "rule"}}
    with pytest.raises(CorpusError, match=r"^trajectory t1: verdict: verdict: status: must be"):
        TrajectoryRecord.from_dict(row)
    # the first field in declaration order that does not check is the one named
    del row["text"]
    with pytest.raises(CorpusError, match=r"^trajectory t1: text: missing$"):
        TrajectoryRecord.from_dict(row)


def test_verdict_invariants():
    VerificationVerdict("malformed_format", "format").validate()
    with pytest.raises(CorpusError):
        VerificationVerdict("malformed_format", "rule").validate()
    with pytest.raises(CorpusError):
        VerificationVerdict("correct", "format").validate()
    with pytest.raises(CorpusError):
        VerificationVerdict("overlength", "judge").validate()


def test_pass_rate_stats_exactness():
    stats = PassRateStats("q", runs=16, successes=12)
    stats.validate()
    assert stats.pass_rate * 16 == 12
    with pytest.raises(CorpusError):
        PassRateStats("q", runs=16, successes=17).validate()


def test_content_hash_order_insensitive_and_field_sensitive(tmp_path):
    q = make_question(5)
    a = make_trajectory(q, 0, well_formed_text(q, 0))
    b = make_trajectory(q, 1, well_formed_text(q, 1))
    assert content_hash([a, b]) == content_hash([b, a])
    # the lines write_corpus wrote hash as their records do
    lines = write_corpus(tmp_path / "q.jsonl", [q]) + write_corpus(tmp_path / "t.jsonl", [b, a])
    assert content_hash([q, b, a], lines) == content_hash([a, q, b])
    mutated = make_trajectory(q, 1, well_formed_text(q, 1) + " ")
    assert content_hash([a, b]) != content_hash([a, mutated])


def _shuffled_corpus(size: int) -> list:
    """Questions with eight trajectories each, of about `size` canonical
    bytes in all, some of them outside ASCII, in a shuffled order."""
    rng = random.Random(11)
    records, total, i = [], 0, 0
    while total < size:
        q = make_question(i)
        records.append(q)
        for j in range(8):
            steps = " ".join(rng.choice(("x = 2y;", "∑ a_i = 4;", "so b ≥ 3;", "then 7."))
                             for _ in range(300))
            records.append(make_trajectory(q, j, well_formed_text(q, j).replace(
                "reason step;", steps, 1)))
            total += len(records[-1].text)
        i += 1
    rng.shuffle(records)
    return records


_HASHES = {
    "content_hash": lambda records, lines: content_hash(records),
    "content_hash of lines": content_hash,
    "write_manifest": lambda records, lines: write_manifest(
        "raw", records, created_at="x").content_hash,
    "write_manifest of lines": lambda records, lines: write_manifest(
        "raw", records, created_at="x", lines=lines).content_hash,
}


@pytest.mark.parametrize("call", _HASHES)
def test_hashing_a_corpus_builds_no_copy_of_it(call):
    # the lines are hashed one at a time, in order of kind and key
    records = _shuffled_corpus(2_000_000)
    lines = [dumps_record(r) for r in records]
    size = sum(len(line.encode("utf-8")) for line in lines)
    tracemalloc.start()
    try:
        digest = _HASHES[call](records, lines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == reference_content_hash(records)
    assert peak < size / 4, f"{call} peaked at {peak} bytes over {size} bytes of lines"


def test_content_hash_is_that_of_the_joined_lines():
    assert content_hash([]) == reference_content_hash([]) == hashlib.sha256(b"").hexdigest()
    assert write_manifest("raw", [], created_at="x").content_hash == content_hash([])
    q = make_question(3)
    records = [make_trajectory(q, 1, "b"), q, make_trajectory(make_question(1), 0, "ä")]
    assert content_hash(records) == reference_content_hash(records)
    assert content_hash(records, [dumps_record(r) for r in records]) == content_hash(records)


def test_write_manifest_counts_and_determinism():
    q = make_question(6)
    trajectories = [make_trajectory(q, j, well_formed_text(q, j)) for j in range(4)]
    raw = write_manifest("raw", [q] + trajectories, config={"seed": 1},
                         created_at="2026-01-01T00:00:00+00:00")
    assert raw.question_count == 1
    assert raw.trajectory_count == 4
    again = write_manifest("raw", [q] + trajectories, config={"seed": 1},
                           created_at="2026-01-01T00:00:00+00:00")
    assert raw.content_hash == again.content_hash
    assert raw.to_dict() == again.to_dict()


def test_write_manifest_empty_set_is_flagged():
    manifest = write_manifest("raw", [], created_at="2026-01-01T00:00:00+00:00")
    assert manifest.question_count == 0
    assert manifest.trajectory_count == 0
    assert "empty record set" in manifest.notes


def test_manifest_save_load_and_lineage(tmp_path):
    q = make_question(8)
    trajectories = [make_trajectory(q, j, well_formed_text(q, j)) for j in range(3)]
    raw = write_manifest("raw", [q] + trajectories)
    right = write_manifest("right", trajectories, parent=raw)
    hard = write_manifest("right_hard", trajectories[:2], parent=right)
    diverse = write_manifest("right_hard_diverse", trajectories[:1], parent=hard)
    path = tmp_path / "m.json"
    save_manifest(diverse, path)
    loaded = load_manifest(path)
    assert loaded == diverse
    assert raw.parent_manifest is None
    assert right.parent_manifest == raw.content_hash
    assert hard.parent_manifest == right.content_hash
    assert loaded.parent_manifest == hard.content_hash


@pytest.mark.parametrize("field,value", [
    ("question_count", "twelve"), ("trajectory_count", -1), ("stage", "cooked"),
    ("config_snapshot", []), ("notes", "none"), ("parent_manifest", 3), ("content_hash", None),
])
def test_load_manifest_names_a_field_of_the_wrong_type(tmp_path, field, value):
    path = tmp_path / "manifest_right.json"
    save_manifest(write_manifest("raw", [make_question(9)], config={"seed": 1}), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data[field] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_manifest(path)
    assert str(path) in str(err.value) and field in str(err.value)


def test_load_manifest_names_a_missing_field(tmp_path):
    path = tmp_path / "manifest_raw.json"
    save_manifest(write_manifest("raw", [make_question(9)]), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["content_hash"]
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CorpusError, match="content_hash: missing"):
        load_manifest(path)


def test_load_manifest_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "manifest_raw.json"
    save_manifest(write_manifest("raw", [make_question(9)]), path)
    path.write_text(path.read_text(encoding="utf-8").replace("{", '{"stage": "mixed",', 1),
                    encoding="utf-8")
    with pytest.raises(CorpusError, match="is not a manifest: repeated key 'stage'"):
        load_manifest(path)


def test_manifest_from_dict_round_trip():
    m = CorpusManifest(stage="raw", question_count=1, trajectory_count=2,
                       config_snapshot={"seed": 3}, content_hash="abc",
                       parent_manifest=None, created_at="t", notes=[])
    assert CorpusManifest.from_dict(m.to_dict()) == m


class TestInterruptedWrites:
    """A write that fails partway leaves the old file as it was and no
    temp file beside it."""

    def test_corpus(self, tmp_path):
        q = make_question(2)
        trajectories = [make_trajectory(q, j, well_formed_text(q, j)) for j in range(4)]
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, trajectories[:2])
        old = path.read_bytes()

        def failing():
            yield from trajectories
            raise OSError("disk full")

        with pytest.raises(OSError):
            write_corpus(path, failing())
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
        lines = write_corpus(path, trajectories)
        assert len(lines) == 4 and lines == path.read_text(encoding="utf-8").splitlines()
        assert parse_corpus(path, "trajectories") == trajectories

    def test_manifest(self, tmp_path):
        m = CorpusManifest(stage="raw", question_count=1, trajectory_count=2,
                           config_snapshot={"seed": 3}, content_hash="abc")
        path = tmp_path / "manifest_raw.json"
        save_manifest(m, path)
        old = path.read_bytes()
        # json.dump fails partway, at a value it cannot encode
        broken = CorpusManifest(stage="raw", question_count=1, trajectory_count=2,
                                config_snapshot={"seed": object()}, content_hash="def")
        with pytest.raises(TypeError):
            save_manifest(broken, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["manifest_raw.json"]

    def test_report(self, tmp_path):
        path = tmp_path / "diversity_report.json"
        write_json(path, {"p": 2, "question_count": 6})
        old = path.read_bytes()
        # json.dump fails partway, at the value it cannot encode
        with pytest.raises(TypeError):
            write_json(path, {"p": 2, "question_count": object()})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["diversity_report.json"]
