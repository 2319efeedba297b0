"""Seeded input generators for the `ded run` benchmark workloads.

Each generator writes, into one directory, every file the pipeline reads:
questions, the mock backend's fixture table, logprob and embedding dumps,
two mix sources, and a mock-mode config. The same seed always gives the
same bytes. Only the stdlib and numpy are used.

Every workload runs all six stages, so every per-stage timing is measured
on every workload; the sizes decide which stage dominates.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

TIMESTAMP = "2025-01-01T00:00:00+00:00"
# judge-fanout's stub: fixed sleep per request, and how many teacher requests
# get one HTTP 429 (each costs the client one retry and a 0.5 s backoff)
STUB_LATENCY_S = 0.02
THROTTLED_REQUESTS = 2
TEACHER = "t-bench"
STUDENT = "s-bench"

_WORDS = ["lemma", "bound", "induct", "case", "sum", "solve", "expand",
          "factor", "root", "prime", "series", "graph", "modulo", "angle"]


@dataclass(frozen=True)
class Workload:
    name: str
    stresses: str
    generate: Callable[[Path, int], dict[str, Any]]
    # http workloads talk to the loopback stub; the rest use the mock backend
    http: bool = False


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _write_jsonl(path: Path, rows: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _question(qid: str, domain: str, gt: str, i: int) -> dict[str, Any]:
    return {"question_id": qid, "domain": domain, "ground_truth": gt,
            "prompt": f"Problem {qid}: evaluate construction number {i}.",
            "source": "perfbench", "tags": [domain]}


def _filler(rng: random.Random, words: int) -> str:
    return " ".join(rng.choices(_WORDS, k=words))


def _side_inputs(out: Path, rng: random.Random, np_rng: np.random.Generator,
                 mix_questions: int, logprob_rows: int, embeddings: int,
                 dim: int) -> dict[str, Any]:
    """Mix sources, logprob and embedding dumps for the mix and stats stages."""
    mix_sources = []
    for src in ("a", "b"):
        rows = []
        for qi in range(mix_questions):
            for j in range(2):
                text = (f"<think>mix {src} {qi} route {j}: {_filler(rng, 12)}</think>"
                        f"The answer is \\boxed{{{rng.randint(1, 999)}}}.")
                rows.append({"trajectory_id": f"mix{src}-{qi:05d}:{TEACHER}:{j:03d}",
                             "question_id": f"mix{src}-{qi:05d}", "teacher_id": TEACHER,
                             "sample_index": j, "text": text, "token_len": None,
                             "char_len": len(text)})
        path = out / f"mix_{src}.jsonl"
        _write_jsonl(path, rows)
        mix_sources.append({"path": str(path), "take": mix_questions // 2})

    probs = np.sort(np_rng.dirichlet(np.full(6, 0.6), size=logprob_rows), axis=1)[:, ::-1]
    rows = []
    for k in range(logprob_rows):
        p = [float(x) for x in probs[k]]
        # a vanishing draw would fail the (0, 1] probability check
        p = [max(x, 1e-12) for x in p[:5]] + [0.0]
        p[5] = max(0.0, 1.0 - sum(p[:5]))
        rows.append({"trajectory_id": f"lp-{k // 200:05d}", "position": k % 200,
                     "top_k": [[f"tok{j}", p[j]] for j in range(5)],
                     "residual_mass": p[5]})
    logprobs = out / "logprobs.jsonl"
    _write_jsonl(logprobs, rows)

    before = np_rng.normal(size=(embeddings, dim))
    after = before + np_rng.normal(loc=0.5, size=(embeddings, dim))
    rows = ([{"item_id": f"e{k:05d}", "phase": "before", "vector": before[k].tolist()}
             for k in range(embeddings)] +
            [{"item_id": f"e{k:05d}", "phase": "after", "vector": after[k].tolist()}
             for k in range(embeddings)])
    emb = out / "embeddings.jsonl"
    _write_jsonl(emb, rows)
    return {"mix_sources": mix_sources, "logprobs": str(logprobs),
            "embeddings": str(emb)}


def _config(out: Path, seed: int, questions: Path, fixtures: Path,
            side: dict[str, Any], **overrides: Any) -> dict[str, Any]:
    cfg = {
        "questions": str(questions),
        "out_dir": str(out / "ded_out"),
        "teacher_id": TEACHER,
        "student_id": STUDENT,
        "stages": ["sample", "filter", "compress", "diversify", "mix", "stats"],
        "seed": seed,
        "timestamp": TIMESTAMP,
        "client": {"mode": "mock", "fixtures": str(fixtures)},
        **side,
    }
    cfg.update(overrides)
    return cfg


def _write_inputs(out: Path, questions: list[dict], fixtures: list[dict]) -> tuple[Path, Path]:
    qpath, fpath = out / "questions.jsonl", out / "fixtures.jsonl"
    _write_jsonl(qpath, questions)
    _write_jsonl(fpath, fixtures)
    return qpath, fpath


def _code_answer(c: int, sign: str, spaces: int) -> str:
    return f"lambda x:{' ' * spaces}x {sign} {c}"


def _ground_truth(code: bool, c: int) -> str:
    return _code_answer(c, "+", 1) if code else str(7 * c + 3)


def _tail(code: bool, c: int, ok: bool, spaces: int = 1) -> str:
    """Visible answer after the think block. Code answers go to the judge;
    `spaces` changes their text, and so their cache key, but not their
    normalized form."""
    if code:
        return _code_answer(c, "+" if ok else "-", spaces)
    return f"The answer is \\boxed{{{7 * c + 3 if ok else 7 * c + 4}}}."


def _patterns(rng: random.Random, n: int) -> list[int]:
    """0..n-1 in seeded order. A question's domain, planted wrong answers and
    student pass count are functions of its pattern, so the seed moves them
    between questions but every seed has the same mix, and so the same work."""
    patterns = list(range(n))
    rng.shuffle(patterns)
    return patterns


def _student(code: bool, c: int, runs: int, right: int) -> list[str]:
    return [f"<think>student try {r}.</think>{_tail(code, c, r < right, spaces=2 + r)}"
            for r in range(runs)]


def gen_diverse_long(out: Path, seed: int) -> dict[str, Any]:
    """Eight questions (two of them code) with eight ~10k-character
    trajectories each.

    Trajectories follow the shape of the acceptance suite's scaling corpus:
    a shared opening and closing around a 1150-word core with 30 word
    substitutions per trajectory. All teacher answers are right and every
    student answer is wrong, so all eight questions reach diversify. Eight
    questions fill both of pool.map's chunks of four on two workers.
    """
    rng = random.Random(f"diverse-long:{seed}")
    np_rng = np.random.default_rng([seed, 1])
    questions, fixtures = [], []
    runs = 4
    for qi in range(8):
        qid = f"q{qi:03d}"
        code = qi % 4 == 1
        c = rng.randint(2, 999)
        q = _question(qid, "code" if code else "math", _ground_truth(code, c), qi)
        questions.append(q)
        opening = f"Restating problem {qid}: {_filler(rng, 260)}. "
        closing = f" Therefore {_filler(rng, 140)} holds."
        core = rng.choices(_WORDS, k=1150)
        responses = []
        for _ in range(8):
            mutated = list(core)
            for _ in range(30):
                mutated[rng.randrange(len(mutated))] = rng.choice(_WORDS)
            body = opening + " ".join(mutated) + closing
            responses.append(f"<think>{body}</think>{_tail(code, c, True)}")
        fixtures.append({"kind": "sample", "teacher_id": TEACHER,
                         "prompt": q["prompt"], "responses": responses})
        fixtures.append({"kind": "sample", "teacher_id": STUDENT, "prompt": q["prompt"],
                         "responses": _student(code, c, runs, right=0)})
    qpath, fpath = _write_inputs(out, questions, fixtures)
    side = _side_inputs(out, rng, np_rng, mix_questions=20, logprob_rows=400,
                        embeddings=100, dim=8)
    workers = nproc()
    return _config(out, seed, qpath, fpath, side, samples_per_question=8,
                   diverse_per_question=4, runs=runs, unit="char", cap_ratio=0.6,
                   workers=workers, client={"mode": "mock", "fixtures": str(fpath),
                                            "max_in_flight": workers})


def gen_judge_fanout(out: Path, seed: int) -> dict[str, Any]:
    """24 questions, half code, four short teacher samples and four student runs.

    Every code answer goes to the judge, in the filter stage and again in
    compress, and every question keeps at least one right teacher answer,
    so all 24 reach compress. Student pass counts run from 0 to 4 of 4, so
    some questions are compressed away and the rest reach diversify.
    """
    rng = random.Random(f"judge-fanout:{seed}")
    np_rng = np.random.default_rng([seed, 2])
    questions, fixtures = [], []
    samples, runs = 4, 4
    for qi, p in enumerate(_patterns(rng, 24)):
        qid = f"q{qi:03d}"
        code = p % 2 == 1
        c = rng.randint(2, 999)
        q = _question(qid, "code" if code else "math", _ground_truth(code, c), qi)
        questions.append(q)
        wrong = set(rng.sample(range(samples), (p // 2) % samples))
        responses = [f"<think>route {j} for {qid}: {_filler(rng, 40)}</think>"
                     f"{_tail(code, c, j not in wrong)}" for j in range(samples)]
        fixtures.append({"kind": "sample", "teacher_id": TEACHER,
                         "prompt": q["prompt"], "responses": responses})
        fixtures.append({"kind": "sample", "teacher_id": STUDENT, "prompt": q["prompt"],
                         "responses": _student(code, c, runs, p % (runs + 1))})
    qpath, fpath = _write_inputs(out, questions, fixtures)
    side = _side_inputs(out, rng, np_rng, mix_questions=20, logprob_rows=400,
                        embeddings=100, dim=8)
    return _config(out, seed, qpath, fpath, side, samples_per_question=samples,
                   diverse_per_question=2, runs=runs, max_token_len=2048,
                   client={"mode": "mock", "fixtures": str(fpath),
                           "max_in_flight": nproc()})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="diverse-long",
        stresses="diversity",
        generate=gen_diverse_long),
    Workload(
        name="judge-fanout",
        stresses="clients, filtering (adjudicate), compress",
        generate=gen_judge_fanout,
        http=True),
)}
