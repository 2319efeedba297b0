"""Pipeline orchestration: sample -> filter -> compress -> diversify -> mix
-> stats, with a manifest per stage and structured JSONL event logs.

Corpus outputs and manifests are deterministic for a fixed config with mock
clients; logs and the request cache live under logs/ and .cache/ and carry
timing, so they are excluded from output-tree comparisons.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

from . import diagnostics
from .clients import (CachingClient, Client, ClientError, HttpClient, JudgeRequest,
                      MockClient, RetryPolicy, map_concurrent)
from .compress import RolloutCheckpoint, rollout_settings, select_hard, student_rollout
from .config import manifest_snapshot, validate_config
from .diversity import diversify_corpus
from .filtering import FilterConfig, candidate_answer, effective_token_len, run_quality_gate
from .mixer import compose_mix
from .records import (EPOCH_ISO, STAGES, CorpusError, CorpusManifest, PassRateStats,
                      QuestionRecord, TrajectoryRecord, content_hash, load_manifest,
                      parse_corpus, save_manifest, write_corpus, write_manifest)
from .teacher import sample_teacher

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_CLIENT = 4

# The stages that call the model, run as one chain of steps per question.
CHAIN_STAGES = ("sample", "filter", "compress")
# In http mode, chains run at once per request the wire allows: a chain
# that sleeps out a backoff, waits on the cache or gates its answers leaves
# its slot on the wire to another.
CHAINS_PER_SLOT = 8


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


class EventLog:
    """JSONL event stream with stage, ids, and timing fields."""

    def __init__(self, path: Path):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8", newline="\n")

    def emit(self, stage: str, event: str, **fields: Any) -> None:
        row = {"ts": datetime.now(timezone.utc).isoformat(), "stage": stage,
               "event": event, **fields}
        self._fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


@dataclass
class PipelineResult:
    exit_code: int
    out_dir: Path
    manifests: dict[str, CorpusManifest] = field(default_factory=dict)
    failed_stage: str | None = None
    error: str | None = None


def build_client(cfg: dict[str, Any], out_dir: Path) -> CachingClient:
    client_cfg = cfg["client"]
    inner: Client
    if client_cfg["mode"] == "mock":
        inner = MockClient(fixtures=client_cfg["fixtures"], seed=cfg["seed"])
    else:
        inner = HttpClient(base_url=client_cfg["base_url"],
                           retry=RetryPolicy(budget=client_cfg["retry_budget"]),
                           max_in_flight=client_cfg["max_in_flight"])
    cache_dir = (client_cfg["cache_dir"] or os.environ.get("DED_CACHE_DIR")
                 or (out_dir / ".cache"))
    return CachingClient(inner, cache_dir)


# A run that starts after sample reads the output of the stage before its
# first stage from out_dir: stage -> (that stage's manifest, its trajectories).
_PARENT_OUTPUT = {"filter": ("raw", "raw_trajectories.jsonl"),
                  "compress": ("right", "right_trajectories.jsonl"),
                  "diversify": ("right_hard", "right_hard_trajectories.jsonl")}


def _read_parent_output(out: Path, stage: str, known: dict[str, CorpusManifest],
                        questions: list[QuestionRecord]) -> tuple[list[QuestionRecord],
                                                                  list[TrajectoryRecord]]:
    """The questions and trajectories `stage` reads when the stage before it
    did not run in this invocation, refused unless they are the bytes that
    stage's manifest describes."""
    parent, path = _PARENT_OUTPUT[stage]
    if stage == "diversify":
        questions = parse_corpus(out / "right_hard_questions.jsonl", "questions")
    trajectories = parse_corpus(out / path, "trajectories")
    # the right manifest covers its trajectories only; raw's and right_hard's
    # also cover the questions they were built on
    covered = trajectories if parent == "right" else questions + trajectories
    manifest = known.get(parent)
    if manifest is None or content_hash(covered) != manifest.content_hash:
        raise StageError(stage, CorpusError(
            f"{path} does not match manifest_{parent}.json; run the stages before "
            f"{stage} again"))
    return questions, trajectories


def _filter_config(cfg: dict[str, Any]) -> FilterConfig:
    return FilterConfig(max_token_len=cfg["max_token_len"],
                        require_single_think_pair=cfg["require_single_think_pair"],
                        token_estimator=cfg["token_estimator"])


class _EventBuffer:
    """A chain's events, held back until the pipeline logs them in order."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, str, dict[str, Any]]] = []

    def emit(self, stage: str, event: str, **fields: Any) -> None:
        self.rows.append((stage, event, fields))


def _adjudicate(gate_needs_judge: list[TrajectoryRecord],
                questions: dict[str, QuestionRecord],
                client: Client,
                log: EventLog | _EventBuffer) -> tuple[list[TrajectoryRecord],
                                                       list[TrajectoryRecord],
                                                       list[TrajectoryRecord]]:
    """Judge queued trajectories in order. A client failure keeps its item
    queued rather than fabricating a verdict, and is logged."""
    kept, rejected, still_queued = [], [], []
    buckets = {"correct": kept, "incorrect": rejected}
    for t in gate_needs_judge:
        question = questions[t.question_id]
        try:
            verdict = client.judge(JudgeRequest(
                question=question.prompt,
                candidate_answer=candidate_answer(t.text) or "(empty)",
                ground_truth=str(question.ground_truth or "unspecified")))
        except ClientError as exc:
            log.emit("filter", "judge_error", question_id=t.question_id,
                     trajectory_id=t.trajectory_id, error=str(exc))
            still_queued.append(t)
            continue
        buckets.get(verdict.status, still_queued).append(replace(t, verdict=verdict))
    return kept, rejected, still_queued


@dataclass
class _Chain:
    """One question's model-calling steps, and what each step produced."""

    question: QuestionRecord
    trajectories: list[TrajectoryRecord]  # the next step's input
    sampled: list[TrajectoryRecord] = field(default_factory=list)
    kept: list[TrajectoryRecord] = field(default_factory=list)
    rejected: list[TrajectoryRecord] = field(default_factory=list)
    queued: list[TrajectoryRecord] = field(default_factory=list)
    events: _EventBuffer = field(default_factory=_EventBuffer)
    stats: PassRateStats | None = None
    ends: dict[str, float] = field(default_factory=dict)  # stage -> step end
    failure: tuple[int, Exception] | None = None  # (step index, error)


def _chain_steps(cfg: dict[str, Any], client: dict[str, CachingClient],
                 qmap: dict[str, QuestionRecord], fconfig: FilterConfig,
                 checkpoint_path: Path) -> list[tuple[str, Callable[[_Chain], None]]]:
    """(stage, step) for each configured stage of CHAIN_STAGES, in order.
    `client` maps each stage to the client its calls go through."""
    checkpoint: list[RolloutCheckpoint] = []
    checkpoint_lock = threading.Lock()

    def sample(chain: _Chain) -> None:
        chain.sampled = chain.trajectories = sample_teacher(
            [chain.question], client["sample"], cfg["teacher_id"],
            cfg["samples_per_question"], temperature=cfg["temperature"], seed=cfg["seed"])

    def judge(chain: _Chain) -> None:
        gate = run_quality_gate(chain.trajectories, [chain.question], fconfig)
        kept, rejected, chain.queued = _adjudicate(gate.needs_judge, qmap, client["filter"],
                                                   chain.events)
        chain.trajectories = chain.kept = gate.kept + kept
        chain.rejected = gate.rejected + rejected

    def roll_out(chain: _Chain) -> None:
        if not chain.trajectories:
            return
        with checkpoint_lock:  # the first roll-out reads it, so a bad file fails compress
            if not checkpoint:
                checkpoint.append(RolloutCheckpoint(checkpoint_path, rollout_settings(
                    client["compress"], cfg["student_id"], cfg["runs"],
                    cfg["temperature"], cfg["seed"])))
        chain.stats = student_rollout(
            [chain.question], client["compress"], runs=cfg["runs"],
            student_id=cfg["student_id"], temperature=cfg["temperature"],
            seed=cfg["seed"], checkpoint=checkpoint[0])[0]

    steps = {"sample": sample, "filter": judge, "compress": roll_out}
    return [(stage, steps[stage]) for stage in CHAIN_STAGES if stage in cfg["stages"]]


def _run_chains(chains: list[_Chain], steps: list[tuple[str, Callable[[_Chain], None]]],
                width: int) -> tuple[str, Exception] | None:
    """Run every chain's steps in order, up to `width` chains at once.

    Once a step fails, no step of its stage or a later one starts in any
    chain, while earlier stages still run for every question. Returns the
    earliest failed stage and its error, the first question's on a tie.
    """
    limit = len(steps)
    lock = threading.Lock()

    def run(chain: _Chain) -> None:
        nonlocal limit
        for index, (stage, step) in enumerate(steps):
            if index >= limit:
                return
            try:
                step(chain)
            except Exception as exc:  # noqa: BLE001 - reported as its stage's failure
                chain.failure = (index, exc)
                with lock:
                    limit = min(limit, index)
                return
            chain.ends[stage] = time.perf_counter()

    map_concurrent(run, chains, max_in_flight=width)
    failures = [c.failure for c in chains if c.failure is not None]
    if not failures:
        return None
    index, exc = min(failures, key=lambda f: f[0])
    return steps[index][0], exc


def run_pipeline(config: str | Path | dict[str, Any],
                 out_dir: str | Path | None = None) -> PipelineResult:
    """Execute the configured stages in order, writing a manifest per stage.

    Sample, filter and compress make the model calls. They run as one chain
    per question, several chains at once in http mode; their outputs are
    then written stage by stage as if each stage had run alone.
    """
    cfg = validate_config(config)
    out = Path(out_dir or cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    log = EventLog(out / "logs" / "events.jsonl")
    client = build_client(cfg, out)
    deterministic = cfg["client"]["mode"] == "mock"
    stamp = cfg["timestamp"] or (EPOCH_ISO if deterministic
                                 else datetime.now(timezone.utc).isoformat())
    snapshot = manifest_snapshot(cfg)
    fconfig = _filter_config(cfg)
    result = PipelineResult(exit_code=EXIT_OK, out_dir=out)
    stages = cfg["stages"]
    phase = [s for s in CHAIN_STAGES if s in stages]

    questions: list[QuestionRecord] = []
    trajectories: list[TrajectoryRecord] = []
    # manifests from earlier partial runs let any stage suffix resume
    known: dict[str, CorpusManifest] = {}
    for stage in STAGES:
        prior = out / f"manifest_{stage}.json"
        if prior.exists():
            known[stage] = load_manifest(prior)

    def save(stage: str, manifest: CorpusManifest) -> None:
        known[stage] = manifest
        result.manifests[stage] = manifest
        save_manifest(manifest, out / f"manifest_{stage}.json")

    current_stage = ""
    try:
        if cfg["questions"]:
            current_stage = "ingest"
            questions = parse_corpus(cfg["questions"], "questions")
            log.emit("ingest", "loaded", count=len(questions), path=str(cfg["questions"]))

        first = next((s for s in ("sample", *_PARENT_OUTPUT) if s in stages), None)
        if first in _PARENT_OUTPUT:
            current_stage = first
            questions, trajectories = _read_parent_output(out, first, known, questions)

        qmap = {q.question_id: q for q in questions}

        if phase:
            t0 = time.perf_counter()
            current_stage = phase[0]
            if "sample" in stages and not questions:
                raise StageError("sample", ValueError("no questions configured"))
            orphans = [t for t in trajectories if t.question_id not in qmap]
            if "filter" in stages and orphans:
                current_stage = "filter"
                run_quality_gate(orphans, questions, fconfig)  # raises, naming them
            views = {stage: client.view() for stage in phase}
            by_question: dict[str, list[TrajectoryRecord]] = {}
            for t in trajectories:
                by_question.setdefault(t.question_id, []).append(t)
            chains = [_Chain(q, by_question.get(q.question_id, []))
                      for q in sorted(questions, key=lambda q: q.question_id)]
            width = 1 if deterministic else min(CHAINS_PER_SLOT * client.max_in_flight,
                                                len(chains))
            failure = _run_chains(chains, _chain_steps(
                cfg, views, qmap, fconfig, out / ".cache" / "rollout_checkpoint.jsonl"),
                width)
            bound = t0

            def enter(stage: str) -> None:
                nonlocal current_stage
                current_stage = stage
                if failure is not None and failure[0] == stage:
                    raise failure[1]

            def stage_done(stage: str, **fields: Any) -> None:
                """Log the stage's own client counts and its share of the phase:
                up to its last step's end, and for the phase's last stage, up
                to now."""
                nonlocal bound
                end = (time.perf_counter() if stage == phase[-1] else
                       max([bound] + [c.ends[stage] for c in chains if stage in c.ends]))
                log.emit(stage, "stage_done", **fields, cache_hits=views[stage].hits,
                         cache_misses=views[stage].misses,
                         duration_ms=round(1000 * (end - bound), 3))
                bound = end

            if "sample" in stages:
                enter("sample")
                trajectories = [t for c in chains for t in c.sampled]
                for c in chains:
                    log.emit("sample", "question_done", question_id=c.question.question_id,
                             samples=cfg["samples_per_question"])
                write_corpus(out / "raw_trajectories.jsonl", trajectories)
                save("raw", write_manifest("raw", questions + trajectories,
                                           config=snapshot, created_at=stamp))
                stage_done("sample", trajectories=len(trajectories))

            if "filter" in stages:
                enter("filter")
                kept, rejected, still_queued = (
                    sorted((t for c in chains for t in getattr(c, bucket)),
                           key=lambda t: t.trajectory_id)
                    for bucket in ("kept", "rejected", "queued"))
                for where, event, fields in sorted(
                        (row for c in chains for row in c.events.rows),
                        key=lambda row: row[2]["trajectory_id"]):
                    log.emit(where, event, **fields)
                write_corpus(out / "right_trajectories.jsonl", kept)
                write_corpus(out / "rejected_trajectories.jsonl", rejected)
                write_corpus(out / "needs_judge.jsonl", still_queued)
                save("right", write_manifest("right", kept, parent=known.get("raw"),
                                             config=snapshot, created_at=stamp))
                trajectories = kept
                stage_done("filter", kept=len(kept), rejected=len(rejected),
                           needs_judge=len(still_queued))

            if "compress" in stages:
                enter("compress")
                rolled = [c for c in chains if c.stats is not None]
                rollout_questions = [c.question for c in rolled]
                with open(out / "pass_rates.jsonl", "w", encoding="utf-8",
                          newline="\n") as fh:
                    for c in rolled:
                        fh.write(json.dumps(c.stats.to_dict(), sort_keys=True) + "\n")
                retained, report = select_hard(rollout_questions, [c.stats for c in rolled],
                                               cfg["pass_threshold"])
                retained_qids = {q.question_id for q in retained}
                trajectories = [t for t in trajectories if t.question_id in retained_qids]
                write_corpus(out / "right_hard_questions.jsonl", retained)
                write_corpus(out / "right_hard_trajectories.jsonl", trajectories)
                with open(out / "compression_report.json", "w", encoding="utf-8",
                          newline="\n") as fh:
                    json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                save("right_hard", write_manifest(
                    "right_hard", retained + trajectories, parent=known.get("right"),
                    config=snapshot, created_at=stamp))
                questions = retained
                stage_done("compress", retained=len(retained))

        if "diversify" in stages:
            current_stage = "diversify"
            t0 = time.perf_counter()
            selected, report = diversify_corpus(
                trajectories, p=cfg["diverse_per_question"], unit=cfg["unit"],
                cap_ratio=cfg["cap_ratio"], questions=questions,
                workers=cfg["workers"])
            engine = report.pop("engine")
            write_corpus(out / "right_hard_diverse_trajectories.jsonl", selected)
            with open(out / "diversity_report.json", "w", encoding="utf-8",
                      newline="\n") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            save("right_hard_diverse", write_manifest(
                "right_hard_diverse", selected, parent=known.get("right_hard"),
                config=snapshot, created_at=stamp))
            trajectories = selected
            log.emit("diversify", "stage_done", selected=len(selected), **engine,
                     duration_ms=round(1000 * (time.perf_counter() - t0), 3))

        if "mix" in stages and cfg["mix_sources"]:
            current_stage = "mix"
            t0 = time.perf_counter()
            sources = []
            for src in cfg["mix_sources"]:
                records = parse_corpus(src["path"], "trajectories")
                sources.append((records, src["take"]))
            mixed, provenance = compose_mix(sources, seed=cfg["seed"])
            write_corpus(out / "mixed_trajectories.jsonl", mixed)
            mix_snapshot = dict(snapshot)
            mix_snapshot["mix"] = provenance
            save("mixed", write_manifest("mixed", mixed, config=mix_snapshot,
                                         created_at=stamp))
            log.emit("mix", "stage_done", mixed=len(mixed),
                     duration_ms=round(1000 * (time.perf_counter() - t0), 3))

        if "stats" in stages:
            current_stage = "stats"
            t0 = time.perf_counter()
            entropy = None
            pca = None
            lengths = None
            if cfg["logprobs"]:
                entropy = diagnostics.entropy_summary(
                    parse_corpus(cfg["logprobs"], "logprobs"))
            if cfg["embeddings"]:
                embeddings = parse_corpus(cfg["embeddings"], "embeddings")
                before = [e for e in embeddings if e.phase == "before"]
                after = [e for e in embeddings if e.phase == "after"]
                if before and after:
                    pca = diagnostics.pca_shift(before, after, k=cfg["pca_components"])
            if trajectories:
                estimated = any(t.token_len is None for t in trajectories)
                lens = [effective_token_len(t, fconfig)[0] for t in trajectories]
                lengths = diagnostics.length_summary(trajectories, lengths=lens,
                                                     estimated=estimated)
            ordered = [known[s] for s in
                       ("raw", "right", "right_hard", "right_hard_diverse", "mixed")
                       if s in known]
            diagnostics.emit_report(ordered, out, entropy=entropy,
                                    lengths=lengths, pca=pca)
            log.emit("stats", "stage_done",
                     duration_ms=round(1000 * (time.perf_counter() - t0), 3))

    except StageError as exc:
        log.emit(exc.stage, "stage_failed", error=str(exc.cause))
        result.exit_code = EXIT_STAGE
        result.failed_stage = exc.stage
        result.error = str(exc.cause)
    except ClientError as exc:
        log.emit(current_stage, "client_failed", error=str(exc))
        result.exit_code = EXIT_CLIENT
        result.failed_stage = current_stage
        result.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - stage isolation boundary
        log.emit(current_stage, "stage_failed", error=str(exc))
        result.exit_code = EXIT_STAGE
        result.failed_stage = current_stage
        result.error = str(exc)
    finally:
        log.emit("pipeline", "done", exit_code=result.exit_code,
                 cache_hits=client.hits, cache_misses=client.misses)
        log.close()
    return result


def tree_hash(root: str | Path, exclude: tuple[str, ...] = ("logs", ".cache")) -> str:
    """SHA-256 over every output file path and its bytes, excluding logs and
    cache (operational telemetry with wall-clock timing)."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if any(part in exclude for part in rel.parts):
            continue
        if path.is_file():
            digest.update(str(rel).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()
