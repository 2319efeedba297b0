"""Pipeline orchestration: sample -> filter -> compress -> diversify -> mix
-> stats, with a manifest per stage and structured JSONL event logs.

`STAGE_TABLE` lists the stages in order, with what each one reads and writes.
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
from functools import partial
from pathlib import Path
from typing import Any, Callable

from . import diagnostics
from .clients import (CachingClient, Client, ClientError, HttpClient, JudgeRequest,
                      MockClient, RetryPolicy, map_concurrent)
from .compress import (CompressionReport, RolloutCheckpoint, rollout_settings, select_hard,
                       student_rollout)
from .config import manifest_snapshot, validate_config
from .diversity import diversify_corpus
from .filtering import FilterConfig, candidate_answer, effective_token_len, run_quality_gate
from .mixer import compose_mix
from .records import (EPOCH_ISO, STAGES, CorpusError, CorpusManifest, PassRateStats,
                      QuestionRecord, TrajectoryRecord, content_hash, load_manifest,
                      parse_corpus, replacing, save_manifest, write_corpus, write_json,
                      write_manifest)
from .teacher import sample_teacher

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_CLIENT = 4

# In http mode, chains run at once per request the wire allows: a chain
# that sleeps out a backoff, waits on the cache or gates its answers leaves
# its slot on the wire to another.
CHAINS_PER_SLOT = 8


class EventLog:
    """JSONL event stream with stage, ids, and timing fields."""

    def __init__(self, path: Path):
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


@dataclass
class _Run:
    """What the stages of one run share, and the corpus the last one left."""

    cfg: dict[str, Any]
    out: Path
    log: EventLog
    stamp: str
    result: PipelineResult
    known: dict[str, CorpusManifest] = field(default_factory=dict)  # manifests by stage
    questions: list[QuestionRecord] = field(default_factory=list)
    trajectories: list[TrajectoryRecord] = field(default_factory=list)
    chains: list[_Chain] = field(default_factory=list)
    checkpoint: RolloutCheckpoint | None = None  # opened by the first roll-out
    lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self.snapshot = manifest_snapshot(self.cfg)
        self.fconfig = FilterConfig(**{key: self.cfg[key] for key in (
            "max_token_len", "require_single_think_pair", "token_estimator")})

    def paths(self, names: tuple[str, ...]) -> list[Path]:
        return [self.out / name for name in names]

    def save(self, row: Stage, records: list, config: dict[str, Any] | None = None) -> None:
        manifest = write_manifest(row.manifest, records, parent=self.known.get(row.parent),
                                  config=config or self.snapshot, created_at=self.stamp)
        self.known[row.manifest] = self.result.manifests[row.manifest] = manifest
        save_manifest(manifest, self.out / f"manifest_{row.manifest}.json")


def _sample_step(run: _Run, client: Client, chain: _Chain) -> None:
    cfg = run.cfg
    chain.sampled = chain.trajectories = sample_teacher(
        [chain.question], client, cfg["teacher_id"], cfg["samples_per_question"],
        temperature=cfg["temperature"], seed=cfg["seed"])


def _judge_step(run: _Run, client: Client, chain: _Chain) -> None:
    gate = run_quality_gate(chain.trajectories, [chain.question], run.fconfig)
    kept, rejected, chain.queued = _adjudicate(
        gate.needs_judge, {chain.question.question_id: chain.question}, client, chain.events)
    chain.trajectories = chain.kept = gate.kept + kept
    chain.rejected = gate.rejected + rejected


def _roll_out_step(run: _Run, client: Client, chain: _Chain) -> None:
    if not chain.trajectories:
        return
    cfg = run.cfg
    with run.lock:  # the first roll-out reads it, so a bad file fails compress
        if run.checkpoint is None:
            run.checkpoint = RolloutCheckpoint(
                run.out / ".cache" / "rollout_checkpoint.jsonl", rollout_settings(
                    client, cfg["student_id"], cfg["runs"], cfg["temperature"], cfg["seed"]))
    chain.stats = student_rollout(
        [chain.question], client, runs=cfg["runs"], student_id=cfg["student_id"],
        temperature=cfg["temperature"], seed=cfg["seed"], checkpoint=run.checkpoint)[0]


# The write helpers of filter, compress and diversify, shared with the CLI.

def write_filtered(paths: list[Path], *corpora: list[TrajectoryRecord]) -> None:
    """Filter's kept, rejected and still-queued trajectories, in that order."""
    for path, records in zip(paths, corpora):
        write_corpus(path, records)


def write_hard(paths: list[Path], questions: list[QuestionRecord], stats: list[PassRateStats],
               tau: float) -> tuple[list[QuestionRecord], CompressionReport]:
    """The questions with a pass rate of at most tau, written after the pass rates."""
    with replacing(paths[0]) as fh:
        for s in stats:
            fh.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")
    retained, report = select_hard(questions, stats, tau)
    write_corpus(paths[1], retained)
    return retained, report


def write_diverse(paths: list[Path], trajectories: list[TrajectoryRecord],
                  **params: Any) -> tuple[list[TrajectoryRecord], dict[str, Any]]:
    """Diversify's selection and report, written; its engine telemetry is returned."""
    selected, report = diversify_corpus(trajectories, **params)
    engine = report.pop("engine")
    write_corpus(paths[0], selected)
    write_json(paths[1], report)
    return selected, engine


def _sample(run: _Run, row: Stage) -> dict[str, Any]:
    run.trajectories = [t for c in run.chains for t in c.sampled]
    for c in run.chains:
        run.log.emit("sample", "question_done", question_id=c.question.question_id,
                     samples=run.cfg["samples_per_question"])
    write_corpus(*run.paths(row.corpus), run.trajectories)
    run.save(row, run.questions + run.trajectories)
    return {"trajectories": len(run.trajectories)}


def _filter(run: _Run, row: Stage) -> dict[str, Any]:
    kept, rejected, still_queued = (
        sorted((t for c in run.chains for t in getattr(c, bucket)),
               key=lambda t: t.trajectory_id)
        for bucket in ("kept", "rejected", "queued"))
    for where, event, fields in sorted((r for c in run.chains for r in c.events.rows),
                                       key=lambda r: r[2]["trajectory_id"]):
        run.log.emit(where, event, **fields)
    write_filtered(run.paths(row.corpus + row.writes), kept, rejected, still_queued)
    run.save(row, kept)
    run.trajectories = kept
    return {"kept": len(kept), "rejected": len(rejected), "needs_judge": len(still_queued)}


def _compress(run: _Run, row: Stage) -> dict[str, Any]:
    rolled = [c for c in run.chains if c.stats is not None]
    questions_path, trajectories_path, rates_path, report_path = run.paths(
        row.corpus + row.writes)
    retained, report = write_hard([rates_path, questions_path], [c.question for c in rolled],
                                  [c.stats for c in rolled], run.cfg["pass_threshold"])
    retained_qids = {q.question_id for q in retained}
    run.trajectories = [t for t in run.trajectories if t.question_id in retained_qids]
    write_corpus(trajectories_path, run.trajectories)
    write_json(report_path, report.to_dict())
    run.save(row, retained + run.trajectories)
    run.questions = retained
    return {"retained": len(retained)}


def _diversify(run: _Run, row: Stage) -> dict[str, Any]:
    cfg = run.cfg
    selected, engine = write_diverse(
        run.paths(row.corpus + row.writes), run.trajectories, p=cfg["diverse_per_question"],
        unit=cfg["unit"], cap_ratio=cfg["cap_ratio"], questions=run.questions,
        workers=cfg["workers"])
    run.save(row, selected)
    return {"selected": len(selected), **engine}


def _mix(run: _Run, row: Stage) -> dict[str, Any] | None:
    if not run.cfg["mix_sources"]:
        return None
    mixed, provenance = compose_mix([(parse_corpus(src["path"], "trajectories"), src["take"])
                                     for src in run.cfg["mix_sources"]], seed=run.cfg["seed"])
    write_corpus(*run.paths(row.corpus), mixed)
    run.save(row, mixed, config={**run.snapshot, "mix": provenance})
    return {"mixed": len(mixed)}


def _stats(run: _Run, row: Stage) -> dict[str, Any]:
    cfg = run.cfg
    entropy = pca = lengths = None
    if cfg["logprobs"]:
        entropy = diagnostics.entropy_summary(parse_corpus(cfg["logprobs"], "logprobs"))
    if cfg["embeddings"]:
        embeddings = parse_corpus(cfg["embeddings"], "embeddings")
        before = [e for e in embeddings if e.phase == "before"]
        after = [e for e in embeddings if e.phase == "after"]
        if before and after:
            pca = diagnostics.pca_shift(before, after, k=cfg["pca_components"])
    # token lengths of the last corpus on disk of the raw ... right_hard_diverse lineage
    last = next((_WRITERS[s] for s in reversed(STAGES[:-1]) if s in run.known), None)
    trajectories = _read_corpus(run, last, row.name)[1] if last else []
    if trajectories:
        estimated = any(t.token_len is None for t in trajectories)
        lens = [effective_token_len(t, run.fconfig)[0] for t in trajectories]
        lengths = diagnostics.length_summary(trajectories, lengths=lens, estimated=estimated)
    diagnostics.emit_report([run.known[s] for s in STAGES if s in run.known], run.out,
                            entropy=entropy, lengths=lengths, pca=pca)
    return {}


@dataclass(frozen=True)
class Stage:
    """One row of the stage table; file names are relative to out_dir."""

    name: str                # in the config's `stages`
    manifest: str | None     # the manifest stage it writes
    parent: str | None       # the manifest stage whose corpus it reads
    corpus: tuple[str, ...]  # the files its manifest hashes, questions first
    writes: tuple[str, ...]  # its other files
    # writes them all; returns its `stage_done` fields, or None if it did nothing
    run: Callable[[_Run, Stage], dict[str, Any] | None]
    step: Callable[[_Run, Client, _Chain], None] | None = None  # its calls per question

    @property
    def outputs(self) -> tuple[str, ...]:
        manifest = (f"manifest_{self.manifest}.json",) if self.manifest else ()
        return self.corpus + self.writes + manifest


STAGE_TABLE = (
    Stage("sample", "raw", None, ("raw_trajectories.jsonl",), (), _sample, _sample_step),
    Stage("filter", "right", "raw", ("right_trajectories.jsonl",),
          ("rejected_trajectories.jsonl", "needs_judge.jsonl"), _filter, _judge_step),
    Stage("compress", "right_hard", "right",
          ("right_hard_questions.jsonl", "right_hard_trajectories.jsonl"),
          ("pass_rates.jsonl", "compression_report.json"), _compress, _roll_out_step),
    Stage("diversify", "right_hard_diverse", "right_hard",
          ("right_hard_diverse_trajectories.jsonl",), ("diversity_report.json",), _diversify),
    Stage("mix", "mixed", None, ("mixed_trajectories.jsonl",), (), _mix),
    Stage("stats", None, None, (),
          ("report.md", "tables/stage_ledger.csv", "tables/lengths.csv",
           "tables/entropy.csv", "tables/pca_shift.csv"), _stats),
)
_WRITERS = {row.manifest: row for row in STAGE_TABLE if row.manifest}


def _remove_replaced(run: _Run) -> None:
    """Remove the outputs of each stage the run replaces: those it runs, each later
    one that reads the corpus of one of those, and stats, which lists every manifest."""
    replaced: list[Stage] = []
    for row in STAGE_TABLE:
        if (row.name in run.cfg["stages"] or row.parent in {r.manifest for r in replaced}
                or (row.name == "stats" and replaced)):
            replaced.append(row)
            run.known.pop(row.manifest, None)
            for name in row.outputs:
                if (run.out / name).exists():
                    (run.out / name).unlink()
                    run.log.emit(row.name, "removed", path=name)


def _read_corpus(run: _Run, row: Stage, reader: str) -> tuple[list[QuestionRecord],
                                                              list[TrajectoryRecord]]:
    """`row`'s questions and trajectories, read back from out_dir for the
    stage `reader`, refused unless they are the bytes of `row`'s manifest."""
    *question_file, trajectory_file = row.corpus
    questions = (parse_corpus(run.out / question_file[0], "questions") if question_file
                 else run.questions)
    trajectories = parse_corpus(run.out / trajectory_file, "trajectories")
    # raw's manifest also covers the configured questions, right_hard's its own
    covered = questions + trajectories if question_file or not row.parent else trajectories
    manifest = run.known.get(row.manifest)
    if manifest is None or content_hash(covered) != manifest.content_hash:
        raise CorpusError(f"{trajectory_file} does not match manifest_{row.manifest}.json; "
                          f"run the stages before {reader} again")
    return questions, trajectories


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
    result = PipelineResult(exit_code=EXIT_OK, out_dir=out)
    run = _Run(cfg, out, log, stamp, result)
    rows = [row for row in STAGE_TABLE if row.name in cfg["stages"]]
    phase = [row for row in rows if row.step]
    # manifests from earlier partial runs let any stage suffix resume
    priors = {stage: out / f"manifest_{stage}.json" for stage in STAGES}
    run.known = {stage: load_manifest(p) for stage, p in priors.items() if p.exists()}

    current_stage = ""
    try:
        if cfg["questions"]:
            current_stage = "ingest"
            run.questions = parse_corpus(cfg["questions"], "questions")
            log.emit("ingest", "loaded", count=len(run.questions), path=str(cfg["questions"]))

        # a stage whose parent does not run here reads its corpus from out_dir;
        # the corpus stages run without a gap, so only the first one can
        first = next((row for row in rows if row.parent), None)
        if first is not None and _WRITERS[first.parent] not in rows:
            current_stage = first.name
            parent = _WRITERS[first.parent]
            if len(parent.corpus) == 1 and parent.parent:
                # the parent's manifest covers its trajectories only; the
                # configured questions are checked against raw's, which covers
                # them and raw's trajectories
                _read_corpus(run, _WRITERS[parent.parent], first.name)
            run.questions, run.trajectories = _read_corpus(run, parent, first.name)

        views = {row.name: client.view() for row in phase}
        bound = time.perf_counter()
        if phase:
            current_stage = phase[0].name
            if current_stage == "sample" and not run.questions:
                raise ValueError("no questions configured")
            qids = {q.question_id for q in run.questions}
            orphans = [t for t in run.trajectories if t.question_id not in qids]
            if current_stage == "filter" and orphans:
                run_quality_gate(orphans, run.questions, run.fconfig)  # raises, naming them
            by_question: dict[str, list[TrajectoryRecord]] = {}
            for t in run.trajectories:
                by_question.setdefault(t.question_id, []).append(t)
            run.chains = [_Chain(q, by_question.get(q.question_id, []))
                          for q in sorted(run.questions, key=lambda q: q.question_id)]
        width = 1 if deterministic else min(CHAINS_PER_SLOT * client.max_in_flight,
                                            len(run.chains))
        failure = _run_chains(run.chains, [
            (row.name, partial(row.step, run, views[row.name])) for row in phase], width)

        for row in rows:
            current_stage = row.name
            if failure is not None and failure[0] == row.name:
                raise failure[1]
            if row is rows[0]:  # before the run's first write
                _remove_replaced(run)
            if not row.step:
                bound = time.perf_counter()
            fields = row.run(run, row)
            if fields is None:
                continue
            # a streamed stage ends with its last step, the last of them after every write
            end = time.perf_counter()
            if row.step:
                if row is not phase[-1]:
                    end = max([bound] + [c.ends[row.name] for c in run.chains
                                         if row.name in c.ends])
                fields.update(cache_hits=views[row.name].hits,
                              cache_misses=views[row.name].misses)
            log.emit(row.name, "stage_done", **fields,
                     duration_ms=round(1000 * (end - bound), 3))
            bound = end

    except Exception as exc:  # noqa: BLE001 - stage isolation boundary
        client_failed = isinstance(exc, ClientError)
        log.emit(current_stage, "client_failed" if client_failed else "stage_failed",
                 error=str(exc))
        result.exit_code = EXIT_CLIENT if client_failed else EXIT_STAGE
        result.failed_stage, result.error = current_stage, str(exc)
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
