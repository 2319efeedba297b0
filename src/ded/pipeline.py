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
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from . import diagnostics
from .clients import (CachingClient, Client, ClientError, HttpClient, JudgeRequest,
                      MockClient, RetryPolicy, map_concurrent)
from .compress import select_hard, student_rollout
from .config import manifest_snapshot, validate_config
from .diversity import diversify_corpus
from .filtering import FilterConfig, candidate_answer, effective_token_len, run_quality_gate
from .mixer import compose_mix
from .records import (EPOCH_ISO, STAGES, CorpusManifest, QuestionRecord,
                      TrajectoryRecord, VerificationVerdict, load_manifest, parse_corpus,
                      save_manifest, write_corpus, write_manifest)
from .teacher import sample_teacher

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_CLIENT = 4


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


def _filter_config(cfg: dict[str, Any]) -> FilterConfig:
    return FilterConfig(max_token_len=cfg["max_token_len"],
                        require_single_think_pair=cfg["require_single_think_pair"],
                        token_estimator=cfg["token_estimator"])


def _adjudicate(gate_needs_judge: list[TrajectoryRecord],
                questions: dict[str, QuestionRecord],
                client: Client,
                log: EventLog,
                max_in_flight: int = 1) -> tuple[list[TrajectoryRecord], list[TrajectoryRecord],
                                                 list[TrajectoryRecord]]:
    """Judge queued trajectories, up to max_in_flight at once. A client failure
    keeps its item queued rather than fabricating a verdict, logged in input order."""
    def judge(request: JudgeRequest) -> VerificationVerdict | ClientError:
        try:
            return client.judge(request)
        except ClientError as exc:
            return exc

    requests = [JudgeRequest(question=questions[t.question_id].prompt,
                             candidate_answer=candidate_answer(t.text) or "(empty)",
                             ground_truth=str(questions[t.question_id].ground_truth
                                              or "unspecified"))
                for t in gate_needs_judge]
    verdicts = map_concurrent(judge, requests, max_in_flight=max_in_flight,
                              key=JudgeRequest.cache_key)
    kept, rejected, still_queued = [], [], []
    buckets = {"correct": kept, "incorrect": rejected}
    for t, verdict in zip(gate_needs_judge, verdicts):
        if isinstance(verdict, ClientError):
            log.emit("filter", "judge_error", question_id=t.question_id,
                     trajectory_id=t.trajectory_id, error=str(verdict))
            still_queued.append(t)
        else:
            buckets.get(verdict.status, still_queued).append(replace(t, verdict=verdict))
    return kept, rejected, still_queued


def run_pipeline(config: str | Path | dict[str, Any],
                 out_dir: str | Path | None = None) -> PipelineResult:
    """Execute the configured stages in order, writing a manifest per stage."""
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

        if "sample" in stages:
            current_stage = "sample"
            t0 = time.perf_counter()
            if not questions:
                raise StageError("sample", ValueError("no questions configured"))
            m = cfg["samples_per_question"]
            trajectories = sample_teacher(questions, client, cfg["teacher_id"], m,
                                          temperature=cfg["temperature"], seed=cfg["seed"],
                                          max_in_flight=client.max_in_flight)
            for q in sorted(questions, key=lambda q: q.question_id):
                log.emit("sample", "question_done", question_id=q.question_id, samples=m)
            write_corpus(out / "raw_trajectories.jsonl", trajectories)
            save("raw", write_manifest("raw", questions + trajectories,
                                       config=snapshot, created_at=stamp))
            log.emit("sample", "stage_done", trajectories=len(trajectories),
                     cache_hits=client.hits, cache_misses=client.misses,
                     duration_ms=round(1000 * (time.perf_counter() - t0), 3))
        elif any(s in stages for s in ("filter", "compress", "diversify")):
            current_stage = "ingest"
            raw_path = out / "raw_trajectories.jsonl"
            if raw_path.exists():
                trajectories = parse_corpus(raw_path, "trajectories")

        qmap = {q.question_id: q for q in questions}

        if "filter" in stages:
            current_stage = "filter"
            t0 = time.perf_counter()
            gate = run_quality_gate(trajectories, questions, fconfig,
                                    workers=cfg["workers"])
            judged_kept, judged_rejected, still_queued = _adjudicate(
                gate.needs_judge, qmap, client, log, max_in_flight=client.max_in_flight)
            kept = sorted(gate.kept + judged_kept, key=lambda t: t.trajectory_id)
            rejected = sorted(gate.rejected + judged_rejected, key=lambda t: t.trajectory_id)
            write_corpus(out / "right_trajectories.jsonl", kept)
            write_corpus(out / "rejected_trajectories.jsonl", rejected)
            write_corpus(out / "needs_judge.jsonl", still_queued)
            save("right", write_manifest("right", kept, parent=known.get("raw"),
                                         config=snapshot, created_at=stamp))
            trajectories = kept
            log.emit("filter", "stage_done", kept=len(kept), rejected=len(rejected),
                     needs_judge=len(still_queued),
                     duration_ms=round(1000 * (time.perf_counter() - t0), 3))

        if "compress" in stages:
            current_stage = "compress"
            t0 = time.perf_counter()
            surviving_qids = sorted({t.question_id for t in trajectories})
            rollout_questions = [qmap[qid] for qid in surviving_qids if qid in qmap]
            stats = student_rollout(
                rollout_questions, client, runs=cfg["runs"],
                student_id=cfg["student_id"], temperature=cfg["temperature"],
                seed=cfg["seed"],
                checkpoint=out / ".cache" / "rollout_checkpoint.jsonl",
                max_in_flight=client.max_in_flight)
            with open(out / "pass_rates.jsonl", "w", encoding="utf-8", newline="\n") as fh:
                for s in stats:
                    fh.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")
            retained, report = select_hard(rollout_questions, stats, cfg["pass_threshold"])
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
            qmap = {q.question_id: q for q in questions}
            log.emit("compress", "stage_done", retained=len(retained),
                     cache_hits=client.hits,
                     duration_ms=round(1000 * (time.perf_counter() - t0), 3))

        if "diversify" in stages:
            current_stage = "diversify"
            t0 = time.perf_counter()
            selected, report = diversify_corpus(
                trajectories, p=cfg["diverse_per_question"], unit=cfg["unit"],
                cap_ratio=cfg["cap_ratio"], questions=questions,
                workers=cfg["workers"])
            write_corpus(out / "right_hard_diverse_trajectories.jsonl", selected)
            with open(out / "diversity_report.json", "w", encoding="utf-8",
                      newline="\n") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            save("right_hard_diverse", write_manifest(
                "right_hard_diverse", selected, parent=known.get("right_hard"),
                config=snapshot, created_at=stamp))
            trajectories = selected
            log.emit("diversify", "stage_done", selected=len(selected),
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
