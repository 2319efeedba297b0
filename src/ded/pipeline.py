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
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

from .clients import CachingClient, Client, ClientError, HttpClient, MockClient, RetryPolicy
from .compress import judge_request, select_hard, student_rollout
from .config import validate_config
from .filtering import (GATE_ORDER, FilterConfig, FilterError, candidate_answer,
                        run_quality_gate, token_lengths)
from .forked import Forked, outcome
from .mixer import compose_mix
from .records import (EPOCH_ISO, CorpusError, CorpusManifest, PassRateStats, QuestionRecord,
                      TrajectoryRecord, content_hash, dumps_record, load_manifest, parse_corpus,
                      replacing, save_manifest, write_corpus, write_json, write_manifest)
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
    """JSONL event stream with stage, ids, and timing fields, appended to the
    log of earlier runs; every event carries `run`, a random id of this run."""

    def __init__(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8", newline="\n")
        self.run = os.urandom(6).hex()

    def emit(self, stage: str, event: str, **fields: Any) -> None:
        row = {"ts": datetime.now(timezone.utc).isoformat(), "run": self.run, "stage": stage,
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


class _Helper(Forked):
    """The one process of a run that imports numpy: it runs diversify's and
    stats's code, and diversify's engine processes fork from it.

    It is forked before the run starts any thread and loads numpy at once,
    on another core while the run makes its model calls. If given the
    config, it then makes stats's analyses of its inputs while no call
    waits."""

    def __init__(self, analyse: dict[str, Any] | None) -> None:
        """`analyse`: the config whose stats analyses it makes ahead, if any."""
        ahead = [partial(_analyse_ahead, analyse)] if analyse is not None else []
        super().__init__("the helper process of diversify and stats",
                         partial(import_module, ".diversity", __package__), *ahead)


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


def _adjudicate(needs_judge: list[TrajectoryRecord], question: QuestionRecord,
                client: Client) -> tuple[list[TrajectoryRecord], list[TrajectoryRecord],
                                         list[TrajectoryRecord], list[dict[str, str]]]:
    """Judge question's queued trajectories in order. A client failure keeps
    its item queued rather than fabricating a verdict; its `judge_error`
    event's fields are returned last."""
    kept, rejected, still_queued, errors = [], [], [], []
    buckets = {"correct": kept, "incorrect": rejected}
    for t in needs_judge:
        try:
            verdict = client.judge(judge_request(question, candidate_answer(t.text)))
        except ClientError as exc:
            errors.append({"question_id": t.question_id, "trajectory_id": t.trajectory_id,
                           "error": str(exc)})
            still_queued.append(t)
            continue
        buckets.get(verdict.status, still_queued).append(replace(t, verdict=verdict))
    return kept, rejected, still_queued, errors


@dataclass
class _Chain:
    """One question's model-calling steps, and what each step produced."""

    question: QuestionRecord
    trajectories: list[TrajectoryRecord]  # the next step's input
    sampled: list[TrajectoryRecord] = field(default_factory=list)
    kept: list[TrajectoryRecord] = field(default_factory=list)
    rejected: list[TrajectoryRecord] = field(default_factory=list)
    queued: list[TrajectoryRecord] = field(default_factory=list)
    judge_errors: list[dict[str, str]] = field(default_factory=list)
    stats: PassRateStats | None = None
    ends: dict[str, float] = field(default_factory=dict)  # stage -> step end
    failure: tuple[int, Exception] | None = None  # (step index, error)


def _run_chains(chains: list[_Chain], steps: list[tuple[str, Callable[[_Chain], None]]],
                width: int) -> tuple[str, Exception] | None:
    """Run every chain's steps in order, up to `width` chains at once: the
    one place where model calls fan out.

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

    if width <= 1:
        for chain in chains:
            run(chain)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a wide run pays for importing it
        with ThreadPoolExecutor(max_workers=width) as pool:
            list(pool.map(run, chains))
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
    # those of the last corpus of the raw ... right_hard_diverse lineage: the
    # next stage's input, and what stats reports on; set by save
    trajectories: list[TrajectoryRecord] = field(default_factory=list)
    chains: list[_Chain] = field(default_factory=list)
    # runs diversify's and stats's code: the helper process, or this one
    helper: Callable[..., Any] = field(default=lambda fn, *args, **kwargs: fn(*args, **kwargs))

    def __post_init__(self) -> None:
        self.snapshot = manifest_snapshot(self.cfg)

    def paths(self, names: tuple[str, ...]) -> list[Path]:
        return [self.out / name for name in names]

    def save(self, row: Stage, records: list, lines: list[str],
             config: dict[str, Any] | None = None) -> None:
        """row's manifest, of records whose canonical lines are `lines`."""
        manifest = write_manifest(row.manifest, records, parent=self.known.get(row.parent),
                                  config=config or self.snapshot, created_at=self.stamp,
                                  lines=lines)
        self.known[row.manifest] = self.result.manifests[row.manifest] = manifest
        save_manifest(manifest, self.out / f"manifest_{row.manifest}.json")
        if row.manifest in _LINEAGE:
            self.trajectories = [r for r in records if isinstance(r, TrajectoryRecord)]


def _filter_config(cfg: dict[str, Any]) -> FilterConfig:
    """The gate's settings in cfg."""
    return FilterConfig(**{f.name: cfg[f.name] for f in fields(FilterConfig)})


def _sample_step(cfg: dict[str, Any], client: Client, chain: _Chain) -> None:
    chain.sampled = chain.trajectories = sample_teacher(
        chain.question, client, cfg["teacher_id"], cfg["samples_per_question"],
        temperature=cfg["temperature"], seed=cfg["seed"])


def _judge_step(cfg: dict[str, Any], client: Client, chain: _Chain) -> None:
    gate = run_quality_gate(chain.trajectories, [chain.question], _filter_config(cfg))
    kept, rejected, chain.queued, chain.judge_errors = _adjudicate(
        gate.needs_judge, chain.question, client)
    chain.trajectories = chain.kept = gate.kept + kept
    chain.rejected = gate.rejected + rejected


def _roll_out_step(cfg: dict[str, Any], client: Client, chain: _Chain) -> None:
    if not chain.trajectories:
        return
    chain.stats = student_rollout(
        chain.question, client, runs=cfg["runs"], student_id=cfg["student_id"],
        temperature=cfg["temperature"], seed=cfg["seed"])


def diversify_corpus(trajectories: list[TrajectoryRecord],
                     **params: Any) -> tuple[list[TrajectoryRecord], dict[str, Any]]:
    """`ded.diversity.diversify_corpus`, imported on the first call, so that
    numpy loads only in a process that diversifies."""
    from .diversity import diversify_corpus
    return diversify_corpus(trajectories, **params)


def _sample(run: _Run, row: Stage) -> dict[str, Any]:
    trajectories = [t for c in run.chains for t in c.sampled]
    for c in run.chains:
        run.log.emit("sample", "question_done", question_id=c.question.question_id,
                     samples=run.cfg["samples_per_question"])
    lines = write_corpus(*run.paths(row.corpus), trajectories)
    run.save(row, run.questions + trajectories,
             [dumps_record(q) for q in run.questions] + lines)
    return {"trajectories": len(trajectories)}


def _filter(run: _Run, row: Stage) -> dict[str, Any]:
    kept, rejected, still_queued = (
        sorted((t for c in run.chains for t in getattr(c, bucket)),
               key=lambda t: t.trajectory_id)
        for bucket in ("kept", "rejected", "queued"))
    for fields in sorted((e for c in run.chains for e in c.judge_errors),
                         key=lambda e: e["trajectory_id"]):
        run.log.emit("filter", "judge_error", **fields)
    lines = [write_corpus(path, records) for path, records
             in zip(run.paths(row.corpus + row.writes), (kept, rejected, still_queued))]
    run.save(row, kept, lines[0])
    return {"kept": len(kept), "rejected": len(rejected), "needs_judge": len(still_queued)}


def _compress(run: _Run, row: Stage) -> dict[str, Any]:
    rolled = [c for c in run.chains if c.stats is not None]
    questions_path, trajectories_path, rates_path, report_path = run.paths(
        row.corpus + row.writes)
    retained, report = select_hard([c.question for c in rolled], [c.stats for c in rolled],
                                   run.cfg["pass_threshold"])
    with replacing(rates_path) as fh:
        for c in rolled:
            fh.write(json.dumps(c.stats.to_dict(), sort_keys=True) + "\n")
    retained_qids = {q.question_id for q in retained}
    trajectories = [t for t in run.trajectories if t.question_id in retained_qids]
    lines = write_corpus(questions_path, retained) + write_corpus(trajectories_path, trajectories)
    write_json(report_path, report.to_dict())
    run.save(row, retained + trajectories, lines)
    run.questions = retained
    return {"retained": len(retained)}


def _diversify(run: _Run, row: Stage) -> dict[str, Any]:
    cfg = run.cfg
    selected, report = run.helper(
        diversify_corpus, run.trajectories, p=cfg["diverse_per_question"], unit=cfg["unit"],
        cap_ratio=cfg["cap_ratio"], questions=run.questions, workers=cfg["workers"])
    engine = report.pop("engine")
    corpus_path, report_path = run.paths(row.corpus + row.writes)
    lines = write_corpus(corpus_path, selected)
    write_json(report_path, report)
    run.save(row, selected, lines)
    return {"selected": len(selected), **engine}


def _mix(run: _Run, row: Stage) -> dict[str, Any]:
    mixed, provenance = compose_mix([(parse_corpus(src["path"], "trajectories"), src["take"])
                                     for src in run.cfg["mix_sources"]], seed=run.cfg["seed"])
    lines = write_corpus(*run.paths(row.corpus), mixed)
    run.save(row, mixed, lines, config={**run.snapshot, "mix": provenance})
    return {"mixed": len(mixed)}


def _analyse(cfg: dict[str, Any]) -> tuple[Any, Any]:
    """Stats's analyses of the configured logprobs and embeddings."""
    from . import diagnostics
    entropy = pca = None
    if cfg["logprobs"]:
        entropy = diagnostics.entropy_summary(parse_corpus(cfg["logprobs"], "logprobs"))
    if cfg["embeddings"]:
        embeddings = parse_corpus(cfg["embeddings"], "embeddings")
        before = [e for e in embeddings if e.phase == "before"]
        after = [e for e in embeddings if e.phase == "after"]
        if before and after:
            pca = diagnostics.pca_shift(before, after, k=cfg["pca_components"])
    return entropy, pca


# set in the helper process only: the `outcome` of `_analyse`, made there
# while the run's model calls went out
_analysed: tuple[bool, Any] | None = None


def _analyse_ahead(cfg: dict[str, Any]) -> None:
    """Stats's analyses of cfg's inputs, kept for `_write_report`."""
    global _analysed
    _analysed = outcome(_analyse, cfg)


def _write_report(out: Path, manifests: list[CorpusManifest], cfg: dict[str, Any],
                  lens: list[int], estimated: bool) -> None:
    """Stats's report of `manifests`, of the analyses of cfg's inputs and of
    the token lengths `lens`."""
    from . import diagnostics
    ok, analyses = _analysed or outcome(_analyse, cfg)
    if not ok:
        raise analyses
    entropy, pca = analyses
    lengths = diagnostics.length_summary(lens, estimated) if lens else None
    diagnostics.emit_report(manifests, out, entropy=entropy, lengths=lengths, pca=pca)


def _stats(run: _Run, row: Stage) -> dict[str, Any]:
    # token lengths of the last corpus of the raw ... right_hard_diverse lineage,
    # left out when precomputed_only meets a trajectory without token_len
    try:
        lens, estimated = token_lengths(run.trajectories, _filter_config(run.cfg))
    except FilterError:
        lens, estimated = [], False
    run.helper(_write_report, run.out, [run.known[s] for s in _WRITERS if s in run.known],
               run.cfg, lens, estimated)
    return {}


@dataclass(frozen=True)
class Stage:
    """One row of the stage table; file names are relative to out_dir."""

    name: str                # in the config's `stages`
    manifest: str | None     # the manifest stage it writes
    parent: str | None       # the manifest stage whose corpus it reads
    corpus: tuple[str, ...]  # the files its manifest hashes, questions first
    writes: tuple[str, ...]  # its other files
    # writes them all; returns its `stage_done` fields
    run: Callable[[_Run, Stage], dict[str, Any]]
    # its calls per question, given the config
    step: Callable[[dict[str, Any], Client, _Chain], None] | None = None
    # the config keys its corpus depends on, checked when a later stage reads it
    keys: tuple[str, ...] = ()
    helper: bool = False  # runs its numpy code in the helper process

    @property
    def outputs(self) -> tuple[str, ...]:
        manifest = (f"manifest_{self.manifest}.json",) if self.manifest else ()
        return self.corpus + self.writes + manifest


STAGE_TABLE = (
    Stage("sample", "raw", None, ("raw_trajectories.jsonl",), (), _sample, _sample_step,
          keys=("teacher_id", "samples_per_question", "temperature", "seed")),
    Stage("filter", "right", "raw", ("right_trajectories.jsonl",),
          ("rejected_trajectories.jsonl", "needs_judge.jsonl"), _filter, _judge_step,
          keys=("max_token_len", "require_single_think_pair", "token_estimator", "tokenizer")),
    Stage("compress", "right_hard", "right",
          ("right_hard_questions.jsonl", "right_hard_trajectories.jsonl"),
          ("pass_rates.jsonl", "compression_report.json"), _compress, _roll_out_step,
          keys=("student_id", "runs", "temperature", "seed", "pass_threshold")),
    Stage("diversify", "right_hard_diverse", "right_hard",
          ("right_hard_diverse_trajectories.jsonl",), ("diversity_report.json",), _diversify,
          keys=("diverse_per_question", "unit", "cap_ratio"), helper=True),
    Stage("mix", "mixed", None, ("mixed_trajectories.jsonl",), (), _mix),
    Stage("stats", None, None, (),
          ("report.md", "tables/stage_ledger.csv", "tables/lengths.csv",
           "tables/entropy.csv", "tables/pca_shift.csv"), _stats, helper=True),
)
_WRITERS = {row.manifest: row for row in STAGE_TABLE if row.manifest}
# the manifests a parent links: raw ... right_hard_diverse; mixed stands apart
_LINEAGE = tuple(stage for stage, row in _WRITERS.items()
                 if row.parent or any(r.parent == stage for r in STAGE_TABLE))
# the keys of every stage's corpus, echoed into every manifest
SNAPSHOT_KEYS = tuple(dict.fromkeys(key for row in STAGE_TABLE for key in row.keys))


def manifest_snapshot(cfg: dict[str, Any]) -> dict[str, Any]:
    """The parameter set echoed into every manifest."""
    return {**{key: cfg[key] for key in SNAPSHOT_KEYS}, "gate_order": list(GATE_ORDER)}


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
                path = run.out / name
                # and the temp files of its writes that a killed run left (see `replacing`)
                for stale in [path, *sorted(path.parent.glob(f"{path.name}.*.tmp"))]:
                    if stale.exists():
                        stale.unlink()
                        run.log.emit(row.name, "removed",
                                     path=stale.relative_to(run.out).as_posix())


def _read_corpus(run: _Run, row: Stage, reader: str) -> tuple[list[QuestionRecord],
                                                              list[TrajectoryRecord]]:
    """`row`'s questions and trajectories, read back from out_dir for the
    stage `reader`, refused unless they are the bytes of `row`'s manifest.

    The lineage is walked from `row` back to raw through the table's
    parents: each manifest on it must record its own stage and the
    configured values of its stage's keys, and link to its parent's
    content hash (to none at raw)."""
    lineage = [row]
    while lineage[-1].parent:
        lineage.append(_WRITERS[lineage[-1].parent])
    manifests = [f"manifest_{r.manifest}.json" for r in lineage]
    missing = next((name for name in (manifests[0], *row.corpus, *manifests[1:])
                    if not (run.out / name).exists()), None)
    if missing is not None:
        raise CorpusError(f"{missing} is missing from {run.out}; "
                          f"run the stages before {reader} again")
    *question_file, trajectory_file = row.corpus
    questions = (parse_corpus(run.out / question_file[0], "questions") if question_file
                 else run.questions)
    trajectories = parse_corpus(run.out / trajectory_file, "trajectories")
    # raw's manifest also covers the configured questions, right_hard's its own
    covered = questions + trajectories if question_file or not row.parent else trajectories
    if content_hash(covered) != run.known[row.manifest].content_hash:
        raise CorpusError(f"{trajectory_file} does not match {manifests[0]}; "
                          f"run the stages before {reader} again")
    for writer, parent in zip(lineage, lineage[1:] + [None]):
        built = run.known[writer.manifest]
        recorded = {key: built.config_snapshot.get(key, "(not recorded)") for key in writer.keys}
        changed = [key for key in writer.keys if recorded[key] != run.snapshot[key]]
        link = run.known[parent.manifest].content_hash if parent else None
        if built.stage != writer.manifest:
            problem = f"records stage {built.stage!r}"
        elif changed:
            problem = (f"was built with {changed[0]} {recorded[changed[0]]!r}, not the "
                       f"configured {run.snapshot[changed[0]]!r}")
        elif built.parent_manifest != link:
            problem = f"records parent_manifest {built.parent_manifest!r}, not {link!r}"
        else:
            continue
        raise CorpusError(f"manifest_{writer.manifest}.json {problem}; "
                          f"run {writer.name} and the stages after it again")
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
    client: CachingClient | None = None
    deterministic = cfg["client"]["mode"] == "mock"
    stamp = cfg["timestamp"] or (EPOCH_ISO if deterministic
                                 else datetime.now(timezone.utc).isoformat())
    result = PipelineResult(exit_code=EXIT_OK, out_dir=out)
    run = _Run(cfg, out, log, stamp, result)
    rows = [row for row in STAGE_TABLE if row.name in cfg["stages"]]
    phase = [row for row in rows if row.step]

    current_stage = rows[0].name if rows else ""
    helper: _Helper | None = None
    try:
        # a caller that holds numpy already gains nothing from the helper, and
        # one with other threads running cannot fork it safely
        if (any(row.helper for row in rows) and "numpy" not in sys.modules
                and threading.active_count() == 1):
            run.helper = helper = _Helper(cfg if "stats" in cfg["stages"] else None)
        client = build_client(cfg, out)
        # manifests from earlier partial runs let any stage suffix resume
        priors = {stage: out / f"manifest_{stage}.json" for stage in _WRITERS}
        run.known = {stage: load_manifest(p) for stage, p in priors.items() if p.exists()}

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
        # stats reports on the last corpus of the lineage; one this run does
        # not write is read back before the run removes the old report
        last = next((_WRITERS[s] for s in reversed(_LINEAGE) if s in run.known), None)
        if (last and "stats" in cfg["stages"]
                and not any(row.manifest in _LINEAGE for row in rows)):
            current_stage = "stats"
            run.trajectories = _read_corpus(run, last, "stats")[1]

        views = {row.name: client.view() for row in phase}
        bound = time.perf_counter()
        if phase:
            current_stage = phase[0].name
            if current_stage == "sample" and not run.questions:
                raise ValueError("no questions configured")
            qids = {q.question_id for q in run.questions}
            orphans = [t for t in run.trajectories if t.question_id not in qids]
            if current_stage == "filter" and orphans:
                run_quality_gate(orphans, run.questions, _filter_config(cfg))  # raises, naming them
            by_question: dict[str, list[TrajectoryRecord]] = {}
            for t in run.trajectories:
                by_question.setdefault(t.question_id, []).append(t)
            run.chains = [_Chain(q, by_question.get(q.question_id, []))
                          for q in sorted(run.questions, key=lambda q: q.question_id)]
        width = 1 if deterministic else min(CHAINS_PER_SLOT * client.max_in_flight,
                                            len(run.chains))
        failure = _run_chains(run.chains, [
            (row.name, partial(row.step, cfg, views[row.name])) for row in phase], width)

        for row in rows:
            current_stage = row.name
            if failure is not None and failure[0] == row.name:
                raise failure[1]
            if row is rows[0]:  # before the run's first write
                _remove_replaced(run)
            if not row.step:
                bound = time.perf_counter()
            fields = row.run(run, row)
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
        if helper is not None:
            helper.close()
        log.emit("pipeline", "done", exit_code=result.exit_code,
                 cache_hits=client.hits if client else 0,
                 cache_misses=client.misses if client else 0,
                 requests=client.inner.requests_total if client else 0,
                 retries=client.inner.retries_total if client else 0)
        log.close()
    return result


def tree_hash(root: str | Path) -> str:
    """SHA-256 over every output file path and its bytes, excluding logs and
    cache (operational telemetry with wall-clock timing)."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if any(part in ("logs", ".cache") for part in rel.parts):
            continue
        if path.is_file():
            digest.update(str(rel).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()
