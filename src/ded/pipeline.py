"""Pipeline orchestration: sample -> filter -> compress -> diversify -> mix
-> stats, with a manifest per stage and structured JSONL event logs.

`STAGE_TABLE` lists the stages in order, with what each one reads and writes.
Corpus outputs and manifests are deterministic for a fixed config with mock
clients; logs and the request cache live under logs/ and .cache/ and carry
timing, so they are excluded from output-tree comparisons.
"""

from __future__ import annotations

import fcntl
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
    return CachingClient(inner, client_cfg["cache_dir"] or out_dir / ".cache")


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
    stage: str  # the stage a failure now is reported at
    known: dict[str, CorpusManifest] = field(default_factory=dict)  # wrote or checked, by stage
    questions: list[QuestionRecord] = field(default_factory=list)
    # those of the last corpus of the raw ... right_hard_diverse lineage: the
    # next stage's input, and what stats reports on; set by save and `_manifest`
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
        before, after = diagnostics.split_phases(parse_corpus(cfg["embeddings"], "embeddings"))
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
    # the config keys its corpus depends on, checked when a run reads or lists it
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


def _remove_replaced(run: _Run, replaced: list[Stage]) -> None:
    """Remove the outputs of the `replaced` stages, and the temp files of their
    writes that a killed run left (see `replacing`)."""
    for row in replaced:
        for path in run.paths(row.outputs):
            for stale in [path, *sorted(path.parent.glob(f"{path.name}.*.tmp"))]:
                if stale.exists():
                    stale.unlink()
                    run.log.emit(row.name, "removed", path=stale.relative_to(run.out).as_posix())


def _lock_out_dir(out: Path, run_id: str) -> int:
    """The descriptor of out's `logs/run.lock`, locked for the run `run_id`
    and naming it; refused while another run holds the lock."""
    fd = os.open(out / "logs" / "run.lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        holder = os.read(fd, 64).decode("utf-8", "replace")
        os.close(fd)
        holder = f"run {holder}" if holder else "another process"
        raise RuntimeError(f"{out} is in use by {holder}; wait for it to end") from None
    os.ftruncate(fd, 0)
    os.write(fd, run_id.encode("utf-8"))
    return fd


def _ingest(run: _Run) -> list[QuestionRecord]:
    """The configured questions, parsed into the run; refused if there are none."""
    if run.cfg["questions"]:
        stage, run.stage = run.stage, "ingest"
        run.questions = parse_corpus(run.cfg["questions"], "questions")
        run.log.emit("ingest", "loaded", count=len(run.questions), path=str(run.cfg["questions"]))
        run.stage = stage
    if not run.questions:
        raise ValueError("no questions configured")
    return run.questions


def _files(run: _Run, row: Stage | None) -> list[str]:
    """The files of row's manifest and corpus and those of each ancestor the run
    has not checked, those that hold row's questions first: a corpus with no
    file of questions has its parent's, and raw's are the configured ones."""
    if row is None or row.manifest in run.known:
        return []
    *question_file, _ = row.corpus
    own = [f"manifest_{row.manifest}.json", *row.corpus]
    before = _files(run, _WRITERS.get(row.parent))
    return before + own if row.parent and not question_file else own + before


def _manifest(run: _Run, stage: str) -> CorpusManifest:
    """`stage`'s manifest: the one the run wrote, or else the one in out_dir,
    loaded on first use and refused unless (1) it and the `_files` are
    present, looked at before any is parsed; (2) it records its own stage and
    the configured values of its stage's keys; (3) it records its parent's
    content hash as `parent_manifest` (none at raw and mixed), the parent
    checked first; (4) it records the content hash of the bytes beside it,
    with the configured questions at raw. A lineage corpus it checks becomes
    the run's input: the last one checked is the one the run starts from."""
    if stage in run.known:
        return run.known[stage]
    row = _WRITERS[stage]
    missing = next((name for name in _files(run, row) if not (run.out / name).exists()), None)
    if missing is not None:
        raise CorpusError(f"{missing} is missing from {run.out}; "
                          f"run the stages before {run.stage} again")
    link = _manifest(run, row.parent).content_hash if row.parent else None
    name, again = f"manifest_{stage}.json", f"run {row.name} and the stages after it again"
    *question_file, trajectory_file = row.corpus
    questions = _ingest(run) if row is _WRITERS["raw"] else []
    try:
        built = load_manifest(run.out / name)
        if question_file:
            questions = parse_corpus(run.out / question_file[0], "questions")
        trajectories = parse_corpus(run.out / trajectory_file, "trajectories")
    except CorpusError as exc:
        raise CorpusError(f"{name} cannot be checked: {exc}; {again}") from exc
    recorded = {key: built.config_snapshot.get(key, "(not recorded)") for key in row.keys}
    changed = [key for key in row.keys if recorded[key] != run.snapshot[key]]
    if built.stage != stage:
        problem = f"records stage {built.stage!r}"
    elif changed:
        problem = (f"was built with {changed[0]} {recorded[changed[0]]!r}, not the "
                   f"configured {run.snapshot[changed[0]]!r}")
    elif built.parent_manifest != link:
        problem = f"records parent_manifest {built.parent_manifest!r}, not {link!r}"
    elif built.content_hash != content_hash(questions + trajectories):
        files = (str(run.cfg["questions"]), *row.corpus) if row is _WRITERS["raw"] else row.corpus
        problem = f"records a content hash other than that of {' and '.join(files)}"
    else:
        run.known[stage] = built
        if stage in _LINEAGE:
            run.trajectories = trajectories
            if question_file:
                run.questions = questions
        return built
    raise CorpusError(f"{name} {problem}; {again}")


def run_pipeline(config: str | Path | dict[str, Any],
                 out_dir: str | Path | None = None) -> PipelineResult:
    """Execute the configured stages in order, writing a manifest per stage.

    Sample, filter and compress make the model calls. They run as one chain
    per question, several chains at once in http mode; their outputs are
    then written stage by stage as if each stage had run alone.
    """
    cfg = validate_config(config)
    out = Path(out_dir or cfg["out_dir"])
    rows = [row for row in STAGE_TABLE if row.name in cfg["stages"]]
    phase = [row for row in rows if row.step]
    deterministic = cfg["client"]["mode"] == "mock"
    result = PipelineResult(exit_code=EXIT_OK, out_dir=out)
    out.mkdir(parents=True, exist_ok=True)
    log = EventLog(out / "logs" / "events.jsonl")
    client: CachingClient | None = None
    stamp = cfg["timestamp"] or (EPOCH_ISO if deterministic
                                 else datetime.now(timezone.utc).isoformat())
    run = _Run(cfg, out, log, stamp, result, rows[0].name)
    helper: _Helper | None = None
    lock: int | None = None
    try:
        # the processes the run forks share it: a killed run's lock is
        # released once the last of them is gone
        lock = _lock_out_dir(out, log.run)
        # a caller that holds numpy already gains nothing from the helper, and
        # one with other threads running cannot fork it safely
        if (any(row.helper for row in rows) and "numpy" not in sys.modules
                and threading.active_count() == 1):
            run.helper = helper = _Helper(cfg if "stats" in cfg["stages"] else None)
        client = build_client(cfg, out)
        # it replaces the outputs of the stages it runs, of the lineage stages from its first
        # one on, and of stats, whose ledger any run changes; before that, it checks the corpus
        # it starts from and, with stats, every manifest on disk of a stage it keeps
        reader = next((row for row in rows if row.manifest in _LINEAGE), None)
        replaced = [row for row in STAGE_TABLE if row.name in cfg["stages"] or row.name == "stats"
                    or reader and row.manifest in _LINEAGE[_LINEAGE.index(reader.manifest):]]
        listed = [stage for stage, row in _WRITERS.items() if "stats" in cfg["stages"]
                  and row not in replaced and (out / f"manifest_{stage}.json").exists()]
        if reader and reader.parent:
            _manifest(run, reader.parent)
        elif reader:  # sample, whose manifest covers the configured questions
            _ingest(run)
        # a stats run with no manifest on disk or of its own finds raw's missing
        for stage in listed or ([] if any(row.manifest for row in rows) else ["raw"]):
            run.stage = "stats"
            _manifest(run, stage)

        views = {row.name: client.view() for row in phase}
        bound = time.perf_counter()
        if phase:
            run.stage = phase[0].name
            qids = {q.question_id for q in run.questions}
            orphans = [t for t in run.trajectories if t.question_id not in qids]
            if run.stage == "filter" and orphans:
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
            run.stage = row.name
            if failure is not None and failure[0] == row.name:
                raise failure[1]
            if row is rows[0]:  # before the run's first write
                _remove_replaced(run, replaced)
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
        log.emit(run.stage, "client_failed" if client_failed else "stage_failed",
                 error=str(exc))
        result.exit_code = EXIT_CLIENT if client_failed else EXIT_STAGE
        result.failed_stage, result.error = run.stage, str(exc)
    finally:
        if helper is not None:
            helper.close()
        if lock is not None:
            os.close(lock)
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
    # every file is read a piece at a time into this one buffer: a new bytes
    # object per piece left a heap ~1.6 MB larger behind (perfbench diverse-long)
    piece = bytearray(1 << 16)
    view = memoryview(piece)
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if any(part in ("logs", ".cache") for part in rel.parts):
            continue
        if path.is_file():
            digest.update(str(rel).encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb", buffering=0) as fh:
                while size := fh.readinto(piece):
                    digest.update(view[:size])
            digest.update(b"\0")
    return digest.hexdigest()
