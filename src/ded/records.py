"""Domain records, their JSONL serialization, and stage-lineage manifests.

Every pipeline stage exchanges data through the record types defined here.
Files are newline-delimited JSON, UTF-8, one record per line; unknown fields
survive a parse/write round trip via each record's ``extra`` mapping.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

DOMAINS = ("math", "code")
VERDICT_STATUSES = ("correct", "incorrect", "unverifiable", "malformed_format", "overlength")
CHECKERS = ("rule", "judge", "format", "length")
# The linear lineage raw -> right -> right_hard -> right_hard_diverse;
# "mixed" may follow any of these.
STAGES = ("raw", "right", "right_hard", "right_hard_diverse", "mixed")
PHASES = ("before", "after")
CORPUS_KINDS = ("questions", "trajectories", "logprobs", "embeddings", "scores")

EPOCH_ISO = "1970-01-01T00:00:00+00:00"


class CorpusError(ValueError):
    """Malformed corpus file or record invariant violation.

    Carries the 1-based line number and byte offset of the offending line
    when raised during parsing.
    """

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.offset = offset


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CorpusError(message)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class VerificationVerdict:
    """Outcome of one format/length/correctness gate."""

    status: str
    checker: str
    detail: str = ""

    def validate(self) -> None:
        _require(self.status in VERDICT_STATUSES, f"unknown verdict status {self.status!r}")
        _require(self.checker in CHECKERS, f"unknown checker {self.checker!r}")
        if self.status == "malformed_format":
            _require(self.checker == "format", "malformed_format requires checker=format")
        if self.status == "overlength":
            _require(self.checker == "length", "overlength requires checker=length")
        if self.status in ("correct", "incorrect"):
            _require(self.checker in ("rule", "judge"),
                     f"status {self.status} requires checker rule or judge")

    def to_dict(self) -> dict[str, Any]:
        return {"status": self.status, "checker": self.checker, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VerificationVerdict":
        v = cls(status=data.get("status", ""), checker=data.get("checker", ""),
                detail=data.get("detail", ""))
        v.validate()
        return v


@dataclass
class QuestionRecord:
    """One seed problem; the unit of compression."""

    question_id: str
    domain: str
    prompt: str
    ground_truth: str | None = None
    source: str = ""
    tags: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        _require(bool(self.question_id), "question_id must be non-empty")
        _require(self.domain in DOMAINS,
                 f"question {self.question_id}: domain must be one of {DOMAINS}, got {self.domain!r}")
        _require(isinstance(self.prompt, str), f"question {self.question_id}: prompt must be a string")

    @property
    def sort_key(self) -> tuple:
        return (self.question_id,)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "question_id": self.question_id,
            "domain": self.domain,
            "prompt": self.prompt,
            "ground_truth": self.ground_truth,
            "source": self.source,
            "tags": list(self.tags),
        }
        out.update(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QuestionRecord":
        data = dict(data)
        rec = cls(
            question_id=data.pop("question_id", ""),
            domain=data.pop("domain", ""),
            prompt=data.pop("prompt", ""),
            ground_truth=data.pop("ground_truth", None),
            source=data.pop("source", ""),
            tags=list(data.pop("tags", [])),
            extra=data,
        )
        rec.validate()
        return rec


@dataclass
class TrajectoryRecord:
    """One teacher-sampled response tied to a question.

    ``char_len`` is derived from ``text`` when absent. ``token_len`` is
    carried data: the count under the tokenizer named in the manifest
    config, never computed here.
    """

    trajectory_id: str
    question_id: str
    teacher_id: str
    sample_index: int
    text: str
    token_len: int | None = None
    char_len: int | None = None
    verdict: VerificationVerdict | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.char_len is None:
            self.char_len = len(self.text)

    def validate(self) -> None:
        _require(bool(self.trajectory_id), "trajectory_id must be non-empty")
        _require(bool(self.question_id), f"trajectory {self.trajectory_id}: question_id must be non-empty")
        _require(_is_int(self.sample_index) and self.sample_index >= 0,
                 f"trajectory {self.trajectory_id}: sample_index must be an integer >= 0")
        _require(self.char_len == len(self.text),
                 f"trajectory {self.trajectory_id}: char_len {self.char_len} != len(text) {len(self.text)}")
        if self.token_len is not None:
            _require(_is_int(self.token_len) and self.token_len >= 0,
                     f"trajectory {self.trajectory_id}: token_len must be an integer >= 0")
        if self.verdict is not None:
            self.verdict.validate()

    @property
    def sample_key(self) -> tuple[str, str, int]:
        return (self.question_id, self.teacher_id, self.sample_index)

    @property
    def sort_key(self) -> tuple:
        return (self.trajectory_id,)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "trajectory_id": self.trajectory_id,
            "question_id": self.question_id,
            "teacher_id": self.teacher_id,
            "sample_index": self.sample_index,
            "text": self.text,
            "token_len": self.token_len,
            "char_len": self.char_len,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_dict()
        out.update(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrajectoryRecord":
        data = dict(data)
        verdict_data = data.pop("verdict", None)
        rec = cls(
            trajectory_id=data.pop("trajectory_id", ""),
            question_id=data.pop("question_id", ""),
            teacher_id=data.pop("teacher_id", ""),
            sample_index=data.pop("sample_index", 0),
            text=data.pop("text", ""),
            token_len=data.pop("token_len", None),
            char_len=data.pop("char_len", None),
            verdict=VerificationVerdict.from_dict(verdict_data) if verdict_data else None,
            extra=data,
        )
        rec.validate()
        return rec


@dataclass
class PassRateStats:
    """Per-question student success counts; exact rational pass rate."""

    question_id: str
    runs: int
    successes: int

    def validate(self) -> None:
        _require(_is_int(self.runs) and self.runs >= 1,
                 f"stats {self.question_id}: runs must be an integer >= 1")
        _require(_is_int(self.successes) and 0 <= self.successes <= self.runs,
                 f"stats {self.question_id}: successes must be in [0, runs]")

    @property
    def pass_rate(self) -> Fraction:
        return Fraction(self.successes, self.runs)

    @property
    def sort_key(self) -> tuple:
        return (self.question_id,)

    def to_dict(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "runs": self.runs,
            "successes": self.successes,
            "pass_rate": float(self.pass_rate),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PassRateStats":
        rec = cls(question_id=data.get("question_id", ""),
                  runs=data.get("runs", 0),
                  successes=data.get("successes", 0))
        rec.validate()
        return rec


@dataclass
class ScoreRecord:
    """One (teacher, student, benchmark) evaluation row.

    Accuracies are percentages on [0, 100] kept as exact decimal strings so
    that delta arithmetic matches the input precision digit for digit.
    """

    teacher_id: str
    student_id: str
    benchmark: str
    acc: str
    mean_response_len: float
    delta_acc: str

    def validate(self) -> None:
        from decimal import Decimal, InvalidOperation
        for name in ("teacher_id", "student_id", "benchmark"):
            _require(bool(getattr(self, name)), f"score record: {name} must be non-empty")
        try:
            acc = Decimal(self.acc)
            Decimal(self.delta_acc)
        except InvalidOperation as exc:
            raise CorpusError(f"score {self.teacher_id}/{self.benchmark}: bad decimal: {exc}") from exc
        _require(Decimal(0) <= acc <= Decimal(100),
                 f"score {self.teacher_id}/{self.benchmark}: acc {self.acc} outside [0, 100]")

    @property
    def sort_key(self) -> tuple:
        return (self.teacher_id, self.student_id, self.benchmark)

    def to_dict(self) -> dict[str, Any]:
        return {
            "teacher_id": self.teacher_id,
            "student_id": self.student_id,
            "benchmark": self.benchmark,
            "acc": self.acc,
            "mean_response_len": self.mean_response_len,
            "delta_acc": self.delta_acc,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScoreRecord":
        rec = cls(
            teacher_id=data.get("teacher_id", ""),
            student_id=data.get("student_id", ""),
            benchmark=data.get("benchmark", ""),
            acc=str(data.get("acc", "")),
            mean_response_len=float(data.get("mean_response_len", 0.0)),
            delta_acc=str(data.get("delta_acc", "")),
        )
        rec.validate()
        return rec


@dataclass
class LogprobRecord:
    """Truncated next-token distribution at one position of a trajectory."""

    trajectory_id: str
    position: int
    top_k: list[tuple[str, float]]
    residual_mass: float = 0.0

    def validate(self) -> None:
        _require(bool(self.trajectory_id), "logprob record: trajectory_id must be non-empty")
        _require(_is_int(self.position) and self.position >= 0,
                 f"logprob {self.trajectory_id}: position must be an integer >= 0")
        probs = [p for _, p in self.top_k]
        for p in probs:
            _require(0.0 < p <= 1.0,
                     f"logprob {self.trajectory_id}@{self.position}: probability {p} outside (0, 1]")
        _require(all(probs[i] >= probs[i + 1] for i in range(len(probs) - 1)),
                 f"logprob {self.trajectory_id}@{self.position}: probabilities not sorted non-increasing")
        _require(0.0 <= self.residual_mass < 1.0,
                 f"logprob {self.trajectory_id}@{self.position}: residual_mass outside [0, 1)")
        total = sum(probs) + self.residual_mass
        _require(1.0 - 1e-6 <= total <= 1.0 + 1e-6,
                 f"logprob {self.trajectory_id}@{self.position}: mass sums to {total}, not 1")

    @property
    def sort_key(self) -> tuple:
        return (self.trajectory_id, self.position)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trajectory_id": self.trajectory_id,
            "position": self.position,
            "top_k": [[tok, p] for tok, p in self.top_k],
            "residual_mass": self.residual_mass,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LogprobRecord":
        top_k = [(str(tok), float(p)) for tok, p in data.get("top_k", [])]
        rec = cls(
            trajectory_id=data.get("trajectory_id", ""),
            position=data.get("position", 0),
            top_k=top_k,
            residual_mass=float(data.get("residual_mass", 0.0)),
        )
        rec.validate()
        return rec


@dataclass
class EmbeddingRecord:
    """One latent vector, tagged with its before/after phase."""

    item_id: str
    phase: str
    vector: list[float]

    def validate(self) -> None:
        _require(bool(self.item_id), "embedding record: item_id must be non-empty")
        _require(self.phase in PHASES,
                 f"embedding {self.item_id}: phase must be one of {PHASES}, got {self.phase!r}")
        _require(len(self.vector) >= 1, f"embedding {self.item_id}: vector must have dimension >= 1")

    @property
    def sort_key(self) -> tuple:
        return (self.item_id, self.phase)

    def to_dict(self) -> dict[str, Any]:
        return {"item_id": self.item_id, "phase": self.phase, "vector": list(self.vector)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EmbeddingRecord":
        rec = cls(
            item_id=data.get("item_id", ""),
            phase=data.get("phase", ""),
            vector=[float(x) for x in data.get("vector", [])],
        )
        rec.validate()
        return rec


_RECORD_TYPES = {
    "questions": QuestionRecord,
    "trajectories": TrajectoryRecord,
    "logprobs": LogprobRecord,
    "embeddings": EmbeddingRecord,
    "scores": ScoreRecord,
}

Record = Any  # any of the record dataclasses above


def parse_corpus(path: str | Path, kind: str) -> list[Record]:
    """Parse a JSONL corpus file into validated records, in file order.

    Raises CorpusError naming the 1-based line number and byte offset for
    malformed lines, and naming field and record id for invariant
    violations. Duplicate primary keys report both line numbers.
    """
    if kind not in _RECORD_TYPES:
        raise CorpusError(f"unknown corpus kind {kind!r}; expected one of {CORPUS_KINDS}")
    record_type = _RECORD_TYPES[kind]
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"no such file: {path}")

    records: list[Record] = []
    seen_ids: dict[Any, int] = {}
    seen_sample_keys: dict[Any, int] = {}
    embed_dim: int | None = None
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line_offset = offset
            offset += len(raw)
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                text = stripped.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"invalid UTF-8: {exc}", line=lineno, offset=line_offset) from exc
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"unterminated or invalid JSON object: {exc.msg}",
                                  line=lineno, offset=line_offset) from exc
            if not isinstance(data, dict):
                raise CorpusError("record must be a JSON object", line=lineno, offset=line_offset)
            try:
                record = record_type.from_dict(data)
            except CorpusError as exc:
                raise CorpusError(str(exc), line=lineno, offset=line_offset) from exc

            rid = record.sort_key
            if rid in seen_ids:
                raise CorpusError(
                    f"duplicate record id {rid!r} (lines {seen_ids[rid]} and {lineno})",
                    line=lineno, offset=line_offset)
            seen_ids[rid] = lineno

            if kind == "trajectories":
                key = record.sample_key
                if key in seen_sample_keys:
                    raise CorpusError(
                        f"duplicate (question_id, teacher_id, sample_index) {key!r} "
                        f"(lines {seen_sample_keys[key]} and {lineno})",
                        line=lineno, offset=line_offset)
                seen_sample_keys[key] = lineno
            elif kind == "embeddings":
                if embed_dim is None:
                    embed_dim = len(record.vector)
                elif len(record.vector) != embed_dim:
                    raise CorpusError(
                        f"embedding {record.item_id}: dimension {len(record.vector)} "
                        f"differs from {embed_dim} established earlier in the file",
                        line=lineno, offset=line_offset)
            records.append(record)
    return records


def dumps_record(record: Record) -> str:
    """Canonical single-line JSON for a record: sorted keys, compact, UTF-8."""
    return json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file that takes path's place only once it is written in full.

    It is filled under a temp name of its own in the same directory and
    renamed over path, so a reader, or a run killed midway, sees the old
    bytes or the new ones, never a mix. If the write fails, path keeps its
    old bytes and the temp file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_corpus(path: str | Path, records: Iterable[Record]) -> int:
    """Write records as JSONL in the given order. Returns the record count.
    The file is replaced whole (see `replacing`)."""
    n = 0
    with replacing(path) as fh:
        for record in records:
            fh.write(dumps_record(record) + "\n")
            n += 1
    return n


_KIND_ORDINAL = {QuestionRecord: 0, TrajectoryRecord: 1, LogprobRecord: 2,
                 EmbeddingRecord: 3, ScoreRecord: 4}


def content_hash(records: Sequence[Record]) -> str:
    """SHA-256 over canonicalized record bytes, hex-encoded.

    Records are sorted lexicographically by primary id first, so the hash is
    insensitive to input order but sensitive to any field change.
    """
    ordered = sorted(records, key=lambda r: (_KIND_ORDINAL[type(r)], r.sort_key))
    payload = "\n".join(dumps_record(r) for r in ordered).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass
class CorpusManifest:
    """Ledger of one corpus stage: counts, lineage, and config snapshot."""

    stage: str
    question_count: int
    trajectory_count: int
    config_snapshot: dict[str, Any]
    content_hash: str
    parent_manifest: str | None = None
    created_at: str = ""
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "question_count": self.question_count,
            "trajectory_count": self.trajectory_count,
            "config_snapshot": self.config_snapshot,
            "content_hash": self.content_hash,
            "parent_manifest": self.parent_manifest,
            "created_at": self.created_at,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CorpusManifest":
        return cls(
            stage=data["stage"],
            question_count=data["question_count"],
            trajectory_count=data["trajectory_count"],
            config_snapshot=data.get("config_snapshot", {}),
            content_hash=data["content_hash"],
            parent_manifest=data.get("parent_manifest"),
            created_at=data.get("created_at", ""),
            notes=list(data.get("notes", [])),
        )


def write_manifest(stage: str,
                   records: Sequence[Record],
                   parent: CorpusManifest | None = None,
                   config: dict[str, Any] | None = None,
                   created_at: str | None = None) -> CorpusManifest:
    """Build the manifest for a corpus stage.

    Both question and trajectory counts are always recorded: for trajectory
    corpora the question count is the number of distinct question ids.
    Stage parentage must follow raw -> right -> right_hard ->
    right_hard_diverse; mixed may follow any stage.
    """
    if stage not in STAGES:
        raise CorpusError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if stage == "mixed":
        if parent is not None and parent.stage == "mixed":
            raise CorpusError("stage regression: mixed cannot be parented to mixed")
    elif stage == "raw":
        if parent is not None:
            raise CorpusError("stage regression: raw stage cannot have a parent")
    else:
        want = STAGES[STAGES.index(stage) - 1]
        if parent is None or parent.stage != want:
            got = parent.stage if parent else "none"
            raise CorpusError(f"stage regression: {stage} must be parented to {want}, got {got}")

    questions = [r for r in records if isinstance(r, QuestionRecord)]
    trajectories = [r for r in records if isinstance(r, TrajectoryRecord)]
    if questions:
        question_count = len(questions)
    else:
        question_count = len({t.question_id for t in trajectories})

    notes: list[str] = []
    if not records:
        notes.append("empty record set")

    return CorpusManifest(
        stage=stage,
        question_count=question_count,
        trajectory_count=len(trajectories),
        config_snapshot=dict(config or {}),
        content_hash=content_hash(records),
        parent_manifest=parent.content_hash if parent else None,
        created_at=created_at or datetime.now(timezone.utc).isoformat(),
        notes=notes,
    )


def write_json(path: str | Path, data: Any, ensure_ascii: bool = True) -> None:
    """Write data as indented JSON with sorted keys and a final newline,
    replacing the file whole (see `replacing`)."""
    with replacing(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, ensure_ascii=ensure_ascii)
        fh.write("\n")


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write a manifest as JSON, replacing the file whole (see `replacing`)."""
    write_json(path, manifest.to_dict(), ensure_ascii=False)


def load_manifest(path: str | Path) -> CorpusManifest:
    """The manifest at path; CorpusError naming the file if it is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return CorpusManifest.from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise CorpusError(f"{path} is not a manifest: {type(exc).__name__}: {exc}") from exc


def lineage_chain(manifest: CorpusManifest,
                  by_hash: dict[str, CorpusManifest]) -> list[CorpusManifest]:
    """Follow parent hashes back to the raw stage. Errors on cycles or gaps.

    Mixed manifests without a linear parent record their sources in the
    config snapshot instead and are valid chain terminals.
    """
    chain = [manifest]
    cur = manifest
    while cur.parent_manifest is not None:
        parent = by_hash.get(cur.parent_manifest)
        if parent is None:
            raise CorpusError(f"manifest lineage broken: missing parent {cur.parent_manifest}")
        chain.append(parent)
        if len(chain) > len(STAGES):
            raise CorpusError("manifest lineage too deep; expected <= 4 hops to raw")
        cur = parent
    if chain[-1].stage not in ("raw", "mixed"):
        raise CorpusError(f"lineage terminates at {chain[-1].stage}, not raw")
    return chain
