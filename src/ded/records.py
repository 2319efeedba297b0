"""Domain records, their JSONL serialization, and stage-lineage manifests.

Every pipeline stage exchanges data through the record types defined here.
Files are newline-delimited JSON, UTF-8, one record per line; unknown fields
survive a parse/write round trip via each record's ``extra`` mapping. Each
field is declared once, by a `Spec` (also used by `ded.config`); `_record`
derives `from_dict`, `to_dict` and `validate` from the declarations.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence, TextIO

DOMAINS = ("math", "code")
VERDICT_STATUSES = ("correct", "incorrect", "unverifiable", "malformed_format", "overlength")
CHECKERS = ("rule", "judge", "format", "length")
# format and length failures only come from their own checkers
_STATUS_CHECKERS = {"malformed_format": ("format",), "overlength": ("length",),
                    "correct": ("rule", "judge"), "incorrect": ("rule", "judge")}
# The linear lineage raw -> right -> right_hard -> right_hard_diverse;
# "mixed" may follow any of these.
STAGES = ("raw", "right", "right_hard", "right_hard_diverse", "mixed")
PHASES = ("before", "after")
CORPUS_KINDS = ("questions", "trajectories", "logprobs", "embeddings", "scores")

EPOCH_ISO = "1970-01-01T00:00:00+00:00"


class CorpusError(ValueError):
    """Malformed corpus file or record invariant violation. Raised by
    `read_jsonl`, it carries the 1-based line number and byte offset of the
    offending line."""

    line: int | None = None
    offset: int | None = None


# ------------------------------------------------------------ declarations

Check = Callable[[Any], str | None]
_JSON_NAMES = {str: "string", int: "integer", float: "float", bool: "boolean", dict: "object",
               list: "list", type(None): "null"}


class Spec(NamedTuple):
    """One field: its JSON types, its default when absent (MISSING: the field
    is required; None also admits null), the check of a value of those types,
    which returns what is wrong with it or None, and how the value loads."""

    types: type | tuple[type, ...]
    default: Any = MISSING
    check: Check | None = None
    load: Callable[[Any], Any] | None = None


def field_error(spec: Spec, value: Any) -> str | None:
    """What is wrong with a JSON value of a field declared by spec, or None."""
    if value is None and spec.default is None:
        return None
    # a bool is an int to isinstance, but not a JSON integer
    if isinstance(value, spec.types) and (type(value) is not bool or spec.types is bool):
        return None if value is None or spec.check is None else spec.check(value)
    types = spec.types if isinstance(spec.types, tuple) else (spec.types,)
    got = "boolean" if isinstance(value, bool) else type(value).__name__
    return f"expected {' or '.join(_JSON_NAMES[t] for t in types)}, got {got}"


def at_least(low: int) -> Check:
    return lambda v: None if v >= low else f"must be >= {low}, got {v}"


def within(low: float, high: float) -> Check:
    return lambda v: None if low <= v <= high else f"must be in [{low}, {high}], got {v}"


def one_of(options: Sequence[str]) -> Check:
    return lambda v: None if v in options else f"must be one of {list(options)}, got {v!r}"


def _non_empty(value: Any) -> str | None:
    return None if value else "must be non-empty"


def strings_only(value: list[Any]) -> str | None:
    return None if all(isinstance(x, str) for x in value) else "must hold strings only"


def _decimal(value: Any, low: int | None = None, high: int | None = None) -> str | None:
    try:
        number = Decimal(str(value))
        if low is None or low <= number <= high:
            return None
    except InvalidOperation:
        pass
    return f"must be a decimal{'' if low is None else f' in [{low}, {high}]'}, got {value!r}"


def _distribution(top_k: list[Any]) -> str | None:
    if not all(isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
               and type(pair[1]) in (int, float) and 0 < pair[1] <= 1 for pair in top_k):
        return "must hold [token, probability] pairs, each probability in (0, 1]"
    probs = [p for _, p in top_k]
    if any(a < b for a, b in zip(probs, probs[1:])):
        return f"probabilities must not increase, got {probs}"
    return None


def _field(types: type | tuple[type, ...], default: Any = MISSING, check: Check | None = None,
           load: Callable[[Any], Any] | None = None) -> Any:
    """A record's dataclass field, declared by its Spec."""
    meta = {"spec": Spec(types, default, check, load)}
    if isinstance(default, (list, dict)):
        return field(default_factory=type(default), metadata=meta)
    return field(default=default, metadata=meta)


def _where(label: str, key: Iterable[Any]) -> str:
    ident = "/".join(str(part) for part in key if part not in (None, ""))
    return f"{label} {ident}: " if ident else f"{label}: "


def _require(record: Any, cond: bool, message: str) -> None:
    if not cond:
        raise CorpusError(_where(record._label, record.sort_key) + message)


def _from_dict(cls: type, data: dict[str, Any]) -> Any:
    """The record of a JSON object, validated; unknown fields go to `extra`."""
    if not isinstance(data, dict):
        raise CorpusError(f"{cls._label}: expected a JSON object, got {type(data).__name__}")
    extra = dict(data)
    values = {}
    for name, spec in cls._specs:
        value = extra.pop(name, MISSING)
        if value is not MISSING:
            error = field_error(spec, value)
        elif spec.default is MISSING:
            error = "missing"
        else:
            continue  # the dataclass default
        if error is not None:
            where = _where(cls._label, (data.get(k) for k in cls._key))
            raise CorpusError(f"{where}{name}: {error}")
        values[name] = value if value is None or spec.load is None else spec.load(value)
    for name in cls._derived:
        extra.pop(name, None)
    record = cls(**values, extra=extra)
    if hasattr(record, "_invariants"):
        record._invariants()
    return record


def _to_dict(self: Any) -> dict[str, Any]:
    """The JSON object of a record: its fields (a nested record that is None
    left out), its derived fields and `extra`."""
    out = dict(vars(self))  # the dataclass fields
    extra = out.pop("extra")
    for name in self._nested:
        value = out.pop(name)
        if value is not None:
            out[name] = value.to_dict()
    for name, derive in self._derived.items():
        out[name] = derive(self)
    out.update(extra)
    return out


def _validate(self: Any) -> None:
    """CorpusError unless the record's JSON object loads back: each field's
    type and check, and the invariants across fields."""
    self.from_dict(self.to_dict())


def _record(label: str, *key: str,
            derived: dict[str, Callable[[Any], Any]] | None = None) -> Callable[[type], type]:
    """Class decorator: a dataclass whose `from_dict`, `to_dict` and
    `validate` follow its `_field` declarations, plus an `extra` mapping of
    the JSON fields it does not declare. Its `sort_key` is the values of its
    key fields; `label` and the key name a record in errors; `derived` fields
    are written from the record and never read back."""
    def make(cls: type) -> type:
        cls.__annotations__["extra"] = "dict[str, Any]"
        cls.extra = field(default_factory=dict)
        cls = dataclass(cls)
        cls._label, cls._key, cls._derived = label, key, derived or {}
        cls._specs = tuple((f.name, f.metadata["spec"]) for f in fields(cls)
                           if "spec" in f.metadata)
        # a field that loads a JSON object into a record holds a nested record
        cls._nested = tuple(name for name, spec in cls._specs
                            if spec.types is dict and spec.load is not None)
        cls.from_dict = classmethod(_from_dict)
        cls.to_dict = _to_dict
        cls.validate = _validate
        cls.sort_key = property(lambda self: tuple(getattr(self, k) for k in key))
        return cls
    return make


# ------------------------------------------------------------------ records


@_record("verdict")
class VerificationVerdict:
    """Outcome of one format/length/correctness gate."""

    status: str = _field(str, check=one_of(VERDICT_STATUSES))
    checker: str = _field(str, check=one_of(CHECKERS))
    detail: str = _field(str, "")

    def _invariants(self) -> None:
        checkers = _STATUS_CHECKERS.get(self.status, CHECKERS)
        _require(self, self.checker in checkers,
                 f"status {self.status} requires checker {' or '.join(checkers)}")


@_record("question", "question_id")
class QuestionRecord:
    """One seed problem; the unit of compression."""

    question_id: str = _field(str, check=_non_empty)
    domain: str = _field(str, check=one_of(DOMAINS))
    prompt: str = _field(str)
    ground_truth: str | None = _field(str, None)
    source: str = _field(str, "")
    tags: list[str] = _field(list, [], strings_only)


@_record("trajectory", "trajectory_id")
class TrajectoryRecord:
    """One teacher-sampled response tied to a question.

    ``char_len`` is derived from ``text`` when absent. ``token_len`` is
    carried data: the count under the tokenizer named in the manifest
    config, never computed here.
    """

    trajectory_id: str = _field(str, check=_non_empty)
    question_id: str = _field(str, check=_non_empty)
    teacher_id: str = _field(str)
    sample_index: int = _field(int, check=at_least(0))
    text: str = _field(str)
    token_len: int | None = _field(int, None, at_least(0))
    char_len: int | None = _field(int, None)
    verdict: VerificationVerdict | None = _field(dict, None,
                                                 load=VerificationVerdict.from_dict)

    def __post_init__(self) -> None:
        if self.char_len is None:
            self.char_len = len(self.text)

    def _invariants(self) -> None:
        _require(self, self.char_len == len(self.text),
                 f"char_len {self.char_len} != len(text) {len(self.text)}")


@_record("stats", "question_id", derived={"pass_rate": lambda s: float(s.pass_rate)})
class PassRateStats:
    """Per-question student success counts; exact rational pass rate."""

    question_id: str = _field(str)
    runs: int = _field(int, check=at_least(1))
    successes: int = _field(int, check=at_least(0))

    def _invariants(self) -> None:
        _require(self, self.successes <= self.runs,
                 f"successes {self.successes} must be at most runs {self.runs}")

    @property
    def pass_rate(self) -> Fraction:
        return Fraction(self.successes, self.runs)


@_record("score", "teacher_id", "student_id", "benchmark")
class ScoreRecord:
    """One (teacher, student, benchmark) evaluation row.

    Accuracies are percentages on [0, 100] kept as exact decimal strings so
    that delta arithmetic matches the input precision digit for digit.
    """

    teacher_id: str = _field(str, check=_non_empty)
    student_id: str = _field(str, check=_non_empty)
    benchmark: str = _field(str, check=_non_empty)
    acc: str = _field((str, int, float), check=lambda v: _decimal(v, 0, 100), load=str)
    mean_response_len: float = _field((int, float), load=float)
    delta_acc: str = _field((str, int, float), check=_decimal, load=str)


@_record("logprob", "trajectory_id", "position")
class LogprobRecord:
    """Truncated next-token distribution at one position of a trajectory."""

    trajectory_id: str = _field(str, check=_non_empty)
    position: int = _field(int, check=at_least(0))
    top_k: list[tuple[str, float]] = _field(list, check=_distribution,
                                             load=lambda v: [(t, float(p)) for t, p in v])
    residual_mass: float = _field((int, float), 0.0, lambda v: None if 0 <= v < 1
                                  else f"must be in [0, 1), got {v}", float)

    def _invariants(self) -> None:
        total = sum(p for _, p in self.top_k) + self.residual_mass
        _require(self, 1.0 - 1e-6 <= total <= 1.0 + 1e-6, f"mass sums to {total}, not 1")


@_record("embedding", "item_id", "phase")
class EmbeddingRecord:
    """One latent vector, tagged with its before/after phase."""

    item_id: str = _field(str, check=_non_empty)
    phase: str = _field(str, check=one_of(PHASES))
    vector: list[float] = _field(list, check=lambda v: None if v and {*map(type, v)} <= {int, float}
                                 else "must be a non-empty list of numbers",
                                 load=lambda v: list(map(float, v)))


_RECORD_TYPES = {
    "questions": QuestionRecord,
    "trajectories": TrajectoryRecord,
    "logprobs": LogprobRecord,
    "embeddings": EmbeddingRecord,
    "scores": ScoreRecord,
}

Record = Any  # any of the record dataclasses above


def read_jsonl(path: str | Path, load: Callable[[int, dict[str, Any]], None]) -> None:
    """Call load(line number, object) on each line of a JSONL file that is
    not blank, in file order. A line that is not a UTF-8 JSON object is a
    CorpusError. Each refusal, this function's or load's, is raised again as
    its own type with "<path> line <n>: " in front, and the line's number
    and byte offset as its `line` and `offset`."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.isspace():
                continue
            try:
                try:
                    data = json.loads(raw.strip().decode("utf-8"))
                except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                    raise CorpusError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
                if not isinstance(data, dict):
                    raise CorpusError(f"not a JSON object, got {type(data).__name__}")
                load(lineno, data)
            except ValueError as exc:
                error = type(exc)(f"{path} line {lineno}: {exc}")
                error.line, error.offset = lineno, fh.tell() - len(raw)
                raise error from exc


def parse_corpus(path: str | Path, kind: str) -> list[Record]:
    """Parse a JSONL corpus file into validated records, in file order.

    Raises CorpusError naming the file, 1-based line number and byte offset
    of a malformed line (see `read_jsonl`), and naming field and record id
    for invariant violations. Duplicate primary keys report both line numbers.
    """
    if kind not in _RECORD_TYPES:
        raise CorpusError(f"unknown corpus kind {kind!r}; expected one of {CORPUS_KINDS}")
    record_type = _RECORD_TYPES[kind]

    records: list[Record] = []
    seen: dict[Any, int] = {}  # record ids and trajectory sample keys -> line

    def load(lineno: int, data: dict[str, Any]) -> None:
        record = record_type.from_dict(data)
        keys = [("record id", record.sort_key)]
        if kind == "trajectories":
            keys.append(("(question_id, teacher_id, sample_index)",
                         (record.question_id, record.teacher_id, record.sample_index)))
        for what, key in keys:
            first = seen.setdefault((what, key), lineno)
            if first != lineno:
                raise CorpusError(f"duplicate {what} {key!r} (lines {first} and {lineno})")
        if kind == "embeddings" and records and len(record.vector) != len(records[0].vector):
            raise CorpusError(f"embedding {record.item_id}: dimension {len(record.vector)} differs"
                              f" from {len(records[0].vector)} established earlier in the file")
        records.append(record)

    read_jsonl(path, load)
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


def write_corpus(path: str | Path, records: Iterable[Record]) -> list[str]:
    """Write records as JSONL in the given order, replacing the file whole
    (see `replacing`). Returns the lines written, newlines left off, for
    `content_hash` to hash without serialising the records again."""
    lines = []
    with replacing(path) as fh:
        for record in records:
            lines.append(dumps_record(record))
            fh.write(lines[-1] + "\n")
    return lines


_KIND_ORDINAL = {record_type: i for i, record_type in enumerate(_RECORD_TYPES.values())}


def content_hash(records: Sequence[Record], lines: Sequence[str] | None = None) -> str:
    """SHA-256 over canonicalized record bytes, hex-encoded.

    Records are sorted lexicographically by primary id first, so the hash is
    insensitive to input order but sensitive to any field change. `lines`,
    if given, are the records' canonical lines (`dumps_record`), in the
    records' order.
    """
    if lines is None:
        lines = [dumps_record(r) for r in records]
    order = sorted(range(len(records)),
                   key=lambda i: (_KIND_ORDINAL[type(records[i])], records[i].sort_key))
    payload = "\n".join(lines[i] for i in order).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@_record("manifest", "stage")
class CorpusManifest:
    """Ledger of one corpus stage: counts, lineage, and config snapshot."""

    stage: str = _field(str, check=one_of(STAGES))
    question_count: int = _field(int, check=at_least(0))
    trajectory_count: int = _field(int, check=at_least(0))
    config_snapshot: dict[str, Any] = _field(dict)
    content_hash: str = _field(str)
    parent_manifest: str | None = _field(str, None)
    created_at: str = _field(str, "")
    notes: list[str] = _field(list, [], strings_only)


def _parent_stages(stage: str) -> tuple[str | None, ...]:
    """The stages a manifest of stage may follow, None for no parent."""
    if stage == "raw":
        return (None,)
    if stage == "mixed":
        return (None, *STAGES[:-1])
    return (STAGES[STAGES.index(stage) - 1],)


def write_manifest(stage: str,
                   records: Sequence[Record],
                   parent: CorpusManifest | None = None,
                   config: dict[str, Any] | None = None,
                   created_at: str | None = None,
                   lines: Sequence[str] | None = None) -> CorpusManifest:
    """Build the manifest for a corpus stage; `lines`, if given, are the
    records' canonical lines (see `content_hash`).

    Both question and trajectory counts are always recorded: for trajectory
    corpora the question count is the number of distinct question ids.
    Stage parentage must follow raw -> right -> right_hard ->
    right_hard_diverse; mixed may follow any stage.
    """
    if stage not in STAGES:
        raise CorpusError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if (parent.stage if parent else None) not in _parent_stages(stage):
        raise CorpusError(f"stage regression: {stage} cannot follow "
                          f"{parent.stage if parent else 'no stage'}")

    questions = [r for r in records if isinstance(r, QuestionRecord)]
    trajectories = [r for r in records if isinstance(r, TrajectoryRecord)]
    if questions:
        question_count = len(questions)
    else:
        question_count = len({t.question_id for t in trajectories})

    return CorpusManifest(
        stage=stage,
        question_count=question_count,
        trajectory_count=len(trajectories),
        config_snapshot=dict(config or {}),
        content_hash=content_hash(records, lines),
        parent_manifest=parent.content_hash if parent else None,
        created_at=created_at or datetime.now(timezone.utc).isoformat(),
        notes=[] if records else ["empty record set"],
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
    """The manifest at path; CorpusError naming the file (and field) if it is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return CorpusManifest.from_dict(json.load(fh))
        except ValueError as exc:  # CorpusError and JSONDecodeError among them
            raise CorpusError(f"{path} is not a manifest: {exc}") from exc


def lineage_chain(manifest: CorpusManifest,
                  manifests: Collection[CorpusManifest]) -> list[CorpusManifest]:
    """manifest and its ancestors among manifests, back to the raw stage:
    each parent is of a stage the child may follow (`_parent_stages`), so
    stages of equal content hashes are told apart. Errors on a gap. Mixed
    manifests without a parent are valid chain terminals."""
    chain = [manifest]
    while chain[-1].parent_manifest is not None:
        cur = chain[-1]
        parent = next((m for m in manifests if m.stage in _parent_stages(cur.stage)
                       and m.content_hash == cur.parent_manifest), None)
        if parent is None:
            raise CorpusError(f"manifest lineage broken: missing parent {cur.parent_manifest}")
        chain.append(parent)
    if chain[-1].stage not in ("raw", "mixed"):
        raise CorpusError(f"lineage terminates at {chain[-1].stage}, not raw")
    return chain
