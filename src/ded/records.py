"""Domain records, their JSONL serialization, and stage-lineage manifests.

Every pipeline stage exchanges data through the record types defined here.
Files are newline-delimited JSON, UTF-8, one record per line; unknown fields
survive a parse/write round trip via each record's ``extra`` mapping. Each
field is declared once, by a `Spec`; `check_object`, the one check of a JSON
object against a table of them, serves records, config and fixture rows.
`parse_corpus` reads every record file a command takes, the scores `ded rank`
ranks (as JSONL or CSV) and the pass rates `ded stats pass1` reads among them.
`load_json` is the one JSON decoder of everything `ded` reads: records,
manifests, config, cache entries, replies and weights.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

DOMAINS = ("math", "code")
VERDICT_STATUSES = ("correct", "incorrect", "unverifiable", "malformed_format", "overlength")
CHECKERS = ("rule", "judge", "format", "length")
# format and length failures only come from their own checkers
_STATUS_CHECKERS = {"malformed_format": ("format",), "overlength": ("length",),
                    "correct": ("rule", "judge"), "incorrect": ("rule", "judge")}
# The stages a manifest may record; which one follows which is the parent
# column of ded.pipeline's STAGE_TABLE.
STAGES = ("raw", "right", "right_hard", "right_hard_diverse", "mixed")
PHASES = ("before", "after")

EPOCH_ISO = "1970-01-01T00:00:00+00:00"


class CorpusError(ValueError):
    """Malformed corpus file or record invariant violation."""


def _no_repeats(keys: Sequence[str]) -> None:
    """CorpusError naming the first key that keys holds twice, if any."""
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise CorpusError(f"repeated key {key!r}")


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    data = dict(pairs)
    if len(data) < len(pairs):  # RFC 8259 leaves what a repeated key means open
        _no_repeats([key for key, _ in pairs])
    return data


_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def load_json(data: str | bytes) -> Any:
    """data's JSON value (UTF-8 if bytes); CorpusError if invalid or an object repeats a key."""
    try:
        return _DECODER.decode(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"invalid UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise CorpusError(f"invalid JSON: {exc.msg}") from exc


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


def check_object(specs: dict[str, Spec],
                 data: dict[str, Any]) -> tuple[dict[str, Any], list[tuple[str, str]]]:
    """The fields specs declares in the JSON object data, each loaded where it
    checks and a copy of its default where absent, and a (field, problem) pair
    for each one missing or not checking, in declaration order; other keys are unread."""
    values, problems = {}, []
    for name, spec in specs.items():
        if name in data:
            value = values[name] = data[name]
            error = field_error(spec, value)
            if error is None and value is not None and spec.load is not None:
                try:
                    values[name] = spec.load(value)
                except ValueError as exc:  # a nested record that does not check
                    error = str(exc)
        else:
            values[name] = copy.copy(spec.default)
            error = "missing" if spec.default is MISSING else None
        if error is not None:
            problems.append((name, error))
    return values, problems


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


def _finite(convert: Callable[[str], Any], low: int, high: float = math.inf) -> Check:
    """The check of a JSON number or numeric string whose text convert
    reads: finite and in [low, high]."""
    def check(value: Any) -> str | None:
        try:
            if math.isfinite(number := convert(str(value))) and low <= number <= high:
                return None
        except (ArithmeticError, ValueError):  # decimal.InvalidOperation among them
            pass
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        return f"must be a finite number {bounds}, got {value!r}"
    return check


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


def _name(label: str, key: Iterable[Any]) -> str:
    ident = "/".join(str(part) for part in key if part not in (None, ""))
    return f"{label} {ident}" if ident else label


def _require(record: Any, cond: bool, message: str) -> None:
    if not cond:
        raise CorpusError(f"{_name(record._label, record.sort_key)}: {message}")


def _from_dict(cls: type, data: dict[str, Any]) -> Any:
    """The record of a JSON object, validated; unknown fields go to `extra`."""
    if not isinstance(data, dict):
        raise CorpusError(f"{cls._label}: expected a JSON object, got {type(data).__name__}")
    values, problems = check_object(cls._specs, data)
    if problems:
        raise CorpusError(_name(cls._label, map(data.get, cls._key)) + ": %s: %s" % problems[0])
    extra = {k: v for k, v in data.items() if k not in cls._specs and k not in cls._derived}
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
        cls._specs = {f.name: f.metadata["spec"] for f in fields(cls) if "spec" in f.metadata}
        # a field that loads a JSON object into a record holds a nested record
        cls._nested = tuple(name for name, spec in cls._specs.items()
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

    question_id: str = _field(str, check=_non_empty)
    runs: int = _field(int, check=at_least(1))
    successes: int = _field(int, check=at_least(0))

    def _invariants(self) -> None:
        _require(self, self.successes <= self.runs,
                 f"successes {self.successes} must be at most runs {self.runs}")

    @property
    def pass_rate(self) -> Fraction:
        return Fraction(self.successes, self.runs)


@_record("score", "teacher_id", "student_id", "benchmark",
         derived={"delta_acc": lambda s: s.delta_acc})
class ScoreRecord:
    """One (teacher, student, benchmark) evaluation row: the student's
    accuracy trained on the teacher's corpus, and before it.

    Accuracies are percentages on [0, 100] kept as exact decimal strings so
    that delta arithmetic matches the input precision digit for digit.
    """

    teacher_id: str = _field(str, check=_non_empty)
    student_id: str = _field(str, check=_non_empty)
    benchmark: str = _field(str, check=_non_empty)
    acc: str = _field((str, int, float), check=_finite(Decimal, 0, 100), load=str)
    mean_response_len: float = _field((int, float, str), check=_finite(float, 0), load=float)
    base_acc: str = _field((str, int, float), check=_finite(Decimal, 0, 100), load=str)

    @property
    def delta_acc(self) -> str:
        """acc - base_acc, exact."""
        return str(Decimal(self.acc) - Decimal(self.base_acc))


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
    "pass_rates": PassRateStats,
}
CORPUS_KINDS = tuple(_RECORD_TYPES)
# what every record of a file of the kind has the same of, and how to measure it
_UNIFORM = {"embeddings": ("dimension", lambda e: len(e.vector)),
            "pass_rates": ("runs", lambda s: s.runs)}

Record = Any  # any of the record dataclasses above


def read_jsonl(path: str | Path, load: Callable[[int, dict[str, Any]], None]) -> None:
    """Call load(line number, object) on each line of a JSONL file that is
    not blank, in file order. A line that is not a JSON object (`load_json`)
    is a CorpusError. Each refusal, this function's or load's, is raised again
    as its own type with "<path> line <n>: " in front, n counted from 1."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.isspace():
                continue
            try:
                if not isinstance(data := load_json(raw), dict):
                    raise CorpusError(f"not a JSON object, got {type(data).__name__}")
                load(lineno, data)
            except ValueError as exc:
                raise type(exc)(f"{path} line {lineno}: {exc}") from exc


def _read_csv(path: str | Path, load: Callable[[int, dict[str, Any]], None]) -> None:
    """`read_jsonl` for a UTF-8 CSV file, a byte-order mark skipped: load
    gets each row that is not blank as the object of the header's names and
    the row's cells, all strings, the header being line 1. A NUL byte, a
    header that repeats a cell, or a row whose cell count is not the header's,
    is a CorpusError."""
    import csv
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise CorpusError(f"{path} line {lineno}: invalid UTF-8: {exc.reason}") from exc
    if (nul := text.find("\0")) >= 0:  # csv reads it into a cell on 3.11, refuses it on 3.10
        raise CorpusError(f"{path} line {text.count(chr(10), 0, nul) + 1}: NUL byte")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        _no_repeats(header := next(reader, []))
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise CorpusError(f"{len(cells)} cells, the header has {len(header)}")
            load(reader.line_num, dict(zip(header, cells)))
    except csv.Error as exc:
        raise CorpusError(f"{path} line {reader.line_num}: {exc}") from exc
    except ValueError as exc:
        raise type(exc)(f"{path} line {reader.line_num}: {exc}") from exc


def parse_corpus(path: str | Path, kind: str) -> list[Record]:
    """Parse a corpus file into validated records, in file order: JSONL (see
    `read_jsonl`), or for scores a file named *.csv (see `_read_csv`).

    Raises CorpusError naming the file and 1-based line number of a
    malformed line, and naming field and record id for invariant
    violations. Duplicate primary keys report both line numbers, and so does
    a record that differs from the file's first in what `_UNIFORM` holds
    the same across the file of its kind.
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
        if kind in _UNIFORM and records:
            what, measure = _UNIFORM[kind]
            head = records[0]
            if measure(record) != measure(head):
                raise CorpusError(f"{_name(record._label, record.sort_key)}: {what}"
                                  f" {measure(record)} differs from {measure(head)} of"
                                  f" {_name(head._label, head.sort_key)}"
                                  f" (lines {seen['record id', head.sort_key]} and {lineno})")
        records.append(record)

    if kind == "scores" and Path(path).suffix.lower() == ".csv":
        _read_csv(path, load)
    else:
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
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
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
    """SHA-256 over canonicalized record bytes, hex-encoded: the records'
    canonical lines (`dumps_record`) joined by newlines, UTF-8.

    Records are sorted lexicographically by primary id first, so the hash is
    insensitive to input order but sensitive to any field change. `lines`,
    if given, are the records' canonical lines, in the records' order.
    The lines are hashed one at a time, so no copy of the corpus is built.
    """
    order = sorted(range(len(records)),
                   key=lambda i: (_KIND_ORDINAL[type(records[i])], records[i].sort_key))
    digest = hashlib.sha256()
    for n, i in enumerate(order):
        if n:
            digest.update(b"\n")
        digest.update((dumps_record(records[i]) if lines is None else lines[i]).encode("utf-8"))
    return digest.hexdigest()


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
    `parent` is the manifest of the corpus the records were made from, if
    any; its content hash is recorded as `parent_manifest`.
    """
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
    try:
        return CorpusManifest.from_dict(load_json(Path(path).read_bytes()))
    except CorpusError as exc:
        raise CorpusError(f"{path} is not a manifest: {exc}") from exc

