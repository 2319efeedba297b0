"""Pipeline configuration: a JSON document with defaults and exhaustive
validation. The normalized config is echoed into every stage manifest."""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any

from .records import Spec, at_least, field_error, one_of, within

STAGE_SEQUENCE = ("sample", "filter", "compress", "diversify", "mix", "stats")


def _stage_order(stages: list[Any]) -> str | None:
    unknown = [s for s in stages if s not in STAGE_SEQUENCE]
    if unknown:
        return f"unknown stage names {unknown}"
    order = [STAGE_SEQUENCE.index(s) for s in stages]
    if order != sorted(set(order)):
        return f"must follow the order {list(STAGE_SEQUENCE)}, each stage at most once"
    # each corpus stage reads the one before it: a gap would feed a stage
    # the wrong corpus under its parent's manifest
    chain = [i for i in order if STAGE_SEQUENCE[i] not in ("mix", "stats")]
    if chain and chain != list(range(chain[0], chain[-1] + 1)):
        return "sample, filter, compress and diversify must run without a gap between them"
    return None


_MIX_SOURCE_FIELDS = {"path": Spec(str), "take": Spec(int, check=at_least(1))}


def _mix_sources(sources: list[Any]) -> str | None:
    for i, src in enumerate(sources):
        if not isinstance(src, dict) or not _MIX_SOURCE_FIELDS.keys() <= src.keys():
            return f"item {i}: expected an object with path and take"
        unknown = sorted(src.keys() - _MIX_SOURCE_FIELDS.keys())
        if unknown:
            return f"item {i}: unknown key {unknown[0]!r}"
        for key, spec in _MIX_SOURCE_FIELDS.items():
            error = field_error(spec, src[key])
            if error is not None:
                return f"item {i}: {key}: {error}"
    return None


CLIENT_FIELDS: dict[str, Spec] = {
    "mode": Spec(str, "mock", one_of(("mock", "http"))),
    "fixtures": Spec(str, None),
    "base_url": Spec(str, None),
    "max_in_flight": Spec(int, 4, at_least(1)),
    "retry_budget": Spec(int, 3, at_least(1)),
    "cache_dir": Spec(str, None),
}

FIELDS: dict[str, Spec] = {
    "questions": Spec(str, None),
    "out_dir": Spec(str, "ded_out"),
    "teacher_id": Spec(str, "teacher-mock"),
    "student_id": Spec(str, "student-mock"),
    "stages": Spec(list, ["sample", "filter", "compress", "diversify", "stats"], _stage_order),
    "max_token_len": Spec(int, 16384, at_least(1)),
    "require_single_think_pair": Spec(bool, True),
    "token_estimator": Spec(str, "chars_div_4_fallback",
                            one_of(("precomputed_only", "chars_div_4_fallback"))),
    "pass_threshold": Spec((int, float), 0.5, within(0, 1)),
    "samples_per_question": Spec(int, 8, at_least(1)),
    "diverse_per_question": Spec(int, 4, at_least(1)),
    "runs": Spec(int, 16, at_least(1)),
    "unit": Spec(str, "char", one_of(("char", "token"))),
    "cap_ratio": Spec((int, float, type(None)), 0.6,
                      lambda v: None if 0 < v <= 1 else f"must be in (0, 1], got {v}"),
    "temperature": Spec((int, float), 0.7, at_least(0)),
    "seed": Spec(int, 0),
    "tokenizer": Spec(str, None),
    "timestamp": Spec(str, None),
    "workers": Spec(int, 1, at_least(1)),
    "pca_components": Spec(int, 2, at_least(1)),
    "logprobs": Spec(str, None),
    "embeddings": Spec(str, None),
    "mix_sources": Spec(list, None, _mix_sources),
}

class ConfigError(ValueError):
    """Validation failure carrying every problem found, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
        self.errors = errors


def _apply(specs: dict[str, Spec], raw: dict[str, Any], prefix: str,
           errors: list[str]) -> dict[str, Any]:
    """raw over the defaults of specs, with every problem appended to errors."""
    errors.extend(f"unknown key {prefix + key!r}" for key in sorted(raw) if key not in specs)
    out = {}
    for key, spec in specs.items():
        out[key] = raw[key] if key in raw else copy.copy(spec.default)
        error = field_error(spec, out[key])
        if error is not None:
            errors.append(f"{prefix}{key}: {error}")
    return out


def validate_config(source: str | Path | dict[str, Any]) -> dict[str, Any]:
    """Apply defaults and validate; raises ConfigError listing every problem."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"cannot read config {source}: {exc}"]) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config {source} is not valid JSON: {exc}"]) from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])

    errors: list[str] = []
    client = raw.pop("client", {})
    cfg = _apply(FIELDS, raw, "", errors)
    if not isinstance(client, dict):
        errors.append("client: expected an object")
        client = {}
    cfg["client"] = _apply(CLIENT_FIELDS, client, "client.", errors)
    if isinstance(cfg["stages"], list) and "mix" in cfg["stages"] and not cfg["mix_sources"]:
        errors.append("stages: mix needs mix_sources, a list of {path, take}")
    if errors:
        raise ConfigError(errors)
    return cfg

