"""Pipeline configuration: a JSON document with defaults and exhaustive
validation. The normalized config is echoed into every stage manifest."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

STAGE_SEQUENCE = ("sample", "filter", "compress", "diversify", "mix", "stats")

_CLIENT_DEFAULTS: dict[str, Any] = {
    "mode": "mock",
    "fixtures": None,
    "base_url": None,
    "max_in_flight": 4,
    "retry_budget": 3,
    "cache_dir": None,
}

DEFAULTS: dict[str, Any] = {
    "questions": None,
    "out_dir": "ded_out",
    "teacher_id": "teacher-mock",
    "student_id": "student-mock",
    "stages": ["sample", "filter", "compress", "diversify", "stats"],
    "max_token_len": 16384,
    "require_single_think_pair": True,
    "token_estimator": "chars_div_4_fallback",
    "pass_threshold": 0.5,
    "samples_per_question": 8,
    "diverse_per_question": 4,
    "runs": 16,
    "unit": "char",
    "cap_ratio": 0.6,
    "temperature": 0.7,
    "seed": 0,
    "tokenizer": None,
    "timestamp": None,
    "workers": 1,
    "pca_components": 2,
    "logprobs": None,
    "embeddings": None,
    "mix_sources": None,
    "client": dict(_CLIENT_DEFAULTS),
}


class ConfigError(ValueError):
    """Validation failure carrying every problem found, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
        self.errors = errors


def _check_type(errors: list[str], key: str, value: Any, types: tuple, desc: str) -> bool:
    if isinstance(value, bool) and bool not in types:
        errors.append(f"{key}: expected {desc}, got boolean")
        return False
    if not isinstance(value, types):
        errors.append(f"{key}: expected {desc}, got {type(value).__name__}")
        return False
    return True


def validate_config(source: str | Path | dict[str, Any]) -> dict[str, Any]:
    """Apply defaults and validate; raises ConfigError listing every problem."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])

    errors: list[str] = []
    for key in sorted(raw):
        if key not in DEFAULTS:
            errors.append(f"unknown key {key!r}")

    cfg: dict[str, Any] = {k: (dict(v) if isinstance(v, dict) else
                               list(v) if isinstance(v, list) else v)
                           for k, v in DEFAULTS.items()}
    for key, value in raw.items():
        if key in DEFAULTS and key != "client":
            cfg[key] = value
    client_raw = raw.get("client", {})
    if isinstance(client_raw, dict):
        for key in sorted(client_raw):
            if key not in _CLIENT_DEFAULTS:
                errors.append(f"client: unknown key {key!r}")
        cfg["client"].update({k: v for k, v in client_raw.items() if k in _CLIENT_DEFAULTS})
    elif "client" in raw:
        errors.append("client: expected an object")

    for key in ("questions", "tokenizer", "timestamp", "logprobs", "embeddings"):
        if cfg[key] is not None:
            _check_type(errors, key, cfg[key], (str,), "string or null")
    for key in ("out_dir", "teacher_id", "student_id"):
        _check_type(errors, key, cfg[key], (str,), "string")

    for key, low in (("max_token_len", 1), ("samples_per_question", 1),
                     ("diverse_per_question", 1), ("runs", 1), ("workers", 1),
                     ("pca_components", 1)):
        if _check_type(errors, key, cfg[key], (int,), "integer") and cfg[key] < low:
            errors.append(f"{key}: must be >= {low}, got {cfg[key]}")

    if _check_type(errors, "pass_threshold", cfg["pass_threshold"], (int, float), "number"):
        if not (0 <= cfg["pass_threshold"] <= 1):
            errors.append(f"pass_threshold: must be in [0, 1], got {cfg['pass_threshold']}")
    if _check_type(errors, "temperature", cfg["temperature"], (int, float), "number"):
        if cfg["temperature"] < 0:
            errors.append(f"temperature: must be >= 0, got {cfg['temperature']}")
    if cfg["cap_ratio"] is not None:
        if _check_type(errors, "cap_ratio", cfg["cap_ratio"], (int, float), "number or null"):
            if not (0 < cfg["cap_ratio"] <= 1):
                errors.append(f"cap_ratio: must be in (0, 1], got {cfg['cap_ratio']}")
    _check_type(errors, "seed", cfg["seed"], (int,), "integer")
    _check_type(errors, "require_single_think_pair", cfg["require_single_think_pair"],
                (bool,), "boolean")

    if cfg["token_estimator"] not in ("precomputed_only", "chars_div_4_fallback"):
        errors.append(f"token_estimator: unknown value {cfg['token_estimator']!r}")
    if cfg["unit"] not in ("char", "token"):
        errors.append(f"unit: must be char or token, got {cfg['unit']!r}")

    stages = cfg["stages"]
    if _check_type(errors, "stages", stages, (list,), "list of stage names"):
        unknown = [s for s in stages if s not in STAGE_SEQUENCE]
        if unknown:
            errors.append(f"stages: unknown stage names {unknown}")
        elif len(set(stages)) != len(stages):
            errors.append("stages: duplicate stage names")
        else:
            order = [STAGE_SEQUENCE.index(s) for s in stages]
            if order != sorted(order):
                errors.append(f"stages: must follow the order {list(STAGE_SEQUENCE)}")
            # each corpus stage reads the one before it: a gap would feed a
            # stage the wrong corpus under its parent's manifest
            chain = [i for i in order if STAGE_SEQUENCE[i] not in ("mix", "stats")]
            if chain and chain != list(range(chain[0], chain[-1] + 1)):
                errors.append("stages: sample, filter, compress and diversify must run "
                              "without a gap between them")

    if cfg["mix_sources"] is not None:
        if _check_type(errors, "mix_sources", cfg["mix_sources"], (list,), "list or null"):
            for i, src in enumerate(cfg["mix_sources"]):
                if not isinstance(src, dict) or "path" not in src or "take" not in src:
                    errors.append(f"mix_sources[{i}]: expected an object with path and take")
                elif not isinstance(src["take"], int) or src["take"] < 1:
                    errors.append(f"mix_sources[{i}].take: must be an integer >= 1")

    client = cfg["client"]
    if client["mode"] not in ("mock", "http"):
        errors.append(f"client.mode: must be mock or http, got {client['mode']!r}")
    for key, low in (("max_in_flight", 1), ("retry_budget", 1)):
        if _check_type(errors, f"client.{key}", client[key], (int,), "integer") and client[key] < low:
            errors.append(f"client.{key}: must be >= {low}, got {client[key]}")
    for key in ("fixtures", "base_url", "cache_dir"):
        if client[key] is not None:
            _check_type(errors, f"client.{key}", client[key], (str,), "string or null")

    if errors:
        raise ConfigError(errors)
    return cfg


def manifest_snapshot(cfg: dict[str, Any]) -> dict[str, Any]:
    """The parameter set echoed into every manifest."""
    return {
        "max_token_len": cfg["max_token_len"],
        "pass_threshold": cfg["pass_threshold"],
        "samples_per_question": cfg["samples_per_question"],
        "diverse_per_question": cfg["diverse_per_question"],
        "runs": cfg["runs"],
        "unit": cfg["unit"],
        "cap_ratio": cfg["cap_ratio"],
        "temperature": cfg["temperature"],
        "tokenizer": cfg["tokenizer"],
        "seed": cfg["seed"],
        "token_estimator": cfg["token_estimator"],
        "require_single_think_pair": cfg["require_single_think_pair"],
        "gate_order": ["format", "length", "correctness"],
        "teacher_id": cfg["teacher_id"],
        "student_id": cfg["student_id"],
    }
