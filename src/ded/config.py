"""Pipeline configuration: a JSON document with defaults and exhaustive
validation. The normalized config is echoed into every stage manifest."""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .records import CorpusError, Spec, at_least, check_object, load_json, one_of, within


def _stage_order(stages: list[Any]) -> str | None:
    """What is wrong with a list of stages, by the rows of the stage table."""
    from .pipeline import _LINEAGE, STAGE_TABLE  # pipeline imports this module
    names = [row.name for row in STAGE_TABLE]
    if not stages:
        return "must name at least one stage"
    unknown = [s for s in stages if s not in names]
    if unknown:
        return f"unknown stage names {unknown}"
    order = [names.index(s) for s in stages]
    if order != sorted(set(order)):
        return f"must follow the order {names}, each stage at most once"
    # each corpus stage reads the one before it: a gap would feed a stage
    # the wrong corpus under its parent's manifest
    chain = [row.name for row in STAGE_TABLE if row.manifest in _LINEAGE]
    linked = [chain.index(s) for s in stages if s in chain]
    if linked and linked != list(range(linked[0], linked[-1] + 1)):
        return f"{', '.join(chain[:-1])} and {chain[-1]} must run without a gap between them"
    return None


_MIX_SOURCE_FIELDS = {"path": Spec(str), "take": Spec(int, check=at_least(1))}

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
    "stages": Spec(list, check=_stage_order),  # set by validate_config when absent
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
    "mix_sources": Spec(list, None),  # of objects of _MIX_SOURCE_FIELDS
}

class ConfigError(ValueError):
    """Validation failure carrying every problem found, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
        self.errors = errors


def _apply(specs: dict[str, Spec], raw: Any, prefix: str, errors: list[str]) -> dict[str, Any]:
    """The object raw over the defaults of specs, with every problem appended
    to errors; a spec without a default is of a required key."""
    if not isinstance(raw, dict):
        errors.append(f"{prefix[:-1]}: expected an object")
        return {}
    errors.extend(f"unknown key {prefix + key!r}" for key in sorted(raw) if key not in specs)
    out, problems = check_object(specs, raw)
    errors.extend(f"{prefix}{key}: {problem}" for key, problem in problems)
    return out


def validate_config(source: str | Path | dict[str, Any],
                    stages: list[str] | None = None) -> dict[str, Any]:
    """Apply defaults and validate; raises ConfigError listing every problem.
    `stages`, if given, replaces the config's own list."""
    from .pipeline import STAGE_TABLE  # pipeline imports this module
    if isinstance(source, (str, Path)):
        try:
            raw = load_json(Path(source).read_bytes())
        except (OSError, CorpusError) as exc:
            raise ConfigError([f"cannot read config {source}: {exc}"]) from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])

    errors: list[str] = []
    client = raw.pop("client", {})
    if stages is not None:
        raw["stages"] = stages
    elif "stages" not in raw:  # every stage but mix, which needs mix_sources
        raw["stages"] = [row.name for row in STAGE_TABLE if row.name != "mix"]
    cfg = _apply(FIELDS, raw, "", errors)
    cfg["client"] = _apply(CLIENT_FIELDS, client, "client.", errors)
    if isinstance(cfg["mix_sources"], list):
        cfg["mix_sources"] = [_apply(_MIX_SOURCE_FIELDS, item, f"mix_sources[{i}].", errors)
                              for i, item in enumerate(cfg["mix_sources"])]
    named = cfg["stages"] if isinstance(cfg["stages"], list) else []
    if "mix" in named and not cfg["mix_sources"]:
        errors.append("stages: mix needs mix_sources, a list of {path, take}")
    calling = [row.name for row in STAGE_TABLE if row.step and row.name in named]
    if calling and cfg["client"].get("mode") == "http" and not cfg["client"].get("base_url"):
        errors.append(f"client.base_url: missing; http mode sends the model calls of "
                      f"{', '.join(calling)} there")
    if errors:
        raise ConfigError(errors)
    return cfg

