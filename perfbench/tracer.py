"""Traced `ded run`: span recorders around the calls into each layer.

Run as a script, this imports `ded` from the checkout, wraps the functions
bound in `ded.pipeline`, `ded.cli`, `ded.diagnostics` and `ded.diversity`
plus the `CachingClient` methods, calls `ded.cli.main(["run", ...])` and
writes every span to one JSON file when the run ends:

    python3 perfbench/tracer.py --config CFG --out-dir DIR --spans FILE

A span is `{id, name, start, end, parent, run, pid, attrs}`; times come from
`time.perf_counter`, which is the same monotonic clock in every process.
Diversify's pool workers are forked from the traced process, so they inherit
the wrapped functions; each worker appends its spans to a spool file that
this script merges at the end. `analyse` turns one dump into per-layer
numbers.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable

LAYERS = ("pipeline", "clients", "filtering", "compress", "diversity", "records",
          "mixer", "diagnostics")


class Tracer:
    """In-memory span recorder shared by the main process, its threads and
    its forked workers."""

    def __init__(self, spool_dir: Path):
        self.run_id = uuid.uuid4().hex
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[str]] = {}
        self._main = threading.get_ident()
        self._spool = None

    def _stack(self) -> list[str]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack: list[str]) -> str | None:
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to whatever the main thread runs
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn: Callable,
             attrs: Callable[[tuple, dict, Any], dict] | None = None,
             before: Callable[[tuple, dict], dict] | None = None) -> Callable:
        """`fn` recording one span per call. `attrs` sees the arguments and
        the result, `before` sees the arguments before the call runs."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span = {"id": f"{os.getpid()}-{next(self._ids)}", "name": name,
                    "parent": self._parent(stack), "run": self.run_id, "pid": os.getpid(),
                    "attrs": before(args, kwargs) if before else {}}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            self._record(span)
            return result
        return traced

    def _record(self, span: dict[str, Any]) -> None:
        if os.getpid() == self.pid:
            with self._lock:
                self.spans.append(span)
            return
        # forked worker: its memory dies with it, so spill every span at once
        if self._spool is None:
            self._spool = open(self.spool_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8")
        self._spool.write(json.dumps(span) + "\n")
        self._spool.flush()

    def dump(self, path: Path, counters: dict[str, Any]) -> None:
        spans = list(self.spans)
        for spool in sorted(self.spool_dir.glob("*.jsonl")):
            with open(spool, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        spans.sort(key=lambda s: s["start"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "counters": counters, "spans": spans}, fh)


def _corpus_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _gate_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return result.counts


def _hard_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    retained, report = result
    return {"retained": len(retained), "total": report.total}


def _capped(args: tuple, kwargs: dict, result: Any) -> dict:
    cap = args[2] if len(args) > 2 else kwargs.get("cap")
    return {"capped": cap is not None and result >= cap}


def _pool_size(args: tuple, kwargs: dict, result: Any) -> dict:
    workers = kwargs.get("workers", 1)
    tasks = len({t.question_id for t in args[0]})
    return {"workers": workers if workers > 1 and tasks > 1 else 1}


def install(tracer: Tracer) -> dict[str, Any]:
    """Wrap every layer boundary on the `ded run` path. Returns a holder
    that receives the run's `CachingClient` once the pipeline builds it."""
    from ded import cli, clients, diagnostics, diversity, pipeline

    holder: dict[str, Any] = {}

    def wrap_attr(owner: Any, attr: str, layer: str, attrs: Callable | None = None,
                  before: Callable | None = None) -> None:
        setattr(owner, attr, tracer.wrap(f"{layer}.{attr}", getattr(owner, attr),
                                         attrs, before))

    def keep_client(args: tuple, kwargs: dict, result: Any) -> dict:
        holder["client"] = result
        return {}

    wrap_attr(cli, "run_pipeline", "pipeline")
    wrap_attr(pipeline, "build_client", "clients", keep_client)
    wrap_attr(pipeline, "_adjudicate", "filtering")
    wrap_attr(pipeline, "run_quality_gate", "filtering", _gate_counts)
    wrap_attr(pipeline, "student_rollout", "compress")
    wrap_attr(pipeline, "select_hard", "compress", _hard_counts)
    wrap_attr(pipeline, "diversify_corpus", "diversity", _pool_size)
    wrap_attr(pipeline, "compose_mix", "mixer")
    for name in ("parse_corpus", "write_manifest", "load_manifest"):
        wrap_attr(pipeline, name, "records")
    wrap_attr(pipeline, "write_corpus", "records", _corpus_bytes)
    wrap_attr(pipeline, "save_manifest", "records",
              lambda a, k, r: {"bytes": os.path.getsize(a[1])})
    for name in ("entropy_summary", "pca_shift", "length_summary", "emit_report"):
        wrap_attr(diagnostics, name, "diagnostics")
    wrap_attr(diversity, "_select_for_question", "diversity")
    wrap_attr(diversity, "surface_distances", "diversity")
    wrap_attr(diversity, "select_farthest", "diversity")
    wrap_attr(diversity, "clamped_distance", "diversity", _capped)

    def cached(args: tuple, kwargs: dict) -> dict:
        client, request = args
        return {"hit": client._path(request.cache_key()).exists()}
    for name in ("sample_trajectories", "judge"):
        wrap_attr(clients.CachingClient, name, "clients", before=cached)
    return holder


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    spool = Path(args.spans).with_suffix(".spool")
    spool.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spool)
    holder = install(tracer)
    from ded import cli
    code = cli.main(["run", "--config", args.config, "--out-dir", args.out_dir])
    client = holder.get("client")
    counters = {}
    if client is not None:
        counters = {"requests": client.inner.requests_total,
                    "retries": client.inner.retries_total,
                    "cache_hits": client.hits, "cache_misses": client.misses}
    tracer.dump(Path(args.spans), counters)
    return code


# ---------------------------------------------------------------- analysis


def _union(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _union(children.get(s["id"], []))
            for s in spans}


def analyse(dump: dict[str, Any], run_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed by metric name."""
    spans = dump["spans"]
    counters = dump["counters"]
    by_name: dict[str, list[dict[str, Any]]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ms(name: str) -> float:
        return 1000 * sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def median_ms(name: str) -> tuple[float, int]:
        d = [1000 * (s["end"] - s["start"]) for s in by_name.get(name, [])]
        return (statistics.median(d) if d else 0.0), len(d)

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"][key] for s in by_name.get(name, []))

    out: dict[str, float] = {}
    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1000 * sum(
            own[s["id"]] for s in spans if s["name"].split(".")[0] == layer)

    client_calls = by_name.get("clients.sample_trajectories", []) + by_name.get("clients.judge", [])
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    out["clients.requests"] = counters.get("requests", 0)
    out["clients.retries"] = counters.get("retries", 0)
    out["clients.cache_hits"] = hits
    out["clients.cache_misses"] = misses
    out["clients.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["clients.cache_hit_ratio.base"] = hits + misses
    out["clients.wait_s"] = sum(s["end"] - s["start"] for s in client_calls)
    # time-averaged count of calls that went past the cache to the backend
    out["clients.backend_in_flight_mean"] = sum(
        s["end"] - s["start"] for s in client_calls if not s["attrs"]["hit"]) / run_s
    out["clients.sample_call_ms"], out["clients.sample_call_ms.n"] = median_ms(
        "clients.sample_trajectories")
    out["clients.judge_call_ms"], out["clients.judge_call_ms.n"] = median_ms("clients.judge")

    out["filtering.gate_ms"] = ms("filtering.run_quality_gate")
    out["filtering.adjudicate_ms"] = ms("filtering._adjudicate")
    out["filtering.judge_queue"] = attr_sum("filtering.run_quality_gate", "needs_judge")

    rollout_ids = {s["id"] for s in by_name.get("compress.student_rollout", [])}
    out["compress.rollout_ms"] = ms("compress.student_rollout")
    out["compress.questions_rolled"] = sum(
        1 for s in by_name.get("clients.sample_trajectories", []) if s["parent"] in rollout_ids)
    total = attr_sum("compress.select_hard", "total")
    out["compress.retained_ratio"] = (
        attr_sum("compress.select_hard", "retained") / total if total else 0.0)
    out["compress.retained_ratio.base"] = total

    pairs = by_name.get("diversity.clamped_distance", [])
    out["diversity.pairs"] = len(pairs)
    out["diversity.distance_ms"] = ms("diversity.surface_distances")
    out["diversity.pair_ms"], _ = median_ms("diversity.clamped_distance")
    out["diversity.capped_pair_ratio"] = (
        sum(1 for s in pairs if s["attrs"]["capped"]) / len(pairs) if pairs else 0.0)
    out["diversity.select_ms"] = ms("diversity.select_farthest")
    stage = by_name.get("diversity.diversify_corpus", [])
    capacity = sum((s["end"] - s["start"]) * s["attrs"]["workers"] for s in stage)
    busy = sum(s["end"] - s["start"] for s in by_name.get("diversity._select_for_question", []))
    out["diversity.worker_busy_ratio"] = busy / capacity if capacity else 0.0
    out["diversity.span_share"] = _union(
        [(s["start"], s["end"]) for s in spans if s["name"].startswith("diversity.")]) / run_s

    out["records.write_corpus_ms"] = ms("records.write_corpus")
    out["records.write_manifest_ms"] = ms("records.write_manifest")
    out["records.parse_corpus_ms"] = ms("records.parse_corpus")
    out["records.bytes_written"] = (attr_sum("records.write_corpus", "bytes") +
                                    attr_sum("records.save_manifest", "bytes"))
    out["diagnostics.entropy_ms"] = ms("diagnostics.entropy_summary")
    out["diagnostics.pca_ms"] = ms("diagnostics.pca_shift")
    out["diagnostics.report_ms"] = ms("diagnostics.emit_report")
    out["mixer.compose_ms"] = ms("mixer.compose_mix")
    return out


if __name__ == "__main__":
    sys.exit(main())
