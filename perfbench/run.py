"""End-to-end benchmark of `ded run` on seeded, generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up generates the workload's inputs from
the seed, starts the loopback model stub if the workload needs one, and
builds the reference output tree in-process in mock mode. Then fresh
`ded run` subprocesses run one after another for S seconds. With `--trace 0`
set-up is repeated after each run, outside the S seconds, until it has run
at least three times and for at least two seconds; its median is
`setup_s`. Each run writes a fresh output directory and must reproduce the
reference `tree_hash` and the expected counts of billed model calls and
cache hits.

With `--trace 0` the last line of stdout holds the end-to-end metrics. With
`--trace 1` traced runs (`perfbench/tracer.py`) alternate with untraced
ones, and it holds the per-layer metrics. The lines before it list every
metric with its unit, the reference each run was checked against, and the
samples the end-to-end medians are taken over.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = HERE / "baseline.json"
# set-up repeats at least this often and for at least this long; its median is setup_s
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
STAGES = ("sample", "filter", "compress", "diversify", "mix", "stats")


def _scrub_environment() -> None:
    """No proxy, since the stub is on loopback, and no DED_* variable that
    would override the generated config, in this process and its children.

    NumPy's BLAS gets one thread: its spinning threads would compete with
    diversify's pool workers for the nproc cores, for an SVD of a few hundred
    rows. Child interpreters get a fixed hash seed, so that set and dict
    layouts, and the work that follows from them, repeat from run to run."""
    for key in [k for k in os.environ if "proxy" in k.lower() or k.startswith("DED_")]:
        del os.environ[key]
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")


def _read_events(out_dir: Path) -> list[dict[str, Any]]:
    with open(out_dir / "logs" / "events.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cache_counts(events: list[dict[str, Any]]) -> tuple[int, int]:
    """Cache hits, and billed calls: the requests the caching wrapper
    forwarded to the backend."""
    done = [e for e in events if e["stage"] == "pipeline" and e["event"] == "done"]
    return done[-1]["cache_hits"], done[-1]["cache_misses"]


class Bench:
    """One workload at one seed: its inputs, reference and stub."""

    def __init__(self, workload: Any, seed: int):
        self.workload = workload
        self.seed = seed
        self.stub = None

    def setup(self, root: Path) -> None:
        from ded.clients import JudgeRequest, SamplingRequest
        from ded.config import validate_config
        from ded.pipeline import EXIT_OK, run_pipeline, tree_hash
        from stub import ModelStub, request_key, self_check
        import workloads

        root.mkdir(parents=True)
        self.root = root
        cfg = self.workload.generate(root, self.seed)
        self.ref_dir = root / "reference"
        result = run_pipeline(cfg, out_dir=self.ref_dir)
        if result.exit_code != EXIT_OK:
            raise RuntimeError(f"reference build failed at {result.failed_stage}: {result.error}")
        self.ref_hash = tree_hash(self.ref_dir)
        self.cache_hits, self.model_calls = _cache_counts(_read_events(self.ref_dir))
        self.retries = 0

        timed = dict(cfg)
        if self.workload.http:
            full = validate_config(cfg)
            self.stub = ModelStub(cfg["client"]["fixtures"], workloads.STUB_LATENCY_S,
                                  threads=full["client"]["max_in_flight"])
            with open(cfg["questions"], encoding="utf-8") as fh:
                questions = [json.loads(line) for line in fh]
            code = next(q for q in questions if q["domain"] == "code")
            problems = self_check(self.stub, [
                SamplingRequest(prompt=questions[0]["prompt"], teacher_id=full["teacher_id"],
                                samples=full["samples_per_question"],
                                temperature=full["temperature"], seed=full["seed"]),
                JudgeRequest(question=code["prompt"], ground_truth=code["ground_truth"],
                             candidate_answer=code["ground_truth"].replace(" ", "")),
                JudgeRequest(question=code["prompt"], ground_truth=code["ground_truth"],
                             candidate_answer="lambda x: 0")])
            if problems:
                raise RuntimeError("; ".join(problems))
            rng = random.Random(f"throttle:{self.seed}")
            throttled = rng.sample(sorted(q["prompt"] for q in questions),
                                   workloads.THROTTLED_REQUESTS)
            self.stub.fail_once = {request_key({"model": full["teacher_id"],
                                                "messages": [{"content": p}]})
                                   for p in throttled}
            self.retries = len(throttled)
            timed["client"] = {**cfg["client"], "mode": "http", "base_url": self.stub.base_url}
        self.config = root / "config.json"
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(timed, fh, indent=2, sort_keys=True)

    def reference(self) -> dict[str, Any]:
        """What every timed run must reproduce."""
        return {"tree_hash": self.ref_hash, "model_calls": self.model_calls,
                "cache_hits": self.cache_hits}

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    def run_once(self, k: int, traced: bool) -> dict[str, Any]:
        """One `ded run` subprocess; returns its timings and any failure."""
        from ded.pipeline import tree_hash

        out = self.root / f"run{k}"
        spans = self.root / f"spans{k}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), "--config", str(self.config),
                   "--out-dir", str(out), "--spans", str(spans)]
        else:
            cmd = [sys.executable, "-m", "ded.cli", "run", "--config", str(self.config),
                   "--out-dir", str(out)]
        if self.stub is not None:
            self.stub.reset()
        with open(self.root / f"stderr{k}.txt", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                                    start_new_session=True)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted: take the run's pool workers down with it
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            run_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()

        row: dict[str, Any] = {"traced": traced, "run_s": run_s,
                               "peak_rss_mb": usage.ru_maxrss / 1024, "failure": None}
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}: {stderr.strip()[-500:]}")
            events = _read_events(out)
            hits, calls = _cache_counts(events)
            if calls != self.model_calls:
                raise ValueError(f"model_calls {calls} != expected {self.model_calls}")
            if hits != self.cache_hits:
                raise ValueError(f"cache_hits {hits} != expected {self.cache_hits}")
            got = tree_hash(out)
            if got != self.ref_hash:
                raise ValueError(f"tree_hash {got} != reference {self.ref_hash}")
            if self.stub is not None:
                if self.stub.throttled != self.retries:
                    raise ValueError(f"stub sent {self.stub.throttled} 429s, "
                                     f"expected {self.retries}")
                if self.stub.requests != calls + self.retries:
                    raise ValueError(f"stub saw {self.stub.requests} requests, expected "
                                     f"model_calls {calls} + retries {self.retries}")
                row["backend_in_flight_mean"] = self.stub.in_flight_integral() / run_s
            row["stages_ms"] = {e["stage"]: e["duration_ms"] for e in events
                                if e["event"] == "stage_done"}
            filt = next(e for e in events if e["stage"] == "filter" and e["event"] == "stage_done")
            row["filter_counts"] = (filt["kept"], filt["kept"] + filt["rejected"] +
                                    filt["needs_judge"])
            if traced:
                import tracer
                with open(spans, encoding="utf-8") as fh:
                    row["layers"] = tracer.analyse(json.load(fh), run_s)
        except (ValueError, OSError, KeyError, StopIteration) as exc:
            row["failure"] = str(exc)
        shutil.rmtree(out, ignore_errors=True)
        return row


def _time_setup(workload: Any, seed: int, root: Path) -> float:
    """Set up once more, for its time only."""
    start = time.perf_counter()
    bench = Bench(workload, seed)
    try:
        bench.setup(root)
        return time.perf_counter() - start
    finally:
        bench.close()
        shutil.rmtree(root, ignore_errors=True)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(rows: list[dict[str, Any]], stub_present: bool) -> dict[str, float]:
    plain = [r for r in rows if not r["traced"]]
    traced = [r for r in rows if r["traced"]]
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}_ms"] = _median([r["stages_ms"].get(stage, 0.0) for r in plain])
    out["pipeline.unattributed_ms"] = _median(
        [1000 * r["run_s"] - sum(r["stages_ms"].values()) for r in plain])
    out["pipeline.runs"] = len(plain)
    kept, attempted = plain[0]["filter_counts"] if plain else (0, 0)
    out["filtering.kept_ratio"] = kept / attempted if attempted else 0.0
    out["filtering.kept_ratio.base"] = attempted

    names = sorted(traced[0]["layers"]) if traced else []
    for name in names:
        out[name] = _median([r["layers"][name] for r in traced])
    if stub_present:
        # the stub sees the backend side directly, without tracing overhead
        out["clients.backend_in_flight_mean"] = _median(
            [r["backend_in_flight_mean"] for r in plain])
    trace_s = _median([r["run_s"] for r in traced])
    out["trace.run_s"] = trace_s
    out["trace.runs"] = len(traced)
    out["trace.overhead_ratio"] = trace_s / _median([r["run_s"] for r in plain]) - 1
    return out


def _load_spec(trace: int) -> dict[str, dict[str, str]]:
    """The metrics this mode reports, by name, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def _recorded_reference(workload: str, seed: int) -> dict[str, Any] | None:
    if not BASELINE.exists():
        return None
    with open(BASELINE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    return recorded.get("references", {}).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ded" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout of the repository; {SRC / 'ded'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    _scrub_environment()
    # a terminated benchmark still stops its runs and removes its work tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # imported before set-up is timed, so that no repeat pays for them
    import ded.cli, stub, tracer, workloads  # noqa: F401

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _load_spec(args.trace)
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = None
    setup_times: list[float] = []

    def more_setups() -> bool:
        # only the untraced mode reports setup_s
        return not args.trace and (len(setup_times) < SETUP_REPEATS
                                   or sum(setup_times) < SETUP_SECONDS)

    try:
        start = time.perf_counter()
        bench = Bench(workload, args.seed)
        bench.setup(work / "setup0")
        setup_times.append(time.perf_counter() - start)

        problems = []
        recorded = _recorded_reference(args.workload, args.seed)
        if recorded is not None and recorded != bench.reference():
            problems.append(f"reference {bench.reference()} differs from the recorded "
                            f"{recorded} in {BASELINE.name}")

        rows = []
        deadline = time.perf_counter() + args.seconds
        while not rows or time.perf_counter() < deadline:
            traced = bool(args.trace) and len(rows) % 2 == 1
            rows.append(bench.run_once(len(rows), traced))
            if rows[-1]["failure"]:
                problems.append(f"run {len(rows) - 1}: {rows[-1]['failure']}")
            if more_setups():
                # set-up repeats are spread over the window the runs measure, so
                # that both see the same machine; the window grows by their time
                setup_times.append(_time_setup(workload, args.seed,
                                               work / f"setup{len(setup_times)}"))
                deadline += setup_times[-1]
        if args.trace and len(rows) < 2:
            rows.append(bench.run_once(len(rows), True))
            if rows[-1]["failure"]:
                problems.append(f"run {len(rows) - 1}: {rows[-1]['failure']}")
        while more_setups():
            setup_times.append(_time_setup(workload, args.seed,
                                           work / f"setup{len(setup_times)}"))
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in rows if not r["failure"]]
    plain = [r for r in ok if not r["traced"]]
    if args.trace:
        values = per_layer(ok, workload.http) if plain and len(ok) > len(plain) else {}
    else:
        values = {"run_s": _median([r["run_s"] for r in plain]),
                  "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
                  "setup_s": _median(setup_times)}
    if set(values) != set(spec):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(spec))}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    values = {name: values.get(name, 0.0) for name in spec}
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {spec[name]['unit']}")
    print("reference: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                      "retries": bench.retries, **bench.reference()},
                                     sort_keys=True))
    print("samples: " + json.dumps({
        "run_s": [round(r["run_s"], 4) for r in plain],
        "setup_s": [round(s, 4) for s in setup_times]}))
    metrics = {name: {"value": value, "unit": spec[name]["unit"]}
               for name, value in values.items()}
    failed = len(rows) - len(ok)
    print(json.dumps({"correct": not problems,
                      "attempted": len(rows), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
