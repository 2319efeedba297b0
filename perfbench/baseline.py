"""Record the benchmark's baseline: every metric of every workload, plus the
reference output of each workload at a range of seeds.

    python3 perfbench/baseline.py

Run from the root of a checkout. For each workload it builds the reference
tree in mock mode at seeds 1-10, then runs `perfbench/run.py` once with
tracing off and once with tracing on at seed 11, each for `run_seconds`
from BENCHMARK.json, printing every metric by name with its unit. Each of
those runs checks every `ded run` output against its reference. Everything
lands in `perfbench/baseline.json`; `run.py` then also checks that the
reference it builds equals the recorded one whenever the seed is recorded.
Exits 1 if any check failed.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys

import run

SEED = 11
REFERENCE_SEEDS = range(1, 11)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _write(baseline: dict) -> None:
    with open(run.BASELINE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    sys.path[:0] = [str(run.SRC)]
    run._scrub_environment()
    import numpy
    import workloads

    references: dict[str, dict[str, dict]] = {}
    tmp_root = run.WORK / f"baseline-{os.getpid()}"
    try:
        for name, workload in workloads.WORKLOADS.items():
            references[name] = {}
            for seed in REFERENCE_SEEDS:
                bench = run.Bench(workload, seed)
                try:
                    bench.setup(tmp_root / f"{name}-{seed}")
                finally:
                    bench.close()
                references[name][str(seed)] = bench.reference()
                shutil.rmtree(tmp_root / f"{name}-{seed}")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    baseline = {
        "machine": {"cpu": _cpu_model(), "nproc": workloads.nproc(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "seed": SEED,
        "run_seconds": seconds,
        "workloads": {},
        "references": references,
    }
    # the runs below check their reference against the one recorded here
    _write(baseline)
    ok = True
    results = baseline["workloads"]
    for name, workload in workloads.WORKLOADS.items():
        results[name] = {"stresses": workload.stresses}
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"check failed: {name} --trace {trace}", flush=True)
                continue
            results[name]["end_to_end" if trace == 0 else "per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()}
            results[name]["attempted" if trace == 0 else "attempted_traced"] = result["attempted"]

    _write(baseline)
    print(f"wrote {run.BASELINE.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
