"""Kill `ded run` inside each of its writes and check that the next run
repairs the tree.

A run of `conftest.six_stage_config` lists its writes, request cache
entries among them. For each write k, a run of that config dies inside its
k-th write (see `conftest.killed_run`). Then:

- a re-run of the same config in the same out_dir exits 0, builds the fresh
  run's `tree_hash`, and leaves no file outside the stage table's outputs,
  logs/ and .cache/;
- the re-run bills the fresh run's calls less those the killed run cached:
  its `cache_misses` are the fresh run's less the complete entries in the
  killed out_dir's .cache/;
- on a copy of the killed out_dir, each suffix of the stages that starts at
  or before the killed file's stage exits 0 with the fresh tree, or exits
  3. A write under .cache/ counts as sample's.

Pytest does not collect this file: it runs every kill, ~45 runs of the
pipeline, where the tier-1 test `test_a_run_killed_inside_a_write_is_repaired_by_the_next`
kills only the first write of each stage.

    python tests/kill_sweep.py

Prints one line per kill and exits 1 if any check fails.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ded.pipeline import EXIT_OK, EXIT_STAGE, STAGE_TABLE, run_pipeline, tree_hash  # noqa: E402

from conftest import killed_run, read_events, six_stage_config  # noqa: E402

OUTPUTS = {name for row in STAGE_TABLE for name in row.outputs}
STAGES = [row.name for row in STAGE_TABLE]


def stage_of(write: str) -> str:
    """The stage whose run makes the write: a cache entry is sample's."""
    if write.startswith(".cache/"):
        return "sample"
    return next(row.name for row in STAGE_TABLE if write in row.outputs)


def billed(out: Path) -> int:
    """The calls the last run in out billed."""
    return next(e for e in read_events(out) if e["event"] == "done")["cache_misses"]


def check_kill(root: Path, config: dict, k: int, write: str, fresh: str,
               fresh_billed: int) -> list[str]:
    """The checks that fail after a run killed inside its k-th write."""
    out = root / f"kill_{k}"
    proc, _ = killed_run(config, out, k)
    if proc.returncode != 9:
        return [f"the killed run exited {proc.returncode}: {proc.stderr.strip()}"]
    killed = root / f"killed_{k}"
    shutil.copytree(out, killed)
    failures = []
    code = run_pipeline(config, out_dir=out).exit_code
    if code != EXIT_OK or tree_hash(out) != fresh:
        failures.append(f"the re-run exited {code} or built another tree")
    cached = len(list((killed / ".cache").glob("*.json")))
    if billed(out) != fresh_billed - cached:
        failures.append(f"the re-run billed {billed(out)} calls, not {fresh_billed} less "
                        f"the {cached} cached")
    stray = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()
                   and p.relative_to(out).parts[0] not in ("logs", ".cache")
                   and p.relative_to(out).as_posix() not in OUTPUTS)
    if stray:
        failures.append(f"the re-run left {stray}")
    for start in STAGES[:STAGES.index(stage_of(write)) + 1]:
        copy = root / f"suffix_{k}_{start}"
        shutil.copytree(killed, copy)
        stages = STAGES[STAGES.index(start):]
        code = run_pipeline(dict(config, stages=stages), out_dir=copy).exit_code
        if not (code == EXIT_STAGE or code == EXIT_OK and tree_hash(copy) == fresh):
            failures.append(f"stages {stages} exited {code} or built another tree")
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = six_stage_config(root)
        proc, writes = killed_run(config, root / "fresh", 0)
        if proc.returncode != EXIT_OK:
            print(f"the fresh run exited {proc.returncode}: {proc.stderr}")
            return 1
        fresh, fresh_billed = tree_hash(root / "fresh"), billed(root / "fresh")
        failed = 0
        for k, write in enumerate(writes, start=1):
            failures = check_kill(root, config, k, write, fresh, fresh_billed)
            failed += bool(failures)
            print(f"{k:3d} {stage_of(write):9s} {write}: {'; '.join(failures) or 'ok'}")
        print(f"{len(writes) - failed} of {len(writes)} kills repaired")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
