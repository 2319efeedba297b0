"""Histories of runs in one out_dir, not single runs.

A Hypothesis state machine over `conftest.six_stage_config` takes steps in
one out_dir: it runs a contiguous list of stages, with or without stats;
it edits one key of `conftest.EDITS`, or undoes the edit; or it removes or
cuts one output file. After each run it checks that

- the run exits 0, 2 (a config it refuses) or 3, and one that exits
  non-zero leaves `tree_hash` as it was;
- after exit 0, every manifest the run wrote, and with stats every one it
  listed, is what the pipeline's check requires: it names its own stage and
  the configured values of its stage's keys, links to its parent's content
  hash, and hashes the bytes beside it (at raw with the configured
  questions);

and at the end, that a full run of the config into the used out_dir builds
the tree a fresh out_dir gets, or that both runs exit with the same code.

Runs are made in process, which holds numpy, so no helper forks. Tier-1
runs a fixed, derandomized set of histories. A longer run, random and with
a larger budget:

    python tests/test_histories.py [examples]
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition, rule,
                                 run_state_machine_as_test)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ded.config import ConfigError, validate_config  # noqa: E402
from ded.pipeline import (EXIT_CONFIG, EXIT_OK, EXIT_STAGE, STAGE_TABLE, run_pipeline,  # noqa: E402
                          tree_hash)
from ded.records import content_hash, load_manifest, parse_corpus  # noqa: E402

from conftest import EDITS, cut, six_stage_config  # noqa: E402

NAMES = [row.name for row in STAGE_TABLE]
ROWS = {row.manifest: row for row in STAGE_TABLE if row.manifest}
OUTPUTS = sorted({name for row in STAGE_TABLE for name in row.outputs})


def run(config: dict, out: Path) -> int:
    """The exit code of a run of config into out, as `ded run` exits: 2 for a
    config it refuses."""
    try:
        return run_pipeline(config, out_dir=out).exit_code
    except ConfigError:
        return EXIT_CONFIG


def check_manifest(out: Path, cfg: dict, stage: str) -> None:
    """Assert that stage's manifest in out, and each ancestor's, passes the
    pipeline's check under the validated config cfg."""
    row = ROWS[stage]
    link = None
    if row.parent:
        check_manifest(out, cfg, row.parent)
        link = load_manifest(out / f"manifest_{row.parent}.json").content_hash
    manifest = load_manifest(out / f"manifest_{stage}.json")
    assert manifest.stage == stage
    assert {key: manifest.config_snapshot[key] for key in row.keys} == {
        key: cfg[key] for key in row.keys}, stage
    assert manifest.parent_manifest == link, stage
    *question_file, trajectory_file = row.corpus
    questions = parse_corpus(cfg["questions"], "questions") if stage == "raw" else []
    questions += [q for name in question_file for q in parse_corpus(out / name, "questions")]
    records = questions + parse_corpus(out / trajectory_file, "trajectories")
    assert manifest.content_hash == content_hash(records), stage


class Histories(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="ded_history_"))
        self.base = six_stage_config(self.root)
        self.out = Path(self.base["out_dir"])
        self.edits: set[str] = set()

    def config(self, stages: list[str]) -> dict:
        return dict(self.base, stages=stages, **{key: EDITS[key] for key in self.edits})

    def outputs(self) -> list[str]:
        return [name for name in OUTPUTS if (self.out / name).exists()]

    @rule(first=st.integers(0, len(NAMES) - 2), count=st.integers(0, len(NAMES) - 1),
          stats=st.booleans())
    def run_stages(self, first: int, count: int, stats: bool) -> None:
        stages = NAMES[first:min(first + count, len(NAMES) - 1)] + ["stats"] * stats
        config = self.config(stages)
        before = tree_hash(self.out)
        code = run(config, self.out)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_STAGE), (stages, code)
        if code != EXIT_OK:
            assert tree_hash(self.out) == before, stages
            return
        written = {row.manifest for row in STAGE_TABLE if row.name in stages and row.manifest}
        listed = {path.name[len("manifest_"):-len(".json")]
                  for path in self.out.glob("manifest_*.json")} if stats else set()
        cfg = validate_config(config)
        for stage in sorted(written | listed, key=list(ROWS).index):
            check_manifest(self.out, cfg, stage)
        if stats:  # the report's ledger lists what is on disk
            ledger = (self.out / "tables" / "stage_ledger.csv").read_text(encoding="utf-8")
            assert [line.split(",")[0] for line in ledger.splitlines()[1:]] == sorted(
                listed, key=list(ROWS).index)

    @rule(key=st.sampled_from(sorted(set(EDITS) - {"token_estimator"})))
    def edit(self, key: str) -> None:
        # token_estimator is left out: the fixture fails under its other value
        # wherever filter runs
        self.edits ^= {key}

    @precondition(lambda self: self.outputs())
    @rule(data=st.data(), remove=st.booleans())
    def damage(self, data: st.DataObject, remove: bool) -> None:
        path = self.out / data.draw(st.sampled_from(self.outputs()), label="file")
        if remove:
            path.unlink()
        else:
            cut(path)

    def teardown(self) -> None:
        try:
            config = self.config(NAMES)
            fresh = self.root / "fresh"
            code = run(config, self.out)
            assert code == run(config, fresh)
            if code == EXIT_OK:
                assert tree_hash(self.out) == tree_hash(fresh)
        finally:
            shutil.rmtree(self.root)


SETTINGS = {"stateful_step_count": 8, "deadline": None,
            "suppress_health_check": [HealthCheck.too_slow]}

TestHistories = Histories.TestCase
TestHistories.settings = settings(max_examples=40, derandomize=True, database=None, **SETTINGS)


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    run_state_machine_as_test(Histories, settings=settings(max_examples=examples, **SETTINGS))
    print(f"{examples} histories passed")
