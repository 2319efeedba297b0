"""The benchmark tracer (`perfbench/tracer.py`) against the package it wraps."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import six_stage_config

ROOT = Path(__file__).resolve().parents[1]
# install replaces module attributes, so the tracer runs in a process of its own
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))


def test_every_name_the_tracer_wraps_exists(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import pathlib, sys, tracer; "
         "tracer.install(tracer.Tracer(pathlib.Path(sys.argv[1])))", str(tmp_path)],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.strip().splitlines()[-1:]


def test_a_traced_run_dumps_the_backends_counters(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(six_stage_config(tmp_path)), encoding="utf-8")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--config", str(config),
         "--out-dir", str(tmp_path / "traced"), "--spans", str(spans)],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(spans.read_text(encoding="utf-8"))["counters"]
    assert sorted(counters) == ["cache_hits", "cache_misses", "requests", "retries"]
    assert counters["cache_misses"] > 0
    assert (counters["requests"], counters["retries"]) == (counters["cache_misses"], 0)
