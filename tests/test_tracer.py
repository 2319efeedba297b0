"""The benchmark tracer (`perfbench/tracer.py`) against the package it wraps."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_the_tracer_wraps_exists(tmp_path):
    # install replaces module attributes, so it runs in a process of its own
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import pathlib, sys, tracer; "
         "tracer.install(tracer.Tracer(pathlib.Path(sys.argv[1])))", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.strip().splitlines()[-1:]
