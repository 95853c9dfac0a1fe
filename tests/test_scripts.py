"""Smoke tests: the example scripts run to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["run_random_suite.py", "--dims", "2", "3", "--instances", "3"],
        ["demo_pair.py", "--out-dir", "{tmp}", "--samples", "8"],
        ["output_digest.py", "--seeds", "0", "--folds", "12"],
    ],
    ids=["run_random_suite", "demo_pair", "output_digest"],
)
def test_script_exits_0(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script, *args = argv
    args = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
