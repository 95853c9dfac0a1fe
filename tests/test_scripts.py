"""The scripts run to completion against this source tree, and output_digest
compares log-volumes across commits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_output_digest_compares_log_volumes_per_section(tmp_path):
    # the last log-volume is single_summand's: a change there shows in that
    # section alone, and a file with another count is refused
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def digest(*args):
        argv = [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--seeds", "0", "--folds", "12", *args]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    saved = tmp_path / "a.npy"
    assert digest("--log-volumes", str(saved)).returncode == 0
    volumes = np.load(saved)
    volumes[-1] += 1e-9 * max(1.0, abs(volumes[-1]))
    np.save(tmp_path / "moved.npy", volumes)
    proc = digest("--against", str(tmp_path / "moved.npy"))
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split() for line in proc.stdout.splitlines()[-6:])
    assert set(rows) == {"fold_small", "pair_large", "cli_check", "reach_tube", "random_suite", "single_summand"}
    assert 0.5e-9 < float(rows.pop("single_summand")) < 2e-9
    assert all(float(value) == 0.0 for value in rows.values())
    np.save(tmp_path / "short.npy", volumes[:-1])
    proc = digest("--against", str(tmp_path / "short.npy"))
    assert proc.returncode == 1
    assert "counts differ" in proc.stderr


def test_output_digest_is_deterministic():
    # the digest is the bit-identity gate between commits: two runs of one
    # tree print the same eight lines, the total and one per section
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--seeds", "0"]
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "outputs",
        "fold_small",
        "pair_large",
        "cli_check",
        "reach_tube",
        "check",
        "random_suite",
        "single_summand",
    ]
    assert runs[1].stdout == runs[0].stdout
