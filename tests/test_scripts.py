"""The scripts under scripts/ still run against the current `qbm` API."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_counter_rotating_gaps_script_writes_its_csv(tmp_path, subprocess_env):
    out = tmp_path / "gaps.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "counter_rotating_gaps.py"), "--t-max", "1", "--out", str(out)],
        env=subprocess_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) > 2
