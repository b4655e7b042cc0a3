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
    # three identities, each checked on the analytic series and on the oracle
    blocks = proc.stdout.split("oracle residuals:")
    assert len(blocks) == 2
    for block in blocks:
        residuals = [line.split() for line in block.splitlines() if line.startswith("  ")]
        assert [name for name, _ in residuals] == ["xx", "pp", "corr"], proc.stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) > 2
