"""The fast examples run end to end as scripts.

``c17_walkthrough`` drives sink-module extraction, failing-set
enumeration and the Fig. 4(b) cube covers; ``quickstart`` and
``custom_circuit`` run the full lock → layout → attack flow.  The two
study scripts (ITC'99 attacks, layout cost) take minutes and stay out.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["c17_walkthrough.py", "quickstart.py", "custom_circuit.py"]
)
def test_example_runs(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_CACHE_DIR": str(tmp_path),
    }
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip()
