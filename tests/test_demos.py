"""The demos print what they printed when their output was recorded.

Each script in demos/ runs in a fresh interpreter with src/ on the path;
its stdout must equal tests/demo_output/<name>.out byte for byte. The
demos draw no random numbers, so a difference is a change in behaviour.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_recorded_output():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_output").glob("*.out"))
    assert recorded == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_recorded_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "tests" / "demo_output" / f"{demo.stem}.out").read_bytes()
