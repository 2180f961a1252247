import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    ["generate_and_inspect.py", "save_and_reload.py", "run_cascade.py"],
)
def test_demo_runs(script):
    # run_cascade.py trains one cascade and prints the held-out bias and the
    # stage-2 term ratio; sweep_bias.py is left out: it trains three full
    # cascades, about three times as long.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
