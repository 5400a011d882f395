"""The demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = ["01_involute_geometry", "02_mesh_efficiency", "03_sizing_and_mass",
         "04_design_sweep"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{demo}.py")], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
