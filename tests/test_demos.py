import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_lists_every_demo():
    listed = re.findall(r"python3 (demos/\w+\.py)", (ROOT / "README.md").read_text())
    assert sorted(listed) == [str(path.relative_to(ROOT)) for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0 and done.stderr == "" and done.stdout
