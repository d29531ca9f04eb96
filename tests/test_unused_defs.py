"""No top-level ``gdal_ray`` definition lands without a user:
``scripts/unused_defs.py`` must report 0 unused definitions."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_unused_definitions():
    # the scan reads the git-tracked files; an exported tree has none
    tracked = subprocess.run(["git", "ls-files", "scripts/unused_defs.py"], cwd=ROOT,
                             capture_output=True, text=True)
    if tracked.returncode != 0 or not tracked.stdout.strip():
        pytest.skip("not a git checkout: the scan lists git-tracked files")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "unused_defs.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[0] == "unused: 0 definitions, 0 lines", proc.stdout
