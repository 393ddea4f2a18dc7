"""Every script under demos/ runs to completion against this checkout."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from test_config_cli import _src_env

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # TMPDIR keeps the files a demo writes under pytest's temporary directory
    env = dict(_src_env(), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert not list(tmp_path.glob("privmarket_demo_*")), "the demo left a temporary directory"
