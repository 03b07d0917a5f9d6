from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from apscheck.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"
# A child Python still running after this many seconds is killed, and its
# test fails with `subprocess.TimeoutExpired`.
CHILD_TIMEOUT_S = 60


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS


@pytest.fixture
def checkout_env() -> dict:
    """Environment for a child `python -m apscheck` that imports this
    checkout's `src`, ahead of whatever PYTHONPATH the caller set."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(
        None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))))


@pytest.fixture
def run_python(checkout_env):
    """Run `python *args` to its end in the repository root, with this
    checkout's `src` importable, `env` added to the environment and text
    streams; the child is killed after CHILD_TIMEOUT_S seconds."""

    def run(*args: str, env: "dict | None" = None, **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=REPO_ROOT,
                              env=checkout_env | (env or {}), text=True,
                              timeout=CHILD_TIMEOUT_S, **kwargs)

    return run


@pytest.fixture
def mask_elapsed():
    """Mask a report's `elapsed` text and `elapsed_ms` field, the only
    parts of stdout that differ between runs."""

    def mask(text: str) -> str:
        return re.sub(r'(elapsed(?:_ms)?"?: )[0-9.]+', r"\1X", text)

    return mask


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""

    def run(*argv: str):
        code = cli_main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    return run


@pytest.fixture
def build_peak():
    """The traced peak, in bytes, of allocations made by `build(arg)`."""

    def peak(build, arg) -> int:
        tracemalloc.start()
        try:
            build(arg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
