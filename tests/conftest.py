from __future__ import annotations

import os
import tracemalloc
from pathlib import Path

import pytest

from apscheck.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"


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
