"""Recorded reports: stdout and exit codes must stay byte-identical.

Each case runs `apscheck check` in-process and compares its stdout with
`tests/golden/<case>.out`, the `elapsed` text and `elapsed_ms` field
masked on both sides. Replay cases replay a recorded JSON report. Each
other case is also rendered through the library calls the CLI makes, so
the same file pins `render_text` and `render_structured`.
After an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from apscheck import (CheckOptions, build_system, check, parse_scenario,
                      render_structured, render_text)

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Scenario sources that are not shipped files; each case writes its own
# to a temporary file.
SOURCES = {
    "cs1_apps4": "model aps_cs1\napps 4\ncheck ApsConsistent\n",
    "cs1_typeok": "model aps_cs1\napps 1\ncheck ApsTypeOK\n",
    # Three apps; with `--max-states 13` the limit stops the sixth
    # expansion at its second of seven successors, so the reports pin the
    # transitions counted up to that point.
    "custom_limit": ("model custom_permissions\n"
                     "app alpha { declare P0 level normal\n request P0\n request P1 }\n"
                     "app bravo { declare P1 level dangerous\n request P0\n request P1 }\n"
                     "app carol { declare P0 level dangerous\n request P1 }\n"
                     "check escalation_free\n"),
    # 255 apps give the registry's definer variable 256 values, as many as
    # one byte holds; the scenario's own `max_states 10` ends the check.
    "custom_255": ("model custom_permissions\n"
                   + "".join(f"app z{i} {{ declare P level normal request P }}\n"
                             for i in range(255))
                   + "max_states 10\n"),
}

# case -> (shipped file or SOURCES key, extra arguments, exit code). A
# `--replay` argument names the golden case whose JSON report is replayed.
CASES = {
    "cs1.text": ("cs1.scn", (), 1),
    "cs1.json": ("cs1.scn", ("--format", "json"), 1),
    "cs1.stats": ("cs1.scn", ("--stats-only",), 0),
    "cs1.replay": ("cs1.scn", ("--replay", "cs1.json"), 0),
    "custom_safe.text": ("custom_safe.scn", (), 0),
    "custom_safe.json": ("custom_safe.scn", ("--format", "json"), 0),
    "custom_vuln.text": ("custom_vuln.scn", (), 1),
    "custom_vuln.json": ("custom_vuln.scn", ("--format", "json"), 1),
    "custom_vuln.replay": ("custom_vuln.scn", ("--replay", "custom_vuln.json"), 0),
    "cs1_apps4.text": ("cs1_apps4", (), 1),
    "cs1_apps4.json": ("cs1_apps4", ("--format", "json"), 1),
    "cs1_apps4.stats": ("cs1_apps4", ("--stats-only",), 0),
    "cs1_apps4.replay": ("cs1_apps4", ("--replay", "cs1_apps4.json"), 0),
    "custom_limit.text": ("custom_limit", ("--max-states", "13"), 3),
    "custom_limit.json": ("custom_limit", ("--max-states", "13", "--format", "json"), 3),
    "custom_255.text": ("custom_255", (), 3),
    "cs1_typeok.text": ("cs1_typeok", (), 0),
    "cs1_typeok.json": ("cs1_typeok", ("--format", "json"), 0),
}


def argv(case: str, tmp_dir: Path) -> list[str]:
    """The `check` command line of `case`, writing its scenario to
    `tmp_dir` when it is not a shipped file."""
    scenario, extra, _ = CASES[case]
    if scenario in SOURCES:
        path = tmp_dir / f"{scenario}.scn"
        path.write_text(SOURCES[scenario], encoding="utf-8")
    else:
        path = SCENARIOS / scenario
    extra = list(extra)
    if "--replay" in extra:
        at = extra.index("--replay") + 1
        extra[at] = str(GOLDEN / f"{extra[at]}.out")
    return ["check", str(path), *extra]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, run_cli, mask_elapsed, tmp_path):
    code, out, err = run_cli(*argv(case, tmp_path))
    golden = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert (code, err) == (CASES[case][2], "")
    assert mask_elapsed(out) == mask_elapsed(golden)


@pytest.mark.parametrize("case", sorted(c for c in CASES if "--replay" not in CASES[c][1]))
def test_library_report_matches_golden(case, mask_elapsed):
    name, extra, _ = CASES[case]
    scenario = parse_scenario(SOURCES.get(name)
                              or (SCENARIOS / name).read_text(encoding="utf-8"))
    max_states = (int(extra[extra.index("--max-states") + 1])
                  if "--max-states" in extra else scenario.max_states)
    report = check(build_system(scenario), CheckOptions(
        max_states=max_states, check_invariants="--stats-only" not in extra))
    render = render_structured if "json" in extra else render_text
    golden = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert mask_elapsed(render(report)) == mask_elapsed(golden)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    from apscheck.cli import main

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # Replay cases read JSON cases, which sort before them.
        for case in sorted(CASES, key=lambda c: c.endswith(".replay")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv(case, Path(tmp)))
            if code != CASES[case][2]:
                sys.exit(f"{case}: exit {code}, expected {CASES[case][2]}")
            (GOLDEN / f"{case}.out").write_text(out.getvalue(), encoding="utf-8")
            print(f"wrote {case}.out")
