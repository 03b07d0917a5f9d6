"""One measured sample, run in a fresh single-threaded Python process.

    python3 perfbench/child.py MANIFEST MODE

MANIFEST is a JSON file written by ``run.py``. For ``"kind": "reach"`` the
child parses and builds one scenario, then times one ``check`` call; for
``"kind": "batch"`` it imports the CLI and runs every case through
``apscheck.cli.main`` once, replaying each case that names a replay file.
MODE is ``setup`` (stop once set up), ``run`` or ``trace`` (install the
layer wrappers from ``tracer.py`` first). The child prints one JSON
object: when it was set up, its timings, its ``ru_maxrss`` before and
after the measured work, the outputs to check and, when traced, the
tracer's record.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "ms": elapsed * 1000.0}


def run_reach(cli, manifest, tracer, setup_only):
    source = Path(manifest["scenario"]).read_text(encoding="utf-8")
    scenario = cli.parse_scenario(source)
    system = cli.build_system(scenario)
    ready_at = time.monotonic()
    if setup_only:
        return {"ready_at": ready_at}
    rss_setup = _maxrss_kib()
    options = cli.CheckOptions(max_states=scenario.max_states,
                               check_invariants=manifest["invariants"])
    start = time.perf_counter()
    report = cli.check(system, options)
    wall = time.perf_counter() - start
    return {
        "ready_at": ready_at, "wall_s": wall,
        "rss_setup_kib": rss_setup, "rss_peak_kib": _maxrss_kib(),
        "verdict": report.verdict.value,
        "distinct_states": report.distinct_states,
        "transitions": report.transitions, "diameter": report.diameter,
    }


def run_batch(cli, manifest, tracer, setup_only):
    ready_at = time.monotonic()
    if setup_only:
        return {"ready_at": ready_at}
    rss_setup = _maxrss_kib()
    outcomes = []
    start = time.perf_counter()
    for index, case in enumerate(manifest["cases"]):
        if tracer is not None:
            tracer.scenario = index
        outcome = _call_main(cli, ["check", case["scenario"], *case["flags"]])
        if case.get("replay_file"):
            Path(case["replay_file"]).write_text(outcome["stdout"], encoding="utf-8")
            outcome["replay"] = _call_main(
                cli, ["check", case["scenario"], "--replay", case["replay_file"]])
        outcomes.append(outcome)
    wall = time.perf_counter() - start
    return {"ready_at": ready_at, "wall_s": wall, "rss_setup_kib": rss_setup,
            "rss_peak_kib": _maxrss_kib(), "outcomes": outcomes}


def main(argv):
    manifest = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    mode = argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    from apscheck import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"apscheck imported from {cli.__file__}, not {ROOT / 'src'}")
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run = run_reach if manifest["kind"] == "reach" else run_batch
    result = run(cli, manifest, tracer, setup_only=mode == "setup")
    if tracer is not None:
        result["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
