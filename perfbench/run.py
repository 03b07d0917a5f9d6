"""apscheck benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the checker is imported from
``src/`` and the batch's expected outcomes come from ``tests/oracles.py``.
Every sample is a fresh child process (``child.py``), one after another
with nothing else running, so ``ru_maxrss`` gives each sample's own peak.
Children are started until S seconds have passed (at least three).

With ``--trace 0`` the children run untraced and the last stdout line
holds the end-to-end metrics. With ``--trace 1`` traced and untraced
children alternate; the last line holds the per-layer metrics of the
traced ones plus ``trace.overhead_ratio`` (traced / untraced ``wall_s``).
Metric names and units are the ones ``BENCHMARK.json`` declares. The
line before the metrics records the environment, sample counts and the
first failures; a traced run writes its spans and counters to
``perfbench/out/<workload>-seed<N>-trace1/trace.json``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_SAMPLES = 3
# Stop starting children after this long even when fewer than MIN_SAMPLES
# finished, so that a run ends within three minutes.
HARD_STOP_S = 100.0
CHILD_TIMEOUT_S = 60.0


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("apscheck_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def prepare(workload: str, seed: int, workdir: Path):
    """Write the inputs for one run; return (manifest path, expectations)."""
    if workload in ("cs1_reach", "custom_pass"):
        reach = workload == "cs1_reach"
        source = (workloads.cs1_reach_source if reach else
                  workloads.custom_pass_source)(seed)
        manifest = {"kind": "reach", "invariants": not reach,
                    "scenario": _write(workdir / f"{workload}.scn", source)}
        expected = workloads.CS1_REACH_STATS if reach else workloads.CUSTOM_PASS_STATS
    else:
        oracles, memo = _load_oracles(), {}
        cases, expected = [], []
        for index, case in enumerate(workloads.scenario_batch(seed)):
            exp = workloads.expected_outcome(case, oracles, memo)
            entry = {"scenario": _write(workdir / f"case{index:03d}.scn", case["source"]),
                     "flags": case["flags"]}
            if exp["verdict"] == "violation" and case["format"] == "json":
                entry["replay_file"] = str(workdir / f"case{index:03d}.json")
            cases.append(entry)
            expected.append((exp, case["format"]))
        manifest = {"kind": "batch", "cases": cases}
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path, expected


def run_child(manifest: Path, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(manifest), mode]
    # A fixed hash seed keeps set and dict layouts inside the checker, and
    # with them its speed, the same from one sample to the next; without
    # PYTHONPATH the child imports the checkout's own src/.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    result["traced"] = mode == "trace"
    return result


def check_child(workload: str, expected, child: dict) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, failure messages) for one child.

    A reach child is one check; a batch child is one check per case plus
    one per replay."""
    if workload != "scenario_batch":
        problems = workloads.check_reach(expected, child)
        return 1, int(bool(problems)), problems
    attempted, failed, messages = 0, 0, []
    for index, ((exp, fmt), outcome) in enumerate(zip(expected, child["outcomes"])):
        results = [workloads.check_batch_case(exp, fmt, outcome)]
        if "replay" in outcome:
            results.append(workloads.check_replay(outcome["replay"]))
        attempted += len(results)
        failed += sum(1 for problems in results if problems)
        messages += [f"case{index:03d}: {p}" for problems in results for p in problems]
    return attempted, failed, messages


def end_to_end(workload: str, expected, children: list[dict],
               setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics (medians over children) and their sample counts."""
    med = lambda key: statistics.median(c[key] for c in children)
    wall = med("wall_s")
    if workload == "scenario_batch":
        outcomes = [o for c in children for o in c["outcomes"]]
        latencies = [o["ms"] for o in outcomes]
        latencies += [o["replay"]["ms"] for o in outcomes if "replay" in o]
        reports = [workloads.parse_report(o["stdout"], fmt)
                   for o, (_, fmt) in zip(children[0]["outcomes"], expected)]
        per_unit = {"scenarios": len(reports),
                    "states": sum(r["stats"][0] for r in reports),
                    "transitions": sum(r["stats"][1] for r in reports)}
    else:
        latencies = [c["wall_s"] * 1000.0 for c in children]
        per_unit = {"scenarios": 1, "states": children[0]["distinct_states"],
                    "transitions": children[0]["transitions"]}
    growth = statistics.median(c["rss_peak_kib"] - c["rss_setup_kib"] for c in children)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "states_per_s": per_unit["states"] / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": med("rss_peak_kib") / 1024.0,
        "rss_bytes_per_state": growth * 1024.0 / per_unit["states"],
    }
    samples = {"children": len(children), "setup_samples": len(setups),
               "latency_samples": len(latencies),
               "wall_s": [c["wall_s"] for c in children],
               "per_child": per_unit,
               # Fixed multiples of states_per_s, kept out of the metrics.
               "transitions_per_s": per_unit["transitions"] / wall,
               "scenarios_per_s": per_unit["scenarios"] / wall}
    return metrics, samples


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    rows = [layer_metrics(c["trace"]) for c in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(c["wall_s"] for c in traced)
                                       / statistics.median(c["wall_s"] for c in untraced))
    return metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "rss_method": "ru_maxrss (KiB) of a fresh child process per sample, "
                      "read after setup and after the measured work",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cs1_reach", "custom_pass", "scenario_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/apscheck/cli.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an apscheck checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    manifest, expected = prepare(args.workload, args.seed, workdir)

    # Byte-compile once, as an installed package would be, so no sample
    # pays for compiling.
    compileall.compile_dir(ROOT / "src", quiet=1)
    children: list[dict] = []
    setups: list[float] = []
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(children) % 2 == 1
        children.append(run_child(manifest, "trace" if traced else "run"))
        # Set-up-only children between the measured ones spread the set-up
        # samples over the whole run, as the machine's speed drifts.
        setups.append(run_child(manifest, "setup")["setup_s"])
        elapsed = time.monotonic() - started
        per_child = elapsed / len(children)
        enough = len(children) >= (2 * MIN_SAMPLES if args.trace else MIN_SAMPLES)
        if (enough and elapsed + per_child > args.seconds) or elapsed > HARD_STOP_S:
            break
    measured_s = time.monotonic() - started

    attempted, failed, failures = 0, 0, []
    for index, child in enumerate(children):
        n, bad, problems = check_child(args.workload, expected, child)
        attempted += n
        failed += bad
        failures += [f"child {index}: {p}" for p in problems]

    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    setups += [c["setup_s"] for c in untraced]
    values, samples = end_to_end(args.workload, expected, untraced, setups)
    if args.trace:
        values = per_layer(traced, untraced)
        record = {"workload": args.workload, "seed": args.seed,
                  "children": [c["trace"] for c in traced]}
        (workdir / "trace.json").write_text(json.dumps(record), encoding="utf-8")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           "both declared in BENCHMARK.json and measured")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "measured_s": measured_s, "environment": environment(),
              "samples": samples, "traced_children": len(traced),
              "failures": failures[:20]}
    print(json.dumps(detail))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
