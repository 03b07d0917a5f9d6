"""Tests of the benchmark's generators, output checks and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import oracles
import pytest
import run
import workloads
from tracer import layer_metrics


def _cli_main(argv):
    from apscheck import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("generate", [workloads.cs1_reach_source,
                                      workloads.custom_pass_source,
                                      lambda seed: json.dumps(workloads.scenario_batch(seed))])
def test_generators_are_byte_identical_for_the_same_seed(generate):
    for seed in (0, 1, 12345):
        assert generate(seed).encode() == generate(seed).encode()


def test_batch_mix_is_fixed_but_contents_follow_the_seed():
    first, second = workloads.scenario_batch(1), workloads.scenario_batch(2)
    count = lambda cases, kind: sum(c["kind"] == kind for c in cases)
    for kind, n in workloads.BATCH_MIX.items():
        assert count(first, kind) == count(second, kind) == n
    assert [c["source"] for c in first] != [c["source"] for c in second]


def test_cs1_reach_pin_matches_the_oracle_levels():
    # cs1_stats(5) also enumerates all 18**5 type-correct states; its
    # level-set part alone gives the same counts in about a second.
    levels = oracles.reachable_levels(oracles.cs1_initial(workloads.CS1_APPS),
                                      oracles.cs1_successors)
    states = sum(len(level) for level in levels)
    edges = sum(len(oracles.cs1_successors(s)) for level in levels for s in level)
    assert (states, edges, len(levels) - 1) == workloads.CS1_REACH_STATS


def test_custom_pass_pin_matches_the_oracle():
    apps = workloads._custom_oracle_apps(workloads.custom_pass_apps())
    assert oracles.custom_shortest_violation(apps) is None
    assert oracles.custom_stats(apps) == workloads.CUSTOM_PASS_STATS


@pytest.mark.parametrize("field", ["distinct_states", "transitions", "diameter"])
def test_reach_check_fails_a_count_off_by_one(field):
    states, transitions, diameter = workloads.CS1_REACH_STATS
    child = {"verdict": "pass", "distinct_states": states,
             "transitions": transitions, "diameter": diameter}
    assert workloads.check_reach(workloads.CS1_REACH_STATS, child) == []
    child[field] += 1
    assert workloads.check_reach(workloads.CS1_REACH_STATS, child)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_batch_check_fails_stats_off_by_one(tmp_path, fmt):
    scn = tmp_path / "c.scn"
    scn.write_text("model aps_cs1\napps 2\n")
    outcome = _cli_main(["check", str(scn), "--stats-only", "--format", fmt])
    expected = {"exit": 0, "verdict": "pass", "stats": list(oracles.cs1_stats(2))}
    assert workloads.check_batch_case(expected, fmt, outcome) == []
    expected["stats"][1] += 1
    assert workloads.check_batch_case(expected, fmt, outcome)


def test_batch_check_fails_a_replay_of_a_tampered_report(tmp_path):
    case = next(c for c in workloads.scenario_batch(7)
                if c["kind"] == "custom_violation" and c["format"] == "json")
    exp = workloads.expected_outcome(case, oracles, {})
    scn, report = tmp_path / "c.scn", tmp_path / "c.json"
    scn.write_text(case["source"])
    outcome = _cli_main(["check", str(scn), *case["flags"]])
    assert workloads.check_batch_case(exp, "json", outcome) == []

    report.write_text(outcome["stdout"])
    replayed = _cli_main(["check", str(scn), "--replay", str(report)])
    assert workloads.check_replay(replayed) == []

    doc = json.loads(outcome["stdout"])
    installed = doc["trace"][-1]["state"]["installed"]
    app = next(iter(installed))
    installed[app] = 1 - installed[app]
    report.write_text(json.dumps(doc))
    tampered = _cli_main(["check", str(scn), "--replay", str(report)])
    assert tampered["exit"] == 1
    assert workloads.check_replay(tampered)


def test_traced_child_counts_match_the_report_and_skip_invariants_when_off(tmp_path):
    scn = tmp_path / "c.scn"
    scn.write_text("model aps_cs1\napps 2\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"kind": "reach", "invariants": False,
                                    "scenario": str(scn)}))
    child = run.run_child(manifest, "trace")
    metrics = layer_metrics(child["trace"])
    states, transitions = child["distinct_states"], child["transitions"]
    assert metrics["models.invariant_calls"] == 0
    assert metrics["models.successor_calls"] == states
    assert metrics["models.successors_generated"] == transitions
    assert metrics["kernel.transitions"] == transitions
    assert metrics["kernel.new_states"] == states - 1
    assert metrics["models.successor_use_ratio"] == 1.0
    assert metrics["scenario.parse_calls"] == 1
    assert metrics["cli.main_calls"] == 0
    assert 0 < metrics["kernel.self_s"] < metrics["kernel.check_s"]
