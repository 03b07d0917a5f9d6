"""Seeded workload generators and the output checks behind ``failed``.

Each generator takes the seed as its only argument and returns scenario
text; the checker under test sees nothing but that text and CLI flags.
The same seed always yields byte-identical text.

* ``cs1_reach``: ``aps_cs1`` with 5 apps, invariants off. Pinned to the
  counts ``tests/oracles.py::cs1_stats(5)`` returns (that oracle needs
  about 17 s, too slow to recompute per run).
* ``custom_pass``: a generated 2-app x 5-name ``custom_permissions``
  scenario where every name has exactly one definer, so
  ``escalation_free`` holds after a full exploration. Pinned to
  ``custom_stats`` for that scenario.
* ``scenario_batch``: a fixed mix of small scenarios run through
  ``apscheck.cli.main``; expected outcomes come from the oracles at run
  time, before anything is timed.

For the two reach workloads the seed only reorders directives, blocks
and clauses, so the state space stays the pinned one. For the batch the
seed picks the run order, the state limits, the custom scenarios' app
ids, definers and clause order, while the number of scenarios of each
kind, their sizes and formats are fixed, so that runs with different
seeds measure comparable work.
"""

from __future__ import annotations

import json
import random
import re

CS1_APPS = 5
CS1_REACH_STATS = (21875, 289375, 15)

CUSTOM_APPS = 2
CUSTOM_NAMES = 5
CUSTOM_PASS_STATS = (11696, 70075, 12)


# -- generators ---------------------------------------------------------

def _render_custom(rng: random.Random, apps) -> str:
    """Scenario text for `apps`, a list of (id, ((name, level), ...),
    (requested name, ...)), with blocks and clauses in seeded order."""
    blocks = []
    for app_id, declares, requests in apps:
        clauses = ([f"declare {n} level {lv}" for n, lv in declares]
                   + [f"request {n}" for n in requests])
        rng.shuffle(clauses)
        blocks.append(f"app {app_id} {{ " + "\n  ".join(clauses) + " }")
    rng.shuffle(blocks)
    return "\n".join(["model custom_permissions", *blocks, "check escalation_free"]) + "\n"


def cs1_reach_source(seed: int) -> str:
    rng = random.Random(seed)
    directives = ["model aps_cs1", f"apps {CS1_APPS}", "check ApsConsistent"]
    rng.shuffle(directives)
    return f"# cs1_reach seed {seed}\n" + "\n".join(directives) + "\n"


def custom_pass_apps(k: int = CUSTOM_APPS, m: int = CUSTOM_NAMES):
    """App ``app{i}`` declares ``P{j}`` when ``j % k == i`` (normal if j is
    odd, dangerous otherwise); every app requests every name."""
    return [(f"app{i}",
             tuple((f"P{j}", "normal" if j % 2 else "dangerous")
                   for j in range(m) if j % k == i),
             tuple(f"P{j}" for j in range(m)))
            for i in range(k)]


def custom_pass_source(seed: int) -> str:
    return _render_custom(random.Random(seed), custom_pass_apps())


# Scenarios of each kind in one batch pass. Within a kind, sizes cycle
# with the case's index and each size appears in both formats, so every
# pass does the same work whatever the seed.
BATCH_MIX = {
    "cs1_violation": 8,     # aps_cs1 apps 1-4, ApsConsistent fails in 2 steps
    "cs1_stats": 6,         # aps_cs1 apps 1-3, --stats-only, full exploration
    "custom_violation": 8,  # 2-3 apps, one name with a normal and a dangerous definer
    "custom_pass": 8,       # 2-3 apps, every name has one definer
    "cs1_limit": 6,         # aps_cs1 apps 100-200, --max-states 10-30, exit 3
}


_CUSTOM_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2))  # (apps, names)
_LIMIT_APPS = (100, 140, 180, 120, 160, 200)  # JSON cases first, then text


def _custom_batch_apps(rng: random.Random, violating: bool, index: int):
    """A small custom scenario in which every app requests every name.

    Shape and levels cycle with `index`; the seed picks app ids and which
    app defines each name. A violating scenario gives ``P0`` a normal and a
    dangerous definer; otherwise every name has exactly one definer."""
    n_apps, n_names = _CUSTOM_SHAPES[index % len(_CUSTOM_SHAPES)]
    ids = rng.sample(["alpha", "bravo", "carol", "delta", "echo"], n_apps)
    names = [f"P{j}" for j in range(n_names)]
    declares = {i: [] for i in ids}
    for j, name in enumerate(names):
        if violating and j == 0:
            normal_app, dangerous_app = rng.sample(ids, 2)
            declares[normal_app].append((name, "normal"))
            declares[dangerous_app].append((name, "dangerous"))
        else:
            level = ("normal", "dangerous")[(index // len(_CUSTOM_SHAPES) + j) % 2]
            declares[rng.choice(ids)].append((name, level))
    return [(i, tuple(sorted(declares[i])), tuple(names)) for i in ids]


def scenario_batch(seed: int) -> list[dict]:
    """The batch as a list of cases: ``kind``, ``source``, CLI ``flags``,
    ``format`` and the parameters the oracles need."""
    rng = random.Random(seed)
    cases = []
    for kind, count in BATCH_MIX.items():
        for i in range(count):
            fmt = ("json", "text")[2 * i // count]
            flags = ["--format", fmt]
            case = {"kind": kind, "format": fmt}
            if kind == "cs1_violation":
                apps = 1 + i % 4
                checks = ["ApsTypeOK", "ApsConsistent"] if i % 2 else ["ApsConsistent"]
                source = "model aps_cs1\n" + f"apps {apps}\n" + "".join(
                    f"check {c}\n" for c in checks)
                case["apps"] = apps
            elif kind == "cs1_stats":
                apps = 1 + i % 3
                source = f"model aps_cs1\napps {apps}\n"
                flags.append("--stats-only")
                case["apps"] = apps
            elif kind == "cs1_limit":
                apps = _LIMIT_APPS[i]
                limit = rng.randrange(10, 31)
                source = f"model aps_cs1\napps {apps}\n"
                flags += ["--max-states", str(limit)]
                case.update(apps=apps, max_states=limit)
            else:
                apps = _custom_batch_apps(rng, kind == "custom_violation", i)
                source = _render_custom(rng, apps)
                case["apps"] = [list(a) for a in apps]
            case.update(source=source, flags=flags)
            cases.append(case)
    rng.shuffle(cases)
    return cases


# -- expected outcomes ----------------------------------------------------

def _custom_oracle_apps(apps):
    return [(app_id, tuple(tuple(d) for d in declares), tuple(requests))
            for app_id, declares, requests in apps]


def expected_outcome(case: dict, oracles, memo: dict) -> dict:
    """What the CLI must report for one batch case, from the oracles."""
    kind = case["kind"]
    key = json.dumps([kind, case.get("apps"), case.get("max_states")])
    if key in memo:
        return memo[key]
    if kind == "cs1_violation":
        n = case["apps"]
        length = oracles.shortest_violation(
            oracles.cs1_initial(n), oracles.cs1_successors,
            lambda s: not oracles.cs1_consistent(s))
        exp = {"exit": 1, "verdict": "violation", "invariant": "ApsConsistent",
               "trace_len": length}
    elif kind == "cs1_stats":
        exp = {"exit": 0, "verdict": "pass",
               "stats": list(oracles.cs1_stats(case["apps"]))}
    elif kind == "cs1_limit":
        exp = {"exit": 3, "verdict": "limit_exceeded",
               "distinct_states": case["max_states"]}
    else:
        apps = _custom_oracle_apps(case["apps"])
        length = oracles.custom_shortest_violation(apps)
        if length is None:
            exp = {"exit": 0, "verdict": "pass",
                   "stats": list(oracles.custom_stats(apps))}
        else:
            exp = {"exit": 1, "verdict": "violation",
                   "invariant": "escalation_free", "trace_len": length}
    memo[key] = exp
    return exp


# -- output checks --------------------------------------------------------

_TEXT_STATS = re.compile(r"distinct states: (\d+)\n  transitions: (\d+)\n"
                         r"  diameter: (\d+)\n")
_TEXT_VIOLATION = re.compile(r"Error: invariant (\S+) is violated\.")


def parse_report(stdout: str, fmt: str) -> dict:
    """Verdict, stats triple, violated invariant and trace length of one
    CLI report in either format."""
    if fmt == "json":
        doc = json.loads(stdout)
        stats = doc["stats"]
        return {
            "verdict": doc["verdict"],
            "stats": [stats["distinct_states"], stats["transitions"],
                      stats["diameter"]],
            "invariant": doc.get("violated_invariant"),
            "trace_len": len(doc["trace"]) - 1 if "trace" in doc else None,
        }
    stats = _TEXT_STATS.search(stdout)
    violation = _TEXT_VIOLATION.match(stdout)
    if violation:
        verdict = "violation"
    elif stdout.startswith("State limit reached"):
        verdict = "limit_exceeded"
    elif stdout.startswith(("No violations found", "Exploration complete")):
        verdict = "pass"
    else:
        verdict = None
    states = len(re.findall(r"^State \d+: <", stdout, re.MULTILINE))
    return {
        "verdict": verdict,
        "stats": [int(g) for g in stats.groups()] if stats else None,
        "invariant": violation.group(1) if violation else None,
        "trace_len": states - 1 if violation else None,
    }


def check_batch_case(expected: dict, fmt: str, outcome: dict) -> list[str]:
    """Failures of one batch case's check call."""
    if outcome["exit"] != expected["exit"]:
        return [f"exit {outcome['exit']}, expected {expected['exit']}"]
    try:
        got = parse_report(outcome["stdout"], fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {fmt} report: {exc}"]
    problems = []
    for field in ("verdict", "stats", "invariant", "trace_len"):
        if field in expected and got[field] != expected[field]:
            problems.append(f"{field} {got[field]!r}, expected {expected[field]!r}")
    if "distinct_states" in expected and (
            got["stats"] is None or got["stats"][0] != expected["distinct_states"]):
        problems.append(f"stats {got['stats']!r}, expected "
                        f"{expected['distinct_states']} distinct states")
    return problems


def check_replay(replay: dict) -> list[str]:
    """Failures of replaying a violating JSON report: it must be valid."""
    if replay["exit"] != 0 or not replay["stdout"].startswith("replay: valid"):
        return [f"replay exit {replay['exit']}: {replay['stdout'].strip()!r}"]
    return []


def check_reach(expected_stats, child: dict) -> list[str]:
    """Failures of one reach run: it must pass with the pinned counts."""
    got = [child["distinct_states"], child["transitions"], child["diameter"]]
    problems = []
    if child["verdict"] != "pass":
        problems.append(f"verdict {child['verdict']!r}, expected 'pass'")
    if got != list(expected_stats):
        problems.append(f"stats {got}, expected {list(expected_stats)}")
    return problems
