"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line. Expected values were computed with the independent
oracles in oracles.py and are frozen here; the oracles also run inline
so any drift between the two shows up as a failure."""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import oracles
from apscheck.kernel import Verdict, check
from apscheck.models import build_system, cs1, custom
from apscheck.models.custom import AppSpec, PermissionDeclaration
from apscheck.reporting import render_structured, replay
from apscheck.scenario import ScenarioError, parse_scenario, render_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def within_one_second(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, expected < 1s"
    return result


def test_criterion_1_single_app_flaw_detection(run_cli):
    with criterion(1, "single-app consistency flaw found in two steps"):
        scenario = parse_scenario((SCENARIOS / "cs1.scn").read_text())
        system = build_system(scenario)
        report = within_one_second(check, system)
        assert report.verdict is Verdict.VIOLATION
        assert report.trace.violated_invariant == "ApsConsistent"
        assert len(report.trace) == 2
        labels = [s.label.render() for s in report.trace.steps[1:]]
        assert labels == ["Ask(a1, NOR)", "Grant(a1)"]
        oracle_min = oracles.shortest_violation(
            oracles.cs1_initial(1), oracles.cs1_successors,
            lambda s: not oracles.cs1_consistent(s))
        assert oracle_min == 2
        code, out, _ = run_cli("check", str(SCENARIOS / "cs1.scn"))
        assert code == 1 and "Grant(a1)" in out


def test_criterion_2_type_soundness_statistics():
    with criterion(2, "type invariant passes with oracle-matching statistics"):
        one = within_one_second(
            check, cs1.build_system(1).with_invariants(["ApsTypeOK"]))
        assert one.verdict is Verdict.PASS
        assert (one.distinct_states, one.diameter) == (11, 3)
        assert (one.distinct_states, one.transitions, one.diameter) \
            == oracles.cs1_stats(1) == (11, 35, 3)

        two = within_one_second(
            check, cs1.build_system(2).with_invariants(["ApsTypeOK"]))
        assert two.verdict is Verdict.PASS
        assert (two.distinct_states, two.transitions, two.diameter) \
            == oracles.cs1_stats(2) == (85, 494, 6)


def test_criterion_3_custom_permission_scenarios(run_cli):
    with criterion(3, "install-order escalation found, safe variant passes"):
        vuln = parse_scenario((SCENARIOS / "custom_vuln.scn").read_text())
        report = within_one_second(check, build_system(vuln))
        assert report.verdict is Verdict.VIOLATION
        assert report.trace.violated_invariant == "escalation_free"
        assert len(report.trace) == 3
        rendered = [s.label.render() for s in report.trace.steps[1:]]
        assert rendered == ["Install(malware)", "Request(malware, P)",
                            "Install(victim)"]
        assert oracles.custom_shortest_violation(
            oracles.oracle_apps(vuln.app_specs)) == 3

        safe = parse_scenario((SCENARIOS / "custom_safe.scn").read_text())
        safe_report = within_one_second(check, build_system(safe))
        assert safe_report.verdict is Verdict.PASS
        assert oracles.custom_shortest_violation(
            oracles.oracle_apps(safe.app_specs)) is None

        code, _, _ = run_cli("check", str(SCENARIOS / "custom_vuln.scn"))
        assert code == 1
        code, _, _ = run_cli("check", str(SCENARIOS / "custom_safe.scn"))
        assert code == 0


def random_custom_apps(rng: random.Random) -> tuple[AppSpec, ...]:
    names = ("P", "Q")[: rng.randint(1, 2)]
    apps = []
    for i in range(rng.randint(1, 3)):
        declares = tuple(
            PermissionDeclaration(name, rng.choice(("normal", "dangerous")))
            for name in names if rng.random() < 0.6)
        requests = tuple(name for name in names if rng.random() < 0.55)
        apps.append(AppSpec(f"app{i}", declares, requests))
    return tuple(apps)


def test_criterion_4_shortest_traces_match_iterative_deepening():
    with criterion(4, "trace minimality on 50 randomized scenarios"):
        rng = random.Random(1729)
        violations = 0
        for _ in range(50):
            apps = random_custom_apps(rng)
            report = check(custom.build_system(apps))
            oracle_min = oracles.custom_shortest_violation(oracles.oracle_apps(apps))
            if report.verdict is Verdict.VIOLATION:
                violations += 1
                assert oracle_min == len(report.trace), \
                    f"kernel found {len(report.trace)} steps, oracle {oracle_min}"
            else:
                assert report.verdict is Verdict.PASS
                assert oracle_min is None
        # The seed must exercise both outcomes for the comparison to mean much.
        assert 5 <= violations <= 45


def test_criterion_5_repeated_runs_are_byte_identical(run_python, mask_elapsed):
    with criterion(5, "determinism of stdout across processes"):
        invocations = [
            ("check", str(SCENARIOS / "cs1.scn")),
            ("check", str(SCENARIOS / "cs1.scn"), "--format", "json"),
            ("check", str(SCENARIOS / "custom_vuln.scn")),
            ("check", str(SCENARIOS / "custom_vuln.scn"), "--format", "json"),
            ("check", str(SCENARIOS / "custom_safe.scn")),
        ]
        for args in invocations:
            first, second = (run_python("-m", "apscheck", *args, capture_output=True)
                             for _ in range(2))
            assert first.returncode == second.returncode
            assert mask_elapsed(first.stdout) == mask_elapsed(second.stdout)
            assert first.stdout != ""


def test_criterion_6_replay_validates_and_tampers_are_located(run_cli, tmp_path):
    with criterion(6, "replay accepts genuine documents, locates any tamper"):
        for name in ("cs1.scn", "custom_vuln.scn"):
            scenario = parse_scenario((SCENARIOS / name).read_text())
            system = build_system(scenario)
            document = render_structured(check(system))

            saved = tmp_path / f"{name}.json"
            saved.write_text(document)
            code, out, _ = run_cli("check", str(SCENARIOS / name),
                                   "--replay", str(saved))
            assert code == 0 and "replay: valid" in out

            domains = {decl.name: decl for decl in system.variables}
            doc = json.loads(document)
            for index, entry in enumerate(doc["trace"], start=1):
                for var, mapping in entry["state"].items():
                    for key, value in mapping.items():
                        alt = next(v for v in domains[var].domain if v != value)
                        tampered = json.loads(document)
                        tampered["trace"][index - 1]["state"][var][key] = alt
                        result = replay(json.dumps(tampered), system)
                        assert not result
                        assert result.divergent_step == index, \
                            f"{name}: tamper at step {index} ({var}[{key}]) " \
                            f"reported at {result.divergent_step}"


def corpus_of_valid_scenarios() -> list:
    defs = []
    for apps in (1, 2, 3, 4, 5):
        for checks in ("", "check ApsTypeOK\n", "check ApsConsistent\n",
                       "check ApsTypeOK\ncheck ApsConsistent\n"):
            defs.append(f"model aps_cs1\napps {apps}\n{checks}max_states "
                        f"{100 * apps}\n")
    rng = random.Random(31337)
    for _ in range(12):
        apps = random_custom_apps(rng)
        if not apps:
            continue
        lines = ["model custom_permissions"]
        for app in apps:
            items = [f"declare {d.name} level {d.level}" for d in app.declares]
            items += [f"request {n}" for n in app.requests]
            body = "\n  ".join(items)
            lines.append(f"app {app.id} {{\n  {body}\n}}" if items
                         else f"app {app.id} {{ }}")
        lines.append("check escalation_free")
        defs.append("\n".join(lines) + "\n")
    return defs


INVALID_CORPUS = [
    ("model nosuch\napps 1\n", 1),
    ("model aps_cs1\napps zero\n", 2),
    ("model aps_cs1\napps 1\ncheck Imaginary\n", 3),
    ("model aps_cs1\napps 1\n!bang\n", 3),
    ("model aps_cs1\napps 1\napps 2\n", 3),
    ("model aps_cs1\napps 1\nmax_states 0\n", 3),
    ("model custom_permissions\napp m { declare P level medium }\n", 2),
    ("model custom_permissions\napp m { declare P level normal }\n"
     "app m { request P }\n", 3),
    ("model custom_permissions\napp m {\n  declare P level normal\n"
     "  declare P level dangerous\n}\n", 4),
    ("model custom_permissions\napp m { request P\n", 2),
    ("model aps_cs1\napps 1\ncheck\n", 3),
    ("model custom_permissions\napps 1\napp m { request P }\n", 2),
]


def test_criterion_7_parser_round_trip_and_error_locations():
    with criterion(7, "parse/render round trip and error line accuracy"):
        corpus = corpus_of_valid_scenarios()
        assert len(corpus) >= 20
        for source in corpus:
            first = parse_scenario(source)
            assert parse_scenario(render_scenario(first)) == first

        assert len(INVALID_CORPUS) >= 10
        for source, expected_line in INVALID_CORPUS:
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(source)
            assert exc.value.line == expected_line, \
                f"expected line {expected_line}, got {exc.value.line} " \
                f"for: {source!r}"
