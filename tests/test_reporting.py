"""Rendering and replay tests over real reports from both models."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from apscheck.errors import ReplayDocumentError
from apscheck.kernel import CheckOptions, Verdict, check, decode
from apscheck.models import build_system, cs1, custom
from apscheck.models.custom import AppSpec, PermissionDeclaration
from apscheck.reporting import ReplayResult, render_structured, render_text, replay
from apscheck.scenario import parse_scenario

SCENARIO = (
    AppSpec("malware", (PermissionDeclaration("P", "normal"),), ("P",)),
    AppSpec("victim", (PermissionDeclaration("P", "dangerous"),), ()),
)


@pytest.fixture(scope="module")
def cs1_system():
    return cs1.build_system(1)


@pytest.fixture(scope="module")
def cs1_violation(cs1_system):
    return check(cs1_system)


@pytest.fixture(scope="module")
def custom_system():
    return custom.build_system(SCENARIO)


@pytest.fixture(scope="module")
def custom_violation(custom_system):
    return check(custom_system)


@pytest.fixture(scope="module")
def pass_report(cs1_system):
    return check(cs1_system.with_invariants(["ApsTypeOK"]))


class TestTextRendering:
    def test_violation_lists_numbered_states_with_labels(self, cs1_violation):
        text = render_text(cs1_violation)
        assert "Error: invariant ApsConsistent is violated." in text
        assert "State 1: <Initial predicate>" in text
        assert "State 2: <Ask(a1, NOR)>" in text
        assert "State 3: <Grant(a1)>" in text
        assert "State 4" not in text

    @pytest.mark.parametrize("var", ["askedPerms", "grantedPerms", "alreadyInstalled"])
    def test_every_variable_prints_on_its_own_line_per_state(self, cs1_violation, var):
        assert render_text(cs1_violation).count(f"  {var} = [") == 3

    def test_final_state_shows_the_offending_values(self, cs1_violation):
        text = render_text(cs1_violation)
        final_block = text.split("State 3")[1]
        assert 'askedPerms = [a1 |-> "NOR"]' in final_block
        assert 'grantedPerms = [a1 |-> "DAN"]' in final_block

    def test_pass_report_has_no_state_listing(self, pass_report):
        text = render_text(pass_report)
        assert "State 1" not in text
        assert "No violations found (checked: ApsTypeOK)." in text
        assert "distinct states: 11" in text
        assert "diameter: 3" in text

    def test_limit_report_is_flagged_partial(self, cs1_system):
        report = check(cs1_system.with_invariants(["ApsTypeOK"]),
                       CheckOptions(max_states=4))
        assert report.verdict is Verdict.LIMIT_EXCEEDED
        assert "partial" in render_text(report)

    def test_interrupted_report_is_flagged_partial(self, cs1_system):
        calls = 0

        def successors(state):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise KeyboardInterrupt
            return cs1_system.successors(state)

        report = check(replace(cs1_system, successors=successors))
        assert report.verdict is Verdict.INTERRUPTED
        text = render_text(report)
        assert text.startswith("Interrupted after 4 distinct states; statistics "
                               "below are partial.\n\nStatistics:\n")
        assert json.loads(render_structured(report))["verdict"] == "interrupted"

    def test_stats_only_report_says_so(self, cs1_system):
        report = check(cs1_system, CheckOptions(check_invariants=False))
        assert "no invariants checked" in render_text(report)

    def test_rendering_is_deterministic(self, custom_violation):
        assert render_text(custom_violation) == render_text(custom_violation)


class TestStructuredRendering:
    def test_pass_document_has_no_trace_key(self, pass_report):
        doc = json.loads(render_structured(pass_report))
        assert doc["verdict"] == "pass"
        assert "trace" not in doc
        assert "violated_invariant" not in doc
        assert doc["stats"] == {"distinct_states": 11, "transitions": 35,
                                "diameter": 3}
        assert isinstance(doc["elapsed_ms"], float)

    def test_elapsed_is_rendered_in_milliseconds_to_three_places(self, pass_report):
        text = render_structured(pass_report._replace(elapsed=0.0123456))
        assert text.endswith('\n  "elapsed_ms": 12.346\n}\n')

    def test_violation_trace_array_length_counts_states(self, cs1_violation):
        doc = json.loads(render_structured(cs1_violation))
        assert doc["verdict"] == "violation"
        assert doc["violated_invariant"] == "ApsConsistent"
        assert len(doc["trace"]) == 3
        assert [e["step"] for e in doc["trace"]] == [1, 2, 3]

    def test_initial_step_has_null_action_and_empty_params(self, cs1_violation):
        doc = json.loads(render_structured(cs1_violation))
        first = doc["trace"][0]
        assert first["action"] is None
        assert first["params"] == {}
        assert first["state"]["askedPerms"] == {"a1": ""}

    def test_labeled_steps_carry_action_and_params(self, custom_violation):
        doc = json.loads(render_structured(custom_violation))
        actions = [(e["action"], e["params"]) for e in doc["trace"][1:]]
        assert actions == [
            ("Install", {"a": "malware"}),
            ("Request", {"a": "malware", "n": "P"}),
            ("Install", {"a": "victim"}),
        ]

    def test_key_order_is_stable_across_renders(self, custom_violation):
        assert render_structured(custom_violation) == render_structured(custom_violation)

    def test_key_order_is_stable_across_system_rebuilds(self):
        first = render_structured(check(custom.build_system(SCENARIO)))
        second = render_structured(check(custom.build_system(SCENARIO)))
        strip = lambda text: "\n".join(l for l in text.splitlines()
                                       if "elapsed_ms" not in l)
        assert strip(first) == strip(second)


UNDECODABLE = "state does not decode against the system's declarations"

# id -> (the model whose violation report is replayed, an edit of its parsed
# document, the whole replay result). The edited document is serialized
# again, so each row also replays a JSON round trip.
REPLAYS = {
    "untouched cs1": ("cs1", lambda doc: None, ReplayResult(True)),
    "untouched custom": ("custom", lambda doc: None, ReplayResult(True)),
    "state value": (
        "cs1", lambda doc: doc["trace"][1]["state"]["grantedPerms"].update(a1="DAN"),
        ReplayResult(False, 2, "recorded state differs from the action's successor")),
    "initial state": (
        "cs1", lambda doc: doc["trace"][0]["state"]["alreadyInstalled"].update(a1=1),
        ReplayResult(False, 1, "first state is not an initial state")),
    "value outside its domain": (
        "cs1", lambda doc: doc["trace"][2]["state"]["askedPerms"].update(a1="WILD"),
        ReplayResult(False, 3, UNDECODABLE)),
    "unknown action": (
        "cs1", lambda doc: doc["trace"][2].update(action="Revoke"),
        ReplayResult(False, 3, "action 'Revoke' with params {'r': 'a1'} is not "
                               "enabled here")),
    "final state satisfies the invariant": (
        "cs1", lambda doc: doc["trace"].pop(),
        ReplayResult(False, 2, "final state does not violate ApsConsistent")),
    "undeclared variable": (
        "custom", lambda doc: doc["trace"][-1]["state"].update(backdoor={"x": 1}),
        ReplayResult(False, 4, UNDECODABLE)),
    "undeclared key": (
        "custom", lambda doc: doc["trace"][0]["state"]["installed"].update(ghost=1),
        ReplayResult(False, 1, UNDECODABLE)),
    # The final state has every app installed (1), and JSON `true` == 1.
    "boolean for an integer": (
        "custom", lambda doc: doc["trace"][-1]["state"].update(
            installed={"malware": True, "victim": True}),
        ReplayResult(False, 4, UNDECODABLE)),
    "float for an integer": (
        "custom", lambda doc: doc["trace"][0]["state"].update(
            installed={"malware": 0.0, "victim": 0.0}),
        ReplayResult(False, 1, UNDECODABLE)),
    "action on the initial step": (
        "custom", lambda doc: doc["trace"][0].update(action="Install"),
        ReplayResult(False, 1, "initial step carries an action")),
}

# id -> (the document replayed, made from the cs1 violation report's parsed
# document, the whole ReplayDocumentError message).
DOCUMENT_ERRORS = {
    "not JSON": (lambda doc: "{not json",
                 "report document is not valid JSON: Expecting property name "
                 "enclosed in double quotes: line 1 column 2 (char 1)"),
    "not an object": (lambda doc: "[1]", "report document carries no trace to replay"),
    "no trace": (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "trace"}),
                 "report document carries no trace to replay"),
    "unknown invariant": (
        lambda doc: json.dumps(dict(doc, violated_invariant="SomethingElse")),
        "document names invariant 'SomethingElse', which the system does not expose"),
    "empty trace": (lambda doc: json.dumps(dict(doc, trace=[])), "trace is empty"),
    "trace not a list": (lambda doc: json.dumps(dict(doc, trace={})), "trace is empty"),
}


class TestReplay:
    @pytest.mark.parametrize("case", list(REPLAYS))
    def test_an_edited_document_replays_to_its_result(self, request, case):
        model, edit, result = REPLAYS[case]
        doc = json.loads(render_structured(request.getfixturevalue(f"{model}_violation")))
        edit(doc)
        assert replay(json.dumps(doc), request.getfixturevalue(f"{model}_system")) == result

    @pytest.mark.parametrize("case", list(DOCUMENT_ERRORS))
    def test_a_document_that_cannot_be_replayed_is_a_document_error(
            self, cs1_violation, cs1_system, case):
        document, message = DOCUMENT_ERRORS[case]
        with pytest.raises(ReplayDocumentError) as exc:
            replay(document(json.loads(render_structured(cs1_violation))), cs1_system)
        assert str(exc.value) == message

    @pytest.mark.parametrize("restrict", [False, True], ids=["all", "with_invariants"])
    def test_violation_of_a_repeated_name_replays(self, cs1_system, restrict):
        # `check` names the first failing predicate; replay must accept the
        # final state when any predicate under that name fails.
        system = replace(cs1_system, invariants=(("a", lambda s: True),
                                                 ("a", lambda s: False)))
        if restrict:
            system = system.with_invariants(["a"])
        report = check(system)
        assert report.violated_invariant == "a"
        assert replay(render_structured(report), system)

    @pytest.mark.parametrize("name", ["cs1.scn", "custom_vuln.scn"])
    def test_shipped_violation_reports_replay_cleanly(self, scenarios_dir, name):
        system = build_system(parse_scenario(
            (scenarios_dir / name).read_text(encoding="utf-8")))
        assert replay(render_structured(check(system)), system)

    def test_boolean_in_cs1_installed_flag_is_caught(self, cs1_system):
        # The shortest trace never installs; this longer one does, so its
        # last state holds alreadyInstalled[a1] = 1.
        state, steps = cs1_system.initial_states[0], []
        for number, action in enumerate((None, "InstallOrder", "Ask", "Grant"),
                                        start=1):
            label = None
            if action is not None:
                label, state = next((l, s) for l, s in cs1_system.successors(state)
                                    if l.name == action)
            steps.append({"step": number, "action": action,
                          "params": dict(label.params) if label else {},
                          "state": decode(cs1_system.variables, state)})
        doc = {"violated_invariant": "ApsConsistent", "trace": steps}
        assert replay(json.dumps(doc), cs1_system)
        assert steps[-1]["state"]["alreadyInstalled"] == {"a1": 1}
        steps[-1]["state"]["alreadyInstalled"]["a1"] = True
        assert replay(json.dumps(doc), cs1_system) == ReplayResult(False, 4, UNDECODABLE)

