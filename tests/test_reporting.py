"""Rendering and replay tests over real reports from both models."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from apscheck.errors import ReplayDocumentError
from apscheck.kernel import Verdict, check, decode
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


# Every report a golden case can hold is pinned whole by `tests/test_golden.py`,
# through the CLI and through these renderers; these two tests pin what no
# golden file can: an interrupt, and `elapsed` unmasked.
class TestTextRendering:
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


class TestStructuredRendering:
    def test_elapsed_is_rendered_in_milliseconds_to_three_places(self, cs1_violation):
        text = render_structured(cs1_violation._replace(elapsed=0.0123456))
        assert text.endswith('\n  "elapsed_ms": 12.346\n}\n')


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
    # Two defects: the first divergent step is named, not the undecodable one.
    "unknown action before an undecodable state": (
        "custom", lambda doc: (doc["trace"][1].update(action="Nope"),
                               doc["trace"][3]["state"]["installed"].update(ghost=1)),
        ReplayResult(False, 2, "action 'Nope' with params {'a': 'malware'} is not "
                               "enabled here")),
    "non-initial first state before an undecodable state": (
        "custom", lambda doc: (doc["trace"][0]["state"]["installed"].update(malware=1),
                               doc["trace"][3]["state"]["installed"].update(ghost=1)),
        ReplayResult(False, 1, "first state is not an initial state")),
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

