"""Rendering and replay tests over real reports from both models."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from apscheck.errors import ReplayDocumentError
from apscheck.kernel import CheckOptions, Verdict, check, decode
from apscheck.models import build_system, cs1, custom
from apscheck.models.custom import AppSpec, PermissionDeclaration
from apscheck.reporting import render_structured, render_text, replay
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

    def test_every_variable_prints_on_its_own_line_per_state(self, cs1_violation):
        text = render_text(cs1_violation)
        for var in ("askedPerms", "grantedPerms", "alreadyInstalled"):
            assert text.count(f"  {var} = [") == 3

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


class TestReplay:
    def test_fresh_document_replays_cleanly(self, cs1_violation, cs1_system):
        result = replay(render_structured(cs1_violation), cs1_system)
        assert result
        assert result.divergent_step is None

    def test_custom_document_replays_cleanly(self, custom_violation, custom_system):
        assert replay(render_structured(custom_violation), custom_system)

    def test_tampered_state_value_is_caught_at_its_step(self, cs1_violation,
                                                        cs1_system):
        doc = json.loads(render_structured(cs1_violation))
        doc["trace"][1]["state"]["grantedPerms"]["a1"] = "DAN"
        result = replay(json.dumps(doc), cs1_system)
        assert not result
        assert result.divergent_step == 2

    def test_tampered_initial_state_is_caught_at_step_one(self, cs1_violation,
                                                          cs1_system):
        doc = json.loads(render_structured(cs1_violation))
        doc["trace"][0]["state"]["alreadyInstalled"]["a1"] = 1
        result = replay(json.dumps(doc), cs1_system)
        assert not result
        assert result.divergent_step == 1

    def test_out_of_domain_tamper_is_caught_not_crashed(self, cs1_violation,
                                                        cs1_system):
        doc = json.loads(render_structured(cs1_violation))
        doc["trace"][2]["state"]["askedPerms"]["a1"] = "WILD"
        result = replay(json.dumps(doc), cs1_system)
        assert not result
        assert result.divergent_step == 3

    def test_unknown_action_is_a_divergence(self, cs1_violation, cs1_system):
        doc = json.loads(render_structured(cs1_violation))
        doc["trace"][2]["action"] = "Revoke"
        result = replay(json.dumps(doc), cs1_system)
        assert not result
        assert result.divergent_step == 3

    def test_non_violating_final_state_is_a_divergence(self, cs1_system):
        report = check(cs1_system)
        doc = json.loads(render_structured(report))
        del doc["trace"][-1]  # now ends on a state satisfying the invariant
        result = replay(json.dumps(doc), cs1_system)
        assert not result
        assert result.divergent_step == 2

    def test_violation_of_a_repeated_name_replays(self, cs1_system):
        # `check` names the first failing predicate; replay must accept the
        # final state when any predicate under that name fails.
        system = replace(cs1_system, invariants=(("a", lambda s: True),
                                                 ("a", lambda s: False)))
        for restricted in (system, system.with_invariants(["a"])):
            report = check(restricted)
            assert report.violated_invariant == "a"
            assert replay(render_structured(report), restricted)

    def test_pass_document_is_a_document_error(self, pass_report, cs1_system):
        with pytest.raises(ReplayDocumentError, match="no trace"):
            replay(render_structured(pass_report), cs1_system)

    def test_malformed_json_is_a_document_error(self, cs1_system):
        with pytest.raises(ReplayDocumentError, match="JSON"):
            replay("{not json", cs1_system)

    def test_unknown_invariant_is_a_document_error(self, cs1_violation, cs1_system):
        doc = json.loads(render_structured(cs1_violation))
        doc["violated_invariant"] = "SomethingElse"
        with pytest.raises(ReplayDocumentError):
            replay(json.dumps(doc), cs1_system)

    def test_undeclared_variable_is_caught_at_its_step(self, custom_violation,
                                                       custom_system):
        doc = json.loads(render_structured(custom_violation))
        doc["trace"][-1]["state"]["backdoor"] = {"x": 1}
        result = replay(json.dumps(doc), custom_system)
        assert not result
        assert result.divergent_step == len(doc["trace"])
        assert result.reason.startswith("state does not decode")

    def test_undeclared_key_is_caught_at_its_step(self, custom_violation,
                                                  custom_system):
        doc = json.loads(render_structured(custom_violation))
        doc["trace"][0]["state"]["installed"]["ghost"] = 1
        result = replay(json.dumps(doc), custom_system)
        assert not result
        assert result.divergent_step == 1
        assert result.reason.startswith("state does not decode")

    @pytest.mark.parametrize("name", ["cs1.scn", "custom_vuln.scn"])
    def test_shipped_violation_reports_replay_cleanly(self, scenarios_dir, name):
        system = build_system(parse_scenario(
            (scenarios_dir / name).read_text(encoding="utf-8")))
        assert replay(render_structured(check(system)), system)

    @staticmethod
    def retyped(report, step: int, var: str, cast) -> str:
        doc = json.loads(render_structured(report))
        values = doc["trace"][step]["state"][var]
        for key in values:
            values[key] = cast(values[key])
        return json.dumps(doc)

    def test_boolean_for_an_integer_value_is_caught(self, custom_violation,
                                                    custom_system):
        # The final state has every app installed (1); JSON `true` == 1.
        document = self.retyped(custom_violation, -1, "installed", bool)
        assert '"installed": {"malware": true, "victim": true}' in document
        result = replay(document, custom_system)
        assert not result
        assert result.divergent_step == len(custom_violation.trace.steps)
        assert result.reason == ("state does not decode against the system's "
                                 "declarations")

    def test_float_for_an_integer_value_is_caught(self, custom_violation,
                                                  custom_system):
        document = self.retyped(custom_violation, 0, "installed", float)
        assert '"installed": {"malware": 0.0, "victim": 0.0}' in document
        result = replay(document, custom_system)
        assert not result
        assert result.divergent_step == 1
        assert result.reason == ("state does not decode against the system's "
                                 "declarations")

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
        result = replay(json.dumps(doc), cs1_system)
        assert not result
        assert result.divergent_step == 4
        assert result.reason == ("state does not decode against the system's "
                                 "declarations")

    def test_action_on_the_initial_step_is_a_divergence(self, custom_violation,
                                                        custom_system):
        doc = json.loads(render_structured(custom_violation))
        doc["trace"][0]["action"] = "Install"
        result = replay(json.dumps(doc), custom_system)
        assert not result
        assert result.divergent_step == 1
        assert result.reason == "initial step carries an action"

    def test_document_survives_a_json_round_trip(self, custom_violation,
                                                 custom_system):
        # Loss-free: re-serializing the parsed document still replays.
        doc = json.loads(render_structured(custom_violation))
        assert replay(json.dumps(doc), custom_system)
