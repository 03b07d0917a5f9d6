"""Kernel-level tests on small hand-built transition systems."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from apscheck.errors import ConfigurationError, DomainError, ModelIntegrityError
from apscheck.kernel import (
    ActionLabel,
    CheckOptions,
    TransitionSystem,
    VariableDecl,
    Verdict,
    canonical_encode,
    check,
    decode,
    reconstruct_trace,
)
from apscheck.reporting import render_structured, replay


def graph_system(edges: dict[str, list[tuple[str, str]]], initial: list[str],
                 invariants=(), name="graph") -> TransitionSystem:
    """A system whose states are single named nodes; edges map a node to
    (label, target) pairs. Invariants are (name, predicate-on-node-name)."""
    nodes = tuple(sorted(set(edges) | {t for outs in edges.values() for _, t in outs}
                         | set(initial)))
    decl = VariableDecl("node", ("v",), nodes)

    def encode(node: str) -> bytes:
        return canonical_encode((decl,), {"node": {"v": node}})

    def successors(state: bytes):
        node = nodes[state[0]]
        return [(ActionLabel(label), encode(target))
                for label, target in edges.get(node, [])]

    return TransitionSystem(
        name=name,
        variables=(decl,),
        initial_states=tuple(encode(n) for n in initial),
        successors=successors,
        invariants=tuple((inv_name, lambda st, p=pred: p(nodes[st[0]]))
                         for inv_name, pred in invariants),
    )


class TestCanonicalEncode:
    decls = (
        VariableDecl("x", ("a1", "a2"), ("", "NOR", "DAN")),
        VariableDecl("y", ("a1", "a2"), (0, 1)),
    )

    def test_identical_assignments_encode_identically(self):
        assignment = {"x": {"a1": "NOR", "a2": ""}, "y": {"a1": 1, "a2": 0}}
        first = canonical_encode(self.decls, assignment)
        second = canonical_encode(self.decls, assignment)
        assert first == second

    def test_single_value_difference_changes_encoding(self):
        base = {"x": {"a1": "NOR", "a2": ""}, "y": {"a1": 1, "a2": 0}}
        other = {"x": {"a1": "NOR", "a2": "DAN"}, "y": {"a1": 1, "a2": 0}}
        assert canonical_encode(self.decls, base) != canonical_encode(self.decls, other)

    def test_insertion_order_of_dicts_is_irrelevant(self):
        forward = {"x": {"a1": "", "a2": ""}, "y": {"a1": 0, "a2": 0}}
        backward = {"y": {"a2": 0, "a1": 0}, "x": {"a2": "", "a1": ""}}
        assert (canonical_encode(self.decls, forward)
                == canonical_encode(self.decls, backward))

    def test_out_of_domain_value_names_variable_and_key(self):
        bad = {"x": {"a1": "BOGUS", "a2": ""}, "y": {"a1": 0, "a2": 0}}
        with pytest.raises(DomainError, match=r"x\[a1\]"):
            canonical_encode(self.decls, bad)

    def test_missing_variable_and_missing_key_are_domain_errors(self):
        with pytest.raises(DomainError, match="missing variable 'y'"):
            canonical_encode(self.decls, {"x": {"a1": "", "a2": ""}})
        with pytest.raises(DomainError, match="missing key 'a2'"):
            canonical_encode(self.decls, {"x": {"a1": ""}, "y": {"a1": 0, "a2": 0}})

    def test_domain_holds_at_most_256_values(self):
        widest = VariableDecl("x", ("k",), tuple(range(256)))
        assert canonical_encode((widest,), {"x": {"k": 255}}) == bytes([255])
        with pytest.raises(ConfigurationError, match="'x' has 257 domain values"):
            VariableDecl("x", ("k",), tuple(range(257)))

    @pytest.mark.parametrize("assignment,problem", [
        ({"x": {"a1": "", "a2": ""}, "y": {"a1": 0, "a2": 0}, "z": {}},
         "undeclared variable 'z'"),
        ({"x": {"a1": "", "a2": "", "a3": ""}, "y": {"a1": 0, "a2": 0}},
         "'x' has undeclared key 'a3'"),
        ({"x": {"a1": "", "a2": ""}, "y": {"a1": 0, "a2": False}}, r"False for y\[a2\]"),
        ({"x": {"a1": "", "a2": ""}, "y": {"a1": True, "a2": 0}}, r"True for y\[a1\]"),
        ({"x": {"a1": "", "a2": ""}, "y": {"a1": 1.0, "a2": 0}}, r"1.0 for y\[a1\]"),
    ], ids=["undeclared variable", "undeclared key", "False", "True", "1.0"])
    def test_only_declared_slots_of_the_domain_type_encode(self, assignment, problem):
        with pytest.raises(DomainError, match=problem):
            canonical_encode(self.decls, assignment)

    def test_state_holds_the_domain_values_themselves(self):
        # Equal but distinct objects: a built string and a large integer.
        decls = (VariableDecl("x", ("k",), ("".join(["NO", "R"]), 10**20)),)
        for value, domain_value in zip(("NOR", int("1" + "0" * 20)), decls[0].domain):
            assert value == domain_value and value is not domain_value
            state = canonical_encode(decls, {"x": {"k": value}})
            assert decode(decls, state)["x"]["k"] is domain_value

    @pytest.mark.parametrize("keys,domain,repeated", [
        (("a", "b", "a"), (0, 1), "key 'a'"),
        (("a", "b"), ("", "v", ""), "domain value ''"),
    ], ids=["repeated key", "repeated value"])
    def test_repeated_keys_and_domain_values_are_rejected(self, keys, domain, repeated):
        with pytest.raises(ConfigurationError, match=f"variable 'x' repeats {repeated}"):
            VariableDecl("x", keys, domain)

    def test_encoding_is_one_byte_per_slot(self):
        assignment = {"x": {"a1": "DAN", "a2": "NOR"}, "y": {"a1": 1, "a2": 0}}
        state = canonical_encode(self.decls, assignment)
        assert state == bytes([2, 1, 1, 0])
        assert decode(self.decls, state) == assignment

    @pytest.mark.parametrize("decls,encoding,problem", [
        ((VariableDecl("node", ("v",), ("s",)),), bytes([7]),
         "node[v] holds code 7, outside its declared domain"),
        ((VariableDecl("node", ("v",), ("s",)),), bytes([0, 0]),
         "state encoding has 2 slots, declarations require 1"),
        ((VariableDecl("x", ("a",), ()), VariableDecl("y", ("b",), (0, 1))), bytes([0]),
         "state encoding has 1 slots, declarations require 2"),
        ((VariableDecl("x", (), ()), VariableDecl("y", ("b",), (0,))), bytes([5]),
         "y[b] holds code 5, outside its declared domain"),
    ], ids=["code", "too long", "too short", "after a keyless variable"])
    def test_malformed_encodings_do_not_decode(self, decls, encoding, problem):
        # The encodings that check's integrity tests below feed as states.
        with pytest.raises(DomainError) as raised:
            decode(decls, encoding)
        assert str(raised.value) == problem


class TestCheck:
    def test_single_state_no_actions_passes(self):
        system = graph_system({}, ["s"], invariants=(("ok", lambda n: True),))
        report = check(system)
        assert report.verdict is Verdict.PASS
        assert report.distinct_states == 1
        assert report.transitions == 0
        assert report.diameter == 0

    def test_dedup_counts_distinct_states_once(self):
        # Diamond: both branches reach the same sink.
        edges = {"a": [("l", "b"), ("r", "c")], "b": [("m", "d")], "c": [("m", "d")]}
        report = check(graph_system(edges, ["a"]))
        assert report.distinct_states == 4
        assert report.transitions == 4
        assert report.diameter == 2

    def test_violation_reports_shortest_path(self):
        # "bad" is reachable in 3 steps via the chain but 1 step directly.
        edges = {
            "a": [("step1", "b"), ("jump", "bad")],
            "b": [("step2", "c")],
            "c": [("step3", "bad")],
        }
        system = graph_system(edges, ["a"],
                              invariants=(("safe", lambda n: n != "bad"),))
        report = check(system)
        assert report.verdict is Verdict.VIOLATION
        assert len(report.trace) == 1
        assert report.trace.steps[1].label == ActionLabel("jump")
        assert report.trace.violated_invariant == "safe"

    def test_first_failing_invariant_in_declared_order_is_named(self):
        system = graph_system({}, ["s"], invariants=(
            ("first", lambda n: False),
            ("second", lambda n: False),
        ))
        report = check(system)
        assert report.trace.violated_invariant == "first"

    def test_violating_initial_state_yields_zero_step_trace(self):
        system = graph_system({"s": [("go", "t")]}, ["s"],
                              invariants=(("never_s", lambda n: n != "s"),))
        report = check(system)
        assert report.verdict is Verdict.VIOLATION
        assert len(report.trace) == 0
        assert len(report.trace.steps) == 1
        assert report.trace.steps[0].label is None
        # A zero-action trace has length 0 but still names the invariant.
        assert report.violated_invariant is not None
        assert report.violated_invariant == "never_s"

    def test_earlier_states_in_trace_satisfy_the_invariant(self):
        edges = {"a": [("x", "b")], "b": [("y", "bad")]}
        system = graph_system(edges, ["a"],
                              invariants=(("safe", lambda n: n != "bad"),))
        trace = check(system).trace
        safe = lambda st: decode(system.variables, st)["node"]["v"] != "bad"
        assert all(safe(step.state) for step in trace.steps[:-1])
        assert not safe(trace.final_state)

    def test_limit_exceeded_reports_partial_statistics(self):
        edges = {"a": [("l", "b"), ("r", "c")], "b": [("m", "d")]}
        report = check(graph_system(edges, ["a"]), CheckOptions(max_states=2))
        assert report.verdict is Verdict.LIMIT_EXCEEDED
        assert report.distinct_states == 2
        assert report.trace is None

    def test_limit_counts_the_successors_consumed_up_to_it(self):
        # The second successor of the root hits the limit; the third is
        # never looked at.
        edges = {"a": [("l", "b"), ("m", "c"), ("r", "d")]}
        report = check(graph_system(edges, ["a"]), CheckOptions(max_states=2))
        assert report.verdict is Verdict.LIMIT_EXCEEDED
        assert (report.distinct_states, report.transitions, report.diameter) == (2, 2, 1)

    def test_interrupt_mid_expansion_counts_the_successors_consumed(self):
        class Interrupting(bytes):
            def __hash__(self):
                raise KeyboardInterrupt

        base = graph_system({"a": [("l", "b"), ("m", "c"), ("r", "d")]}, ["a"])

        def successors(state):
            (first, b), (second, c), rest = base.successors(state)
            return [(first, b), (second, Interrupting(c)), rest]

        report = check(replace(base, successors=successors))
        assert report.verdict is Verdict.INTERRUPTED
        # "b" is stored; the dedup lookup of "c" raises, and "c" counts.
        assert (report.distinct_states, report.transitions, report.diameter) == (2, 2, 1)

    def test_options_validation(self):
        system = graph_system({}, ["s"])
        with pytest.raises(ConfigurationError):
            check(system, CheckOptions(max_states=0))
        empty = TransitionSystem("empty", system.variables, (), system.successors)
        with pytest.raises(ConfigurationError):
            check(empty)

    def test_multiple_initial_states_explored_in_declared_order(self):
        system = graph_system({}, ["b", "a"],
                              invariants=(("not_b", lambda n: n != "b"),
                                          ("not_a", lambda n: n != "a")))
        # "b" is declared first, so its violation is found first.
        assert check(system).trace.violated_invariant == "not_b"

    def test_malformed_successor_names_the_action_label(self):
        decl = VariableDecl("node", ("v",), ("s",))
        good = canonical_encode((decl,), {"node": {"v": "s"}})
        for rogue, problem in ((bytes([7]), r"node\[v\] holds code 7"),
                               (good + good, "state encoding has 2 slots, declarations require 1")):
            system = TransitionSystem(
                "broken", (decl,), (good,),
                successors=lambda st: [(ActionLabel("Corrupt", (("r", "a1"),)), rogue)],
            )
            with pytest.raises(ModelIntegrityError,
                               match=rf"successor via Corrupt\(a1\): {problem}"):
                check(system)

    def test_variables_without_values_are_checked_too(self):
        # A keyed variable with an empty domain admits no state at all; a
        # keyless one occupies no slot and must not hide a later bad slot.
        for decls, rogue, problem in (
            ((VariableDecl("x", ("a",), ()), VariableDecl("y", ("b",), (0, 1))),
             bytes([0]), "state encoding has 1 slots, declarations require 2"),
            ((VariableDecl("x", (), ()), VariableDecl("y", ("b",), (0,))),
             bytes([5]), r"y\[b\] holds code 5"),
        ):
            system = TransitionSystem("bare", decls, (rogue,), lambda st: [])
            with pytest.raises(ModelIntegrityError, match=f"initial state: {problem}"):
                check(system)

    def test_check_leaves_the_system_as_it_found_it(self):
        edges = {"a": [("l", "b")], "b": [("m", "bad")]}
        for invariant in (lambda n: n != "bad", lambda n: True):
            system = graph_system(edges, ["a"], invariants=(("ok", invariant),))
            before = dict(vars(system))
            verdict = check(system).verdict
            assert vars(system) == before, verdict

    def test_interrupt_returns_the_partial_counts(self):
        edges = {"a": [("l", "b"), ("r", "c")], "b": [("m", "d")],
                 "c": [("n", "e")], "d": [("o", "f")]}
        base = graph_system(edges, ["a"], invariants=(("ok", lambda n: True),))
        calls = 0

        def successors(state):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise KeyboardInterrupt
            return base.successors(state)

        report = check(replace(base, successors=successors))
        assert report.verdict is Verdict.INTERRUPTED
        assert (report.distinct_states, report.transitions, report.diameter) == (4, 3, 2)
        assert report.trace is None
        assert report.invariants_checked == ("ok",)

    def test_elapsed_is_excluded_from_determinism(self):
        edges = {"a": [("l", "b")], "b": [("m", "a")]}
        system = graph_system(edges, ["a"])
        first = check(system)
        second = check(system)
        assert (first.verdict, first.distinct_states, first.transitions,
                first.diameter) == (second.verdict, second.distinct_states,
                                    second.transitions, second.diameter)


class TestReconstructTrace:
    """Traces rebuilt from the discovered states and level starts alone."""

    def nodes(self, system, names: str) -> list[bytes]:
        return [canonical_encode(system.variables, {"node": {"v": n}}) for n in names]

    def test_initial_violation_gives_single_state_trace(self):
        system = graph_system({"a": [("go", "b")]}, ["a"])
        states = self.nodes(system, "a")
        trace = reconstruct_trace(system, states, [0], 0, "inv")
        assert len(trace.steps) == 1
        assert trace.steps[0] == (states[0], None)
        assert trace.violated_invariant == "inv"
        assert trace.variables == system.variables

    def test_linear_chain_is_returned_in_recorded_order(self):
        system = graph_system({"a": [("one", "b")], "b": [("two", "c")],
                               "c": [("three", "d")]}, ["a"])
        states = self.nodes(system, "abcd")
        trace = reconstruct_trace(system, states, [0, 1, 2, 3], 3, "inv")
        assert len(trace) == 3
        assert [s.label.name for s in trace.steps[1:]] == ["one", "two", "three"]
        assert [s.state for s in trace.steps] == states
        assert [decode(trace.variables, s.state)["node"]["v"]
                for s in trace.steps] == list("abcd")

    def test_only_the_ancestors_of_the_violating_state_are_walked(self):
        # a is the root of two branches, a -> b and a -> c -> d.
        base = graph_system({"a": [("ab", "b"), ("ac", "c")], "c": [("cd", "d")]}, ["a"])
        expanded = []

        def successors(state):
            expanded.append(decode(base.variables, state)["node"]["v"])
            return base.successors(state)

        system = replace(base, successors=successors)
        trace = reconstruct_trace(system, self.nodes(system, "abcd"), [0, 1, 3], 3, "inv")
        assert [decode(trace.variables, s.state)["node"]["v"]
                for s in trace.steps] == ["a", "c", "d"]
        assert [s.label for s in trace.steps] == [None, ActionLabel("ac"), ActionLabel("cd")]
        # Level 1 up to the parent c, then level 0; d itself never.
        assert expanded == ["b", "c", "a"]

    def test_a_state_the_level_before_no_longer_reaches_is_an_integrity_error(self):
        base = graph_system({"a": [("l", "b")]}, ["a"],
                            invariants=(("safe", lambda n: n != "b"),))
        calls = 0

        def successors(state):
            # Right on the first call, empty on every later one.
            nonlocal calls
            calls += 1
            return base.successors(state) if calls == 1 else []

        with pytest.raises(ModelIntegrityError, match="state 1 at depth 1 is not a "
                                                      "successor of any state at depth 0"):
            check(replace(base, successors=successors))

    def test_interrupt_during_the_search_gives_the_exploration_counts(self):
        base = graph_system({"a": [("l", "b"), ("r", "c")]}, ["a"],
                            invariants=(("safe", lambda n: n != "c"),))
        calls = 0

        def successors(state):
            # Calls 1 and 2 expand a and b; call 3 searches for c's parent.
            nonlocal calls
            calls += 1
            if calls == 3:
                raise KeyboardInterrupt
            return base.successors(state)

        report = check(replace(base, successors=successors))
        assert calls == 3
        assert report.verdict is Verdict.INTERRUPTED
        assert (report.distinct_states, report.transitions, report.diameter) == (3, 2, 1)
        assert report.trace is None


class TestReachableStats:
    """Reachability statistics: `check` with invariants off, as the CLI's
    `--stats-only` runs it."""

    def stats(self, system):
        rep = check(system, CheckOptions(check_invariants=False))
        return rep.verdict, rep.distinct_states, rep.transitions, rep.diameter

    def test_single_state_system(self):
        assert self.stats(graph_system({}, ["s"])) == (Verdict.PASS, 1, 0, 0)

    def test_invariants_are_ignored(self):
        system = graph_system({"a": [("go", "b")]}, ["a"],
                              invariants=(("nothing", lambda n: False),))
        assert self.stats(system) == (Verdict.PASS, 2, 1, 1)

    def test_monotone_diameter_in_the_state_limit(self):
        edges = {"a": [("l", "b"), ("r", "c")], "b": [("m", "d")],
                 "c": [("n", "e")], "d": [("o", "f")]}
        system = graph_system(edges, ["a"])
        diameters = []
        for limit in range(1, 8):
            rep = check(system, CheckOptions(max_states=limit,
                                             check_invariants=False))
            assert rep.diameter <= rep.distinct_states - 1
            diameters.append(rep.diameter)
        assert diameters == sorted(diameters)


class TestWithInvariants:
    def test_a_repeated_name_keeps_every_predicate_in_order(self):
        system = graph_system({}, ["s"], invariants=(
            ("a", lambda n: True), ("b", lambda n: True), ("a", lambda n: False)))
        restricted = system.with_invariants(["b", "a"])
        assert restricted.invariant_names == ("b", "a", "a")
        assert check(restricted).violated_invariant == "a"
        assert check(system.with_invariants(["b"])).verdict is Verdict.PASS

    def test_a_name_requested_twice_is_checked_twice(self):
        system = graph_system({}, ["s"], invariants=(("a", lambda n: True),))
        report = check(system.with_invariants(["a", "a"]))
        assert report.invariants_checked == ("a", "a")


class TestTraceReplayInvariant:
    def test_labels_reproduce_recorded_states(self):
        edges = {
            "a": [("p", "b"), ("q", "c")],
            "b": [("p", "c")],
            "c": [("r", "bad")],
        }
        system = graph_system(edges, ["a"],
                              invariants=(("safe", lambda n: n != "bad"),))
        trace = check(system).trace
        current = trace.steps[0].state
        assert current in system.initial_states
        for step in trace.steps[1:]:
            matches = [t for lbl, t in system.successors(current)
                       if lbl == step.label]
            assert matches, f"label {step.label.render()} not enabled"
            assert matches[0] == step.state
            current = matches[0]

    def test_a_label_with_two_successors_replays_through_either(self):
        system = graph_system({"s0": [("Go", "s1"), ("Go", "s2")]}, ["s0"],
                              invariants=(("not_s2", lambda n: n != "s2"),))
        report = check(system)
        assert [decode(system.variables, step.state) for step in report.trace.steps] == [
            {"node": {"v": "s0"}}, {"node": {"v": "s2"}}]
        document = render_structured(report)
        assert replay(document, system)

        doc = json.loads(document)
        doc["trace"][1]["state"] = {"node": {"v": "s0"}}
        assert replay(json.dumps(doc), system) == (
            False, 2, "recorded state differs from the action's successor")
        doc["trace"][1]["action"] = "Stop"
        assert replay(json.dumps(doc), system) == (
            False, 2, "action 'Stop' with params {} is not enabled here")
