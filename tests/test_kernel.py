"""Kernel-level tests on small hand-built transition systems."""

from __future__ import annotations

from array import array

import pytest

from apscheck.errors import (
    ConfigurationError,
    DomainError,
    LimitExceededError,
    ModelIntegrityError,
)
from apscheck.kernel import (
    ActionLabel,
    CheckOptions,
    TransitionSystem,
    VariableDecl,
    Verdict,
    canonical_encode,
    check,
    reachable_stats,
    reconstruct_trace,
)


def graph_system(edges: dict[str, list[tuple[str, str]]], initial: list[str],
                 invariants=(), name="graph") -> TransitionSystem:
    """A system whose states are single named nodes; edges map a node to
    (label, target) pairs. Invariants are (name, predicate-on-node-name)."""
    nodes = tuple(sorted(set(edges) | {t for outs in edges.values() for _, t in outs}
                         | set(initial)))
    decl = VariableDecl("node", ("v",), nodes)

    def encode(node: str) -> bytes:
        return canonical_encode((decl,), {"node": {"v": node}}).encoding

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
        assert first.encoding == second.encoding
        assert first == second

    def test_single_value_difference_changes_encoding(self):
        base = {"x": {"a1": "NOR", "a2": ""}, "y": {"a1": 1, "a2": 0}}
        other = {"x": {"a1": "NOR", "a2": "DAN"}, "y": {"a1": 1, "a2": 0}}
        assert canonical_encode(self.decls, base) != canonical_encode(self.decls, other)

    def test_insertion_order_of_dicts_is_irrelevant(self):
        forward = {"x": {"a1": "", "a2": ""}, "y": {"a1": 0, "a2": 0}}
        backward = {"y": {"a2": 0, "a1": 0}, "x": {"a2": "", "a1": ""}}
        assert (canonical_encode(self.decls, forward).encoding
                == canonical_encode(self.decls, backward).encoding)

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
        assert canonical_encode((widest,), {"x": {"k": 255}}).encoding == bytes([255])
        with pytest.raises(ConfigurationError, match="'x' has 257 domain values"):
            VariableDecl("x", ("k",), tuple(range(257)))

    def test_encoding_is_one_byte_per_slot(self):
        assignment = {"x": {"a1": "DAN", "a2": "NOR"}, "y": {"a1": 1, "a2": 0}}
        state = canonical_encode(self.decls, assignment)
        assert state.encoding == bytes([2, 1, 1, 0])
        assert state.as_dict() == assignment


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

    def test_earlier_states_in_trace_satisfy_the_invariant(self):
        edges = {"a": [("x", "b")], "b": [("y", "bad")]}
        system = graph_system(edges, ["a"],
                              invariants=(("safe", lambda n: n != "bad"),))
        trace = check(system).trace
        safe = lambda st: st.value("node", "v") != "bad"
        assert all(safe(step.state) for step in trace.steps[:-1])
        assert not safe(trace.final_state)

    def test_limit_exceeded_reports_partial_statistics(self):
        edges = {"a": [("l", "b"), ("r", "c")], "b": [("m", "d")]}
        report = check(graph_system(edges, ["a"]), CheckOptions(max_states=2))
        assert report.verdict is Verdict.LIMIT_EXCEEDED
        assert report.distinct_states == 2
        assert report.trace is None

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
        good = canonical_encode((decl,), {"node": {"v": "s"}}).encoding
        for rogue, problem in ((bytes([7]), r"node\[v\] holds code 7"),
                               (good + good, "state encoding has 2 slots, declarations require 1")):
            system = TransitionSystem(
                "broken", (decl,), (good,),
                successors=lambda st: [(ActionLabel("Corrupt", (("r", "a1"),)), rogue)],
            )
            with pytest.raises(ModelIntegrityError,
                               match=rf"successor via Corrupt\(a1\): {problem}"):
                check(system)

    def test_elapsed_is_excluded_from_determinism(self):
        edges = {"a": [("l", "b")], "b": [("m", "a")]}
        system = graph_system(edges, ["a"])
        first = check(system)
        second = check(system)
        assert (first.verdict, first.distinct_states, first.transitions,
                first.diameter) == (second.verdict, second.distinct_states,
                                    second.transitions, second.diameter)


class TestReconstructTrace:
    system = graph_system({}, ["a", "b", "c", "d"])

    def node(self, name: str) -> bytes:
        return self.system.encode({"node": {"v": name}}).encoding

    def test_initial_violation_gives_single_state_trace(self):
        a = self.node("a")
        trace = reconstruct_trace(self.system, [a], array("q", [-1]), [None], 0, "inv")
        assert len(trace.steps) == 1
        assert trace.steps[0] == (self.system.decode(a), None)
        assert trace.violated_invariant == "inv"

    def test_linear_chain_is_returned_in_recorded_order(self):
        states = [self.node(n) for n in "abcd"]
        labels = [None, ActionLabel("one"), ActionLabel("two"), ActionLabel("three")]
        trace = reconstruct_trace(self.system, states, array("q", [-1, 0, 1, 2]),
                                  labels, 3, "inv")
        assert len(trace) == 3
        assert [s.label.name for s in trace.steps[1:]] == ["one", "two", "three"]
        assert [s.state.encoding for s in trace.steps] == states
        assert [s.state.value("node", "v") for s in trace.steps] == list("abcd")

    def test_only_the_ancestors_of_the_violating_state_are_walked(self):
        # a is the root of two branches, a -> b and a -> c -> d.
        states = [self.node(n) for n in "abcd"]
        labels = [None, ActionLabel("ab"), ActionLabel("ac"), ActionLabel("cd")]
        trace = reconstruct_trace(self.system, states, array("q", [-1, 0, 0, 2]),
                                  labels, 3, "inv")
        assert [s.state.value("node", "v") for s in trace.steps] == ["a", "c", "d"]
        assert [s.label for s in trace.steps] == [None, labels[2], labels[3]]


class TestReachableStats:
    def test_single_state_system(self):
        assert reachable_stats(graph_system({}, ["s"])) == (1, 0, 0)

    def test_invariants_are_ignored(self):
        system = graph_system({"a": [("go", "b")]}, ["a"],
                              invariants=(("nothing", lambda n: False),))
        assert reachable_stats(system) == (2, 1, 1)

    def test_limit_raises_with_partial_counts(self):
        edges = {"a": [("l", "b"), ("r", "c")]}
        with pytest.raises(LimitExceededError) as exc:
            reachable_stats(graph_system(edges, ["a"]), max_states=1)
        assert exc.value.distinct_states == 1

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
        current = trace.steps[0].state.encoding
        assert current in system.initial_states
        for step in trace.steps[1:]:
            matches = [t for lbl, t in system.successors(current)
                       if lbl == step.label]
            assert matches, f"label {step.label.render()} not enabled"
            assert matches[0] == step.state.encoding
            current = matches[0]
