"""The kernel's traces and counts against the forward-parent reference BFS.

`check` keeps no parent or label per state: it finds a violation's trace
by searching each level before it. `oracles.forward_parent_check` records
both on discovery instead. The two must agree exactly, labels and
encodings of every step included, on seeded random models, on random
small graphs, under state limits, and on a graph whose tie-breaks are
hand-picked.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import oracles
from apscheck.kernel import (ActionLabel, CheckOptions, TransitionSystem, VariableDecl,
                             check, decode)
from apscheck.models import cs1, custom
from apscheck.models.custom import AppSpec, PermissionDeclaration
from apscheck.reporting import render_structured, render_text, replay
from test_kernel import graph_system


def assert_matches_the_reference(system, max_states=1_000_000, check_invariants=True):
    report = check(system, CheckOptions(max_states, check_invariants))
    verdict, distinct, transitions, diameter, trace = oracles.forward_parent_check(
        system, max_states, check_invariants)
    assert report.verdict.value == verdict
    assert ((report.distinct_states, report.transitions, report.diameter)
            == (distinct, transitions, diameter))
    if trace is None:
        assert report.trace is None
    else:
        invariant, labels, encodings = trace
        assert report.trace.violated_invariant == invariant
        assert [step.label for step in report.trace.steps] == labels
        assert [step.state for step in report.trace.steps] == encodings
    return report


def random_custom_apps(rng: random.Random) -> list[AppSpec]:
    """1-4 apps over 1-3 names, each declaring a random subset of the names
    at random levels and requesting another random subset."""
    names = ("P", "Q", "R")[:rng.randint(1, 3)]
    apps = []
    for app_id in rng.sample(("a", "m", "v", "z"), rng.randint(1, 4)):
        levels = [rng.choice((None, "normal", "dangerous")) for _ in names]
        declares = tuple(PermissionDeclaration(name, level)
                         for name, level in zip(names, levels) if level)
        requests = tuple(name for name in names if rng.random() < 0.5)
        apps.append(AppSpec(app_id, declares, requests))
    return apps


@pytest.mark.parametrize("seed", range(20))
def test_random_custom_scenarios(seed):
    rng = random.Random(seed)
    violations = 0
    for _ in range(20):
        system = custom.build_system(random_custom_apps(rng))
        report = assert_matches_the_reference(system)
        violations += report.trace is not None
        assert_matches_the_reference(system, max_states=rng.randint(1, 1_000))
    # Every seed's batch exercises the search, not only the counts.
    assert violations > 0


@pytest.mark.parametrize("apps", [1, 2, 3, 4])
def test_cs1_with_invariants_on_and_under_state_limits(apps):
    system = cs1.build_system(apps)
    assert len(assert_matches_the_reference(system).trace) == 2
    assert_matches_the_reference(system.with_invariants(["ApsTypeOK"]))
    rng = random.Random(apps)
    for max_states in [1, 2, 3, 1_000] + [rng.randint(1, 1_000) for _ in range(8)]:
        assert_matches_the_reference(system, max_states)
        assert_matches_the_reference(system, max_states, check_invariants=False)


def test_tie_breaks_at_depth_four():
    # Levels: {r, s} {a, b} {c, d, e} {q, k} {v, h}. Both initial states
    # reach a; c and d both reach q; q (found before k, though k sorts
    # first) reaches v by two labels, and k reaches v too. BFS records the
    # first parent in number order and its first label to v.
    edges = {
        "r": [("r1", "a"), ("r2", "b")],
        "s": [("s1", "a")],
        "a": [("a1", "c"), ("a2", "d")],
        "b": [("b1", "d"), ("b2", "e")],
        "c": [("c1", "q")],
        "d": [("d1", "k"), ("d2", "q")],
        "e": [("e1", "k")],
        "q": [("q1", "h"), ("q2", "v"), ("q3", "v")],
        "k": [("k1", "v")],
    }
    system = graph_system(edges, ["r", "s"], invariants=(("safe", lambda n: n != "v"),))
    report = assert_matches_the_reference(system)
    assert [decode(system.variables, step.state)["node"]["v"]
            for step in report.trace.steps] == list("racqv")
    assert [step.label.name for step in report.trace.steps[1:]] == ["r1", "a1", "c1", "q2"]


@st.composite
def graph_systems(draw) -> TransitionSystem:
    """A random system over 1-2 variables of 1-2 keys and 2-3 values. Each
    reachable state has 0-5 successors, with repeated labels and
    self-loops; 1-3 initial states may repeat; two invariants, whose names
    sometimes repeat, each fail on a drawn set of 0-2 reachable states."""
    variables = tuple(
        VariableDecl(f"v{n}", ("k0", "k1")[:draw(st.integers(1, 2))],
                     (0, "x", 2)[:draw(st.integers(2, 3))])
        for n in range(draw(st.integers(1, 2))))
    space = [bytes(codes) for codes in itertools.product(
        *(range(len(decl.domain)) for decl in variables for _ in decl.keys))]
    label = st.sampled_from((ActionLabel("Go"), ActionLabel("Go", (("to", 1),)),
                             ActionLabel("Stay")))
    initial = tuple(draw(st.lists(st.sampled_from(space), min_size=1, max_size=3)))
    edges: dict[bytes, list] = {}
    unexpanded = list(initial)
    while unexpanded:
        source = unexpanded.pop()
        if source not in edges:
            # `source` twice in the pool makes a self-loop more likely.
            targets = st.sampled_from([*space, source])
            edges[source] = [draw(st.tuples(label, targets))
                             for _ in range(draw(st.integers(0, 5)))]
            unexpanded += [target for _, target in edges[source]]
    note(f"successors: {edges}")
    # A bad state is drawn once per edge into it, so a state with several
    # parents fails more often; with no edge at all, from the initial states.
    bad_state = st.sampled_from(
        [target for out in edges.values() for _, target in out] or initial)
    invariants = [(draw(st.sampled_from(("Safe", "Live"))),
                   frozenset(draw(st.lists(bad_state, max_size=2))))
                  for _ in range(2)]
    return TransitionSystem(
        "graph", variables, initial, successors=lambda s: edges[s],
        invariants=tuple((name, lambda s, bad=bad: s not in bad)
                         for name, bad in invariants))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(graph_systems())
def test_random_graphs_under_every_limit(system):
    for max_states, check_invariants in itertools.product((1, 2, 3, 5, 8, 1_000),
                                                          (True, False)):
        report = assert_matches_the_reference(system, max_states, check_invariants)
        document = render_structured(report)
        render_text(report)
        if report.trace is not None:
            assert replay(document, system)
