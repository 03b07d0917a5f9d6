"""Tests for the basic permission machine, cross-checked against the
independent enumerator in oracles.py."""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

import oracles
from apscheck.errors import ConfigurationError, ModelIntegrityError
from apscheck.kernel import (ActionLabel, CheckOptions, Verdict, canonical_encode,
                             check, decode)
from apscheck.models import cs1


def encode(system, asked, granted, installed) -> bytes:
    ids = cs1.app_ids(len(asked))
    return canonical_encode(system.variables,
                            {"askedPerms": dict(zip(ids, asked)),
                             "grantedPerms": dict(zip(ids, granted)),
                             "alreadyInstalled": dict(zip(ids, installed))})


def values(system, state: bytes) -> tuple:
    """(asked, granted, installed) value tuples, the oracle's state form."""
    return tuple(tuple(items.values())
                 for items in decode(system.variables, state).values())


def step(system, state: bytes, action: str):
    """The successor via the rendered action, or None when it is disabled."""
    return next((t for lbl, t in system.successors(state) if lbl.render() == action),
                None)


def invariant(system, name: str):
    return dict(system.invariants)[name]


def initial(apps: int):
    system = cs1.build_system(apps)
    return system, system.initial_states[0]


class TestStateOperations:
    def test_initial_state_one_app(self):
        system, init = initial(1)
        assert values(system, init) == ((cs1.NONE,), (cs1.NONE,), (0,))

    def test_initial_state_two_apps(self):
        system, init = initial(2)
        asked, granted, installed = values(system, init)
        assert asked == (cs1.NONE, cs1.NONE)
        assert granted == (cs1.NONE, cs1.NONE)
        assert installed == (0, 0)

    def test_zero_apps_rejected(self):
        with pytest.raises(ConfigurationError):
            cs1.build_system(0)

    def test_install_from_pristine_state(self):
        system, init = initial(2)
        s = step(system, init, "InstallOrder(a1)")
        assert values(system, s) == ((cs1.NONE, cs1.NONE), (cs1.NONE, cs1.NONE),
                                     (1, 0))

    def test_install_disabled_once_any_app_is_installed(self):
        system, _ = initial(2)
        s = encode(system, (cs1.NONE, cs1.NONE), (cs1.NONE, cs1.NONE), (0, 1))
        assert step(system, s, "InstallOrder(a1)") is None

    def test_both_installs_enabled_initially_and_distinct(self):
        system, init = initial(2)
        first = step(system, init, "InstallOrder(a1)")
        second = step(system, init, "InstallOrder(a2)")
        assert first is not None and second is not None
        assert first != second

    def test_ask_overwrites_previous_level(self):
        system, init = initial(1)
        s = step(system, init, "Ask(a1, NOR)")
        assert values(system, s)[0] == (cs1.NOR,)
        s = step(system, s, "Ask(a1, DAN)")
        assert values(system, s)[0] == (cs1.DAN,)

    def test_ask_same_level_twice_is_idempotent(self):
        system, init = initial(1)
        once = step(system, init, "Ask(a1, NOR)")
        assert step(system, once, "Ask(a1, NOR)") == once

    def test_ask_rejects_the_none_level(self):
        system, init = initial(1)
        levels = [dict(lbl.params)["p"] for lbl, _ in system.successors(init)
                  if lbl.name == "Ask"]
        assert levels == [cs1.NOR, cs1.DAN]

    def test_grant_disabled_initially(self):
        system, init = initial(1)
        assert step(system, init, "Grant(a1)") is None

    def test_grant_after_asking_nor_grants_dan(self):
        system, init = initial(1)
        granted = step(system, step(system, init, "Ask(a1, NOR)"), "Grant(a1)")
        assert values(system, granted)[1] == (cs1.DAN,)
        assert not invariant(system, "ApsConsistent")(granted)

    def test_grant_via_installed_without_asking_stays_consistent(self):
        system, init = initial(1)
        granted = step(system, step(system, init, "InstallOrder(a1)"), "Grant(a1)")
        assert values(system, granted)[1] == (cs1.DAN,)
        assert invariant(system, "ApsConsistent")(granted)


class TestPredicates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_initial_state_is_type_correct(self, n):
        system, init = initial(n)
        assert invariant(system, "ApsTypeOK")(init)

    def test_out_of_domain_value_never_reaches_type_check(self):
        # ApsTypeOK is constant because `check` refuses such a state before
        # any predicate sees it: code 3 in the granted slot names no level.
        system = cs1.build_system(1).with_invariants(["ApsTypeOK"])
        grant = ActionLabel("Grant", (("r", "a1"),))
        broken = replace(system, successors=lambda s: [(grant, bytes([0, 3, 0]))])
        with pytest.raises(ModelIntegrityError, match=(
                r"^successor via Grant\(a1\): grantedPerms\[a1\] holds code 3, "
                "outside its declared domain$")):
            check(broken)

    def test_consistency_examples(self):
        two_apps, init = initial(2)
        assert invariant(two_apps, "ApsConsistent")(init)
        system, _ = initial(1)
        consistent = invariant(system, "ApsConsistent")
        assert not consistent(encode(system, (cs1.NOR,), (cs1.DAN,), (0,)))
        assert consistent(encode(system, (cs1.DAN,), (cs1.DAN,), (0,)))


class TestSuccessors:
    def test_initial_single_app_has_three_successors(self):
        system, init = initial(1)
        labels = [lbl.render() for lbl, _ in system.successors(init)]
        assert labels == ["InstallOrder(a1)", "Ask(a1, NOR)", "Ask(a1, DAN)"]

    def test_after_asking_nor_grant_becomes_enabled(self):
        system, init = initial(1)
        s = step(system, init, "Ask(a1, NOR)")
        succs = system.successors(s)
        labels = [lbl.render() for lbl, _ in succs]
        # Nothing is installed yet, so InstallOrder stays enabled too.
        assert labels == ["InstallOrder(a1)", "Ask(a1, NOR)", "Ask(a1, DAN)",
                          "Grant(a1)"]
        by_label = dict((lbl.render(), t) for lbl, t in succs)
        assert by_label["Ask(a1, NOR)"] == s  # self-loop is emitted

    def test_successor_order_is_stable_across_calls(self):
        system, init = initial(2)
        s = step(system, init, "Ask(a2, DAN)")
        assert system.successors(s) == system.successors(s)

    @pytest.mark.parametrize("apps,depth", [
        # The diameter is 3 x apps: every reachable state.
        (1, 3), (2, 6), (3, 9), (4, 12),
        # 63-, 66- and 120-byte encodings.
        (21, 2), (22, 2), (40, 2),
    ])
    def test_agrees_with_independent_transition_relation(self, apps, depth):
        system, _ = initial(apps)
        # The oracle's labels name apps by index.
        labels = {}
        for r, rid in enumerate(cs1.app_ids(apps)):
            labels["InstallOrder", r] = ActionLabel("InstallOrder", (("r", rid),))
            for p in (cs1.NOR, cs1.DAN):
                labels["Ask", r, p] = ActionLabel("Ask", (("r", rid), ("p", p)))
            labels["Grant", r] = ActionLabel("Grant", (("r", rid),))
        codes = {level: code for code, level in enumerate(cs1.PERM_LEVELS)}
        # Successors share most level columns; encode each column once.
        column = functools.cache(lambda levels: bytes(map(codes.__getitem__, levels)))
        for s in oracles.states_within(system, depth):
            got = system.successors(s)
            assert got == [(labels[lbl], column(asked) + column(granted) + bytes(installed))
                           for lbl, (asked, granted, installed)
                           in oracles.cs1_successors(values(system, s))]
            assert all(t is s for _, t in got if t == s)


class TestReachability:
    @pytest.mark.parametrize("apps,expected", [
        (1, (11, 35, 3)),
        (2, (85, 494, 6)),
    ])
    def test_statistics_match_frozen_oracle_values(self, apps, expected):
        assert oracles.cs1_stats(apps) == expected
        rep = check(cs1.build_system(apps), CheckOptions(check_invariants=False))
        assert (rep.distinct_states, rep.transitions, rep.diameter) == expected

    @pytest.mark.parametrize("apps", [1, 2, 3])
    def test_type_invariant_holds_on_every_reachable_state(self, apps):
        system = cs1.build_system(apps).with_invariants(["ApsTypeOK"])
        assert check(system).verdict is Verdict.PASS

    @pytest.mark.parametrize("apps", [1, 2])
    def test_consistency_violated_with_two_step_counterexample(self, apps):
        system = cs1.build_system(apps)
        report = check(system)
        assert report.verdict is Verdict.VIOLATION
        assert report.trace.violated_invariant == "ApsConsistent"
        labels = [s.label for s in report.trace.steps[1:]]
        assert labels == [ActionLabel("Ask", (("r", "a1"), ("p", "NOR"))),
                          ActionLabel("Grant", (("r", "a1"),))]
        oracle_min = oracles.shortest_violation(
            oracles.cs1_initial(apps), oracles.cs1_successors,
            lambda s: not oracles.cs1_consistent(s))
        assert len(report.trace) == oracle_min == 2

    def test_single_app_reachable_set_matches_oracle_exactly(self):
        reached = oracles.reachable_set_fixpoint(oracles.cs1_initial(1),
                                                 oracles.cs1_successors)
        assert len(reached) == 11
        # Of the 12 assignments with granted in {none, DAN}, exactly one is
        # unreachable: granted DAN with nothing asked and nothing installed.
        candidates = {s for s in oracles.cs1_all_type_correct(1)
                      if s[1][0] in ("", "DAN")}
        assert len(candidates) == 12
        assert candidates - reached == {(("",), ("DAN",), (0,))}

    @pytest.mark.parametrize("apps", [1, 2, 3])
    def test_at_most_one_app_ever_installed(self, apps):
        reached = oracles.reachable_set_fixpoint(oracles.cs1_initial(apps),
                                                 oracles.cs1_successors)
        assert all(sum(s[2]) <= 1 for s in reached)

    @pytest.mark.parametrize("apps", [1, 2])
    def test_granted_never_holds_nor(self, apps):
        reached = oracles.reachable_set_fixpoint(oracles.cs1_initial(apps),
                                                 oracles.cs1_successors)
        assert all(v in ("", "DAN") for s in reached for v in s[1])


class TestSystemPackaging:
    def test_encode_decode_round_trip(self):
        system = cs1.build_system(2)
        init = decode(system.variables, system.initial_states[0])
        assert canonical_encode(system.variables, init) == system.initial_states[0]
        assert init == {
            "askedPerms": {"a1": "", "a2": ""},
            "grantedPerms": {"a1": "", "a2": ""},
            "alreadyInstalled": {"a1": 0, "a2": 0},
        }

    def test_initial_encoding_is_deterministic(self):
        a = cs1.build_system(3).initial_states[0]
        b = cs1.build_system(3).initial_states[0]
        assert a == b

    def test_registered_invariant_names(self):
        system = cs1.build_system(1)
        assert system.invariant_names == ("ApsTypeOK", "ApsConsistent")

    def test_build_memory_doubles_with_the_apps(self, build_peak):
        # The linear build peaks about 1.9x as high at twice the apps; a
        # state-wide integer kept per app made it 3.8x.
        assert (build_peak(cs1.build_system, 4000)
                < 2.5 * build_peak(cs1.build_system, 2000))

    def test_check_runs_are_deterministic(self):
        reports = [check(cs1.build_system(2), CheckOptions(max_states=500))
                   for _ in range(2)]
        assert reports[0].trace == reports[1].trace
        assert reports[0].distinct_states == reports[1].distinct_states
