"""Tests for the custom-permission model: first-definer-wins registry,
auto-grant vs. user-consent branching, and the escalation property."""

from __future__ import annotations

from pathlib import Path

import pytest

import oracles
from apscheck.errors import ConfigurationError
from apscheck.kernel import Verdict, canonical_encode, check, decode
from apscheck.models import custom
from apscheck.models.custom import (AUTO, CONSENT, DENIED, AppSpec,
                                    PermissionDeclaration)
from apscheck.scenario import parse_scenario

MALWARE = AppSpec("malware", (PermissionDeclaration("P", "normal"),), ("P",))
VICTIM = AppSpec("victim", (PermissionDeclaration("P", "dangerous"),), ())
SCENARIO = (MALWARE, VICTIM)


def step(system, state: bytes, action: str):
    """The successor via the rendered action, or None when it is disabled."""
    return next((t for lbl, t in system.successors(state) if lbl.render() == action),
                None)


def request(system, state: bytes, app: str, name: str):
    """The request branches of `app` for `name`; empty when disabled."""
    return [(lbl, t) for lbl, t in system.successors(state)
            if dict(lbl.params) == {"a": app, "n": name}]


def installed(system, state: bytes) -> set:
    return {a for a, bit in decode(system.variables, state)["installed"].items() if bit}


def registry(system, state: bytes) -> dict:
    """name -> (active level, definer) for every registered name."""
    view = decode(system.variables, state)
    return {n: (level, view["registryDefiner"][n])
            for n, level in view["registryLevel"].items() if level}


def grants(system, state: bytes, modes=(AUTO, CONSENT)) -> set:
    return {(*key.split(":"), mode)
            for key, mode in decode(system.variables, state)["grants"].items()
            if mode in modes}


def escalation_free(system, state: bytes) -> bool:
    return dict(system.invariants)["escalation_free"](state)


def installed_in_order(*apps, system=None):
    system = system or custom.build_system(SCENARIO)
    s = system.initial_states[0]
    for app in apps:
        s = step(system, s, f"Install({app.id})")
    return system, s


class TestInstall:
    def test_first_install_registers_declarations(self):
        system, s = installed_in_order(MALWARE)
        assert installed(system, s) == {"malware"}
        assert registry(system, s) == {"P": ("normal", "malware")}

    def test_second_definer_never_overwrites_the_registry(self):
        system, s = installed_in_order(MALWARE, VICTIM)
        assert installed(system, s) == {"malware", "victim"}
        assert registry(system, s) == {"P": ("normal", "malware")}

    def test_install_of_installed_app_is_disabled(self):
        system, s = installed_in_order(MALWARE)
        assert step(system, s, "Install(malware)") is None

    def test_install_order_decides_the_active_level(self):
        system, s = installed_in_order(VICTIM, MALWARE)
        assert registry(system, s) == {"P": ("dangerous", "victim")}


class TestRequest:
    def test_normal_level_yields_single_auto_grant(self):
        system, s = installed_in_order(MALWARE, VICTIM)
        branches = request(system, s, "malware", "P")
        assert [lbl.name for lbl, _ in branches] == ["Request"]
        (_, granted), = branches
        assert grants(system, granted) == {("malware", "P", AUTO)}

    def test_dangerous_level_forks_on_the_user_decision(self):
        system, s = installed_in_order(VICTIM, MALWARE)
        branches = request(system, s, "malware", "P")
        assert [lbl.name for lbl, _ in branches] == ["UserAllow", "UserDeny"]
        allowed = branches[0][1]
        denied = branches[1][1]
        assert grants(system, allowed) == {("malware", "P", CONSENT)}
        assert grants(system, denied) == set()
        assert grants(system, denied, (DENIED,)) == {("malware", "P", DENIED)}

    def test_request_disabled_when_not_installed(self):
        system = custom.build_system(SCENARIO)
        assert request(system, system.initial_states[0], "malware", "P") == []

    def test_request_disabled_for_unregistered_name(self):
        ghost = AppSpec("ghost", (), ("Q",))
        system, s = installed_in_order(VICTIM, ghost,
                                       system=custom.build_system((VICTIM, ghost)))
        assert installed(system, s) == {"victim", "ghost"}
        assert request(system, s, "ghost", "Q") == []

    def test_request_disabled_once_granted_or_denied(self):
        system, s = installed_in_order(MALWARE, VICTIM)
        (_, granted), = request(system, s, "malware", "P")
        assert request(system, granted, "malware", "P") == []
        system, s2 = installed_in_order(VICTIM, MALWARE)
        denied = request(system, s2, "malware", "P")[1][1]
        assert request(system, denied, "malware", "P") == []

    def test_request_disabled_for_unlisted_name(self):
        system, s = installed_in_order(MALWARE, VICTIM)
        assert request(system, s, "victim", "P") == []


class TestEscalationProperty:
    def test_empty_device_is_escalation_free(self):
        system = custom.build_system(SCENARIO)
        assert escalation_free(system, system.initial_states[0])

    def test_malware_first_path_reaches_a_violation(self):
        system, s = installed_in_order(MALWARE)
        s = step(system, s, "Request(malware, P)")
        assert escalation_free(system, s)  # victim not installed yet
        s = step(system, s, "Install(victim)")
        assert not escalation_free(system, s)

    def test_victim_first_subtree_is_entirely_safe(self):
        apps = oracles.oracle_apps(SCENARIO)
        root = None
        for label, target in oracles.custom_successors(oracles.custom_initial(), apps):
            if label == ("Install", "victim"):
                root = target
        assert root is not None
        reached = oracles.reachable_set_fixpoint(
            root, lambda s: oracles.custom_successors(s, apps))
        assert all(not oracles.custom_escalation(s, apps) for s in reached)

    def test_consent_grants_never_violate(self):
        system, s = installed_in_order(VICTIM, MALWARE)
        allowed = step(system, s, "UserAllow(malware, P)")
        assert escalation_free(system, allowed)


class TestSuccessorOrdering:
    def test_initial_offers_installs_in_id_order(self):
        system = custom.build_system(SCENARIO)
        labels = [lbl.render() for lbl, _ in system.successors(system.initial_states[0])]
        assert labels == ["Install(malware)", "Install(victim)"]

    def test_requests_enumerate_names_ascending(self):
        noisy = AppSpec("noisy", (PermissionDeclaration("A", "normal"),
                                  PermissionDeclaration("B", "normal")),
                        ("A", "B"))
        system, s = installed_in_order(noisy, system=custom.build_system((noisy,)))
        labels = [lbl.render() for lbl, _ in system.successors(s)]
        assert labels == ["Request(noisy, A)", "Request(noisy, B)"]

    def test_terminal_state_has_no_successors(self):
        system, s = installed_in_order(VICTIM, system=custom.build_system((VICTIM,)))
        assert system.successors(s) == []


class TestScenarioChecking:
    def test_canonical_scenario_violates_in_three_steps(self):
        report = check(custom.build_system(SCENARIO))
        assert report.verdict is Verdict.VIOLATION
        assert report.trace.violated_invariant == "escalation_free"
        rendered = [s.label.render() for s in report.trace.steps[1:]]
        assert rendered == ["Install(malware)", "Request(malware, P)",
                            "Install(victim)"]
        assert oracles.custom_shortest_violation(oracles.oracle_apps(SCENARIO)) == 3

    def test_verdict_survives_swapping_which_id_sorts_first(self):
        # Rename the attacker so the victim's install is enumerated first.
        attacker = AppSpec("zz_mal", MALWARE.declares, MALWARE.requests)
        report = check(custom.build_system((attacker, VICTIM)))
        assert report.verdict is Verdict.VIOLATION
        assert len(report.trace) == 3

    def test_victim_alone_passes(self):
        report = check(custom.build_system((VICTIM,)))
        assert report.verdict is Verdict.PASS
        assert (report.distinct_states, report.transitions,
                report.diameter) == (2, 1, 1)

    def test_app_set_must_be_nonempty_with_unique_ids(self):
        with pytest.raises(ConfigurationError):
            custom.build_system(())
        with pytest.raises(ConfigurationError):
            custom.build_system((VICTIM, AppSpec("victim")))


def all_reachable_edges(apps):
    oracle_apps = oracles.oracle_apps(apps)
    succ = lambda s: oracles.custom_successors(s, oracle_apps)
    reached = oracles.reachable_set_fixpoint(oracles.custom_initial(), succ)
    for s in reached:
        for label, t in succ(s):
            yield s, label, t


class TestModelInvariants:
    def test_grants_grow_monotonically_and_denials_add_no_grants(self):
        for s, label, t in all_reachable_edges(SCENARIO):
            assert s[2] <= t[2]
            if label[0] == "UserDeny":
                assert s[2] == t[2]

    def test_auto_grants_only_under_a_normal_registry_level(self):
        for s, label, t in all_reachable_edges(SCENARIO):
            new_autos = {g for g in t[2] - s[2] if g[2] == "AUTO"}
            for _, name, _ in new_autos:
                levels = {lv for n, lv, _ in s[1] if n == name}
                assert levels == {"normal"}

    def test_registry_always_reflects_the_earliest_installed_definer(self):
        apps = oracles.oracle_apps(SCENARIO)

        def walk(state, install_seq):
            _, registry, _, _ = state
            for name, level, definer in registry:
                declarers = [a for a in install_seq
                             if any(n == name for n, _ in dict(apps_by_id[a]).items())]
                assert declarers and declarers[0] == definer
                assert dict(apps_by_id[definer])[name] == level
            for label, target in oracles.custom_successors(state, apps):
                seq = install_seq + [label[1]] if label[0] == "Install" else install_seq
                walk(target, seq)

        apps_by_id = {app_id: decls for app_id, decls, _ in apps}
        walk(oracles.custom_initial(), [])


class TestSystemPackaging:
    def test_encode_decode_round_trip_over_reachable_states(self):
        system = custom.build_system(SCENARIO)
        seen = [system.initial_states[0]]
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            for _, succ in system.successors(state):
                if succ not in seen:
                    seen.append(succ)
                    frontier.append(succ)
        assert len(seen) == 9  # full space from the independent enumerator
        for st in seen:
            assert canonical_encode(system.variables, decode(system.variables, st)) == st

    def test_build_memory_is_linear_in_the_requests(self, build_peak):
        # 100 apps each requesting 50 names: 5,000 requests and a 5,200-byte
        # state. One state-wide integer kept per request peaked at 43 MiB.
        apps = shaped_apps(100, 50)
        assert len(custom.build_system(apps).initial_states[0]) == 5200
        assert build_peak(custom.build_system, apps) < 16 * 2**20

    def test_build_memory_doubles_with_the_model(self, build_peak):
        # Twice the apps, each requesting the same 50 names: the linear build
        # peaks about 2.0x as high, a state-wide integer per request 3.4x.
        small, large = shaped_apps(100, 50), shaped_apps(200, 50)
        assert (build_peak(custom.build_system, large)
                < 2.5 * build_peak(custom.build_system, small))

    def test_colon_in_app_id_is_rejected(self):
        with pytest.raises(ConfigurationError):
            custom.build_system((AppSpec("a:b"),))

    def test_empty_app_id_is_rejected(self):
        # "" already stands for an unclaimed name in the registry's definer
        # variable; a second "" would make the encoding ambiguous.
        apps = (AppSpec("", (PermissionDeclaration("P", "normal"),), ("P",)),
                AppSpec("v", (PermissionDeclaration("P", "dangerous"),)))
        with pytest.raises(ConfigurationError,
                           match="variable 'registryDefiner' repeats domain value ''"):
            custom.build_system(apps)


def shaped_apps(k: int, m: int, definers: int = 1) -> tuple[AppSpec, ...]:
    """`k` apps and `m` names: app{i} declares P{j} when (j - i) % k is
    below `definers` (its first definer declares it normal if j is odd,
    else dangerous, and each next definer flips the level), and every app
    requests every name. The 2 x 5 shape with one definer per name is the
    benchmark's custom_pass scenario."""
    names = tuple(f"P{j}" for j in range(m))
    return tuple(
        AppSpec(f"app{i}", tuple(
            PermissionDeclaration(n, ("dangerous", "normal")[(j + (j - i) % k) % 2])
            for j, n in enumerate(names) if (j - i) % k < definers), names)
        for i in range(k))


def shipped_apps(file: str) -> tuple[AppSpec, ...]:
    path = Path(__file__).resolve().parent.parent / "scenarios" / file
    return parse_scenario(path.read_text(encoding="utf-8")).app_specs


# Three apps, P0 declared normal and dangerous: escalation_free fails.
THREE_APPS = (
    AppSpec("alpha", (PermissionDeclaration("P0", "normal"),), ("P0", "P1")),
    AppSpec("bravo", (PermissionDeclaration("P1", "dangerous"),), ("P0", "P1")),
    AppSpec("carol", (PermissionDeclaration("P0", "dangerous"),), ("P1",)),
)


def reachable(system) -> list[bytes]:
    # Every action turns a slot from 0 to nonzero, so no path is longer
    # than the encoding.
    return oracles.states_within(system, len(system.initial_states[0]))


def oracle_state(system, s: bytes):
    """The oracle's (installed, registry, grants, denied) view of `s`."""
    view = decode(system.variables, s)
    modes = [(*key.split(":"), mode) for key, mode in view["grants"].items()]
    return (frozenset(a for a, on in view["installed"].items() if on),
            frozenset((n, level, view["registryDefiner"][n])
                      for n, level in view["registryLevel"].items() if level),
            frozenset(g for g in modes if g[2] in (AUTO, CONSENT)),
            frozenset((a, n) for a, n, mode in modes if mode == DENIED))


SCENARIOS = {
    "custom_pass": shaped_apps(2, 5),
    "custom_vuln": shipped_apps("custom_vuln.scn"),
    "custom_safe": shipped_apps("custom_safe.scn"),
    "three_apps": THREE_APPS,
    # AUTO grants, but no name is declared dangerous.
    "auto_only": (AppSpec("a", (PermissionDeclaration("P", "normal"),), ("P",)),
                  AppSpec("b", (), ("P",))),
}


class TestSuccessorsMatchTheOracle:
    """Request, allow and deny successors are built by integer addition;
    on every state visited they must equal the oracle's, label for label
    and in order."""

    @staticmethod
    def assert_matches_oracle(apps, depth=None) -> list[bytes]:
        system = custom.build_system(apps)
        oracle_apps = oracles.oracle_apps(apps)
        states = reachable(system) if depth is None else oracles.states_within(system, depth)
        # Each distinct encoding is decoded once: states share most successors.
        views: dict[bytes, tuple] = {}

        def view(s: bytes) -> tuple:
            if s not in views:
                views[s] = oracle_state(system, s)
            return views[s]

        for s in states:
            got = [(label.render(), view(t)) for label, t in system.successors(s)]
            expected = [(f"{label[0]}({', '.join(label[1:])})", t)
                        for label, t in oracles.custom_successors(view(s), oracle_apps)]
            assert got == expected
        return states

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_reachable_state(self, scenario):
        states = self.assert_matches_oracle(SCENARIOS[scenario])
        if scenario == "custom_pass":
            assert len(states) == 11696

    def test_a_wide_encoding(self):
        apps = shaped_apps(5, 10)
        # 5 installed, 10 level, 10 definer and 50 grant slots.
        assert len(custom.build_system(apps).initial_states[0]) == 75
        self.assert_matches_oracle(apps, depth=4)

    def test_a_wide_encoding_with_two_definers_per_name(self):
        # An Install then also meets names that the other definer claimed:
        # with both of P1's definers installed, either may hold it.
        apps = shaped_apps(5, 10, definers=2)
        system = custom.build_system(apps)
        assert len(system.initial_states[0]) == 75
        states = self.assert_matches_oracle(apps, depth=4)
        assert {registry(system, s)["P1"] for s in states
                if installed(system, s) >= {"app0", "app1"}} == {
            ("dangerous", "app0"), ("normal", "app1")}


def unscreened_escalation_free(system, apps, state: bytes) -> bool:
    """escalation_free restated on the decoded state: no AUTO grant of a
    name that an installed app declares dangerous."""
    view = decode(system.variables, state)
    dangerous = {d.name for a in apps if view["installed"][a.id]
                 for d in a.declares if d.level == "dangerous"}
    return not any(mode == AUTO and key.split(":")[1] in dangerous
                   for key, mode in view["grants"].items())


class TestScreenedEscalationFree:
    """escalation_free first rules out an AUTO code in every watched grant
    slot (a requested name some app declares dangerous) in one call."""

    @pytest.mark.parametrize("scenario,watched,verdicts", [
        ("custom_safe", 0, {True}),  # nobody requests the name
        ("custom_vuln", 1, {True, False}),
        ("three_apps", 5, {True, False}),
        ("custom_pass", 6, {True}),
        ("auto_only", 0, {True}),
    ])
    def test_equals_the_unscreened_check_on_every_reachable_state(
            self, scenario, watched, verdicts):
        apps = SCENARIOS[scenario]
        system = custom.build_system(apps)
        grants = [k.split(":") for k in system.variables[3].keys]
        dangerous = {d.name for a in apps for d in a.declares if d.level == "dangerous"}
        assert sum(n in dangerous for _, n in grants) == watched
        seen = set()
        for s in reachable(system):
            got = escalation_free(system, s)
            assert got == unscreened_escalation_free(system, apps, s)
            seen.add(got)
        assert seen == verdicts
