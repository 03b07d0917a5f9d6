"""Property tests: the kernel against the independent oracles on random
small custom_permissions scenarios (1-3 apps, at most 2 names)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apscheck.kernel import CheckOptions, Verdict, check
from apscheck.models import custom
from apscheck.models.custom import AppSpec, PermissionDeclaration
from apscheck.reporting import render_structured, replay


@st.composite
def app_sets(draw) -> tuple[AppSpec, ...]:
    names = ("P", "Q")[:draw(st.integers(1, 2))]
    # Ids drawn from a fixed pool so that their sort order varies too.
    ids = draw(st.lists(st.sampled_from(("a", "m", "v", "z")), min_size=1,
                        max_size=3, unique=True))
    apps = []
    for app_id in ids:
        levels = [draw(st.sampled_from((None, "normal", "dangerous"))) for _ in names]
        declares = tuple(PermissionDeclaration(n, level)
                         for n, level in zip(names, levels) if level)
        requests = tuple(n for n in names if draw(st.booleans()))
        apps.append(AppSpec(app_id, declares, requests))
    return tuple(apps)


def oracle_apps(apps):
    return [(a.id, tuple((d.name, d.level) for d in a.declares), a.requests)
            for a in apps]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(app_sets())
def test_check_agrees_with_the_oracles(apps):
    system = custom.build_system(apps)
    stats = check(system, CheckOptions(check_invariants=False))
    assert stats.verdict is Verdict.PASS
    assert ((stats.distinct_states, stats.transitions, stats.diameter)
            == oracles.custom_stats(oracle_apps(apps)))

    report = check(system)
    shortest = oracles.custom_shortest_violation(oracle_apps(apps))
    if shortest is None:
        assert report.verdict is Verdict.PASS
    else:
        assert report.verdict is Verdict.VIOLATION
        assert len(report.trace) == shortest
        assert replay(render_structured(report), system)
