"""Property tests: the kernel against the independent oracles on random
small custom_permissions scenarios (1-3 apps, at most 2 names), and the
kernel's compiled layout check and strict decoder against a plain loop."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from apscheck.errors import DomainError, ModelIntegrityError
from apscheck.kernel import (ActionLabel, CheckOptions, TransitionSystem,
                             VariableDecl, Verdict, canonical_encode, check, decode)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(app_sets())
def test_check_agrees_with_the_oracles(apps):
    system = custom.build_system(apps)
    stats = check(system, CheckOptions(check_invariants=False))
    assert stats.verdict is Verdict.PASS
    assert ((stats.distinct_states, stats.transitions, stats.diameter)
            == oracles.custom_stats(oracles.oracle_apps(apps)))

    report = check(system)
    shortest = oracles.custom_shortest_violation(oracles.oracle_apps(apps))
    if shortest is None:
        assert report.verdict is Verdict.PASS
    else:
        assert report.verdict is Verdict.VIOLATION
        assert len(report.trace) == shortest
        assert replay(render_structured(report), system)


# Domain sizes, including those whose top code is a byte with a meaning in
# a regex: 11 (top code newline), 46 ("-"), 92-96 ("[", "\\", "]", "^",
# "_"); 0 is a domain with no value at all.
DOMAIN_SIZES = (0, 1, 2, 3, 11, 46, 92, 93, 94, 95, 96, 255, 256)


@st.composite
def layouts_and_encodings(draw):
    decls = tuple(
        VariableDecl(f"v{n}", tuple(f"k{k}" for k in range(draw(st.integers(0, 5)))),
                     tuple(range(draw(st.sampled_from(DOMAIN_SIZES)))))
        for n in range(draw(st.integers(1, 4))))
    # Codes at and around each slot's domain bound, or anywhere.
    codes = [draw(st.sampled_from([c for c in (0, len(d.domain) - 1, len(d.domain))
                                   if 0 <= c <= 255]) | st.integers(0, 255))
             for d in decls for _ in d.keys]
    resize = draw(st.sampled_from((-1, 0, 1)))
    if resize < 0:
        codes = codes[:-1]
    elif resize > 0:
        codes.append(draw(st.integers(0, 255)))
    return decls, bytes(codes)


def malformation(decls, encoding: bytes) -> str | None:
    """What is wrong with `encoding`, found slot by slot, or None."""
    slots = [(d, key) for d in decls for key in d.keys]
    if len(encoding) != len(slots):
        return f"state encoding has {len(encoding)} slots, declarations require {len(slots)}"
    return next((f"{d.name}[{key}] holds code {code}, outside its declared domain"
                 for (d, key), code in zip(slots, encoding) if code >= len(d.domain)), None)


def well_formed(decls, encoding: bytes) -> bool:
    return malformation(decls, encoding) is None


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(layouts_and_encodings())
def test_layout_check_agrees_with_a_plain_loop(case):
    decls, encoding = case
    initial = bytes(sum(len(d.keys) for d in decls))
    if well_formed(decls, initial):
        # Fed as the only successor of a valid initial state.
        system = TransitionSystem(
            "layout", decls, (initial,),
            successors=lambda s: [(ActionLabel("Go"), encoding)] if s == initial else [])
    else:
        # Some variable has keys but no values: no state is valid, so the
        # encoding is fed as the initial state.
        system = TransitionSystem("layout", decls, (encoding,),
                                  successors=lambda s: [])
    if well_formed(decls, encoding):
        assert check(system).verdict is Verdict.PASS
        assert canonical_encode(decls, decode(decls, encoding)) == encoding
    else:
        with pytest.raises(DomainError) as problem:
            decode(decls, encoding)
        assert str(problem.value) == malformation(decls, encoding)
        with pytest.raises(ModelIntegrityError) as integrity:
            check(system)
        assert str(integrity.value).endswith(f": {problem.value}")
