"""Independent oracles used to derive and cross-check expected test values.

Everything in this module is deliberately written without importing the
package under test: its own state representations, its own transition
relations, set-fixpoint reachability instead of a worklist BFS, and
iterative-deepening search for shortest violating paths. The one worklist
BFS here, `forward_parent_check`, runs on a system's own successor function
and is the reference for how the kernel finds a trace's parents.
"""

from __future__ import annotations

import itertools

PERM_LEVELS = ("", "NOR", "DAN")


# ---------------------------------------------------------------------------
# Single/multi-app permission machine (the aps_cs1 model), re-derived from
# its guards: install only while nothing is installed, ask always enabled,
# grant enabled when asked NOR or already installed and always grants DAN.
# ---------------------------------------------------------------------------

def cs1_initial(n):
    return (("",) * n, ("",) * n, (0,) * n)


def cs1_successors(state):
    asked, granted, installed = state
    n = len(asked)
    nothing_installed = all(v == 0 for v in installed)
    out = []
    for r in range(n):
        if nothing_installed:
            out.append((("InstallOrder", r),
                        (asked, granted, installed[:r] + (1,) + installed[r + 1:])))
        for p in ("NOR", "DAN"):
            out.append((("Ask", r, p),
                        (asked[:r] + (p,) + asked[r + 1:], granted, installed)))
        if asked[r] == "NOR" or installed[r] == 1:
            out.append((("Grant", r),
                        (asked, granted[:r] + ("DAN",) + granted[r + 1:], installed)))
    return out


def cs1_all_type_correct(n):
    """Every total assignment with declared codomains, reachable or not."""
    per_app = list(itertools.product(PERM_LEVELS, PERM_LEVELS, (0, 1)))
    for combo in itertools.product(per_app, repeat=n):
        asked = tuple(c[0] for c in combo)
        granted = tuple(c[1] for c in combo)
        installed = tuple(c[2] for c in combo)
        yield (asked, granted, installed)


def cs1_consistent(state):
    asked, granted, _ = state
    return not any(a == "NOR" and g == "DAN" for a, g in zip(asked, granted))


def cs1_type_ok(state):
    asked, granted, installed = state
    return (all(a in PERM_LEVELS for a in asked)
            and all(g in PERM_LEVELS for g in granted)
            and all(i in (0, 1) for i in installed))


def reachable_levels(initial, successors):
    """Level sets by pure set algebra: levels[k] holds states whose shortest
    distance from the initial state is exactly k."""
    levels = [{initial}]
    seen = {initial}
    while True:
        nxt = set()
        for s in levels[-1]:
            for _, t in successors(s):
                if t not in seen:
                    nxt.add(t)
        if not nxt:
            return levels
        seen |= nxt
        levels.append(nxt)


def reachable_set_fixpoint(initial, successors):
    """Reachability as a least fixpoint over the whole candidate space,
    with no frontier bookkeeping at all."""
    reached = {initial}
    changed = True
    while changed:
        changed = False
        for s in list(reached):
            for _, t in successors(s):
                if t not in reached:
                    reached.add(t)
                    changed = True
    return reached


def states_within(system, depth: int) -> list:
    """Every state of `system` (anything with `initial_states` and
    `successors`) reachable from an initial one in at most `depth` steps,
    in breadth-first order."""
    seen = dict.fromkeys(system.initial_states)
    level = list(seen)
    for _ in range(depth):
        level = list(dict.fromkeys(t for s in level for _, t in system.successors(s)
                                   if t not in seen))
        seen.update(dict.fromkeys(level))
    return list(seen)


def forward_parent_check(system, max_states=1_000_000, check_invariants=True):
    """Reference breadth-first check of `system` (anything with
    `initial_states`, `successors` and `invariants`) that records each
    state's parent and label on discovery and walks them back from a
    violation. The kernel stores neither and searches the level before each
    step instead; the two must give the same trace.

    Returns (verdict, distinct states, transitions, diameter, trace): the
    verdict is "pass", "violation" or "limit_exceeded", and the trace is
    None or (invariant name, labels, encodings), the first label None.
    Counts follow the kernel's: a limit stop counts the successor that hit
    the limit, and the diameter is the depth of the last state found.
    """
    states, parents, labels, depths = [], [], [], []
    index = {}

    def discover(state, parent, label):
        index[state] = len(states)
        states.append(state)
        parents.append(parent)
        labels.append(label)
        depths.append(0 if parent < 0 else depths[parent] + 1)

    def result(verdict, trace=None):
        return verdict, len(states), transitions, depths[-1], trace

    transitions = 0
    for state in system.initial_states:
        if state not in index:
            if len(states) >= max_states:
                return result("limit_exceeded")
            discover(state, -1, None)
    invariants = system.invariants if check_invariants else ()
    head = 0
    while head < len(states):
        failed = [name for name, holds in invariants if not holds(states[head])]
        if failed:
            path = []
            at = head
            while at >= 0:
                path.append((labels[at], states[at]))
                at = parents[at]
            path.reverse()
            return result("violation", (failed[0], [label for label, _ in path],
                                        [state for _, state in path]))
        for label, successor in system.successors(states[head]):
            transitions += 1
            if successor in index:
                continue
            if len(states) >= max_states:
                return result("limit_exceeded")
            discover(successor, head, label)
        head += 1
    return result("pass")


def cs1_stats(n):
    """(distinct states, transition edges, diameter) for the n-app machine."""
    reached = reachable_set_fixpoint(cs1_initial(n), cs1_successors)
    assert reached <= set(cs1_all_type_correct(n))
    edges = sum(len(cs1_successors(s)) for s in reached)
    levels = reachable_levels(cs1_initial(n), cs1_successors)
    assert set().union(*levels) == reached
    return len(reached), edges, len(levels) - 1


def shortest_violation(initial, successors, violated):
    """Length of the shortest violating path, by iterative deepening.

    Returns None if no violating state is reachable (checked exhaustively).
    """
    if not any(violated(s) for s in reachable_set_fixpoint(initial, successors)):
        return None
    depth = 0
    while True:
        if _idfs_hits(initial, successors, violated, depth):
            return depth
        depth += 1


def _idfs_hits(state, successors, violated, budget):
    if violated(state):
        return True
    if budget == 0:
        return False
    return any(_idfs_hits(t, successors, violated, budget - 1)
               for _, t in successors(state))


# ---------------------------------------------------------------------------
# Custom-permission machine: named permissions with protection levels,
# first installer to declare a name fixes its level, normal-level requests
# auto-grant, dangerous-level requests fork on the user decision.
# ---------------------------------------------------------------------------

def custom_initial():
    # (installed, registry as (name, level, definer) triples, grants, denied)
    return (frozenset(), frozenset(), frozenset(), frozenset())


def custom_successors(state, apps):
    """apps: list of (app_id, declares, requests) with declares a tuple of
    (name, level) pairs and requests a tuple of names."""
    installed, registry, grants, denied = state
    reg = {name: (level, definer) for name, level, definer in registry}
    out = []
    for app_id, declares, requests in sorted(apps):
        if app_id not in installed:
            new_reg = dict(reg)
            for name, level in sorted(declares):
                if name not in new_reg:
                    new_reg[name] = (level, app_id)
            out.append((("Install", app_id),
                        (installed | {app_id},
                         frozenset((n, lv, df) for n, (lv, df) in new_reg.items()),
                         grants, denied)))
        if app_id not in installed:
            continue
        for name in sorted(requests):
            if name not in reg:
                continue
            if any(g[0] == app_id and g[1] == name for g in grants):
                continue
            if (app_id, name) in denied:
                continue
            if reg[name][0] == "normal":
                out.append((("Request", app_id, name),
                            (installed, registry,
                             grants | {(app_id, name, "AUTO")}, denied)))
            else:
                out.append((("UserAllow", app_id, name),
                            (installed, registry,
                             grants | {(app_id, name, "CONSENT")}, denied)))
                out.append((("UserDeny", app_id, name),
                            (installed, registry, grants,
                             denied | {(app_id, name)})))
    return out


def custom_escalation(state, apps):
    """True when some auto-granted name is declared dangerous by an
    installed app (the property's violation condition)."""
    installed, _, grants, _ = state
    for app_id, declares, _ in apps:
        if app_id not in installed:
            continue
        for name, level in declares:
            if level != "dangerous":
                continue
            if any(g[1] == name and g[2] == "AUTO" for g in grants):
                return True
    return False


def custom_stats(apps):
    succ = lambda s: custom_successors(s, apps)
    reached = reachable_set_fixpoint(custom_initial(), succ)
    edges = sum(len(succ(s)) for s in reached)
    levels = reachable_levels(custom_initial(), succ)
    return len(reached), edges, len(levels) - 1


def custom_shortest_violation(apps):
    succ = lambda s: custom_successors(s, apps)
    return shortest_violation(custom_initial(), succ,
                              lambda s: custom_escalation(s, apps))


if __name__ == "__main__":
    for n in (1, 2, 3):
        print(f"cs1 apps={n}: (distinct, transitions, diameter) = {cs1_stats(n)}")
    for n in (1, 2):
        viol = shortest_violation(cs1_initial(n), cs1_successors,
                                  lambda s: not cs1_consistent(s))
        print(f"cs1 apps={n}: shortest ApsConsistent violation = {viol}")
    vuln = [("malware", (("P", "normal"),), ("P",)),
            ("victim", (("P", "dangerous"),), ())]
    safe = [("victim", (("P", "dangerous"),), ())]
    print(f"custom vuln: stats = {custom_stats(vuln)}, "
          f"shortest violation = {custom_shortest_violation(vuln)}")
    print(f"custom safe: stats = {custom_stats(safe)}, "
          f"shortest violation = {custom_shortest_violation(safe)}")
