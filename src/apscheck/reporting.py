"""Render check reports as text or JSON, and replay traces independently.

Both renderers are byte-deterministic for a given report; wall-clock time
is the only field that varies between runs.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import DomainError, ReplayDocumentError
from .kernel import CheckReport, TransitionSystem, Verdict, canonical_encode, decode


def _format_value(value) -> str:
    return json.dumps(value) if isinstance(value, str) else str(value)


def _state_lines(values: dict[str, dict[str, object]]) -> list[str]:
    lines = []
    for var, items in values.items():
        inner = ", ".join(f"{key} |-> {_format_value(v)}" for key, v in items.items())
        lines.append(f"  {var} = [{inner}]")
    return lines


def _stats_lines(report: CheckReport) -> list[str]:
    return [
        "Statistics:",
        f"  distinct states: {report.distinct_states}",
        f"  transitions: {report.transitions}",
        f"  diameter: {report.diameter}",
        f"  elapsed: {report.elapsed * 1000.0:.1f} ms",
    ]


def render_text(report: CheckReport) -> str:
    """Human-readable report.

    A violation lists the counterexample as numbered states, each preceded
    by the action that produced it (the first is the initial predicate) and
    printing every variable's full value map, one variable per line.
    """
    lines: list[str] = []
    if report.verdict is Verdict.VIOLATION:
        trace = report.trace
        lines.append(f"Error: invariant {trace.violated_invariant} is violated.")
        lines.append("")
        for number, step in enumerate(trace.steps, start=1):
            heading = "Initial predicate" if step.label is None else step.label.render()
            lines.append(f"State {number}: <{heading}>")
            lines.extend(_state_lines(decode(trace.variables, step.state)))
            lines.append("")
    else:
        if report.verdict is not Verdict.PASS:
            stop = ("State limit reached" if report.verdict is Verdict.LIMIT_EXCEEDED
                    else "Interrupted")
            lines.append(f"{stop} after {report.distinct_states} distinct "
                         "states; statistics below are partial.")
        elif report.invariants_checked:
            names = ", ".join(report.invariants_checked)
            lines.append(f"No violations found (checked: {names}).")
        else:
            lines.append("Exploration complete (no invariants checked).")
        lines.append("")
    lines.extend(_stats_lines(report))
    return "\n".join(lines) + "\n"


def render_structured(report: CheckReport) -> str:
    """Machine-readable JSON document.

    Fields: verdict, violated_invariant (violations only), trace
    (violations only), stats {distinct_states, transitions, diameter},
    elapsed_ms. Key order is fixed by construction.
    """
    doc: dict = {"verdict": report.verdict.value}
    if report.trace is not None:
        doc["violated_invariant"] = report.trace.violated_invariant
        doc["trace"] = [
            {
                "step": number,
                "action": step.label.name if step.label else None,
                "params": dict(step.label.params) if step.label else {},
                "state": decode(report.trace.variables, step.state),
            }
            for number, step in enumerate(report.trace.steps, start=1)
        ]
    doc["stats"] = {
        "distinct_states": report.distinct_states,
        "transitions": report.transitions,
        "diameter": report.diameter,
    }
    doc["elapsed_ms"] = round(report.elapsed * 1000.0, 3)
    return json.dumps(doc, indent=2) + "\n"


class ReplayResult(namedtuple("ReplayResult", ("valid", "divergent_step", "reason"),
                              defaults=(None, ""))):
    """Outcome of replaying a trace document; truthy exactly when valid.

    `divergent_step` is the 1-based number of the first step whose state,
    action or invariant verdict does not match the system, or None."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.valid


def replay(report_document: str, system: TransitionSystem) -> ReplayResult:
    """Re-execute a structured report's trace against `system`.

    Valid when every recorded state encodes under the system's declarations
    (:func:`~apscheck.kernel.canonical_encode` is strict: no extra variables
    or keys, every value of its domain value's type), the first state
    carries no action and is initial, every later state is a successor the
    recorded action produces, and the final state fails a predicate listed
    under the named invariant. Steps are checked in that order, one by one.
    Raises :class:`ReplayDocumentError` when the document cannot be
    interpreted at all (bad JSON, no trace, unknown invariant); in-trace
    mismatches, including tampered values, come back as an invalid result
    pointing at the first divergent step.
    """
    try:
        doc = json.loads(report_document)
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError or an integer past Python's digit limit is a ValueError.
        raise ReplayDocumentError(f"report document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "trace" not in doc:
        raise ReplayDocumentError("report document carries no trace to replay")
    invariant_name = doc.get("violated_invariant")
    if invariant_name not in system.invariant_names:
        raise ReplayDocumentError(
            f"document names invariant {invariant_name!r}, which the system "
            "does not expose")
    steps = doc["trace"]
    if not isinstance(steps, list) or not steps:
        raise ReplayDocumentError("trace is empty")

    for index, step in enumerate(steps, start=1):
        try:
            state = canonical_encode(system.variables, step["state"])
        except (DomainError, KeyError, TypeError):
            return ReplayResult(False, index, "state does not decode against "
                                              "the system's declarations")
        action = step.get("action")
        params = step.get("params") or {}
        if index == 1:
            if action is not None or params:
                return ReplayResult(False, 1, "initial step carries an action")
            if state not in system.initial_states:
                return ReplayResult(False, 1, "first state is not an initial state")
        else:
            matches = [successor for label, successor in system.successors(current)
                       if label.name == action and dict(label.params) == params]
            if not matches:
                return ReplayResult(False, index,
                                    f"action {action!r} with params {params!r} is "
                                    "not enabled here")
            if state not in matches:
                return ReplayResult(False, index, "recorded state differs from the "
                                                  "action's successor")
        current = state

    if all(predicate(current) for name, predicate in system.invariants
           if name == invariant_name):
        return ReplayResult(False, len(steps),
                            f"final state does not violate {invariant_name}")
    return ReplayResult(True)
