"""Layer timing for traced runs, installed from outside the package.

The tracer replaces names in apscheck's module namespaces with timing
wrappers; nothing under ``src/`` changes. Outer phases (parse, validate,
build, check, trace reconstruction, render, replay, CLI ``main``) become
spans with a parent and a scenario id. Per-state calls (successors,
invariants, ``canonical_encode``) are too frequent for spans, so they only
bump in-memory counters and busy time, keyed by the span they ran under.
Everything stays in memory until the child process reports it once.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.scenario = 0
        # (counter name, enclosing span name) -> [calls, busy seconds, items]
        self.counters: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
        self.transitions = 0
        self.new_states = 0
        self._stack: list[dict] = []

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, after=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = {"name": name, "id": len(self.spans),
                      "parent": self._stack[-1]["id"] if self._stack else None,
                      "scenario": self.scenario, "start": clock(), "end": None}
            self.spans.append(record)
            self._stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = clock()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn, items=None):
        clock = time.perf_counter
        counters = self.counters
        stack = self._stack

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            busy = clock() - start
            slot = counters[(name, stack[-1]["name"] if stack else "")]
            slot[0] += 1
            slot[1] += busy
            if items is not None:
                slot[2] += items(result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the names the CLI and the models call through."""
        from apscheck import cli, kernel
        from apscheck.models import cs1, custom

        def count_report(args, report):
            self.transitions += report.transitions
            self.new_states += report.distinct_states - len(args[0].initial_states)

        def count_bytes(args, text):
            slot = self.counters[("reporting.render_bytes", "")]
            slot[0] += 1
            slot[2] += len(text.encode("utf-8"))

        cli.main = self.span("cli.main", cli.main)
        cli.parse_scenario = self.span("scenario.parse", cli.parse_scenario)
        cli.validate_semantics = self.span("scenario.validate", cli.validate_semantics)
        cli.build_system = self.span(
            "models.build", self._wrap_build(cli.build_system))
        cli.check = self.span("kernel.check", cli.check, after=count_report)
        cli.render_text = self.span("reporting.render", cli.render_text,
                                    after=count_bytes)
        cli.render_structured = self.span("reporting.render", cli.render_structured,
                                          after=count_bytes)
        cli.replay = self.span("reporting.replay", cli.replay)
        kernel.reconstruct_trace = self.span("kernel.trace", kernel.reconstruct_trace)
        cs1.canonical_encode = self.counted("models.encode", cs1.canonical_encode)
        custom.canonical_encode = self.counted("models.encode", custom.canonical_encode)

    def _wrap_build(self, build):
        def wrapped_build(scenario):
            system = build(scenario)
            return dataclasses.replace(
                system,
                successors=self.counted("models.successors", system.successors,
                                        items=len),
                invariants=tuple((name, self.counted("models.invariants", pred))
                                 for name, pred in system.invariants),
            )

        return wrapped_build

    # -- reporting ------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [[name, under, *slot]
                         for (name, under), slot in self.counters.items()],
            "transitions": self.transitions,
            "new_states": self.new_states,
        }


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child from its :meth:`Tracer.dump`."""
    spans = dump["spans"]
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        calls[s["name"]] += 1
        total[s["name"]] += duration
        self_time[s["name"]] += duration - child_time[s["id"]]

    def counter(name, under=None):
        rows = [r for r in dump["counters"]
                if r[0] == name and (under is None or r[1] == under)]
        return (sum(r[2] for r in rows), sum(r[3] for r in rows),
                sum(r[4] for r in rows))

    succ_calls, succ_s, generated = counter("models.successors")
    _, succ_in_check_s, generated_in_check = counter("models.successors", "kernel.check")
    inv_calls, inv_s, _ = counter("models.invariants")
    _, inv_in_check_s, _ = counter("models.invariants", "kernel.check")
    enc_calls, enc_s, _ = counter("models.encode")
    _, _, render_bytes = counter("reporting.render_bytes")
    transitions, new_states = dump["transitions"], dump["new_states"]
    return {
        "models.successor_calls": succ_calls,
        "models.successor_s": succ_s,
        "models.successors_generated": generated,
        "models.successor_use_ratio": (transitions / generated_in_check
                                       if generated_in_check else 1.0),
        "models.encode_calls": enc_calls,
        "models.encode_s": enc_s,
        "models.invariant_calls": inv_calls,
        "models.invariant_s": inv_s,
        "models.build_s": total["models.build"],
        "kernel.check_s": total["kernel.check"],
        # Span self time already excludes trace reconstruction; per-state
        # calls made under the check span are removed here.
        "kernel.self_s": self_time["kernel.check"] - succ_in_check_s - inv_in_check_s,
        "kernel.transitions": transitions,
        "kernel.new_states": new_states,
        "kernel.dedup_hit_ratio": ((transitions - new_states) / transitions
                                   if transitions else 0.0),
        "kernel.trace_calls": calls["kernel.trace"],
        "kernel.trace_s": total["kernel.trace"],
        "scenario.parse_calls": calls["scenario.parse"],
        "scenario.parse_s": total["scenario.parse"],
        "scenario.validate_s": total["scenario.validate"],
        "reporting.render_calls": calls["reporting.render"],
        "reporting.render_s": total["reporting.render"],
        "reporting.render_bytes": render_bytes,
        "reporting.replay_calls": calls["reporting.replay"],
        "reporting.replay_s": total["reporting.replay"],
        "cli.main_calls": calls["cli.main"],
        "cli.self_s": self_time["cli.main"],
    }
