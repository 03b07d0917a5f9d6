"""Command-line driver: parse a scenario, build its model, check, report.

Exit codes: 0 all checked invariants hold, 1 a violation was found,
2 usage/parse/semantic error, 3 state limit exceeded, interrupted
(Ctrl-C), model integrity error, out of memory or a stdout that cannot be
written. Stdout carries only the report; diagnostics go to stderr, and a
stderr that cannot be written loses them without changing the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys
from pathlib import Path

from .errors import CheckerError, ModelIntegrityError
from .kernel import CheckOptions, Verdict, check, validate_max_states
from .models import build_system, get_model, model_names
from .reporting import render_structured, render_text, replay
from .scenario import ScenarioError, parse_scenario, validate_semantics

_EXIT_BY_VERDICT = {Verdict.PASS: 0, Verdict.VIOLATION: 1,
                    Verdict.LIMIT_EXCEEDED: 3, Verdict.INTERRUPTED: 3}


def _write(text: str) -> None:
    """Write and flush stdout; a stdout Python started without raises EBADF."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.write(text)
    sys.stdout.flush()


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's writer would swallow an OSError
        _write(self.format_help())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and shared by later ones: each
    `parse_args` fills a fresh namespace."""
    parser = _Parser(
        prog="apscheck",
        description="Explicit-state safety checker for the built-in "
                    "permission-system models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a scenario file")
    p_check.add_argument("scenario", type=Path, help="scenario file to check")
    p_check.add_argument("--format", choices=("text", "json"), default="text",
                         help="report format (default: text)")
    p_check.add_argument("--max-states", type=int, default=None, metavar="N",
                         help="override the scenario's state limit")
    p_check.add_argument("--stats-only", action="store_true",
                         help="disable invariants and report reachability "
                              "statistics only")
    p_check.add_argument("--replay", type=Path, default=None, metavar="FILE",
                         help="validate a previously saved JSON report "
                              "against this scenario's system")

    sub.add_parser("list-models", help="list built-in models and their "
                                       "parameters and invariants")
    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckerError(f"cannot read {path}: {exc}") from None


def _say(line: str) -> None:
    """Write a line to stderr, or lose it if stderr cannot be written."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):  # None when Python started without one
        _discard(sys.stderr)


def _discard(stream) -> None:
    """Point a failed stream's descriptor, if any, at devnull for Python's exit flush."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        fd = stream.fileno()
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read(args.scenario))
    for advisory in validate_semantics(scenario):
        _say(f"{args.scenario}: warning: {advisory}")
    max_states = scenario.max_states if args.max_states is None else args.max_states
    validate_max_states(max_states)
    system = build_system(scenario)
    if args.replay is not None:
        result = replay(_read(args.replay), system)
        _write(f"replay: valid against model {system.name}\n" if result else
               f"replay: divergent at step {result.divergent_step}: {result.reason}\n")
        return 0 if result else 1
    report = check(system, CheckOptions(max_states=max_states,
                                        check_invariants=not args.stats_only))
    render = render_structured if args.format == "json" else render_text
    _write(render(report))
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_list_models() -> int:
    _write("".join(f"{info.name}  params: {', '.join(info.params) or '-'}  "
                   f"invariants: {', '.join(info.invariants)}\n"
                   for info in map(get_model, model_names())))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _cmd_list_models() if args.command == "list-models" else _cmd_check(args)
    except ScenarioError as exc:
        code, line = 2, f"{args.scenario}:{exc}"
    except CheckerError as exc:
        code, line = 3 if isinstance(exc, ModelIntegrityError) else 2, f"error: {exc}"
    except KeyboardInterrupt:  # `check` reports its own as a partial report
        code, line = 3, "error: interrupted"
    except MemoryError:
        code, line = 3, "error: out of memory; try a smaller model or state limit"
    except OSError as exc:  # a stdout write: `_read` and `_say` handle their own
        _discard(sys.stdout)
        code, line = 3, f"error: cannot write to stdout: {exc}"
    _say(line)
    return code
