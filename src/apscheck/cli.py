"""Command-line driver: parse a scenario, build its model, check, report.

Exit codes: 0 all checked invariants hold, 1 a violation was found,
2 usage/parse/semantic error, 3 state limit exceeded, interrupted
(Ctrl-C), model integrity error, out of memory or a closed stdout.
Stdout carries only the report; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and shared by later ones: each
    `parse_args` fills a fresh namespace."""
    parser = argparse.ArgumentParser(
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


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read(args.scenario))
    for advisory in validate_semantics(scenario):
        print(f"{args.scenario}: warning: {advisory}", file=sys.stderr)
    max_states = scenario.max_states if args.max_states is None else args.max_states
    validate_max_states(max_states)
    system = build_system(scenario)
    if args.replay is not None:
        result = replay(_read(args.replay), system)
        print(f"replay: valid against model {system.name}" if result else
              f"replay: divergent at step {result.divergent_step}: {result.reason}")
        return 0 if result else 1
    report = check(system, CheckOptions(max_states=max_states,
                                        check_invariants=not args.stats_only))
    render = render_structured if args.format == "json" else render_text
    sys.stdout.write(render(report))
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_list_models() -> int:
    for name in model_names():
        info = get_model(name)
        params = ", ".join(info.params) if info.params else "-"
        invariants = ", ".join(info.invariants)
        print(f"{name}  params: {params}  invariants: {invariants}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = _cmd_list_models() if args.command == "list-models" else _cmd_check(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except ScenarioError as exc:
        print(f"{args.scenario}:{exc}", file=sys.stderr)
        return 2
    except CheckerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ModelIntegrityError) else 2
    except KeyboardInterrupt:  # `check` reports its own as a partial report
        print("error: interrupted", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; try a smaller model or state limit", file=sys.stderr)
        return 3
    except BrokenPipeError as exc:
        # Python flushes stdout again at exit: let that flush write to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
