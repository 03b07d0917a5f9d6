"""End-to-end command-line tests over the shipped scenario files."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apscheck import cli, models

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted(p.name for p in (ROOT / "scenarios").glob("*.scn"))
VULN_REPLAY = str(ROOT / "tests" / "golden" / "custom_vuln.json.out")
CLOSED_STDOUT = "error: cannot write to stdout: [Errno 9] Bad file descriptor"

# The steps `_cmd_check` calls through names in `cli` that a test can
# replace, each with the scenario and flags of a `check` that reaches it.
CALLS = {
    "parse_scenario": ["cs1.scn"],
    "validate_semantics": ["cs1.scn"],
    "build_system": ["cs1.scn"],
    "check": ["cs1.scn"],
    "render_text": ["cs1.scn"],
    "render_structured": ["cs1.scn", "--format", "json"],
    "replay": ["custom_vuln.scn", "--replay", VULN_REPLAY],
}


def forgetful(build):
    """`build` whose systems lose each state's successors after its first
    expansion, so the trace search cannot find the violating state's
    parent again."""
    def forgetful_build(scenario):
        system = build(scenario)
        expanded = set()

        def successors(state):
            fresh = state not in expanded
            expanded.add(state)
            return system.successors(state) if fresh else []

        return dataclasses.replace(system, successors=successors)

    return forgetful_build


class TestCheckCommand:
    def test_undeclared_request_warning_goes_to_stderr(self, run_cli, tmp_path):
        # One line per undeclared request: apps in file order, an app's
        # requests by name ascending.
        scn = tmp_path / "warn.scn"
        scn.write_text("model custom_permissions\n"
                       "app zed { request Zeta }\n"
                       "app amy { declare P level normal\n"
                       "          request P request Hex request Ghost }\n")
        code, out, err = run_cli("check", str(scn))
        assert code == 0
        assert err == "".join(
            f"{scn}: warning: app {app!r} requests {name!r}, which no app declares\n"
            for app, name in (("zed", "Zeta"), ("amy", "Ghost"), ("amy", "Hex")))
        assert "warning" not in out

    def test_byte_order_mark_is_skipped(self, run_cli, mask_elapsed, scenarios_dir,
                                        tmp_path):
        # Editors on some platforms save UTF-8 with a leading BOM (U+FEFF).
        plain = scenarios_dir / "cs1.scn"
        marked = tmp_path / "cs1.scn"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            code, out, err = run_cli("check", str(path))
            reports.append((code, mask_elapsed(out), err))
        assert reports[0] == reports[1]
        assert reports[0][0] == 1

    @pytest.mark.parametrize("argv,expected_code", [
        (["cs1.scn"], 1),
        (["cs1.scn", "--replay", str(ROOT / "tests" / "golden" / "cs1.json.out")], 0),
        (["cs1.scn", "--stats-only"], 0),
        (["cs1.scn", "--format", "json"], 1),
        (["cs1.scn", "--max-states", "5"], 3),
        (["custom_safe.scn"], 0),
        (["custom_vuln.scn"], 1),
        (["custom_vuln.scn", "--format", "json"], 1),
        (["custom_vuln.scn", "--replay", VULN_REPLAY], 0),
    ], ids=["check", "replay", "stats-only", "json", "max-states", "custom pass",
            "custom violation", "custom json", "custom replay"])
    def test_a_run_validates_its_scenario_once(self, run_cli, scenarios_dir,
                                               monkeypatch, argv, expected_code):
        # `scenario.py` and `models/__init__.py` each look the validator up
        # in their own namespace.
        calls = []

        def counted(definition, validate=models.validate):
            calls.append(definition)
            return validate(definition)

        for module in ("apscheck.models", "apscheck.scenario"):
            monkeypatch.setattr(f"{module}.validate", counted)
        code, _, err = run_cli("check", str(scenarios_dir / argv[0]), *argv[1:])
        assert (code, err, len(calls)) == (expected_code, "", 1)


class TestReplayFlag:
    def test_replay_of_document_with_byte_order_mark(self, run_cli, scenarios_dir,
                                                     tmp_path):
        code, out, _ = run_cli("check", str(scenarios_dir / "custom_vuln.scn"),
                               "--format", "json")
        assert code == 1
        saved = tmp_path / "report.json"
        saved.write_bytes(b"\xef\xbb\xbf" + out.encode("utf-8"))
        code, out, err = run_cli("check", str(scenarios_dir / "custom_vuln.scn"),
                                 "--replay", str(saved))
        assert (code, out, err) == (
            0, "replay: valid against model custom_permissions\n", "")

    def test_replay_of_tampered_document_exits_one(self, run_cli, scenarios_dir,
                                                   tmp_path):
        code, out, _ = run_cli("check", str(scenarios_dir / "cs1.scn"),
                               "--format", "json")
        doc = json.loads(out)
        doc["trace"][2]["state"]["askedPerms"]["a1"] = "DAN"
        saved = tmp_path / "tampered.json"
        saved.write_text(json.dumps(doc))
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"),
                                 "--replay", str(saved))
        assert (code, out, err) == (1, "replay: divergent at step 3: recorded state "
                                       "differs from the action's successor\n", "")

    @pytest.mark.parametrize("document", ["[" * 200_000, "1" * 5_000],
                             ids=["nesting_too_deep", "integer_too_long"])
    def test_replay_of_document_json_cannot_load_exits_two(self, run_cli, scenarios_dir,
                                                           tmp_path, document):
        saved = tmp_path / "unloadable.json"
        saved.write_text(document)
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"),
                                 "--replay", str(saved))
        # The reason is the JSON reader's own, which differs across Python versions.
        with pytest.raises((ValueError, RecursionError)) as reason:
            json.loads(document)
        assert (code, out, err) == (
            2, "", f"error: report document is not valid JSON: {reason.value}\n")


class TestListModels:
    def test_lists_models_sorted_with_invariants(self, run_cli):
        assert run_cli("list-models") == (0, (
            "aps_cs1  params: apps  invariants: ApsTypeOK, ApsConsistent\n"
            "custom_permissions  params: -  invariants: escalation_free\n"), "")

    def test_usage_error_exits_two(self):
        from apscheck.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_parser_is_not_built_at_import(self, run_python):
        proc = run_python("-c", "import apscheck.cli as c; "
                          "print(c._build_parser.cache_info().currsize)",
                          capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    @pytest.mark.parametrize("name", SHIPPED)
    def test_options_do_not_leak_between_calls(self, run_cli, mask_elapsed,
                                               scenarios_dir, name):
        flag_sets = [(), ("--stats-only",), ("--format", "json"),
                     ("--max-states", "7"), ("--stats-only", "--format", "json")]
        first = {}
        for flags in flag_sets + flag_sets[::-1]:
            code, out, err = run_cli("check", str(scenarios_dir / name), *flags)
            outcome = (code, mask_elapsed(out), err)
            assert first.setdefault(flags, outcome) == outcome, flags

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["check"],
        ["check", "cs1.scn", "--format", "xml"],
        ["check", "cs1.scn", "--max-states", "x"],
        ["--help"],
        ["check", "--help"],
    ])
    def test_errors_and_help_are_repeatable(self, capsys, argv):
        def outcome():
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            return (exc.value.code, *capsys.readouterr())

        cli._build_parser.cache_clear()
        first = outcome()
        assert first[0] in (0, 2)
        assert first[1] or first[2]
        cli.main(["list-models"])
        capsys.readouterr()
        assert outcome() == first


class TestInterruptOutsideCheck:
    @pytest.mark.parametrize("target", [name for name in CALLS if name != "check"])
    def test_interrupt_exits_three_without_a_report(self, run_cli, scenarios_dir,
                                                    monkeypatch, target):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, target, interrupted)
        scenario, *flags = CALLS[target]
        try:
            code, out, err = run_cli("check", str(scenarios_dir / scenario), *flags)
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped cli.main")
        assert code == 3
        assert err == "error: interrupted\n"
        assert out == ""


class TestResourceErrors:
    @pytest.mark.parametrize("target", list(CALLS))
    def test_out_of_memory_exits_three_with_one_line(self, run_cli, scenarios_dir,
                                                      monkeypatch, target):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        scenario, *flags = CALLS[target]
        code, out, err = run_cli("check", str(scenarios_dir / scenario), *flags)
        assert (code, out, err) == (
            3, "", "error: out of memory; try a smaller model or state limit\n")

    def test_nondeterministic_successors_exit_three(self, run_cli, scenarios_dir,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "build_system", forgetful(cli.build_system))
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"))
        assert code == 3
        assert out == ""
        assert re.fullmatch(r"error: state \d+ at depth 2 is not a successor of any "
                            r"state at depth 1; successors must be deterministic\n", err)


# id -> (arguments after `check`, exit code, the one stderr line, or ""
# where the check runs and prints only its report). {tmp} is the test's
# temporary directory, also the working directory, and {scn} the shipped
# scenarios. The scenario's located error comes before `--max-states 0`,
# and that flag's error before reading the replay. A path prints as
# `pathlib.Path` spells it: without `.` parts, repeated or trailing slashes.
ERROR_LINES = {
    "missing_scenario": (
        ["{tmp}/missing.scn"], 2, "error: cannot read {tmp}/missing.scn: "
        "[Errno 2] No such file or directory: '{tmp}/missing.scn'"),
    "missing_scenario_dot_part": (
        ["{tmp}/./missing.scn"], 2, "error: cannot read {tmp}/missing.scn: "
        "[Errno 2] No such file or directory: '{tmp}/missing.scn'"),
    "advisory_dot_relative": (
        ["./warn.scn"], 0,
        "warn.scn: warning: app 'm' requests 'Q', which no app declares"),
    "scenario_trailing_slash": (["{scn}/cs1.scn/"], 1, ""),
    "nul_in_scenario_path": (
        ["{tmp}/a\0b.scn"], 2, "error: cannot read {tmp}/a\0b.scn: embedded null byte"),
    "non_utf8_scenario": (
        ["{tmp}/binary.scn"], 2, "error: cannot read {tmp}/binary.scn: 'utf-8' "
        "codec can't decode byte 0xff in position 0: invalid start byte"),
    "scenario_error": (
        ["{tmp}/bad.scn"], 2, "{tmp}/bad.scn:1:7: semantic: unknown model 'nosuch'"),
    "scenario_error_double_slash": (
        ["{tmp}//bad.scn"], 2, "{tmp}/bad.scn:1:7: semantic: unknown model 'nosuch'"),
    "app_ceiling": (
        ["{tmp}/wide.scn"], 2,
        "{tmp}/wide.scn:257:5: semantic: model custom_permissions takes at most "
        "255 apps"),
    "app_ceiling_before_max_states_zero": (
        ["{tmp}/wide.scn", "--max-states", "0"], 2,
        "{tmp}/wide.scn:257:5: semantic: model custom_permissions takes at most "
        "255 apps"),
    "max_states_zero": (
        ["{scn}/cs1.scn", "--max-states", "0"], 2, "error: max_states must be at least 1"),
    "max_states_zero_replay": (
        ["{scn}/cs1.scn", "--max-states", "0", "--replay", "{tmp}/missing.json"], 2,
        "error: max_states must be at least 1"),
    "missing_replay": (
        ["{scn}/cs1.scn", "--replay", "{tmp}/missing.json"], 2,
        "error: cannot read {tmp}/missing.json: "
        "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
    "missing_replay_dot_part": (
        ["{scn}/cs1.scn", "--replay", "{tmp}/./missing.json"], 2,
        "error: cannot read {tmp}/missing.json: "
        "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
    "nul_in_replay_path": (
        ["{scn}/cs1.scn", "--replay", "{tmp}/a\0b.json"], 2,
        "error: cannot read {tmp}/a\0b.json: embedded null byte"),
    "replay_document": (
        ["{scn}/custom_safe.scn", "--replay", "{tmp}/pass.json"], 2,
        "error: report document carries no trace to replay"),
    "model_integrity": (
        ["{scn}/cs1.scn"], 3, "error: state 7 at depth 2 is not a successor of any "
        "state at depth 1; successors must be deterministic"),
}


class TestErrorLines:
    @pytest.mark.parametrize("case", list(ERROR_LINES))
    def test_exit_code_and_one_stderr_line(self, run_cli, scenarios_dir, tmp_path,
                                           monkeypatch, case):
        (tmp_path / "binary.scn").write_bytes(b"\xff\n")
        (tmp_path / "bad.scn").write_text("model nosuch\n")
        (tmp_path / "warn.scn").write_text("model custom_permissions\n"
                                           "app m { request Q }\n")
        (tmp_path / "wide.scn").write_text("model custom_permissions\n" + "".join(
            f"app z{i} {{ }}\n" for i in range(256)))
        (tmp_path / "pass.json").write_bytes(
            (ROOT / "tests" / "golden" / "custom_safe.json.out").read_bytes())
        if case == "model_integrity":
            monkeypatch.setattr(cli, "build_system", forgetful(cli.build_system))
        monkeypatch.chdir(tmp_path)
        args, code, line = ERROR_LINES[case]
        fill = dict(tmp=tmp_path, scn=scenarios_dir)
        got, out, err = run_cli("check", *(arg.format(**fill) for arg in args))
        # Golden reports pin what a check that runs prints.
        assert (got, bool(out), err) == (
            code, code < 2, line and line.format(**fill) + "\n")


# The CLI spells a path without importing pathlib; each Python's pathlib
# is the reference, repeated and trailing slashes and `.` parts included.
@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.text(alphabet="/. a"))
@example("")
@example("//a/")
@example("///a")
def test_paths_are_spelled_as_pathlib_spells_them(text):
    assert cli._path(text) == str(Path(text))


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, run_python, mask_elapsed):
        proc = run_python("-m", "apscheck", "check", "scenarios/cs1.scn",
                          capture_output=True)
        golden = (ROOT / "tests" / "golden" / "cs1.text.out").read_text(encoding="utf-8")
        assert (proc.returncode, mask_elapsed(proc.stdout), proc.stderr) == (
            1, mask_elapsed(golden), "")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["check", "scenarios/custom_safe.scn"],
        ["check", "scenarios/cs1.scn", "--format", "json"],
        ["check", "scenarios/custom_vuln.scn", "--replay", VULN_REPLAY],
        ["list-models"],
    ], ids=["pass_text", "violation_json", "replay", "list_models"])
    def test_closed_stdout_exits_three_with_one_line(self, run_python, argv, unbuffered):
        # Python ignores SIGPIPE, so a write to a pipe with no reader raises
        # BrokenPipeError, and a buffered write raises it on the flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python("-m", "apscheck", *argv, stdout=write_end,
                              stderr=subprocess.PIPE, env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert re.fullmatch(r"error: cannot write to stdout: [^\n]*\n", proc.stderr)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv,code,line", [
        (["check", "scenarios/custom_safe.scn"], 3, CLOSED_STDOUT),
        (["list-models"], 3, CLOSED_STDOUT),
        (["check", "scenarios/custom_vuln.scn", "--replay", VULN_REPLAY], 3, CLOSED_STDOUT),
        (["check", "scenarios/missing.scn"], 2, "error: cannot read scenarios/missing.scn: "
         "[Errno 2] No such file or directory: 'scenarios/missing.scn'"),
    ], ids=["pass_text", "list_models", "replay", "missing_scenario"])
    def test_stdout_closed_at_start_exits_three_with_one_line(self, run_python, argv,
                                                              code, line, unbuffered):
        # With fd 1 closed, as by `>&-`, Python starts with `sys.stdout` None.
        proc = run_python("-m", "apscheck", *argv, preexec_fn=lambda: os.close(1),
                          stderr=subprocess.PIPE, env={"PYTHONUNBUFFERED": unbuffered})
        assert (proc.returncode, proc.stderr) == (code, line + "\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_three_with_one_line(self, run_python, unbuffered):
        # A passing scenario, so that exit 1 would be a false violation.
        with open("/dev/full", "w") as full:
            proc = run_python("-m", "apscheck", "check", "scenarios/custom_safe.scn",
                              stdout=full, stderr=subprocess.PIPE,
                              env={"PYTHONUNBUFFERED": unbuffered})
        assert (proc.returncode, proc.stderr) == (
            3, "error: cannot write to stdout: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]],
                             ids=["main", "check"])
    def test_help_to_a_full_stdout_exits_three_with_one_line(self, run_python, argv,
                                                             unbuffered):
        with open("/dev/full", "w") as full:
            proc = run_python("-m", "apscheck", *argv, stdout=full, stderr=subprocess.PIPE,
                              env={"PYTHONUNBUFFERED": unbuffered})
        assert (proc.returncode, proc.stderr) == (
            3, "error: cannot write to stdout: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["closed_pipe", "dev_full"])
    @pytest.mark.parametrize("scenario,code,report", [
        ("warn.scn", 0, "No violations found (checked: escalation_free).\n"),
        ("missing.scn", 2, ""),
    ], ids=["advisory", "missing_scenario"])
    def test_unwritable_stderr_keeps_the_exit_code(self, run_python, tmp_path, unbuffered,
                                                   stderr, scenario, code, report):
        if stderr == "dev_full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        (tmp_path / "warn.scn").write_text("model custom_permissions\n"
                                           "app zed { request Zeta }\n")
        if stderr == "closed_pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
        else:
            write_end = os.open("/dev/full", os.O_WRONLY)
        try:
            proc = run_python("-m", "apscheck", "check", str(tmp_path / scenario),
                              stdout=subprocess.PIPE, stderr=write_end,
                              env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stdout.startswith(report) if report else proc.stdout == ""

    def test_interrupt_exits_three_with_a_partial_report(self, tmp_path,
                                                         checkout_env):
        # aps_cs1 with 8 apps has 5**8 + 8*6*5**7 = 4,140,625 states, over
        # ten times what a check stores in the 2 s before the signal: it is
        # still running when the signal arrives, even on a much faster host.
        scn = tmp_path / "long.scn"
        scn.write_text("model aps_cs1\napps 8\ncheck ApsTypeOK\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "apscheck", "check", str(scn)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=checkout_env,
            # A SIGINT ignored by the shell that started pytest would be
            # inherited, and the check would run to its end.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(2.0)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 3
        assert out.startswith("Interrupted after ")
        assert out.splitlines()[0].endswith(
            " distinct states; statistics below are partial.")
        assert "Traceback" not in err


# Scenario text for the contract fuzzer: a model line, the directives that
# model needs and some it accepts, and then random tokens, directives of
# the other model or free text inserted anywhere. The only ASCII digits are
# the integers 0-3 written here, and every piece is followed by a blank, so
# no `apps` value exceeds 3.
APP_BLOCKS = ("app m { declare P level normal request P }",
              "app v { declare P level dangerous }",
              "app a { request P request Q }",
              "app z { declare Q level dangerous request P }")
# model -> (one of these is needed, at most this many of them, optional lines)
DIRECTIVES = {
    "aps_cs1": (("apps 1", "apps 2", "apps 3"), 1,
                ("check ApsTypeOK", "check ApsConsistent", "max_states 3")),
    "custom_permissions": (APP_BLOCKS, 4, ("check escalation_free",)),
}
NOISE = ("{", "}", "#", "model", "apps", "app", "declare", "level", "request",
         "check", "max_states", "normal", "dangerous", "P", "Q", "0", "3", "3_",
         "apps 0", "apps 3", "model nosuch", "check escalation_free") + APP_BLOCKS


@st.composite
def scenario_texts(draw) -> str:
    model = draw(st.sampled_from(sorted(DIRECTIVES)))
    needed, most, optional = DIRECTIVES[model]
    lines = [f"model {model}"]
    lines += draw(st.lists(st.sampled_from(needed), min_size=1, max_size=most, unique=True))
    lines += draw(st.lists(st.sampled_from(optional), max_size=2, unique=True))
    for noise in draw(st.lists(st.sampled_from(NOISE) | st.text(
            st.characters(blacklist_characters="0123456789"), max_size=6), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), noise)
    return "".join(line + draw(st.sampled_from((" ", "\n", "\t"))) for line in lines)


class TestContractFuzz:
    """`cli.main` on scenario text mixing valid directives, random tokens and
    arbitrary Unicode: it returns an exit code of 0-3 and raises nothing,
    prints nothing on stdout with exit 2, and a JSON report of a violation
    replays as valid."""

    # Half the inputs run at the largest limit, where most valid scenarios
    # reach their violation, so that reports get replayed.
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(source=scenario_texts(), fmt=st.sampled_from(("text", "json")),
           max_states=st.just(50) | st.integers(0, 50),
           stats_only=st.booleans())
    def test_exit_codes_stdout_and_replay(self, tmp_path_factory, source, fmt,
                                          max_states, stats_only):
        workdir = tmp_path_factory.getbasetemp() / "contract_fuzz"
        workdir.mkdir(exist_ok=True)
        scenario = workdir / "fuzz.scn"
        scenario.write_bytes(source.encode("utf-8"))
        argv = ["check", str(scenario), "--format", fmt,
                "--max-states", str(max_states)] + ["--stats-only"] * stats_only

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        code, out = run(argv)
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert out == ""
        if code == 1 and fmt == "json":
            report = workdir / "report.json"
            report.write_text(out, encoding="utf-8")
            code, out = run(["check", str(scenario), "--replay", str(report)])
            assert (code, out.startswith("replay: valid")) == (0, True), out


class FailingStream(io.StringIO):
    """A text stream whose write and flush calls fail with `error` from the
    `at`-th call on, as a pipe does once its reader has gone."""

    def __init__(self, at: int, error: int):
        super().__init__()
        self.calls, self.at, self.error = 0, at, error

    def _call(self):
        self.calls += 1
        if self.calls >= self.at:
            raise OSError(self.error, os.strerror(self.error))

    def write(self, text):
        self._call()
        return super().write(text)

    def flush(self):
        self._call()
        super().flush()


# Replays (scenario, document) that exit 0, 1 and 2.
REPLAYS = (("custom_vuln.scn", VULN_REPLAY),
           ("cs1.scn", str(ROOT / "tests" / "golden" / "cs1_apps4.json.out")),
           ("cs1.scn", VULN_REPLAY))


@st.composite
def commands(draw) -> tuple[str, list[str]]:
    """Scenario text and an argv: a check of that text with the contract
    fuzz's options (the text is for `fuzz.scn`), `list-models` or a replay."""
    source = draw(scenario_texts())
    kind = draw(st.sampled_from(("check", "check", "list-models", "replay")))
    if kind == "list-models":
        return source, ["list-models"]
    if kind == "replay":
        scenario, document = draw(st.sampled_from(REPLAYS))
        return source, ["check", str(ROOT / "scenarios" / scenario), "--replay", document]
    return source, (["check", "fuzz.scn", "--format",
                     draw(st.sampled_from(("text", "json"))),
                     "--max-states", str(draw(st.just(50) | st.integers(0, 50)))]
                    + ["--stats-only"] * draw(st.booleans()))


class TestStreamFaults:
    """`cli.main` with a stdout or stderr that fails from some write or
    flush call on, or with no stdout (None, as when Python starts with fd 1
    closed). A failed or missing stdout exits 3 with one error line; a
    failed stderr loses lines but keeps the exit code. Either way the code
    is one of 0-3, it is 1 only where the run without faults gives 1, and
    stderr holds no traceback and at most one line besides the advisories."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(command=commands(), stream=st.sampled_from(("stdout", "stderr", "no stdout")),
           at=st.integers(1, 5), error=st.sampled_from((errno.EPIPE, errno.ENOSPC,
                                                        errno.EIO)))
    def test_exit_code_and_stderr_under_a_failing_stream(self, tmp_path_factory, command,
                                                         stream, at, error):
        source, argv = command
        workdir = tmp_path_factory.getbasetemp() / "stream_faults"
        workdir.mkdir(exist_ok=True)
        (workdir / "fuzz.scn").write_bytes(source.encode("utf-8"))

        def run(out, err):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv), err.getvalue()

        with contextlib.chdir(workdir):
            clean_code, clean_err = run(io.StringIO(), io.StringIO())
            failing = FailingStream(at, error)
            code, err = run(*{"stdout": (failing, io.StringIO()),
                              "stderr": (io.StringIO(), failing),
                              "no stdout": (None, io.StringIO())}[stream])
        if stream == "no stdout":  # every run that would exit 0 or 1 writes a report
            assert code == (3 if clean_code in (0, 1) else clean_code)
            error = errno.EBADF
        assert code in (0, 1, 2, 3)
        assert code == clean_code or (stream != "stderr" and code == 3)
        assert "Traceback" not in err
        advisories = [line for line in clean_err.splitlines() if ": warning: " in line]
        lines = err.splitlines()
        assert lines[:len(advisories)] == advisories[:len(lines)]
        assert len(lines) <= len(advisories) + 1
        if code != clean_code:
            assert lines[-1] == f"error: cannot write to stdout: [Errno {error}] " \
                                f"{os.strerror(error)}"
