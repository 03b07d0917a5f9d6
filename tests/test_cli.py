"""End-to-end command-line tests over the shipped scenario files."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest


class TestCheckCommand:
    def test_violation_exits_one_with_trace_on_stdout(self, run_cli, scenarios_dir):
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"))
        assert code == 1
        assert "Error: invariant ApsConsistent is violated." in out
        assert "State 2: <Ask(a1, NOR)>" in out
        assert "State 3: <Grant(a1)>" in out
        assert err == ""

    def test_json_format_emits_a_structured_document(self, run_cli, scenarios_dir):
        code, out, err = run_cli("check", str(scenarios_dir / "custom_vuln.scn"),
                                 "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "violation"
        assert doc["violated_invariant"] == "escalation_free"
        assert len(doc["trace"]) == 4
        assert err == ""

    def test_passing_scenario_exits_zero(self, run_cli, scenarios_dir):
        code, out, err = run_cli("check", str(scenarios_dir / "custom_safe.scn"))
        assert code == 0
        assert "No violations found" in out

    def test_missing_file_exits_two(self, run_cli, tmp_path):
        code, out, err = run_cli("check", str(tmp_path / "missing.scn"))
        assert code == 2
        assert out == ""
        assert "missing.scn" in err

    def test_parse_error_exits_two_with_location(self, run_cli, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("model nosuch\n")
        code, out, err = run_cli("check", str(bad))
        assert code == 2
        assert out == ""
        assert f"{bad}:1:7: semantic:" in err

    def test_max_states_override_exits_three_on_limit(self, run_cli, scenarios_dir):
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"),
                                 "--max-states", "5")
        assert code == 3
        assert "partial" in out

    def test_max_states_must_be_positive(self, run_cli, scenarios_dir):
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"),
                                 "--max-states", "0")
        assert code == 2
        assert out == ""

    def test_stats_only_disables_invariants(self, run_cli, scenarios_dir):
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"),
                                 "--stats-only")
        assert code == 0
        assert "no invariants checked" in out
        assert "distinct states: 11" in out

    def test_scenario_max_states_is_honored(self, run_cli, tmp_path):
        scn = tmp_path / "limited.scn"
        scn.write_text("model aps_cs1\napps 1\nmax_states 3\ncheck ApsTypeOK\n")
        code, out, err = run_cli("check", str(scn))
        assert code == 3

    @staticmethod
    def many_apps_scenario(path, apps: int):
        path.write_text("model custom_permissions\n" + "".join(
            f"app z{i} {{ declare P level normal request P }}\n" for i in range(apps))
            + "max_states 10\n")
        return str(path)

    def test_domain_beyond_one_byte_is_rejected_at_build(self, run_cli, tmp_path):
        # 300 apps give the registry's definer variable 301 values.
        code, out, err = run_cli("check", self.many_apps_scenario(
            tmp_path / "wide.scn", 300))
        assert code == 2
        assert out == ""
        assert err == ("error: variable 'registryDefiner' has 301 domain values; "
                       "the one-byte-per-slot state encoding holds at most 256\n")

    def test_domain_of_exactly_256_values_is_checked(self, run_cli, tmp_path):
        code, out, err = run_cli("check", self.many_apps_scenario(
            tmp_path / "widest.scn", 255))
        assert code == 3
        assert "State limit reached after 10 distinct states" in out
        assert err == ""

    def test_undeclared_request_warning_goes_to_stderr(self, run_cli, tmp_path):
        scn = tmp_path / "warn.scn"
        scn.write_text("model custom_permissions\n"
                       "app only { request Ghost }\ncheck escalation_free\n")
        code, out, err = run_cli("check", str(scn))
        assert code == 0
        assert "warning" in err and "Ghost" in err
        assert "warning" not in out


class TestReplayFlag:
    def test_replay_of_own_document_exits_zero(self, run_cli, scenarios_dir,
                                               tmp_path):
        code, out, _ = run_cli("check", str(scenarios_dir / "custom_vuln.scn"),
                               "--format", "json")
        assert code == 1
        saved = tmp_path / "report.json"
        saved.write_text(out)
        code, out, err = run_cli("check", str(scenarios_dir / "custom_vuln.scn"),
                                 "--replay", str(saved))
        assert code == 0
        assert "replay: valid" in out

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
        assert code == 1
        assert "divergent at step 3" in out

    def test_replay_of_pass_document_exits_two(self, run_cli, scenarios_dir,
                                               tmp_path):
        code, out, _ = run_cli("check", str(scenarios_dir / "custom_safe.scn"),
                               "--format", "json")
        assert code == 0
        saved = tmp_path / "pass.json"
        saved.write_text(out)
        code, out, err = run_cli("check", str(scenarios_dir / "custom_safe.scn"),
                                 "--replay", str(saved))
        assert code == 2
        assert "no trace" in err

    def test_replay_of_missing_file_exits_two(self, run_cli, scenarios_dir,
                                              tmp_path):
        code, out, err = run_cli("check", str(scenarios_dir / "cs1.scn"),
                                 "--replay", str(tmp_path / "nope.json"))
        assert code == 2


class TestListModels:
    def test_lists_models_sorted_with_invariants(self, run_cli):
        code, out, err = run_cli("list-models")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("aps_cs1")
        assert "ApsTypeOK, ApsConsistent" in lines[0]
        assert lines[1].startswith("custom_permissions")
        assert "escalation_free" in lines[1]

    def test_usage_error_exits_two(self):
        from apscheck.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, scenarios_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "apscheck", "check",
             str(scenarios_dir / "cs1.scn")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ApsConsistent" in proc.stdout
