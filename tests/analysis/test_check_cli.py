"""Tests for `repro check` and `repro detect --sanitize`."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
PARALLEL_SRC = Path(__file__).parents[2] / "src" / "repro" / "parallel"


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "g.txt"
    rc = main([
        "generate", "lfr", "--vertices", "200", "--avg-degree", "8",
        "--max-degree", "20", "--mixing", "0.15",
        "--output", str(path), "--seed", "7",
    ])
    assert rc == 0
    return path


class TestCheckCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.paths == ["src/repro/parallel"]
        assert args.select is None

    def test_clean_tree_exits_zero(self, capsys):
        rc = main(["check", str(PARALLEL_SRC)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_fixtures_exit_one(self, capsys):
        rc = main(["check", str(FIXTURES)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "spmd-cross-rank" in out
        assert "in-table-mutation" in out
        assert "out-table-reuse" in out
        assert "packed-key-arithmetic" in out

    def test_findings_are_path_line_col_formatted(self, capsys):
        rc = main(["check", str(FIXTURES / "bad_out_table.py")])
        assert rc == 1
        line = capsys.readouterr().out.splitlines()[0]
        assert "bad_out_table.py:9:" in line
        assert "[out-table-reuse]" in line

    def test_select_restricts_checkers(self, capsys):
        rc = main([
            "check", str(FIXTURES), "--select", "packed-key-arithmetic",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "packed-key-arithmetic" in out
        assert "spmd-cross-rank" not in out

    def test_unknown_checker_exits_two(self, capsys):
        rc = main(["check", str(FIXTURES), "--select", "bogus"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        rc = main(["check", "no/such/dir"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_list_checkers(self, capsys):
        rc = main(["check", "--list-checkers"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spmd-cross-rank" in out
        assert "MessageBus" in out  # descriptions are shown


class TestCheckProfiles:
    def test_default_profile_is_spmd(self):
        args = build_parser().parse_args(["check"])
        assert args.profile == "spmd"

    def test_concurrency_profile_skips_spmd_checkers(self, capsys):
        rc = main([
            "check", str(FIXTURES), "--profile", "concurrency",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "unguarded-shared-state" in out
        assert "lock-order-inversion" in out
        assert "spmd-cross-rank" not in out

    def test_all_profile_unions_both(self, capsys):
        rc = main(["check", str(FIXTURES), "--profile", "all"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "spmd-cross-rank" in out
        assert "unguarded-shared-state" in out

    def test_severity_error_hides_warnings(self, capsys):
        rc = main([
            "check", str(FIXTURES / "bad_blocking_under_lock.py"),
            "--profile", "concurrency", "--severity", "error",
        ])
        # the only findings there are warnings, so filtered run is clean
        assert rc == 0
        rc = main([
            "check", str(FIXTURES / "bad_blocking_under_lock.py"),
            "--profile", "concurrency",
        ])
        assert rc == 1
        assert "warning" in capsys.readouterr().out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "2 = usage error" in out


class TestCheckOutputFormats:
    def test_json_format_parses(self, capsys):
        import json

        rc = main([
            "check", str(FIXTURES / "bad_out_table.py"), "--format", "json",
        ])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["checker"] == "out-table-reuse"
        assert doc["findings"][0]["line"] == 9

    def test_json_clean_run_emits_empty_list(self, capsys):
        import json

        rc = main(["check", str(PARALLEL_SRC), "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"findings": []}

    def test_sarif_format_parses(self, capsys):
        import json

        rc = main([
            "check", str(FIXTURES / "bad_out_table.py"), "--format", "sarif",
        ])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "out-table-reuse"


class TestBaselineWorkflow:
    def test_write_then_apply_baseline_round_trips(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = main([
            "check", str(FIXTURES / "bad_out_table.py"),
            "--write-baseline", str(baseline),
        ])
        assert rc == 0
        assert baseline.exists()
        capsys.readouterr()
        rc = main([
            "check", str(FIXTURES / "bad_out_table.py"),
            "--baseline", str(baseline),
        ])
        assert rc == 0  # the one finding is baselined away

    def test_new_finding_escapes_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = main([
            "check", str(FIXTURES / "bad_out_table.py"),
            "--write-baseline", str(baseline),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "check", str(FIXTURES), "--baseline", str(baseline),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "bad_cross_rank.py" in out  # not baselined: still reported
        assert "bad_out_table.py:9:" not in out  # baselined: suppressed

    def test_stale_baseline_entries_noted(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = main([
            "check", str(FIXTURES / "bad_out_table.py"),
            "--write-baseline", str(baseline),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "check", str(FIXTURES / "clean_kernel.py"),
            "--baseline", str(baseline),
        ])
        assert rc == 0
        assert "stale" in capsys.readouterr().err


class TestListSuppressions:
    def test_audit_lists_inline_allows(self, capsys):
        src = Path(__file__).parents[2] / "src" / "repro"
        rc = main(["check", str(src), "--list-suppressions"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workers.py" in out
        assert "blocking-call-under-lock" in out

    def test_unknown_checker_in_allow_warned(self, tmp_path, capsys):
        bad = tmp_path / "s.py"
        bad.write_text("x = 1  # lint: allow(made-up-rule)\n")
        rc = main(["check", str(bad), "--list-suppressions"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "made-up-rule" in out
        assert "WARNING" in out

    def test_no_suppressions_summary(self, tmp_path, capsys):
        clean = tmp_path / "c.py"
        clean.write_text("x = 1\n")
        rc = main(["check", str(clean), "--list-suppressions"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 suppression site(s)" in captured.err


class TestDetectSanitize:
    def test_parallel_with_sanitize(self, edge_file, capsys):
        rc = main([
            "detect", str(edge_file), "--algorithm", "parallel",
            "--ranks", "2", "--sanitize",
        ])
        assert rc == 0
        assert "parallel: Q=" in capsys.readouterr().out

    def test_lpa_with_sanitize(self, edge_file, capsys):
        rc = main([
            "detect", str(edge_file), "--algorithm", "lpa", "--sanitize",
        ])
        assert rc == 0
        assert "label propagation: Q=" in capsys.readouterr().out

    def test_sequential_with_sanitize_rejected(self, edge_file, capsys):
        rc = main([
            "detect", str(edge_file), "--algorithm", "sequential",
            "--sanitize",
        ])
        assert rc == 2
        assert "--sanitize" in capsys.readouterr().err
