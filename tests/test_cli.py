"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_apps(capsys):
    assert main(["--scale", "tiny", "list-apps"]) == 0
    out = capsys.readouterr().out
    assert "server_oltp_00" in out
    assert "personal_animation" in out


def test_characterize(capsys):
    assert main(["--scale", "tiny", "characterize", "server_oltp_00"]) == 0
    out = capsys.readouterr().out
    assert "taken:" in out
    assert "same-page:" in out


def test_simulate(capsys):
    assert main(["--scale", "tiny", "simulate", "server_oltp_00", "baseline"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "BTB MPKI" in out


def test_simulate_unknown_design(capsys):
    assert main(["--scale", "tiny", "simulate", "server_oltp_00", "nonsense"]) == 2
    assert "unknown design" in capsys.readouterr().err


def test_experiment_tab2(capsys):
    assert main(["--scale", "tiny", "experiment", "tab2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    assert main(["--scale", "tiny", "experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_check_lint_on_repo_exits_zero(capsys):
    assert main(["check", "--lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().err


def test_check_lint_flags_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    assert main(["check", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "REP001" in captured.out
    assert "1 finding(s)" in captured.err


def test_check_defaults_to_lint(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["check", str(clean)]) == 0
    assert "check [lint]:" in capsys.readouterr().err


def test_check_sanitize_runs_clean(capsys):
    assert main(["--scale", "tiny", "check",
                 "--sanitize", "server_oltp_00", "--interval", "512"]) == 0
    err = capsys.readouterr().err
    assert "sanitize: server_oltp_00" in err
    assert "OK" in err


def test_check_sanitize_unknown_design(capsys):
    assert main(["--scale", "tiny", "check", "--sanitize", "server_oltp_00",
                 "--design", "nonsense"]) == 2
    assert "unknown design" in capsys.readouterr().err


def test_simulate_with_sanitize_flag(capsys):
    assert main(["--scale", "tiny", "simulate", "server_oltp_00", "baseline",
                 "--sanitize", "--sanitize-interval", "512"]) == 0
    captured = capsys.readouterr()
    assert "IPC" in captured.out
    assert "sanitizer: OK" in captured.err


def test_sanitize_simulates_over_a_warm_disk_cache(capsys, monkeypatch, tmp_path):
    """``--sanitize`` scopes the disk cache off too: a second sanitized
    run over the same cache dir still simulates, so the checker still
    sees steps."""
    import re

    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "cache"))
    steps = []
    for _ in range(2):
        assert main(["--scale", "tiny", "simulate", "server_oltp_00",
                     "pdede-default", "--sanitize"]) == 0
        err = capsys.readouterr().err
        steps.append(int(re.search(r"over (\d+) steps", err).group(1)))
    assert steps[0] == steps[1] > 0


def test_parser_rejects_bad_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--scale", "galactic", "list-apps"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
