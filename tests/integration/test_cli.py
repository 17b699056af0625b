"""Tests for the command-line interface."""

import pytest

from repro.tools import main


SMALL = ["--employees", "8", "--years", "2"]


def test_generate_to_stdout(capsys):
    assert main(["generate", *SMALL]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<employees")
    assert "tstart=" in out


def test_generate_to_file(tmp_path, capsys):
    target = str(tmp_path / "hdoc.xml")
    assert main(["generate", *SMALL, "-o", target]) == 0
    from repro.xmlkit import parse_xml

    root = parse_xml(open(target).read())
    assert root.name == "employees"


def test_query_translated(capsys):
    assert (
        main(
            [
                "query", *SMALL,
                'count(doc("employees.xml")/employees/employee/salary)',
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip()
    assert int(out) > 0


def test_query_elements(capsys):
    assert (
        main(
            [
                "query", *SMALL,
                'for $s in doc("employees.xml")/employees/employee'
                '[id="100001"]/salary return $s',
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "<salary" in out


def test_query_no_fallback_flag():
    with pytest.raises(Exception):
        main(
            [
                "query", *SMALL, "--no-fallback",
                'for $e in doc("employees.xml")//salary return $e',
            ]
        )


def test_sql_command(capsys):
    assert (
        main(
            [
                "sql", *SMALL,
                'for $s in doc("employees.xml")/employees/employee/salary '
                "return $s",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("SELECT")
    assert "employee_salary" in out


def test_stats_command(capsys):
    assert main(["stats", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "segments:" in out
    assert "employee_salary" in out


def test_bench_command(capsys):
    assert main(["bench", *SMALL, "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "Q1" in out and "Q6" in out


def test_umin_zero_disables_segmentation(capsys):
    assert main(["stats", *SMALL, "--umin", "0"]) == 0
    out = capsys.readouterr().out
    assert "segments:         1" in out


def test_compress_flag(capsys):
    assert main(["stats", *SMALL, "--compress"]) == 0


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_check_command(capsys):
    assert main(["check", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "consistent" in out


def test_check_audits_a_stepwise_background_rewrite(capsys):
    """The CI configuration: the audit runs after background rewrite
    steps of 64 rows actually moved a frozen segment."""
    assert main([
        "check", "--compress", "--maintenance", "background",
        "--maintenance-step-rows", "64",
    ]) == 0
    out = capsys.readouterr().out
    rewrites = int(out.split("; ")[1].split()[0])
    assert "(0 violations" in out and rewrites > 0


def test_report_command(tmp_path, capsys):
    target = str(tmp_path / "report.md")
    assert main([
        "report", "--employees", "10", "--years", "3",
        "--repeats", "1", "-o", target,
    ]) == 0
    text = open(target).read()
    assert "# ArchIS reproduction report" in text
    assert "Fig. 8" in text
    assert "translation cost" in text
