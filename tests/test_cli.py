"""Command line behavior: exit codes, outputs, comparisons."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsnhandoff
from wsnhandoff.cli import main
from wsnhandoff.scenario import reference_scenario, serialize_scenario, strip_wsn
from wsnhandoff.simulation import run, serialize_report


def test_run_builtin_scenario(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["run", "--scenario", "reference", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "phy80211.signals_transmitted=" in stdout
    assert "link: ms1 -> base_station:bs1" in stdout
    assert "digest: " in stdout
    text = out.read_text()
    assert text.startswith("phy80211.signals_transmitted=")
    assert "digest " in text


def test_run_scenario_file_with_overrides(tmp_path, capsys):
    scen = tmp_path / "world.scn"
    scen.write_text(serialize_scenario(reference_scenario()))
    out = tmp_path / "r.txt"
    assert main(["run", "--scenario", str(scen), "--seed", "5",
                 "--until", "25", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    # by t=25 only the steered handoff has happened
    assert "link: ms1 -> base_station:bs1" in stdout
    assert "satellite" not in stdout.split("motes:")[0].split("link:", 1)[1]


def test_run_missing_file_fails(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.scn")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_invalid_scenario_fails(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[node]\na mote 0 0\na mote 0 0\n")
    assert main(["run", "--scenario", str(bad)]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["run"])  # --scenario is required
    assert e.value.code == 2
    capsys.readouterr()


def _cli(*args):
    """Run the CLI in a fresh interpreter with a timeout, so that an input
    that makes it hang fails the test instead of stalling the suite."""
    src = str(Path(wsnhandoff.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "wsnhandoff.cli", *args],
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("until", ["inf", "nan", "-5", "0", "abc"])
def test_bad_until_is_a_usage_error(until):
    proc = _cli("run", "--scenario", "reference", "--until", until)
    assert proc.returncode == 2
    assert "--until" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("params", ["hop_delay = abc", "seed = 1.5",
                                    "coverage_check_period = 0",
                                    "duration = inf"])
def test_bad_scenario_numbers_exit_one_without_traceback(tmp_path, params):
    scen = tmp_path / "bad.scn"
    scen.write_text(f"[params]\n{params}\n[node]\nm1 mote 0 0\n")
    proc = _cli("run", "--scenario", str(scen))
    assert proc.returncode == 1
    assert "invalid scenario" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_compare_auto_baseline(tmp_path, capsys):
    out = tmp_path / "cmp.txt"
    assert main(["compare", "--scenario", "reference", "--auto-baseline",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "QoS improvement: " in stdout
    assert "Desirable" in stdout and "Undesirable" in stdout
    assert out.read_text().rstrip().splitlines()[-1].startswith(
        "QoS improvement:")


def test_compare_report_files(tmp_path, capsys):
    s = reference_scenario()
    base = tmp_path / "base.txt"
    cand = tmp_path / "cand.txt"
    base.write_text(serialize_report(run(strip_wsn(s))))
    cand.write_text(serialize_report(run(s)))
    assert main(["compare", "--baseline", str(base),
                 "--with-wsn", str(cand)]) == 0
    stdout = capsys.readouterr().out
    assert "app_bellman_ford.update_packets_received: Desirable" in stdout
    assert "net_strict_prior.packets_queued: Undesirable" in stdout


def test_compare_epsilon_suppresses_small_moves(tmp_path, capsys):
    s = reference_scenario()
    base = tmp_path / "base.txt"
    cand = tmp_path / "cand.txt"
    base.write_text(serialize_report(run(strip_wsn(s))))
    cand.write_text(serialize_report(run(s)))
    assert main(["compare", "--baseline", str(base), "--with-wsn",
                 str(cand), "--epsilon", "1000000"]) == 0
    stdout = capsys.readouterr().out
    assert "undefined (no significant change)" in stdout


@pytest.mark.parametrize("epsilon", ["-1", "1.5", "abc"])
def test_bad_epsilon_is_a_usage_error(epsilon):
    proc = _cli("compare", "--scenario", "reference", "--auto-baseline",
                "--epsilon", epsilon)
    assert proc.returncode == 2
    assert "--epsilon" in proc.stderr and "Traceback" not in proc.stderr


def test_compare_rejects_corrupt_report(tmp_path, capsys):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    good.write_text(serialize_report(run(strip_wsn(reference_scenario()))))
    bad.write_text("not a report\n")
    assert main(["compare", "--baseline", str(bad),
                 "--with-wsn", str(good)]) == 1
    assert "bad report" in capsys.readouterr().err


def test_compare_requires_a_mode(capsys):
    assert main(["compare"]) == 2
    assert main(["compare", "--auto-baseline"]) == 2
    capsys.readouterr()
