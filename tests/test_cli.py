"""Command line behavior: exit codes, outputs, comparisons."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from invariants import check_run
from worlds import DISCOVERY_FROM_A_MOTE_POINT

import wsnhandoff
from wsnhandoff import cli
from wsnhandoff.cli import main
from wsnhandoff.scenario import (load_scenario, reference_scenario,
                                 serialize_scenario, strip_wsn)
from wsnhandoff.report import render_run, serialize_report
from wsnhandoff.simulation import Simulation, run


# SHA-256 of what the CLI prints and writes for the reference corridor.  The
# report text has one writer per layout, so any byte that moves shows here.
RUN_STDOUT_SHA = \
    "1dae5de770fef22786986eb38038a51077bd93814ef8d8607cafb8d3c8243300"
RUN_FILE_SHA = \
    "08f0b590850ec0905ad44622ff09a64b0aea79dadf1c54a9d8c491210384d48e"
# compare prints and writes the same bytes, from a re-run or saved reports
COMPARE_SHA = \
    "9d23841bf29f2b41c5249ce3a7eb6252bc677ab7408a8279c8eab207538bd779"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def reference_reports(tmp_path_factory):
    """Report files of the reference corridor without and with its motes."""
    s, folder = reference_scenario(), tmp_path_factory.mktemp("reports")
    base, cand = folder / "base.report", folder / "cand.report"
    base.write_text(serialize_report(run(strip_wsn(s))))
    cand.write_text(serialize_report(run(s)))
    return base, cand


def test_run_text_is_pinned(tmp_path, capsys):
    out = tmp_path / "with-wsn.report"
    assert main(["run", "--scenario", "reference", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert _sha(stdout.encode()) == RUN_STDOUT_SHA
    assert _sha(out.read_bytes()) == RUN_FILE_SHA
    # what a re-pinned layout must still show
    assert "phy80211.signals_transmitted=" in stdout
    assert "link: ms1 -> base_station:bs1" in stdout
    assert "digest: " in stdout
    text = out.read_text()
    assert text.startswith("phy80211.signals_transmitted=")
    assert "digest " in text


def test_compare_auto_baseline_text_is_pinned(tmp_path, capsys):
    out = tmp_path / "cmp.txt"
    assert main(["compare", "--scenario", "reference", "--auto-baseline",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert _sha(stdout.encode()) == COMPARE_SHA
    assert _sha(out.read_bytes()) == COMPARE_SHA
    # what a re-pinned layout must still show
    assert "QoS improvement: " in stdout
    assert "Desirable" in stdout and "Undesirable" in stdout
    assert out.read_text().rstrip().splitlines()[-1].startswith(
        "QoS improvement:")


def test_compare_report_files_text_is_pinned(tmp_path, capsys,
                                             reference_reports):
    base, cand = reference_reports
    out = tmp_path / "cmp.txt"
    assert main(["compare", "--baseline", str(base), "--with-wsn", str(cand),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert _sha(stdout.encode()) == COMPARE_SHA
    assert _sha(out.read_bytes()) == COMPARE_SHA
    assert "app_bellman_ford.update_packets_received: Desirable" in stdout
    assert "net_strict_prior.packets_queued: Undesirable" in stdout


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
    err = capsys.readouterr().err
    assert "error" in err and str(tmp_path / "nope.scn") in err


def test_run_invalid_scenario_fails(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[node]\na mote 0 0\na mote 0 0\n")
    assert main(["run", "--scenario", str(bad)]) == 1
    assert f"error: {bad}: invalid scenario" in capsys.readouterr().err


def test_an_int_too_large_for_a_float_is_one_error_naming_the_file(
        tmp_path, capsys):
    # once an OverflowError traceback
    bad = tmp_path / "big.scn"
    bad.write_text(f"[params]\nqueue_capacity = {'9' * 400}\n"
                   "[node]\nm1 mote 0 0\n")
    assert main(["run", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}: invalid scenario: queue_capacity must be "
                   "finite"], err


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
                                    "duration = inf",
                                    pytest.param(f"default_ttl = {'9' * 400}",
                                                 id="default_ttl = 9...9")])
def test_bad_scenario_numbers_exit_one_without_traceback(tmp_path, params):
    scen = tmp_path / "bad.scn"
    scen.write_text(f"[params]\n{params}\n[node]\nm1 mote 0 0\n")
    proc = _cli("run", "--scenario", str(scen))
    assert proc.returncode == 1
    assert "invalid scenario" in proc.stderr
    assert "Traceback" not in proc.stderr


def _fails_cleanly(proc):
    """Exit 1 with one `error:` line on stderr and no traceback."""
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("out", [False, True], ids=["no-out", "bad-out"])
def test_an_override_that_breaks_a_rule_is_one_error(tmp_path, out):
    # 1e300 is a valid --until, but no period can advance a clock that far;
    # the scenario is judged before --out, which names a directory here
    proc = _cli("run", "--scenario", "reference", "--until", "1e300",
                *(["--out", str(tmp_path)] if out else []))
    _fails_cleanly(proc)
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: invalid scenario: coverage_check_period is too small to "
        "advance the clock; tx_slot is too small to advance the clock; "
        "dv_period is too small to advance the clock; app_interval is too "
        "small to advance the clock\n")


def test_a_walk_that_breaks_a_rule_is_one_error_naming_the_file(tmp_path):
    scen = tmp_path / "still.scn"
    scen.write_text("[node]\nms1 mobile_station 0 0\n[mobility]\n"
                    "ms1 speed=0 waypoints=5,5\n")
    proc = _cli("run", "--scenario", str(scen))
    _fails_cleanly(proc)
    assert proc.stderr.startswith(f"error: {scen}: invalid scenario: ")
    assert "mobility of 'ms1'" in proc.stderr


# ms1 walks onto m01's point at t = 8
COLOCATED_WALK = """[node]
bs1 base_station -300 0
m01 mote 64 0
ms1 mobile_station 0 0
[mobility]
ms1 speed=8 halt=1 waypoints=1024,0
"""

# ms1 walks from bs1 along a three-row mote strip towards an empty stretch;
# with no base station within steering range and no satellite, the
# switching centre has nothing to offer
NO_SATELLITE_WORLD = "\n".join(
    ["[node]", "bs1 base_station 0 200", "bs2 base_station 3000 200",
     "msc1 msc 1500 900"]
    + [f"m{x}y{y} mote {x} {y}"
       for y in (120, 200, 280) for x in range(100, 800, 100)]
    + ["ms1 mobile_station 10 190", "[mobility]",
       "ms1 speed=20 halt=1 waypoints=2000,190", ""])


WORLDS_THAT_FAILED_MID_RUN = pytest.mark.parametrize("world", [
    COLOCATED_WALK, DISCOVERY_FROM_A_MOTE_POINT.format(mx_x=455),
    NO_SATELLITE_WORLD],
    ids=["colocated-walk", "colocated-transmit", "no-satellite"])


@WORLDS_THAT_FAILED_MID_RUN
def test_co_located_radios_and_no_satellite_run_to_the_end(tmp_path, world):
    # radios on one point hear each other at reference power, and a
    # switching centre with nothing to offer decides nothing
    scen = tmp_path / "world.scn"
    scen.write_text(world)
    out = tmp_path / "r.report"
    proc = _cli("run", "--scenario", str(scen), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    sim = Simulation(load_scenario(world))
    report = check_run(sim)
    assert sim.queue.clock == sim.s.duration
    assert proc.stdout == render_run(report)
    assert out.read_text() == serialize_report(report)


@WORLDS_THAT_FAILED_MID_RUN
@pytest.mark.parametrize("out", ["new", "existing", "scenario"])
def test_failing_run_leaves_the_out_path_as_it_was(tmp_path, monkeypatch,
                                                    capsys, world, out):
    scen = tmp_path / "world.scn"
    scen.write_text(world)
    old = tmp_path / "old.report"
    old.write_bytes(b"an earlier report\n")
    path = {"new": tmp_path / "r.report", "existing": old,
            "scenario": scen}[out]

    real_run = cli.run

    def failing_run(scenario):
        # the world runs to its end; the failure comes after it
        real_run(scenario)
        raise OSError("the run failed")

    monkeypatch.setattr(cli, "run", failing_run)
    assert main(["run", "--scenario", str(scen), "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: the run failed"]
    assert captured.out == ""
    # a failed run creates no file and leaves an existing one byte for byte
    assert not (tmp_path / "r.report").exists()
    assert old.read_bytes() == b"an earlier report\n"
    assert scen.read_text() == world


@pytest.mark.parametrize("command", ["run", "compare"])
def test_file_that_is_not_utf8_exits_one(tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("[node]\nm1 mote 0 0  # caf\xe9\n".encode("latin-1"))
    if command == "run":
        proc = _cli("run", "--scenario", str(path))
    else:
        proc = _cli("compare", "--baseline", str(path),
                    "--with-wsn", str(path))
    _fails_cleanly(proc)
    assert f"error: {path}: " in proc.stderr


def test_run_out_to_a_directory_exits_one(tmp_path):
    proc = _cli("run", "--scenario", "reference", "--out", str(tmp_path))
    _fails_cleanly(proc)
    assert f"error: {tmp_path}: " in proc.stderr
    assert proc.stdout == ""  # rejected before the run, not after it


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses writes")
def test_run_out_write_error_names_the_path():
    proc = _cli("run", "--scenario", "reference", "--until", "2",
                "--out", "/dev/full")
    _fails_cleanly(proc)
    assert "error: /dev/full: " in proc.stderr
    assert os.path.exists("/dev/full")


def test_compare_epsilon_suppresses_small_moves(capsys, reference_reports):
    base, cand = reference_reports
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


def test_compare_rejects_corrupt_report(tmp_path, capsys, reference_reports):
    good = reference_reports[0]
    bad = tmp_path / "bad.txt"
    bad.write_text("not a report\n")
    assert main(["compare", "--baseline", str(bad),
                 "--with-wsn", str(good)]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: bad report" in err and str(good) not in err


@pytest.mark.parametrize("argv", [
    [], ["--auto-baseline"],
    # one form or the other, not both: the files named need not exist
    ["--scenario", "reference", "--auto-baseline", "--baseline", "nope"],
    ["--scenario", "reference", "--auto-baseline", "--with-wsn", "nope"],
    ["--scenario", "reference", "--baseline", "nope", "--with-wsn", "nope"],
])
def test_compare_requires_a_mode(argv, capsys):
    assert main(["compare", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
