import csv
import io
import json

import pytest

from vranphy.backends import EMULATED_FACTORIES
from vranphy.cli import (EXIT_OK, EXIT_TARGETS_FAILED, EXIT_USAGE,
                         cli_main)


def test_plan_succeeds(capsys):
    assert cli_main(["plan", "--profile", "ep-rfsoc",
                     "--instances", "7"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and len(doc["instances"]) == 7


def test_deploy_meets_and_misses_targets(capsys):
    assert cli_main(["--format", "json", "deploy", "--instances", "2",
                     "--slots", "100"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["throughput"]["all_pass"]
    # five slots leave the first D slot unprepared: DL goodput falls short
    assert cli_main(["deploy", "--slots", "5"]) == EXIT_TARGETS_FAILED


@pytest.mark.parametrize("argv", [
    [],
    ["deploy", "--slots", "0"],
    ["deploy", "--profile", "nowhere"],
    ["plan", "--profile", "ep-rfsoc", "--instances", "8"],
    ["bench-interfaces", "--backend", "nowhere"],
    ["report", "--samples", "/nonexistent/samples.txt"],
    # these commands write JSON only: an explicit csv request is an error
    ["--format", "csv", "plan", "--profile", "ep-rfsoc", "--instances", "1"],
    ["--format", "csv", "calibrate"],
    ["--format", "csv", "report", "--samples", "SAMPLES"],
])
def test_bad_input_exits_with_usage_error(argv, capsys, tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("100.0\n200.0\n")
    argv = [str(samples) if a == "SAMPLES" else a for a in argv]
    assert cli_main(argv) == EXIT_USAGE


def test_deploy_config_with_unknown_traffic_key_is_a_usage_error(tmp_path):
    config = tmp_path / "deploy.json"
    config.write_text(json.dumps({"duration_slots": 10,
                                  "traffic": {"ues": 2}}))
    assert cli_main(["--config", str(config), "deploy"]) == EXIT_USAGE


@pytest.mark.parametrize("backend", sorted(EMULATED_FACTORIES))
def test_bench_interfaces_runs_on_every_emulated_backend(backend, capsys):
    assert cli_main(["bench-interfaces", "--backend", backend,
                     "--max-tbs", "2"]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2 * 3 * 2
    assert {r["direction"] for r in rows} == {"decode", "encode"}


@pytest.mark.parametrize("argv", [
    ["--format", "json", "bench-interfaces", "--max-tbs", "1"],
    ["bench-interfaces", "--max-tbs", "1", "--format", "json"],
    ["--format", "csv", "bench-interfaces", "--max-tbs", "1",
     "--format", "json"],
])
def test_format_is_accepted_before_or_after_the_subcommand(argv, capsys):
    assert cli_main(argv) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 2 * 3



def test_format_is_accepted_after_deploy(capsys):
    assert cli_main(["deploy", "--slots", "100", "--format", "json"]) \
        == EXIT_OK
    assert json.loads(capsys.readouterr().out)["throughput"]["all_pass"]
