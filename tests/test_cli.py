import csv
import io
import json

import pytest

from vranphy.backends import DEVICE_PROFILES
from vranphy.cli import (EXIT_OK, EXIT_TARGETS_FAILED, EXIT_USAGE,
                         cli_main)


def test_plan_succeeds(capsys):
    assert cli_main(["plan", "--profile", "ep-rfsoc",
                     "--instances", "7"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"profile", "instances"}
    assert doc["profile"] == "ep_rfsoc" and len(doc["instances"]) == 7


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
    ["--seed", "-1", "deploy", "--slots", "10"],
    ["--seed", "-1", "bench-interfaces", "--max-tbs", "1"],
    # a bound that selects no TB count is no benchmark
    ["bench-interfaces", "--max-tbs", "0"],
    ["bench-interfaces", "--max-tbs", "-2"],
    # a CSV without data rows fits no model
    ["calibrate", "--csv", "/dev/null"],
    ["calibrate", "--csv", "HEADER_ONLY"],
    ["calibrate", "--csv", "NO_MEAN_COLUMN"],
    ["calibrate", "--csv", "BAD_N_TB"],
    # a time that is not finite, or a slot without TBs, fits no model
    ["calibrate", "--csv", "NAN_MEAN"],
    ["calibrate", "--csv", "INF_MEAN"],
    ["calibrate", "--csv", "ZERO_N_TB"],
    # a direction other than encode and decode names no model
    ["calibrate", "--csv", "SIDEWAYS"],
    # a deployment runs on its profile's device: there is no override
    ["deploy", "--backend", "t2-emulated"],
])
def test_bad_input_exits_with_usage_error(argv, capsys, tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("100.0\n200.0\n")
    header_only = tmp_path / "header.csv"
    header_only.write_text("direction,generation,n_tb,mean_us\n")
    no_mean = tmp_path / "no_mean.csv"
    no_mean.write_text("direction,generation,n_tb\ndecode,per_cb,1\n")
    bad_n_tb = tmp_path / "bad_n_tb.csv"
    bad_n_tb.write_text("direction,generation,n_tb,mean_us\n"
                        "decode,per_cb,x,5\n")
    files = {"SAMPLES": str(samples), "HEADER_ONLY": str(header_only),
             "NO_MEAN_COLUMN": str(no_mean), "BAD_N_TB": str(bad_n_tb)}
    for name, bad in (("NAN_MEAN", "3,nan"), ("INF_MEAN", "3,inf"),
                      ("ZERO_N_TB", "0,300")):
        path = tmp_path / f"{name}.csv"
        path.write_text("direction,generation,n_tb,mean_us\n" + "".join(
            f"decode,per_tb,{bad if n == 3 else f'{n},{100 * n}'}\n"
            for n in range(1, 5)))
        files[name] = str(path)
    sideways = tmp_path / "sideways.csv"
    sideways.write_text("direction,generation,n_tb,mean_us\n" + "".join(
        f"sideways,per_tb,{n},{100 * n}\n" for n in range(1, 5)))
    files["SIDEWAYS"] = str(sideways)
    argv = [files.get(a, a) for a in argv]
    assert cli_main(argv) == EXIT_USAGE


@pytest.mark.parametrize("text", [
    "100.0\nfast\n", '{"us": 5}\n{"ms": 2}\n',
    # a duration is finite and not negative; NaN and Infinity are not JSON
    "nan\n1\n2\n", "-5\ninf\n", '{"us": -0.5}\n', '{"us": Infinity}\n',
], ids=["not-a-number", "no-us-field", "nan", "negative-then-inf",
        "negative-json", "inf-json"])
def test_malformed_samples_are_a_usage_error(text, capsys, tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text(text)
    assert cli_main(["report", "--samples", str(samples)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("doc", [
    {"n_instances": "7"}, {"n_instances": True}, {"duration_slots": 2.5},
    {"seed": -1}, {"profile": ["hpp"]},
    {"profile": "hpp", "backend": "t2-emulated"},
    {"traffic": {"ul_error_rate": "x"}}, {"traffic": {"ul_error_rate": -1}},
    {"traffic": {"ul_error_rate": 1.5}},
    {"traffic": {"dl_error_rate": float("nan")}},
    {"traffic": {"prbs": "273"}}, {"traffic": []}, [], 1.5,
    # more than the 273-PRB grid or the 14 symbols of a slot
    {"traffic": {"prbs": 300}}, {"traffic": {"symbols": 20}},
], ids=str)
def test_malformed_deploy_config_is_a_usage_error(doc, capsys, tmp_path):
    if isinstance(doc, dict):
        doc = {"duration_slots": 10, **doc}
    config = tmp_path / "deploy.json"
    config.write_text(json.dumps(doc))
    assert cli_main(["--config", str(config), "deploy"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_deploy_config_with_negative_overhead_is_a_usage_error(tmp_path):
    config = tmp_path / "deploy.json"
    config.write_text(json.dumps({"duration_slots": 10,
                                  "traffic": {"overhead": -3}}))
    assert cli_main(["--config", str(config), "deploy"]) == EXIT_USAGE


def test_deploy_config_with_unknown_traffic_key_is_a_usage_error(tmp_path):
    config = tmp_path / "deploy.json"
    config.write_text(json.dumps({"duration_slots": 10,
                                  "traffic": {"ues": 2}}))
    assert cli_main(["--config", str(config), "deploy"]) == EXIT_USAGE


@pytest.mark.parametrize("backend", sorted(DEVICE_PROFILES))
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
