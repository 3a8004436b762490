import json

from hypothesis import given, settings
from hypothesis import strategies as st

from vranphy.cli import cli_main
from vranphy.deployment import (DeploymentConfig, check_throughput,
                                run_deployment)
from vranphy.metrics import SCHEMA_VERSION, export_report, summarize

_RANKED = ("min", "p10", "q1", "median", "q3", "p90", "max")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=60))
def test_summary_fields_are_ordered_observed_samples(samples):
    dist = summarize(samples)
    values = [getattr(dist, name) for name in _RANKED]
    assert dist.count == len(samples)
    assert all(v in samples for v in values)
    assert values == sorted(values)


def _deploy_report(capsys, tmp_path):
    samples = tmp_path / "samples.jsonl"
    code = cli_main(["--seed", "4", "--format", "json", "deploy",
                     "--profile", "ep-rfsoc", "--instances", "3",
                     "--slots", "300", "--samples-out", str(samples)])
    assert code in (0, 1)
    return json.loads(capsys.readouterr().out), samples.read_text()


def test_deploy_report_reruns_from_its_own_config(capsys, tmp_path):
    report, _ = _deploy_report(capsys, tmp_path)
    assert report.pop("schema") == SCHEMA_VERSION
    bundle = run_deployment(DeploymentConfig.from_dict(report["config"]))
    doc = bundle.as_dict()
    doc["throughput"] = check_throughput(bundle)
    assert report == doc
    assert json.loads(export_report(doc)) == {"schema": SCHEMA_VERSION,
                                              **doc}


def test_raw_samples_summarize_to_the_report(capsys, tmp_path):
    """The samples file is rounded to 3 decimals, so each summary field
    of its samples lies within half a unit of that rounding."""
    report, lines = _deploy_report(capsys, tmp_path)
    samples = {}
    for line in lines.splitlines():
        row = json.loads(line)
        samples.setdefault((str(row["instance"]), row["metric"]),
                           []).append(row["us"])
    assert {inst for inst, _ in samples} == set(report["instances"])
    for (inst, metric), values in samples.items():
        want = report["instances"][inst]["distributions"][metric]
        got = summarize(values).as_dict()
        assert got["count"] == want["count"]
        for name in _RANKED + ("mean",):
            assert abs(got[name] - want[name]) <= 5e-4 + 1e-9
