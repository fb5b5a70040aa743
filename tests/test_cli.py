"""Command-line behavior: exit codes, output shapes, file side effects."""

import json
import math

import pytest
from click.testing import CliRunner

from chcrown.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("verify", "export", "table1", "report"):
        assert cmd in result.output


def test_verify_single_point_json(runner, tmp_path):
    out = tmp_path / "rel.json"
    result = runner.invoke(main, ["verify", "relations", "--t", "0.39", "--out", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 0
    assert data["config"]["suite"] == "relations"


def test_verify_csv_to_stdout(runner):
    result = runner.invoke(main, ["verify", "minima", "--t", "0.39", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "suite,t,key,value,margin,pass"


def test_verify_reports_honest_failure_with_exit_one(runner, tmp_path):
    out = tmp_path / "disks.json"
    result = runner.invoke(main, ["verify", "disks", "--t", "0.41", "--out", str(out)])
    assert result.exit_code == 1
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 4


def test_usage_errors_exit_two(runner):
    assert runner.invoke(main, ["verify", "relations", "--t", "0.2"]).exit_code == 2
    assert runner.invoke(main, ["verify", "nonsense"]).exit_code == 2
    assert runner.invoke(main, ["verify", "relations", "--steps", "1"]).exit_code == 2
    assert runner.invoke(main, ["export", "arcs", "--t", "0.375"]).exit_code == 2


def test_jobs_below_one_exit_two(runner):
    result = runner.invoke(main, ["verify", "relations", "--t", "0.39", "--jobs", "0"])
    assert result.exit_code == 2
    assert "jobs" in result.output


def test_export_writes_geometry(runner, tmp_path):
    result = runner.invoke(main, ["export", "arcs", "--t", "0.41",
                                  "--out", str(tmp_path), "--samples", "9"])
    assert result.exit_code == 0
    assert (tmp_path / "arcs.obj").exists()
    assert (tmp_path / "arcs_manifest.json").exists()


def test_table1_prints_eight_arcs(runner):
    result = runner.invoke(main, ["table1"])
    assert result.exit_code == 0
    for name in ("alpha1", "beta4"):
        assert name in result.output


def test_report_merge(runner, tmp_path):
    a, b, merged = (tmp_path / n for n in ("a.json", "b.json", "m.json"))
    assert runner.invoke(main, ["verify", "relations", "--t", "0.39",
                                "--out", str(a)]).exit_code == 0
    assert runner.invoke(main, ["verify", "relations", "--t", "0.41",
                                "--out", str(b)]).exit_code == 0
    result = runner.invoke(main, ["report", "--merge", str(a), "--merge", str(b),
                                  "--out", str(merged)])
    assert result.exit_code == 0
    data = json.loads(merged.read_text())
    ts = {round(r["t"], 4) for r in data["records"]}
    assert {0.39, 0.41} <= ts


def test_extended_precision_is_rejected_outside_relations(runner, tmp_path):
    # only the relations suite reads 40-digit arithmetic; any other suite,
    # `all` included, is an unusable invocation
    for suite in ("dirichlet", "all"):
        result = runner.invoke(main, ["verify", suite, "--t", "0.39", "--precision", "extended"])
        assert result.exit_code == 2, suite
        assert "relations" in result.output
    out = tmp_path / "rel.json"
    result = runner.invoke(main, ["verify", "relations", "--steps", "3",
                                  "--precision", "extended", "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["config"]["precision"] == "extended"


@pytest.mark.parametrize("kind,option,value", [
    ("spheres", "--mesh", "1"),
    ("arcs", "--samples", "1"),
    ("disks", "--rim", "2"),
    ("limitset", "--depth", "0"),
])
def test_export_rejects_sizes_that_make_no_geometry(runner, tmp_path, kind, option, value):
    # a size below the least that makes geometry is an unusable invocation,
    # refused before anything is written
    out = tmp_path / "out"
    result = runner.invoke(main, ["export", kind, "--t", "0.41", "--out", str(out),
                                  option, value])
    assert result.exit_code == 2
    assert "must be at least" in result.output
    assert not out.exists()


_SHARD_RECORD = {"suite": "s", "t": 0.4, "key": "k", "value": 1.0, "margin": 1.0, "pass": True}


def _merge_shard(runner, tmp_path, text, *options):
    shard = tmp_path / "shard.json"
    shard.write_text(text)
    return shard, runner.invoke(main, ["report", "--merge", str(shard), *options])


def _shard(**changes):
    record = {k: v for k, v in {**_SHARD_RECORD, **changes}.items() if v is not None}
    return json.dumps({"config": {}, "records": [record]})


def _refused(result, shard):
    # exit 1 means "a check failed"; bad input is a usage error naming the file
    assert result.exit_code == 2
    assert str(shard) in result.output


def test_report_merge_refuses_invalid_json(runner, tmp_path):
    shard, result = _merge_shard(runner, tmp_path, '{"config": {}, "records": [')
    _refused(result, shard)


def test_report_merge_refuses_a_record_without_t(runner, tmp_path):
    shard, result = _merge_shard(runner, tmp_path, _shard(t=None))
    _refused(result, shard)
    assert "'t'" in result.output


def test_report_merge_refuses_a_file_without_records(runner, tmp_path):
    # it must not merge as a passing empty report
    shard, result = _merge_shard(runner, tmp_path, json.dumps({"config": {}}))
    _refused(result, shard)
    assert "records" in result.output


def test_report_merge_refuses_a_pass_that_is_not_a_json_boolean(runner, tmp_path):
    # bool("false") is True: a string must not pass
    for bad in ("false", "true", 1):
        shard, result = _merge_shard(runner, tmp_path, _shard(**{"pass": bad}))
        _refused(result, shard)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", math.nan],
                         ids=["nan", "inf", "-inf", "bare-NaN"])
def test_report_merge_fails_a_non_finite_record_that_claims_to_pass(runner, tmp_path, bad):
    # the strings are what the report writer emits for non-finite floats;
    # math.nan is dumped as the bare constant NaN, which Python's json reads
    out = tmp_path / "merged.json"
    _, result = _merge_shard(runner, tmp_path, _shard(value=bad), "--out", str(out))
    assert result.exit_code == 1
    assert [r["pass"] for r in json.loads(out.read_text())["records"]] == [False]
