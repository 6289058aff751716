"""scripts/check_bench_run.py, the gate each CI bench smoke run goes
through: on fixed run lines it passes a clean run, fails a run with a
wrong op, a failed op, no op attempted (``attempted`` 0 or missing), or
a named metric that is 0 or missing, prefixes the summary with
``--workload``, and exits 1 on empty input or on a last line that is not
a run's JSON, naming the workload."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_bench_run.py"
METRICS = ["patterns.extract_s", "patterns.pairs"]


@pytest.fixture(scope="module")
def check_bench_run():
    spec = importlib.util.spec_from_file_location("check_bench_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(correct=True, attempted=12, failed=0, **metrics):
    values = {"patterns.extract_s": 0.125, "patterns.pairs": 8249, **metrics}
    run = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v} for name, v in values.items() if v is not None},
    }
    if attempted is None:
        del run["attempted"]
    return json.dumps(run)


def test_clean_run_passes(check_bench_run):
    summary, ok = check_bench_run.check(run_line(), METRICS)
    assert ok
    assert summary == (
        "correct True attempted 12 failed 0 patterns.extract_s 0.125 patterns.pairs 8249"
    )


@pytest.mark.parametrize(
    "line",
    [
        run_line(correct=False),
        run_line(attempted=0),
        run_line(attempted=None),
        run_line(failed=1),
        run_line(**{"patterns.pairs": 0}),
        run_line(**{"patterns.pairs": None}),
    ],
    ids=[
        "not correct", "no op attempted", "attempted missing", "one failed op",
        "metric at 0", "metric missing",
    ],
)
def test_faulty_run_fails(check_bench_run, line):
    _, ok = check_bench_run.check(line, METRICS)
    assert not ok


def test_missing_metric_reads_none(check_bench_run):
    summary, _ = check_bench_run.check(run_line(**{"patterns.pairs": None}), METRICS)
    assert summary.endswith("patterns.pairs None")


def run_main(module, monkeypatch, stdin, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return module.main(argv)


def test_main_reads_the_last_line_and_prefixes_the_workload(
    check_bench_run, monkeypatch, capsys
):
    stdin = "writing catalog\n" + run_line() + "\n"
    assert run_main(check_bench_run, monkeypatch, stdin, ["--workload", "cli-batch"]) == 0
    assert capsys.readouterr().out == "cli-batch correct True attempted 12 failed 0\n"


@pytest.mark.parametrize("attempted", [0, None], ids=["no op attempted", "attempted missing"])
def test_main_exits_1_on_a_run_that_attempted_no_op(
    check_bench_run, monkeypatch, capsys, attempted
):
    stdin = run_line(attempted=attempted) + "\n"
    assert run_main(check_bench_run, monkeypatch, stdin, ["--workload", "x"]) == 1
    assert capsys.readouterr().out == f"x correct True attempted {attempted} failed 0\n"


def test_main_exits_1_on_a_faulty_run(check_bench_run, monkeypatch, capsys):
    stdin = run_line(**{"patterns.pairs": 0}) + "\n"
    assert run_main(check_bench_run, monkeypatch, stdin, METRICS) == 1
    assert capsys.readouterr().out.endswith("patterns.pairs 0\n")


def test_main_exits_1_on_empty_input(check_bench_run, monkeypatch, capsys):
    assert run_main(check_bench_run, monkeypatch, "", ["--workload", "open-vocab"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no output from bench/run.py\n"


@pytest.mark.parametrize(
    "last", ["Traceback: boom", "x" * 100, "{}", "[1, 2]", '{"metrics": 1}'],
    ids=["text", "long text", "empty object", "array", "no run keys"],
)
def test_main_names_the_workload_on_a_line_that_is_no_run(
    check_bench_run, monkeypatch, capsys, last
):
    stdin = run_line() + "\n" + last + "\n"
    assert run_main(check_bench_run, monkeypatch, stdin, ["--workload", "x"] + METRICS) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"x no run line: {last[:80]}\n"
