"""Self-test of the benchmark at tiny sizes (--scale 64).

    python3 -m pytest -q perfbench/test_selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong or missing expected hash is reported as a failure, that the
tracer's non-root self times cover the traced wall time and stop covering it
when an entry point vanishes, and that the benchmark refuses to report
without the program's source.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ENTRY_POINTS, Tracer  # noqa: E402

SCALE = 64


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    return result("pinned-grand", 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(spec, traced, trace):
    res = traced if trace else result("tail", 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert [m["name"] for m in named] == list(res["metrics"])
    for m in named:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrong_expected_hash_is_a_failure(tmp_path, monkeypatch, capsys):
    configs = [cfg for _, cfg in workloads.campaigns("tail", 3, SCALE)]
    record = {
        "expected_sha256": {run.config_key(cfg): "0" * 64 for cfg in configs},
        "recorded_seeds": [3],
        "held_out_seed": 1017,
    }
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    monkeypatch.setattr(run, "RECORD", str(path))
    assert run.main(["--workload", "tail", "--seed", "3", "--seconds", "0.1", "--scale", str(SCALE)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    res = json.loads(lines[-1])
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] == run.MIN_REPS * len(workloads.campaigns("tail", 3))
    assert res["metrics"]["passed_run_share"]["value"] == 0.0
    assert any(ln.startswith("FAIL") and "sha256" in ln for ln in lines)


def test_count_or_repeat_mismatch_is_a_failure():
    rep = run.run_rep("tail", 3, SCALE, 1, time.perf_counter() + 60)
    labels = [label for label, _ in workloads.campaigns("tail", 3, SCALE)]
    label, cfg = workloads.campaigns("tail", 3, SCALE)[0]
    first = {}
    assert run.check_rep("tail", 3, SCALE, rep, first, strict=False) == {}
    assert len(first) == len(labels)
    # Later repetitions are held to repetition 0's hashes.
    assert run.check_rep("tail", 3, SCALE, rep, first, strict=False) == {}
    fails = run.check_rep("tail", 3, SCALE, rep, {run.config_key(cfg): "0" * 64}, strict=False)
    assert list(fails) == [label]
    # At a recorded seed, a config without a recorded hash is never skipped.
    assert list(run.check_rep("tail", 3, SCALE, rep, {}, strict=True)) == labels
    rep["campaigns"][0]["blocks"][0] -= 1
    fails = run.check_rep("tail", 3, SCALE, rep, {}, strict=False)
    assert list(fails) == [label]


def test_tracer_covers_traced_wall_time(traced):
    assert traced["metrics"]["trace.coverage_ratio"]["value"] >= run.MIN_COVERAGE
    assert traced["metrics"]["grand.searched_blocks"]["value"] > 0


def test_vanished_entry_point_fails_coverage():
    from aesfec import campaign

    # As if a refactor renamed run_batch: its self time falls to the root.
    tracer = Tracer()
    tracer.install([ep if ep[2] != "campaign.batch" else (ep[0], "_PointContext._gone", ep[2]) for ep in ENTRY_POINTS])
    try:
        for _, cfg in workloads.campaigns("tail", 3, SCALE):
            campaign.run_campaign(campaign.CampaignConfig(**cfg), workers=1)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["aesfec.campaign._PointContext._gone"]
    assert tracer.coverage() < run.MIN_COVERAGE


def test_tracer_reports_missing_entry_point():
    tracer = Tracer()
    tracer.install([("aesfec.campaign", "_no_such_engine", "grand.search")])
    assert tracer.missing == ["aesfec.campaign._no_such_engine"]
    tracer.uninstall()


def test_tracer_self_times_subtract_children():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(10000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    st = tracer.self_times()
    assert st["inner"][2] == 3 and st["outer"][2] == 1
    assert abs(st["outer"][0] + st["inner"][1] - st["outer"][1]) < 1e-9


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tail", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
