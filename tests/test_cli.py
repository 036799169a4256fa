"""Command-line interface: grid parsing, run outputs, data merging."""

import argparse
import contextlib
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from aesfec.campaign import CampaignConfig
from aesfec.cli import build_parser, main, parse_grid


class TestParseGrid:
    def test_colon_range_inclusive(self):
        assert parse_grid("6:0.5:8") == (6.0, 6.5, 7.0, 7.5, 8.0)
        assert parse_grid("0:1:3") == (0.0, 1.0, 2.0, 3.0)

    def test_colon_range_float_step(self):
        # accumulated float error must not drop the stop value
        assert parse_grid("6:0.1:6.3") == (6.0, 6.1, 6.2, 6.3)

    def test_comma_list_and_single(self):
        assert parse_grid("6,7.5,8") == (6.0, 7.5, 8.0)
        assert parse_grid("7.25") == (7.25,)

    @pytest.mark.parametrize(
        "bad",
        ["", "1:2", "8:0.5:6", "6:0:8", "6:-1:8", "7,6", "5,5", "abc", "1:inf:2", "0:1:inf", "-inf:1:0", "0:1e-5:100",
         "0:1:1e300", "-1e308:1e-300:1e308", ",".join(map(str, range(1001)))],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid(bad)


    def test_largest_grid(self):
        assert len(parse_grid("0:0.01:9.99")) == 1000
        assert len(parse_grid(",".join(map(str, range(1000))))) == 1000


@pytest.mark.parametrize("grid", ["0:1:inf", "-inf:1:0", "0:1e-5:100", "0:1:1e300"])
def test_run_rejects_an_absurd_grid_at_once(grid):
    # These once died in an OverflowError traceback, built 10^7 points for
    # 10 s, or grew without end; the child's memory cap and timeout keep a
    # regression from taking the suite with it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
        "from aesfec.cli import main\n"
        "t0 = time.perf_counter()\n"
        "try:\n"
        f"    main(['run', '--ebn0={grid}', '--quiet'])\n"
        "except SystemExit as e:\n"
        "    print(e.code, time.perf_counter() - t0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    status, seconds = proc.stdout.split()
    assert status == "2" and float(seconds) < 1.0
    assert "argument --ebn0" in proc.stderr and "Traceback" not in proc.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "aesfec" in capsys.readouterr().out


def test_run_writes_json_and_csv(tmp_path, capsys):
    out = tmp_path / "res.json"
    rc = main(
        [
            "run",
            "--code", "aes",
            "--decoder", "grand",
            "--ebn0", "8.0",
            "--min-block-errors", "3",
            "--max-blocks", "5000",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert rc in (0, None)
    data = json.loads(out.read_text())
    assert data["config"]["code_kind"] == "aes"
    assert len(data["points"]) == 1
    csv_text = out.with_suffix(".csv").read_text()
    assert "ebn0_db" in csv_text
    table = capsys.readouterr().out
    assert "8.0" in table and "bler" in table.lower()


def test_run_creates_missing_output_directory(tmp_path):
    out = tmp_path / "results" / "nested" / "x.json"
    rc = main(
        [
            "run",
            "--code", "rlc",
            "--ebn0", "8.0",
            "--min-block-errors", "1",
            "--max-blocks", "256",
            "--out", str(out),
            "--quiet",
        ]
    )
    assert rc == 0
    assert json.loads(out.read_text())["config"]["code_kind"] == "rlc"
    assert out.with_suffix(".csv").exists()


def test_run_fails_before_campaign_on_unwritable_output(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "results"
    blocker.write_text("a file where the output directory should go")

    def no_campaign(*args, **kwargs):
        raise AssertionError("campaign started")

    monkeypatch.setattr("aesfec.cli.run_campaign", no_campaign)
    rc = main(["run", "--ebn0", "8.0", "--out", str(blocker / "x.json"), "--quiet"])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


def test_run_rejects_out_path_shared_with_csv(tmp_path, capsys, monkeypatch):
    def no_campaign(*args, **kwargs):
        raise AssertionError("campaign started")

    monkeypatch.setattr("aesfec.cli.run_campaign", no_campaign)
    out = tmp_path / "r.csv"
    rc = main(["run", "--ebn0", "8.0", "--out", str(out), "--quiet"])
    assert rc == 2
    assert "suffix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("taken", ["json", "csv"])
def test_run_rejects_output_that_is_a_directory(tmp_path, capsys, monkeypatch, taken):
    def no_campaign(*args, **kwargs):
        raise AssertionError("campaign started")

    monkeypatch.setattr("aesfec.cli.run_campaign", no_campaign)
    out = tmp_path / "x.json"
    out.with_suffix("." + taken).mkdir()
    rc = main(["run", "--ebn0", "8.0", "--out", str(out), "--quiet"])
    assert rc == 2
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["x." + taken]


def test_run_rejects_an_unusable_output_name_with_one_line(tmp_path, capsys):
    # A file name longer than the file system allows fails as early as the
    # platform's checks find it: one error line, no traceback, exit 2.
    out = tmp_path / ("x" * 300 + ".json")
    rc = main(["run", "--code", "rlc", "--ebn0", "8.0", "--min-block-errors", "1", "--max-blocks", "256",
               "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_run_rejects_key_with_spaces_before_output(tmp_path):
    # 32 characters, but bytes.fromhex would skip the spaces and give 15 bytes.
    out = tmp_path / "out" / "x.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "aesfec.cli", "run", "--ebn0", "8.0", "--out", str(out), "--quiet",
         "--aes-key", "00 0102030405060708090a0b0c0d0e "],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "AES-128 key" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.parent.exists()


@pytest.mark.parametrize("ebn0", ["3090", "-3240", "3080", "-3100", "nan", "inf", "-inf"])
def test_run_rejects_ebn0_without_a_sigma_before_output(tmp_path, ebn0):
    out = tmp_path / "out" / "x.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "aesfec.cli", "run", "--code", "rlc", f"--ebn0={ebn0}", "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: Eb/N0") and "Traceback" not in proc.stderr
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "workers,reason",
    [
        ("65", "workers must be >= 1 and <= 64, got 65"),
        ("0", "workers must be >= 1 and <= 64, got 0"),
    ],
)
def test_run_rejects_a_worker_count_outside_1_to_64_before_output(tmp_path, capsys, workers, reason):
    out = tmp_path / "out" / "x.json"
    assert main(["run", "--ebn0", "8.0", "--workers", workers, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"
    assert not out.parent.exists()


def test_run_rejects_a_worker_count_that_is_not_an_integer(tmp_path, capsys):
    out = tmp_path / "out" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--ebn0", "8.0", "--workers", "two", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --workers: invalid int value: 'two'" in capsys.readouterr().err
    assert not out.parent.exists()


def test_run_rejects_max_blocks_past_int64_before_output(tmp_path, capsys):
    # The forked workers share each point's batch count as an int64, which
    # would wrap a larger count into a short, wrong campaign.
    out = tmp_path / "out" / "x.json"
    assert main(["run", "--ebn0", "8.0", "--max-blocks", str(2**63), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_blocks must be >= 1 and <= {2**63 - 1}, got {2**63}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_ctrl_c_ends_a_run_with_one_line(tmp_path, workers):
    # Ctrl-C sends SIGINT to the whole foreground process group, forked
    # workers included; the run is interrupted in its long 12 dB point.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "aesfec.cli", "run", "--code", "rlc", "--ebn0", "4,12", "--min-block-errors", "5",
            "--max-blocks", "100000000", "--workers", workers]
    # A child inherits an ignored SIGINT (a shell's `cmd &` ignores it), and
    # Python then leaves it ignored; a terminal's child starts with the default.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
    finally:
        signal.signal(signal.SIGINT, previous)
    with proc:
        try:
            for line in proc.stdout:
                if " dB: " in line:  # point 0's progress line
                    break
            # By now the forked workers wait in send on full pipes, where a
            # SIGINT they did not ignore would raise at once.
            time.sleep(1)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (130, "error: interrupted\n")
            deadline = time.monotonic() + 5
            with pytest.raises(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(proc.pid, 0)
                    time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


def test_run_rejects_a_bad_key_for_the_rlc_code_too(tmp_path):
    out = tmp_path / "out" / "x.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "aesfec.cli", "run", "--code", "rlc", "--aes-key", "zz", "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "AES-128 key" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.parent.exists()


def test_run_flags_are_the_campaign_config_fields():
    parser = build_parser()
    run = parser._subparsers._group_actions[0].choices["run"]
    flags = [action.dest for action in run._actions if action.option_strings]
    default = CampaignConfig()
    assert all(flags.count(name) == 1 for name in dataclasses.asdict(default))
    args = parser.parse_args(["run"])
    assert {name: getattr(args, name) for name in dataclasses.asdict(default)} == dataclasses.asdict(default)
    assert CampaignConfig(**{name: getattr(args, name) for name in dataclasses.asdict(default)}) == default


def test_run_rejects_bad_combo(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--code", "aes",
            "--n", "64",
            "--k", "52",
            "--ebn0", "8.0",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 2
    assert "128" in capsys.readouterr().err


def test_plot_data_merges_runs(tmp_path):
    paths = []
    for kind, decoder in (("aes", "grand"), ("rlc", "grand")):
        out = tmp_path / f"{kind}-{decoder}.json"
        main(
            [
                "run",
                "--code", kind,
                "--decoder", decoder,
                "--ebn0", "8.0",
                "--min-block-errors", "2",
                "--max-blocks", "3000",
                "--seed", "7",
                "--out", str(out),
                "--quiet",
            ]
        )
        paths.append(str(out))
    merged = tmp_path / "merged.csv"
    rc = main(["plot-data", *paths, "--out", str(merged)])
    assert rc in (0, None)
    lines = [l for l in merged.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert {"code", "decoder", "ebn0_db", "bler"} <= set(header)
    assert len(lines) == 3
    kinds = {row.split(",")[header.index("code")] for row in lines[1:]}
    assert kinds == {"aes", "rlc"}


@pytest.fixture(scope="module")
def campaign_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("plot") / "aes-grand.json"
    argv = ["run", "--ebn0", "8", "--min-block-errors", "1", "--max-blocks", "256", "--out", str(path), "--quiet"]
    assert main(argv) == 0
    return path


def test_run_csv_is_the_plot_data_csv(tmp_path, campaign_json):
    merged = tmp_path / "merged.csv"
    assert main(["plot-data", str(campaign_json), "--out", str(merged)]) == 0
    assert campaign_json.with_suffix(".csv").read_text() == merged.read_text()


def _twice_timed(text):
    """A one-point result whose meta times that point twice."""
    doc = json.loads(text)
    doc["meta"]["points"] *= 2
    return json.dumps(doc)


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        ("points: 1\n", "not a JSON file"),
        (b"\xff\xfe\x00", "not a JSON file"),
        ("[1, 2]", "not a campaign result"),
        ('{"points": []}', "not a campaign result (KeyError: 'config')"),
        ('{"config": {"code_kind": "hamming"}, "points": []}', "not a campaign result (ValueError: code_kind"),
        ('{"config": {}, "points": [{"blocks": 1}]}', "not a campaign result (TypeError"),
        ('{"config": {}, "points": []}', "not a campaign result (ValueError: points at [] dB do not match the grid"),
        (_twice_timed, "not a campaign result (ValueError: meta holds times for 2 of 1 points"),
    ],
    ids=["missing", "text", "binary", "list", "no-config", "bad-config", "bad-point", "no-points", "meta-times"],
)
def test_plot_data_rejects_bad_input_before_writing(tmp_path, capsys, campaign_json, content, reason):
    bad = tmp_path / "bad.json"
    if callable(content):
        content = content(campaign_json.read_text())
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    out = tmp_path / "merged.csv"
    # The good input comes first: nothing may be written before the bad one is read.
    assert main(["plot-data", str(campaign_json), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and reason in err
    assert not out.exists()


def test_plot_data_rejects_missing_output_directory(tmp_path, capsys, campaign_json):
    out = tmp_path / "no" / "such" / "merged.csv"
    assert main(["plot-data", str(campaign_json), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
    assert not out.parent.exists()
