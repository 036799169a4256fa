"""Command-line interface: grid parsing, run outputs, data merging."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        ["", "8:0.5:6", "6:0:8", "6:-1:8", "7,6", "5,5", "abc", "nan", "1:inf:2"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid(bad)


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
    assert "--aes-key" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.parent.exists()


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
    ],
    ids=["missing", "text", "binary", "list", "no-config", "bad-config", "bad-point"],
)
def test_plot_data_rejects_bad_input_before_writing(tmp_path, capsys, campaign_json, content, reason):
    bad = tmp_path / "bad.json"
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
